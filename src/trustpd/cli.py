"""Command-line front end: equilibrium curves, regime comparisons, ex-ante
probability grids, and simulation reports as CSV/JSON artifacts.

Every command returns the paths it wrote. One runner, `_run`, calls the
command and writes a `<output>.manifest.json` next to the first of those
paths, recording the command, the full parameter set, grid sizes,
tolerances, the library version and the paths; re-running the same
invocation reproduces every output byte for byte. Exit codes: 0 success,
2 parameter validation, 3 solver convergence, 4 I/O.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    diversity_region,
    ex_ante_p_common,
    ex_ante_p_diverse,
    pi_dagger_sensitivity,
    solve_pi_dagger,
)
from .common_eq import closed_form_common_uniform, solve_common_equilibria
from .core import (
    ConvergenceError,
    DEFAULT_GRID_SIZE,
    InvariantViolation,
    ParameterError,
    RegimeError,
    uniform_belief,
    uniform_loss,
    validate_params,
)
from .diverse_eq import closed_form_diverse_uniform, solve_alpha_beta, solve_diverse_threshold
from .extensions import (
    asymmetric_sensitivity,
    solve_asymmetric,
    solve_group_common,
    solve_group_diverse,
)
from .montecarlo import EQUILIBRIA, SimConfig, simulate


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form, also for np.float64
    return str(value)


def _cells(rows):
    """Rows of values as rows of CSV cells, each value through `_fmt`."""
    return ([_fmt(v) for v in row] for row in rows)


# Rows that `_write_csv` joins into one write: a batch of the ex-ante
# region's rows is about 5 KB of text. 256-row batches wrote no faster in
# `reproduce-all` and raised its peak memory.
CSV_BATCH = 64


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write header and rows of already formatted cells as CRLF-ended lines.

    The lines go out in batches of CSV_BATCH rows, each joined into one
    string and written once. One write per row took about 1.6 times as
    long, and a join of the whole table would hold all its lines and text
    at once: writing the 9647-row, 742 KB ex-ante region peaks at 29 KB of
    traced memory in batches and at 2.0 MB in one join. A row is consumed
    as its line is joined, so no batch of rows is held. Every cell the CLI
    makes (a float repr, an int, an empty string, a regime label) is free
    of commas, quotes and line breaks, and every table has two or more
    columns, so these are the bytes csv.writer writes, without its per-cell
    quoting pass; every line holds a comma, so only the end of the rows
    joins to an empty batch."""
    lines = chain([header], rows)
    with open(path, "w", newline="") as fh:
        while text := "\r\n".join(map(",".join, islice(lines, CSV_BATCH))):
            fh.write(text + "\r\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(args: argparse.Namespace, outputs: list[Path]) -> None:
    params = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")
    }
    manifest = {
        "command": args.command,
        "parameters": params,
        "seed": params.get("seed"),
        "grid_sizes": {k: v for k, v in params.items() if "grid" in k or k in ("cells", "n_samples")},
        "tolerances": {k: v for k, v in params.items() if "tol" in k},
        "version": __version__,
        "outputs": [str(p) for p in outputs],
    }
    _write_json(Path(str(outputs[0]) + ".manifest.json"), manifest)


def _run(args: argparse.Namespace) -> None:
    """Run a parsed command, then write its manifest from the paths it returns."""
    _write_manifest(args, args.func(args))


def _summary_path(out: Path) -> Path:
    return out.with_name(out.stem + ".summary.json")


def cmd_common(args) -> list[Path]:
    params = validate_params(args.b, args.m)
    dist = uniform_loss(args.ell_bar)
    if args.pi is not None:
        beliefs = [args.pi]
    else:
        beliefs = np.linspace(0.0, args.pi_max, args.pi_grid, endpoint=False)
    rows = []
    for pi in beliefs:
        eqs = solve_common_equilibria(float(pi), params, dist, tol=args.tol)
        rows.append([float(pi), eqs.regime, eqs.ell_low, eqs.ell_high, eqs.ell_corner])
    out = Path(args.out)
    _write_csv(out, ["pi", "regime", "ell_low", "ell_high", "ell_corner"], _cells(rows))
    return [out]


def cmd_diverse(args) -> list[Path]:
    params = validate_params(args.b, args.m)
    F, G = uniform_loss(1.0), uniform_belief()
    sol = solve_diverse_threshold(
        params, F, G, tol=args.tol, max_iter=args.max_iter, n_knots=args.grid_n
    )
    ab = solve_alpha_beta(params, mode="exact" if args.alpha_beta == "exact" else "approximate")
    out = Path(args.out)
    rows = zip(map(repr, sol.threshold.knots.tolist()), map(repr, sol.threshold.values.tolist()))
    _write_csv(out, ["ell", "pi_star_d"], rows)
    summary = {
        "alpha": ab.alpha,
        "beta": ab.beta,
        "alpha_beta_mode": ab.mode,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "contraction_gamma": sol.contraction_gamma,
        "p_coop": sol.coop_prob,
    }
    _write_json(_summary_path(out), summary)
    return [out, _summary_path(out)]


def cmd_compare(args) -> list[Path]:
    params = validate_params(args.b, args.m)
    ab = solve_alpha_beta(params, mode="exact" if args.alpha_beta == "exact" else "approximate")
    pi_dagger = solve_pi_dagger(params, ab, tol=args.tol)
    grid = np.minimum(np.linspace(0.0, params.pi_low, args.grid, endpoint=True), 1.0 - 1e-12)
    lc = closed_form_common_uniform(grid, params)
    ld = closed_form_diverse_uniform(grid, params, ab)
    rows = zip(*(map(repr, col.tolist()) for col in (grid, lc, ld, lc - ld)))
    out = Path(args.out)
    _write_csv(out, ["pi", "ell_star_c", "ell_star_d", "diff"], rows)
    _write_json(
        _summary_path(out),
        {"pi_dagger": pi_dagger, "alpha": ab.alpha, "beta": ab.beta,
         "alpha_beta_mode": ab.mode},
    )
    return [out, _summary_path(out)]


def cmd_exante(args) -> list[Path]:
    out = Path(args.out)
    if args.b_range is not None or args.m_range is not None:
        if args.b_range is None or args.m_range is None:
            raise ParameterError("range mode needs both --b-range and --m-range")
        b_grid = np.linspace(args.b_range[0], args.b_range[1], args.cells)
        m_grid = np.linspace(args.m_range[0], args.m_range[1], args.cells)
        region = diversity_region(b_grid, m_grid)
        # valid cells by column: each grid value formatted once
        i, j = np.nonzero(region.valid)
        b_cells = list(map(repr, region.b_grid.tolist()))
        m_cells = list(map(repr, region.m_grid.tolist()))
        rows = zip(map(b_cells.__getitem__, i.tolist()), map(m_cells.__getitem__, j.tolist()),
                   map(repr, region.p_common[i, j].tolist()),
                   map(repr, region.p_diverse[i, j].tolist()),
                   map(("0", "1").__getitem__, region.diverse_wins[i, j].tolist()))
        _write_csv(out, ["b", "m", "p_c", "p_d", "diverse_wins"], rows)
    else:
        missing = [flag for flag, v in (("--b", args.b), ("--m", args.m)) if v is None]
        if missing:
            raise ParameterError(f"single-pair mode needs {' and '.join(missing)}"
                                 " (or --b-range and --m-range for range mode)")
        params = validate_params(args.b, args.m)
        rows = [[args.b, args.m,
                 ex_ante_p_common(params, "closed_form"),
                 ex_ante_p_common(params, "quadrature"),
                 ex_ante_p_diverse(params, method="closed_form"),
                 ex_ante_p_diverse(params, method="quadrature")]]
        _write_csv(out, ["b", "m", "p_c_closed", "p_c_quadrature",
                         "p_d_closed", "p_d_quadrature"], _cells(rows))
    return [out]


def _asymmetric_row(pi1, pi2, params, dist):
    sol = solve_asymmetric(pi1, pi2, params, dist)
    try:
        deriv = asymmetric_sensitivity(pi1, pi2, params, dist)
    except (RegimeError, ParameterError):
        deriv = None
    return [pi1, pi2, sol.ell1_hat, sol.ell2_hat, deriv]


def cmd_asymmetric(args) -> list[Path]:
    params = validate_params(args.b, args.m)
    dist = uniform_loss(args.ell_bar)
    if args.sweep_pi2 is not None:
        lo, hi, count = args.sweep_pi2
        try:
            pi2s = np.linspace(float(lo), float(hi), grid_size(count))
        except ValueError as exc:
            raise ParameterError(f"--sweep-pi2 takes LO HI N: {exc}") from None
    else:
        pi2s = [args.pi2]
    rows = [_asymmetric_row(args.pi1, float(p2), params, dist) for p2 in pi2s]
    out = Path(args.out)
    _write_csv(out, ["pi1", "pi2", "ell1_hat", "ell2_hat", "d_ell1_d_pi2"], _cells(rows))
    return [out]


def cmd_group(args) -> list[Path]:
    params = validate_params(args.b, args.m)
    F, G = uniform_loss(1.0), uniform_belief()
    variant = args.variant.replace("-", "_")
    diverse_curve = solve_group_diverse(args.n, params, F, G, variant=variant)
    beliefs = np.linspace(0.0, 1.0, args.pi_grid, endpoint=False)
    rows = []
    for pi, ell_diverse in zip(beliefs, diverse_curve(beliefs)):
        common = solve_group_common(args.n, float(pi), params, F, variant=variant)
        rows.append([args.n, float(pi), common.value, float(ell_diverse)])
    out = Path(args.out)
    _write_csv(out, ["n", "pi", "ell_n_common", "ell_n_diverse"], _cells(rows))
    return [out]


def cmd_simulate(args) -> list[Path]:
    params = validate_params(args.b, args.m)
    F, G = uniform_loss(args.ell_bar), uniform_belief()
    config = SimConfig(
        n_samples=args.n_samples,
        seed=args.seed,
        scenario=args.scenario,
        pi=args.pi,
        pi1=args.pi1,
        pi2=args.pi2,
        equilibrium=args.equilibrium,
    )
    report = simulate(config, params, F, G)
    out = Path(args.out)
    _write_json(out, report.to_dict())
    return [out]


def cmd_reproduce_all(args) -> list[Path]:
    """Regenerate the data behind every illustration in one sweep."""
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    specs = [
        ["common", "--b", "3", "--m", "50", "--ell-bar", "8",
         "--pi-grid", "240", "--pi-max", "0.12",
         "--out", str(outdir / "regimes_shared_belief.csv")],
        ["diverse", "--b", "2", "--m", "8",
         "--out", str(outdir / "cutoff_dispersed_belief.csv")],
        ["compare", "--b", "2", "--m", "8",
         "--out", str(outdir / "threshold_comparison.csv")],
        ["exante", "--b", "2", "--m", "8",
         "--out", str(outdir / "exante_single_pair.csv")],
        ["exante", "--b-range", "2", "6", "--m-range", "1.2", "60", "--cells", "100",
         "--out", str(outdir / "exante_region.csv")],
        ["asymmetric", "--b", "3", "--m", "50", "--ell-bar", "8",
         "--pi1", "0.03", "--sweep-pi2", "0.05", "0.1", "11",
         "--out", str(outdir / "asymmetric_sweep.csv")],
        ["group", "--n", "2", "--b", "2", "--m", "8",
         "--out", str(outdir / "group_thresholds.csv")],
        ["simulate", "--scenario", "common", "--pi", "0.03",
         "--b", "3", "--m", "50", "--ell-bar", "8",
         "--n-samples", "100000", "--seed", "20240817",
         "--out", str(outdir / "simulation_common.json")],
    ]
    for spec in specs:
        sub = build_parser().parse_args(spec)
        try:
            _run(sub)
        except (ParameterError, RegimeError, ConvergenceError, InvariantViolation, OSError) as exc:
            raise type(exc)(f"{sub.command}: {exc}") from exc  # same type, same exit code

    # crossing-belief sensitivity sweeps (no dedicated sub-command)
    outputs = []
    for name, pairs in (("b", [(b, 20.0) for b in np.linspace(2.2, 5.0, 15).tolist()]),
                        ("m", [(3.0, m) for m in np.linspace(5.0, 60.0, 15).tolist()])):
        games = [validate_params(b, m) for b, m in pairs]
        rows = [[g.b, g.m, solve_pi_dagger(g, solve_alpha_beta(g, mode="approximate"))]
                for g in games]
        outputs.append(outdir / f"crossing_belief_vs_{name}.csv")
        _write_csv(outputs[-1], ["b", "m", "pi_dagger"], _cells(rows))

    sens = pi_dagger_sensitivity(validate_params(3.0, 20.0))
    outputs.append(outdir / "crossing_belief_sensitivity.json")
    _write_json(outputs[-1], {"b": 3.0, "m": 20.0,
                              "d_pi_dagger_db": sens[0], "d_pi_dagger_dm": sens[1]})
    return outputs


def grid_size(text: str) -> int:
    """A grid size from the command line: an integer of at least 1. As an
    argparse type, its ValueError is a usage error (exit code 2)."""
    n = int(text)
    if n < 1:
        raise ParameterError(f"grid size must be at least 1, got {n}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="trustpd",
        description="Threshold equilibria for a prisoner's dilemma with "
        "possibly-honest partners under shared or dispersed trust beliefs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several commands, declared once as parent parsers; a
    # parent's actions are shared, so no command may set_defaults their dests.
    # Every command but reproduce-all takes --out.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--b", type=float, required=True)
    pair.add_argument("--m", type=float, required=True)
    game = argparse.ArgumentParser(add_help=False)
    game.add_argument("--b", type=float, default=3.0)
    game.add_argument("--m", type=float, default=50.0)
    game.add_argument("--ell-bar", type=float, default=8.0)

    def add(name, func, help_, *parents):
        p = sub.add_parser(name, help=help_, parents=[*parents, out])
        p.set_defaults(func=func)
        return p

    p = add("common", cmd_common, "equilibrium thresholds under a shared belief", game)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pi", type=float)
    group.add_argument("--pi-grid", type=grid_size)
    p.add_argument("--pi-max", type=float, default=1.0, help="upper end of the belief grid")
    p.add_argument("--tol", type=float, default=1e-10)

    p = add("diverse", cmd_diverse, "belief cutoff under dispersed beliefs (uniform case)", pair)
    p.add_argument("--grid-n", type=grid_size, default=DEFAULT_GRID_SIZE)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--alpha-beta", choices=("exact", "approx"), default="exact")

    p = add("compare", cmd_compare, "shared vs dispersed thresholds and the crossing belief", pair)
    p.add_argument("--alpha-beta", choices=("exact", "approx"), default="approx")
    p.add_argument("--grid", type=grid_size, default=500)
    p.add_argument("--tol", type=float, default=1e-10)

    p = add("exante", cmd_exante, "ex-ante cooperation probabilities (single pair or region grid)")
    p.add_argument("--b", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--b-range", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--m-range", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--cells", type=grid_size, default=100)

    p = add("asymmetric", cmd_asymmetric, "equilibrium under asymmetric known beliefs", game)
    p.add_argument("--pi1", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pi2", type=float)
    group.add_argument("--sweep-pi2", nargs=3, metavar=("LO", "HI", "N"))

    p = add("group", cmd_group, "group-game thresholds against n possibly-honest others", pair)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=("consistent", "as-printed"), default="consistent")
    p.add_argument("--pi-grid", type=grid_size, default=101)

    p = add("simulate", cmd_simulate, "Monte Carlo validation of a scenario", pair)
    p.add_argument("--scenario", choices=("common", "diverse", "asymmetric"), required=True)
    p.add_argument("--n-samples", type=int, default=1000000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ell-bar", type=float, default=1.0)
    p.add_argument("--pi", type=float)
    p.add_argument("--pi1", type=float)
    p.add_argument("--pi2", type=float)
    p.add_argument("--equilibrium", choices=EQUILIBRIA, default="lowest")

    p = sub.add_parser("reproduce-all", help="regenerate every illustration's data")
    p.set_defaults(func=cmd_reproduce_all)
    p.add_argument("--outdir", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run(args)
    except (ParameterError, RegimeError) as exc:
        print(f"trustpd: parameter error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, InvariantViolation) as exc:
        print(f"trustpd: solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"trustpd: I/O error: {exc}", file=sys.stderr)
        return 4
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
