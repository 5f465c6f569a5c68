"""Seeded workloads for the trustpd benchmark: input generators, ops and oracles.

A workload is an endless sequence of rounds. Round ``r`` is drawn from its own
``random.Random`` keyed by (workload, seed, r), so the same seed always gives
the same ops in the same order, however many rounds a run gets through. Every
round of a workload has the same mix of op kinds, so a run that stops after any
whole round sees the same mix.

An op is one call into the public API (or one CLI pass). Its ``check`` is the
oracle: it returns None when the result is right and a one-line reason when it
is not. Oracles call the library only while tracing is off, and their time is
never counted as op time.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import lzma
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference" / "reproduce_all.json.xz"

# Oracle tolerances. "criterion n" is the acceptance test that uses the same
# one in tests/test_acceptance.py.
SOLVE_TOL = 1e-10          # residual |psi(l) - l| the shared solver is asked for
CLOSED_FORM_TOL = 1e-8     # criterion 2: closed form vs fixed-point solver
TANGENCY_TOL = 1e-6        # criterion 1: |psi(l', pi') - l'| at the tangency
BR_TOL = 1e-10             # asymmetric solve is asked for 1e-12 on the composed map
T_IMAGE_TOL = 1e-10        # criterion 3: final residual of the contraction
MC_HALF_WIDTHS = 3.0       # criterion 9: Monte Carlo rate within 3 half-widths
DEVIATION_TOL = 1e-6       # criterion 8: no profitable deviation
GROUP_TOL = 1e-6           # criterion 10: group thresholds to 1e-6

# reproduce_all compares every number it writes with the seed-commit value:
# |out - ref| <= atol + rtol * |ref|. Finite-difference sensitivities (columns
# and keys named d_*) divide a solver's residual-level error by a 1e-5 step,
# so they get a looser relative tolerance.
REF_ATOL, REF_RTOL = 1e-9, 1e-6
REF_FD_RTOL = 1e-3

REGIMES = ("unique-interior", "triple", "unique-corner")
BAND_EDGES = (("pi_low", -1), ("pi_low", 1), ("pi_prime", -1), ("pi_prime", 1))


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    inputs: dict
    band: str | None = None
    # what the runner compares between untraced and traced passes
    digest: Callable[[Any], str] = repr
    # extra counters the op reports to the runner (cli bytes, identical files)
    counters: dict = field(default_factory=dict)
    # run untimed just before the call
    prepare: Callable[[], None] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable  # (tp, rng, round_index) -> list[Op]
    trace_rounds: int     # rounds in the fixed op list of a traced run


def rounds(workload: Workload, tp, seed: int, start: int = 0):
    """Yield the workload's rounds from ``start`` on, each a list of ops."""
    r = start
    while True:
        rng = random.Random(f"{workload.name}:{seed}:{r}")
        yield workload.make_round(tp, rng, r)
        r += 1


# ---------------------------------------------------------------- shared beliefs

def uniform_criticals(b: float, m: float, ell_bar: float) -> tuple[float, float, float]:
    """(pi_low, ell_prime, pi_prime) for losses uniform on [0, ell_bar].

    The tangency l - 1/h(l) = b - 1 with h(l) = 1/(ell_bar - l) gives
    l' = (ell_bar + b - 1)/2; pi' follows from psi(l'; pi') = l'.
    """
    ell_p = 0.5 * (ell_bar + b - 1.0)
    big_f = ell_p / ell_bar
    k = ell_p * (1.0 - big_f) + (b - 1.0) * big_f
    return (b - 1.0) / m, ell_p, k / (1.0 + m - b + k)


def _draw_general(rng):
    """(b, m, ell_bar) with ell_bar > b - 1, so every shared regime exists."""
    b = rng.uniform(1.5, 4.0)
    m = rng.uniform(max(8.0, 2.0 * b), 80.0)
    ell_bar = (b - 1.0) + rng.uniform(1.0, 10.0)
    return b, m, ell_bar


def _belief_in_regime(rng, regime, pi_low, pi_prime):
    """A belief inside one regime, kept 2% of the regime's width off its edges."""
    u = rng.uniform(0.02, 0.98)
    if regime == "unique-interior":
        return u * pi_low
    if regime == "triple":
        return pi_low + u * (pi_prime - pi_low)
    return pi_prime + u * min(0.3, 1.0 - pi_prime)


def _expected_regime(pi, pi_low, pi_prime):
    if pi < pi_low:
        return "unique-interior"
    return "triple" if pi < pi_prime else "unique-corner"


def _common_op(tp, b, m, ell_bar, pi, band=None):
    params, dist = tp.validate_params(b, m), tp.uniform_loss(ell_bar)
    inputs = {"b": b, "m": m, "ell_bar": ell_bar, "pi": pi}

    def check(eqs):
        crit = tp.critical_pair(params, dist)
        want = _expected_regime(pi, crit.pi_low, crit.pi_prime)
        if eqs.regime != want:
            return f"regime {eqs.regime}, critical_pair says {want}"
        n_interior = {"unique-interior": 1, "triple": 2, "unique-corner": 0}[want]
        if len(eqs.interior()) != n_interior:
            return f"{len(eqs.interior())} interior roots under {want}"
        for root in eqs.interior():
            resid = abs(tp.psi(root, pi, params, dist) - root)
            if resid > SOLVE_TOL:
                return f"|psi(l) - l| = {resid:.3e} at l = {root!r}"
        return None

    return Op("solve_common_equilibria", lambda: tp.solve_common_equilibria(pi, params, dist),
              check, inputs, band)


def _closed_form_op(tp, rng):
    """Uniform losses on [0, 1] with b >= 2: unique equilibrium, closed form."""
    b = rng.uniform(2.0, 4.0)
    m = rng.uniform(2.0 * b, 60.0)
    params, dist = tp.validate_params(b, m), tp.uniform_loss(1.0)
    pi = rng.uniform(0.0, 1.5 * params.pi_low)
    inputs = {"b": b, "m": m, "ell_bar": 1.0, "pi": pi}

    def check(eqs):
        want = "unique-interior" if pi < params.pi_low else "unique-corner"
        if eqs.regime != want:
            return f"regime {eqs.regime}, closed form says {want}"
        root = eqs.lowest if want == "unique-interior" else eqs.ell_corner
        err = abs(tp.closed_form_common_uniform(pi, params) - root)
        if err > CLOSED_FORM_TOL:
            return f"closed-form gap {err:.3e}"
        return None

    return Op("solve_common_equilibria", lambda: tp.solve_common_equilibria(pi, params, dist),
              check, inputs)


def _critical_op(tp, rng):
    b, m, ell_bar = _draw_general(rng)
    params, dist = tp.validate_params(b, m), tp.uniform_loss(ell_bar)
    pi_low, ell_p, pi_p = uniform_criticals(b, m, ell_bar)

    def check(crit):
        if abs(crit.pi_low - pi_low) > 1e-15:
            return f"pi_low {crit.pi_low!r} != (b-1)/m"
        if abs(crit.ell_prime - ell_p) > 1e-9 * max(1.0, ell_bar):
            return f"ell_prime {crit.ell_prime!r}, closed form {ell_p!r}"
        if abs(crit.pi_prime - pi_p) > 1e-9:
            return f"pi_prime {crit.pi_prime!r}, closed form {pi_p!r}"
        tangency = abs(tp.psi(crit.ell_prime, crit.pi_prime, params, dist) - crit.ell_prime)
        if tangency > TANGENCY_TOL:
            return f"|psi(l', pi') - l'| = {tangency:.3e}"
        return None

    return Op("critical_pair", lambda: tp.critical_pair(params, dist), check,
              {"b": b, "m": m, "ell_bar": ell_bar})


def _asymmetric_op(tp, rng):
    b, m, ell_bar = _draw_general(rng)
    params, dist = tp.validate_params(b, m), tp.uniform_loss(ell_bar)
    pi_low, _, pi_p = uniform_criticals(b, m, ell_bar)
    pi1 = pi_low * rng.uniform(0.05, 0.95)
    pi2 = pi_low + (pi_p - pi_low) * rng.uniform(0.05, 1.5)

    def check(sol):
        r1 = abs(tp.best_response_threshold(pi1, sol.ell2_hat, params, dist) - sol.ell1_hat)
        r2 = abs(tp.best_response_threshold(pi2, sol.ell1_hat, params, dist) - sol.ell2_hat)
        if max(r1, r2) > BR_TOL:
            return f"best-response residuals {r1:.3e}, {r2:.3e}"
        return None

    return Op("solve_asymmetric", lambda: tp.solve_asymmetric(pi1, pi2, params, dist), check,
              {"b": b, "m": m, "ell_bar": ell_bar, "pi1": pi1, "pi2": pi2})


def shared_round(tp, rng, r):
    """Ten ops: seven regime-interior solves, one closed-form solve, one
    critical_pair and one asymmetric solve."""
    ops = []
    for j in range(7):
        b, m, ell_bar = _draw_general(rng)
        pi_low, _, pi_p = uniform_criticals(b, m, ell_bar)
        pi = _belief_in_regime(rng, REGIMES[(7 * r + j) % 3], pi_low, pi_p)
        ops.append(_common_op(tp, b, m, ell_bar, pi))
    ops += [_closed_form_op(tp, rng), _critical_op(tp, rng), _asymmetric_op(tp, rng)]
    return ops


def band_round(tp, rng, r):
    """Eight shared solves in the boundary band, two on each side of
    (b-1)/m and of pi', at offsets log-uniform in [1e-12, 1e-3]."""
    ops = []
    for j in range(8):
        edge, side = BAND_EDGES[j % 4]
        b, m, ell_bar = _draw_general(rng)
        pi_low, _, pi_p = uniform_criticals(b, m, ell_bar)
        offset = 10.0 ** rng.uniform(-12.0, -3.0)
        pi = (pi_low if edge == "pi_low" else pi_p) + side * offset
        band = f"{edge}{'+' if side > 0 else '-'}{offset:.1e}"
        ops.append(_common_op(tp, b, m, ell_bar, pi, band))
    return ops


# ------------------------------------------------------------- dispersed beliefs

def _draw_dispersed(rng):
    b = rng.uniform(1.5, 4.0)
    return b, rng.uniform(b + 3.0, 40.0)


def _curve_digest(curve) -> str:
    return hashlib.sha256(curve.knots.tobytes() + curve.values.tobytes()).hexdigest()


def _diverse_op(tp, rng):
    b, m = _draw_dispersed(rng)
    params = tp.validate_params(b, m)
    F, G = tp.uniform_loss(1.0), tp.uniform_belief()

    def check(sol):
        s = sol.threshold
        resid = float(np.max(np.abs(tp.apply_T(s, params, F, G).values - s.values)))
        if resid > T_IMAGE_TOL:
            return f"max |T(s) - s| = {resid:.3e}"
        if not np.all(np.diff(s.values) > 0.0):
            return "cutoff curve not strictly increasing"
        return None

    def digest(sol):
        return f"{sol.iterations}:{sol.residual!r}:{sol.coop_prob!r}:{_curve_digest(sol.threshold)}"

    return Op("solve_diverse_threshold", lambda: tp.solve_diverse_threshold(params, F, G),
              check, {"b": b, "m": m}, digest=digest)


def _trapezoid(y, x) -> float:
    return float(np.sum((y[1:] + y[:-1]) * np.diff(x)) * 0.5)


def group_thresholds(variant, n, b, m, q, pis):
    """Thresholds of the group game on uniform losses over [0, 1] when each
    strategic other cooperates with probability q, from the model equations.

    With S = (pi + (1-pi) q)^n the chance that all n others cooperate, the
    cooperate-minus-defect payoff is (1 + t - b) S - t + m pi^n (consistent)
    or (1 - t) S - t - b + m pi^n (as printed). Both fall in t, so the
    threshold is their root clipped to [0, 1].
    """
    s = (pis + (1.0 - pis) * q) ** n
    moral = m * pis ** n
    if variant == "consistent":
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((1.0 - b) * s + moral) / (1.0 - s)
        t = np.where(s < 1.0, t, np.where(1.0 - b + moral > 0.0, 1.0, 0.0))
    else:
        t = (s - b + moral) / (s + 1.0)
    return np.clip(t, 0.0, 1.0)


# (b, m) centres of the group solves. A group solve's cost varies twofold over
# the (b, m) range and a run holds only a few dozen of them, so free draws would
# make ops_per_s depend on the seed; near fixed centres every run meets the
# same costs.
GROUP_CENTRES = ((1.5, 6.0), (2.0, 8.0), (3.0, 20.0), (4.0, 40.0))
# The group oracle's own quadrature grid over beliefs.
GROUP_GRID = np.linspace(0.0, 1.0, 100_001)


def _group_op(tp, rng, n, variant, centre):
    b, m = (c * rng.uniform(0.95, 1.05) for c in centre)
    params = tp.validate_params(b, m)
    F, G = tp.uniform_loss(1.0), tp.uniform_belief()

    def excess(q):
        # q = integral of F(t(pi)) dG(pi) = integral of t(pi) dpi here
        return _trapezoid(group_thresholds(variant, n, b, m, q, GROUP_GRID), GROUP_GRID) - q

    def check(curve):
        # Start from the q the returned curve implies, then solve excess(q) = 0
        # on a narrow bracket around it with the oracle's own quadrature.
        q0 = _trapezoid(curve.values, curve.knots)
        lo, hi = max(q0 - 1e-3, 0.0), min(q0 + 1e-3, 1.0)
        f_lo, f_hi = excess(lo), excess(hi)
        if f_lo * f_hi > 0.0:
            return f"no fixed point of q within 1e-3 of the curve's q = {q0!r}"
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            f_mid = excess(mid)
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        want = group_thresholds(variant, n, b, m, 0.5 * (lo + hi), curve.knots)
        err = float(np.max(np.abs(want - curve.values)))
        if err > GROUP_TOL:
            return f"thresholds off the oracle's by {err:.3e}"
        return None

    return Op("solve_group_diverse",
              lambda: tp.solve_group_diverse(n, params, F, G, variant=variant),
              check, {"n": n, "variant": variant, "b": b, "m": m}, digest=_curve_digest)


def _simulate_op(tp, rng):
    b, m = _draw_dispersed(rng)
    params = tp.validate_params(b, m)
    F, G = tp.uniform_loss(1.0), tp.uniform_belief()
    sim_seed = rng.randrange(2 ** 32)
    config = tp.SimConfig(n_samples=10 ** 6, seed=sim_seed, scenario="diverse")

    def check(rep):
        gap = abs(rep.coop_rate_strategic - rep.analytic_prediction)
        if gap > MC_HALF_WIDTHS * rep.half_width_95:
            return f"rate gap {gap:.3e} > {MC_HALF_WIDTHS} half-widths ({rep.half_width_95:.3e})"
        if rep.max_deviation_gain > DEVIATION_TOL:
            return f"deviation gain {rep.max_deviation_gain:.3e}"
        return None

    return Op("simulate", lambda: tp.simulate(config, params, F, G), check,
              {"b": b, "m": m, "seed": sim_seed, "n_samples": config.n_samples},
              digest=lambda rep: repr(rep.to_dict()))


def dispersed_round(tp, rng, r):
    """All sixteen group games (n = 1..8, both variants) with 25 diverse solves
    before each, and a diverse-scenario simulation after every fourth. Games
    n = k and 9 - k share the k-th (b, m) centre, each drawn within 5% of it,
    so every round costs about the same."""
    ops = []
    for k, centre in enumerate(GROUP_CENTRES, start=1):
        for n, variant in ((k, "consistent"), (9 - k, "consistent"),
                           (k, "as_printed"), (9 - k, "as_printed")):
            ops += [_diverse_op(tp, rng) for _ in range(25)]
            ops.append(_group_op(tp, rng, n, variant, centre))
        ops.append(_simulate_op(tp, rng))
    return ops


# ----------------------------------------------------------------- reproduce-all

# Relative to the checkout root, which is the working directory of a run, so
# the paths recorded in manifests match the reference byte for byte.
REPRODUCE_OUTDIR = ".perfbench_out/reproduce_all"


def _close(ref: float, out: float, rtol: float) -> bool:
    if math.isnan(ref) or math.isnan(out):
        return math.isnan(ref) and math.isnan(out)
    return abs(out - ref) <= REF_ATOL + rtol * abs(ref)


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(ref_text: str, out_text: str) -> str | None:
    ref = list(csv.reader(io.StringIO(ref_text)))
    out = list(csv.reader(io.StringIO(out_text)))
    if not ref or not out or ref[0] != out[0]:
        return f"header {out[:1]} != {ref[:1]}"
    if len(ref) != len(out):
        return f"{len(out) - 1} rows, reference has {len(ref) - 1}"
    header = ref[0]
    for i, (rrow, orow) in enumerate(zip(ref[1:], out[1:]), start=1):
        if len(rrow) != len(orow):
            return f"row {i}: {len(orow)} cells, reference has {len(rrow)}"
        for col, rc, oc in zip(header, rrow, orow):
            rv, ov = _as_float(rc), _as_float(oc)
            if rv is None or ov is None:
                if rc != oc:
                    return f"row {i} {col}: {oc!r} != {rc!r}"
            elif not _close(rv, ov, REF_FD_RTOL if col.startswith("d_") else REF_RTOL):
                return f"row {i} {col}: {oc} != {rc}"
    return None


def compare_json(ref, out, key: str = "", subset: bool = False) -> str | None:
    """Numeric comparison of parsed JSON. With ``subset`` the output may carry
    keys the reference lacks (manifests may grow)."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return f"{key or 'root'}: not an object"
        missing = set(ref) - set(out)
        extra = set(out) - set(ref)
        if missing or (extra and not subset):
            return f"{key or 'root'}: keys differ (missing {sorted(missing)}, extra {sorted(extra)})"
        for k in ref:
            err = compare_json(ref[k], out[k], k, subset)
            if err:
                return err
        return None
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return f"{key}: list differs"
        for r, o in zip(ref, out):
            err = compare_json(r, o, key, subset)
            if err:
                return err
        return None
    if isinstance(ref, (int, float)) and not isinstance(ref, bool) \
            and isinstance(out, (int, float)) and not isinstance(out, bool):
        rtol = REF_FD_RTOL if key.startswith("d_") else REF_RTOL
        return None if _close(float(ref), float(out), rtol) else f"{key}: {out} != {ref}"
    return None if ref == out else f"{key}: {out!r} != {ref!r}"


def compare_outputs(reference: dict, outdir: Path) -> tuple[str | None, int, int]:
    """(first mismatch or None, byte-identical file count, bytes written)."""
    files = reference["files"]
    present = sorted(p.name for p in outdir.iterdir())
    if present != sorted(files):
        return f"output files {present} != reference {sorted(files)}", 0, 0
    identical = written = 0
    error = None
    for name in present:
        data = (outdir / name).read_bytes()
        written += len(data)
        ref_text = files[name]
        if hashlib.sha256(data).hexdigest() == hashlib.sha256(ref_text.encode()).hexdigest():
            identical += 1
            continue
        text = data.decode()
        if name.endswith(".csv"):
            err = compare_csv(ref_text, text)
        else:
            err = compare_json(json.loads(ref_text), json.loads(text),
                               subset=name.endswith(".manifest.json"))
        if err and error is None:
            error = f"{name}: {err}"
    return error, identical, written


@functools.lru_cache(maxsize=1)
def load_reference(path: Path = REFERENCE_FILE) -> dict:
    with lzma.open(path, "rt") as fh:
        return json.load(fh)


def reproduce_round(tp, rng, r):
    """One in-process `trustpd reproduce-all` pass."""
    argv = ["reproduce-all", "--outdir", REPRODUCE_OUTDIR]
    outdir = Path(REPRODUCE_OUTDIR)
    counters = {}

    def prepare():
        # Stale files from an earlier pass must not stand in for missing ones.
        shutil.rmtree(outdir, ignore_errors=True)

    def check(code):
        if code != 0:
            return f"exit code {code}"
        error, identical, written = compare_outputs(load_reference(), outdir)
        counters.update(identical=identical, bytes_written=written)
        return error

    def digest(code):
        parts = [f"{p.name}:{hashlib.sha256(p.read_bytes()).hexdigest()}"
                 for p in sorted(outdir.iterdir())]
        return f"{code}|" + "|".join(parts)

    return [Op("reproduce-all", lambda: tp.cli.main(argv), check, {"argv": argv},
               digest=digest, counters=counters, prepare=prepare)]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "shared_solves": Workload("shared_solves", shared_round, trace_rounds=20),
    "dispersed_group": Workload("dispersed_group", dispersed_round, trace_rounds=1),
    "reproduce_all": Workload("reproduce_all", reproduce_round, trace_rounds=1),
}
# Runs with the same command but is not a benchmark workload: its ops fail
# wherever the shared solver still mislabels or loses roots next to a regime
# boundary, so it measures that defect (failed, failed_frac), not speed.
DIAGNOSTICS = {
    "boundary_band": Workload("boundary_band", band_round, trace_rounds=25),
}
