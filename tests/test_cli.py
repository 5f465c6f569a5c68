import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import trustpd
from trustpd import cli
from trustpd.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def stdlib_rendering(path):
    """The bytes csv.writer writes for the rows csv.reader parses from a CSV
    file, or json.dump(indent=2, sort_keys=True) and a newline for what a
    JSON file parses to."""
    buf = io.StringIO()
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            csv.writer(buf).writerows(csv.reader(fh))
    else:
        json.dump(json.loads(path.read_text()), buf, indent=2, sort_keys=True)
        buf.write("\n")
    return buf.getvalue().encode()


def exit_code(argv):
    """main's exit code, also for argparse's own exit on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestCommonCommand:
    def test_single_belief_triple_regime(self, tmp_path):
        out = tmp_path / "common.csv"
        code = main(["common", "--b", "3", "--m", "50", "--ell-bar", "8",
                     "--pi", "0.05", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["regime"] == "triple"
        assert float(rows[0]["ell_low"]) == pytest.approx(2.8115133803903385, abs=1e-8)
        assert float(rows[0]["ell_corner"]) == 8.0

    def test_zero_belief_row(self, tmp_path):
        out = tmp_path / "common.csv"
        main(["common", "--b", "2", "--m", "8", "--ell-bar", "1", "--pi", "0",
              "--out", str(out)])
        rows = read_csv(out)
        assert rows[0]["regime"] == "unique-interior"
        assert float(rows[0]["ell_low"]) == 0.0
        assert rows[0]["ell_high"] == ""
        assert rows[0]["ell_corner"] == ""

    def test_grid_threshold_monotone_up_to_pi_low(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["common", "--b", "2", "--m", "8", "--ell-bar", "1",
                     "--pi-grid", "200", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 200
        pi_low = 1 / 8
        lows = [float(r["ell_low"]) for r in rows if float(r["pi"]) < pi_low]
        assert all(b >= a for a, b in zip(lows, lows[1:]))

    def test_header_stability(self, tmp_path):
        out = tmp_path / "h.csv"
        main(["common", "--b", "2", "--m", "8", "--pi", "0.01", "--out", str(out)])
        with open(out) as fh:
            assert fh.readline().strip() == "pi,regime,ell_low,ell_high,ell_corner"

    def test_roundtrip_precision(self, tmp_path):
        out = tmp_path / "rt.csv"
        main(["common", "--b", "3", "--m", "50", "--ell-bar", "8", "--pi", "0.05",
              "--out", str(out)])
        import trustpd as tp
        eqs = tp.solve_common_equilibria(0.05, tp.validate_params(3, 50), tp.uniform_loss(8.0))
        rows = read_csv(out)
        assert float(rows[0]["ell_low"]) == eqs.ell_low  # bit-exact round trip


class TestDiverseCommand:
    def test_csv_and_summary(self, tmp_path):
        out = tmp_path / "diverse.csv"
        code = main(["diverse", "--b", "2", "--m", "8", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1001
        vals = [float(r["pi_star_d"]) for r in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        summary = json.loads((tmp_path / "diverse.summary.json").read_text())
        assert summary["contraction_gamma"] == pytest.approx(7 / 64)
        assert summary["residual"] <= 1e-10
        assert 0 < summary["p_coop"] < 1
        # perfbench/reference/reproduce_all.json.xz holds this summary, and the
        # reproduce_all workload compares its numbers with it to 1e-6 relative:
        # a solver that takes another number of passes fails every op there
        assert summary["iterations"] == 8

    def test_nonconvergence_exit_code(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["diverse", "--b", "2", "--m", "8", "--max-iter", "1",
                     "--tol", "1e-14", "--out", str(out)])
        assert code == 3


    def test_large_m(self, tmp_path):
        # the cutoff is about (b-1)/m = 1e-9 here, and it used to cancel
        out = tmp_path / "diverse.csv"
        assert main(["diverse", "--b", "2", "--m", "1e9", "--out", str(out)]) == 0
        vals = [float(r["pi_star_d"]) for r in read_csv(out)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_curve_flat_to_rounding(self, tmp_path):
        # from m - (b-1) ~ 1e13 on neighbouring knots round to one cutoff;
        # the nondecreasing curve is written, not refused as non-convergence
        out = tmp_path / "diverse.csv"
        assert main(["diverse", "--b", "2", "--m", "1e13", "--out", str(out)]) == 0
        vals = [float(r["pi_star_d"]) for r in read_csv(out)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert any(b == a for a, b in zip(vals, vals[1:]))


class TestCompareCommand:
    def test_crossing_summary(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--b", "2", "--m", "8", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 500
        summary = json.loads((tmp_path / "cmp.summary.json").read_text())
        pid = summary["pi_dagger"]
        # the sign of the diff column flips exactly at pi_dagger
        for row in rows:
            diff = float(row["diff"])
            pi = float(row["pi"])
            if 0.115 < pi < pid - 1e-6:
                assert diff > 0
            if pid + 1e-6 < pi < 0.1249:
                assert diff < 0


    def test_exact_coefficients_far_from_large_m(self, tmp_path):
        # m - (b-1) = 0.1075: the exact cutoff at l = 0 lies below beta,
        # and the crossing belief with it
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--b", "5.027", "--m", "5.1345", "--alpha-beta", "exact",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "cmp.summary.json").read_text())
        assert summary["alpha_beta_mode"] == "exact"
        pid = summary["pi_dagger"]
        assert pid < summary["beta"]
        rows = [(float(r["pi"]), float(r["diff"])) for r in read_csv(out)]
        assert any(diff > 0 for pi, diff in rows if pi < pid)
        assert all(diff > 0 for pi, diff in rows if pid - 0.01 < pi < pid - 1e-6)
        assert all(diff < 0 for pi, diff in rows if pid + 1e-6 < pi < pid + 0.01)

    @pytest.mark.parametrize("b,m", [("2", "600"), ("3", "3000")])
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_crossing_inside_the_kinks_at_large_m(self, tmp_path, b, m, mode):
        # m beyond about 505 (b-1), where the crossing lies within 1/501 of
        # the kink interval's width below its upper end
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--b", b, "--m", m, "--alpha-beta", mode,
                     "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "cmp.summary.json").read_text())
        a = 1.0 + float(m) - float(b)
        alpha, beta = summary["alpha"], summary["beta"]
        assert 1.0 - a / alpha < summary["pi_dagger"] < 1.0 - a / (alpha + beta)


    def test_coefficients_where_r_rounds_to_one(self, tmp_path):
        # at (2, 1e17) r = sqrt(1 + 4(b-1)/a) rounds to 1, and the approximate
        # beta = (r-1)/(r+1) rounded to 0: the command exited 3
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--b", "2", "--m", "1e17", "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "cmp.summary.json").read_text())
        assert summary["beta"] == pytest.approx(1e-17, rel=1e-15)
        assert summary["pi_dagger"] == pytest.approx(1e-17, rel=1e-15)

    def test_dispersed_threshold_where_m_is_1e17(self, tmp_path):
        # both kinks of the dispersed threshold lie within 1e-33 of 1e-17:
        # it is 0 below them, at pi = 0 too, and 1 at pi = (b-1)/m
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--b", "2", "--m", "1e17", "--out", str(out)]) == 0
        rows = read_csv(out)
        ell_d = [float(row["ell_star_d"]) for row in rows]
        assert float(rows[0]["pi"]) == 0.0 and ell_d[0] == 0.0
        assert ell_d[:-1] == [0.0] * (len(rows) - 1) and ell_d[-1] == 1.0


class TestExanteCommand:
    def test_single_pair_both_methods(self, tmp_path):
        out = tmp_path / "ex.csv"
        main(["exante", "--b", "2", "--m", "8", "--out", str(out)])
        row = read_csv(out)[0]
        assert float(row["p_c_closed"]) == pytest.approx(float(row["p_c_quadrature"]), abs=1e-8)
        assert float(row["p_d_closed"]) == pytest.approx(float(row["p_d_quadrature"]), abs=1e-8)

    def test_region_grid_excludes_invalid_cells(self, tmp_path):
        out = tmp_path / "region.csv"
        main(["exante", "--b-range", "2", "6", "--m-range", "1.2", "60",
              "--cells", "12", "--out", str(out)])
        rows = read_csv(out)
        assert rows
        for row in rows:
            assert float(row["m"]) > float(row["b"]) - 1

    def test_region_at_large_m_has_no_nan(self, tmp_path):
        # p_d's prefactor divided by g - 1, which rounds to 0 from m of about 1e16
        out = tmp_path / "region.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["exante", "--b-range", "2", "3", "--m-range", "1e16", "1e18",
                         "--cells", "3", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 9
        # both probabilities are within about 1/m of 1
        assert all(abs(float(row[key]) - 1.0) <= 1e-15 for row in rows for key in ("p_c", "p_d"))

    def test_region_csv_bytes_match_row_by_row_rendering(self, tmp_path):
        out = tmp_path / "region.csv"
        assert main(["exante", "--b-range", "1.5", "5", "--m-range", "0.5", "9",
                     "--cells", "9", "--out", str(out)]) == 0
        region = trustpd.diversity_region(np.linspace(1.5, 5, 9), np.linspace(0.5, 9, 9))
        assert region.valid.any() and not region.valid.all()
        lines = ["b,m,p_c,p_d,diverse_wins"]
        for i, b in enumerate(region.b_grid):
            for j, m in enumerate(region.m_grid):
                if region.valid[i, j]:
                    row = [float(b), float(m), region.p_common[i, j],
                           region.p_diverse[i, j], int(region.diverse_wins[i, j])]
                    lines.append(",".join(cli._fmt(v) for v in row))
        assert out.read_bytes() == "".join(line + "\r\n" for line in lines).encode()


class TestAsymmetricCommand:
    def test_sweep_monotone_effect(self, tmp_path):
        out = tmp_path / "asym.csv"
        code = main(["asymmetric", "--b", "3", "--m", "50", "--ell-bar", "8",
                     "--pi1", "0.03", "--sweep-pi2", "0.05", "0.1", "6",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        ell1 = [float(r["ell1_hat"]) for r in rows]
        assert all(b < a for a, b in zip(ell1, ell1[1:]))
        assert all(float(r["d_ell1_d_pi2"]) < 0 for r in rows)


class TestGroupCommand:
    def test_columns_and_values(self, tmp_path):
        out = tmp_path / "group.csv"
        code = main(["group", "--n", "1", "--b", "2", "--m", "8",
                     "--pi-grid", "21", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 21
        assert rows[0]["n"] == "1"
        assert float(rows[0]["ell_n_common"]) == 0.0

    def test_as_printed_variant_accepted(self, tmp_path):
        out = tmp_path / "group_ap.csv"
        assert main(["group", "--n", "2", "--b", "2", "--m", "8",
                     "--variant", "as-printed", "--pi-grid", "11",
                     "--out", str(out)]) == 0


class TestSimulateCommand:
    def test_report_and_manifest(self, tmp_path):
        out = tmp_path / "sim.json"
        code = main(["simulate", "--scenario", "common", "--pi", "0.03",
                     "--b", "3", "--m", "50", "--ell-bar", "8",
                     "--n-samples", "20000", "--seed", "99", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["seed"] == 99
        assert abs(report["coop_rate_strategic"] - report["analytic_prediction"]) \
            <= 3 * report["half_width_95"]
        manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 99
        assert manifest["parameters"]["n_samples"] == 20000

    def test_diverse_scenario_honours_ell_bar(self, tmp_path):
        out = tmp_path / "sd.json"
        code = main(["simulate", "--scenario", "diverse", "--b", "2.5", "--m", "20",
                     "--ell-bar", "2", "--n-samples", "10000", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        config = trustpd.SimConfig(n_samples=10000, seed=3, scenario="diverse")
        expected = trustpd.simulate(config, trustpd.validate_params(2.5, 20),
                                    trustpd.uniform_loss(2.0), trustpd.uniform_belief())
        assert json.loads(out.read_text()) == json.loads(json.dumps(expected.to_dict()))

    def test_empty_payoff_cell_is_null_in_strict_json(self, tmp_path):
        # at pi = 0 no partner is committed and the shared threshold is 0, so
        # nobody cooperates: every cell but DD is empty
        out = tmp_path / "sc.json"
        code = main(["simulate", "--scenario", "common", "--pi", "0.0",
                     "--b", "3", "--m", "50", "--ell-bar", "8",
                     "--n-samples", "1000", "--out", str(out)])
        assert code == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["payoff_means"] == {"CC": None, "CD": None, "DC": None, "DD": 0.0}


class TestExitCodes:
    def test_validation_failure(self, tmp_path):
        code = main(["common", "--b", "0.5", "--m", "10", "--pi", "0.05",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("beliefs", [
        [],
        ["--pi2", "0.08", "--sweep-pi2", "0.05", "0.1", "3"],
    ])
    def test_asymmetric_needs_exactly_one_pi2_flag(self, tmp_path, beliefs):
        # run as a program so an uncaught exception would show as a traceback
        src = Path(trustpd.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "trustpd.cli", "asymmetric", "--pi1", "0.03",
             *beliefs, "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--pi2" in proc.stderr and "--sweep-pi2" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["exante", "--b-range", "2", "6", "--m-range", "1.2", "60", "--cells", "-1"],
        ["common", "--pi-grid", "-3"],
        ["group", "--n", "2", "--b", "2", "--m", "8", "--pi-grid", "-3"],
        ["compare", "--b", "2", "--m", "8", "--grid", "-1"],
        ["compare", "--b", "2", "--m", "8", "--grid", "0"],
        ["asymmetric", "--pi1", "0.03", "--sweep-pi2", "0.05", "0.1", "-2"],
        ["asymmetric", "--pi1", "0.03", "--sweep-pi2", "0.05", "0.1", "x"],
        ["asymmetric", "--pi1", "0.03", "--sweep-pi2", "0.05", "y", "3"],
        ["diverse", "--b", "2", "--m", "8", "--grid-n", "1000"],
        ["diverse", "--b", "2", "--m", "8", "--grid-n", "1"],
        ["diverse", "--b", "2", "--m", "8", "--grid-n", "-5"],
    ])
    def test_bad_grid_size_is_a_parameter_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert exit_code(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "common", "--pi", "0.03", "--b", "2", "--m", "8",
         "--seed", "-1", "--n-samples", "100"],
        ["simulate", "--scenario", "common", "--pi", "0.03", "--b", "2", "--m", "8",
         "--seed", str(2 ** 128), "--n-samples", "100"],
        ["diverse", "--b", "2", "--m", "8", "--max-iter", "0"],
        ["diverse", "--b", "2", "--m", "8", "--max-iter", "-3"],
        ["compare", "--b", "2", "--m", "8", "--tol", "-1"],
        ["compare", "--b", "2", "--m", "8", "--tol", "nan"],
        ["diverse", "--b", "2", "--m", "8", "--tol", "0"],
        ["common", "--pi", "0.05", "--tol", "inf"],
    ])
    def test_bad_seed_iteration_cap_or_tolerance_is_a_parameter_error(self, tmp_path, capsys,
                                                                       argv):
        assert exit_code(argv + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "parameter error:" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        *(["common", "--pi", "0.05", "--b", b] for b in ("nan", "inf")),
        *(["diverse", "--m", "8", "--b", b] for b in ("nan", "inf")),
        *(["compare", "--m", "8", "--b", b] for b in ("nan", "inf")),
        *(["exante", "--m", "8", "--b", b] for b in ("nan", "inf")),
        *(["asymmetric", "--pi1", "0.03", "--pi2", "0.08", "--b", b] for b in ("nan", "inf")),
        *(["group", "--n", "2", "--m", "8", "--b", b] for b in ("nan", "inf")),
        *(["simulate", "--scenario", "common", "--pi", "0.03", "--m", "8", "--n-samples",
           "100", "--b", b] for b in ("nan", "inf")),
        ["exante"],
        ["exante", "--b", "2"],
    ])
    def test_non_finite_or_missing_b_is_a_parameter_error(self, tmp_path, capsys, argv):
        assert exit_code(argv + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "parameter error:" in err and "Traceback" not in err
        if argv[0] == "exante" and "--m" not in argv:
            assert ("needs --m " if "--b" in argv else "needs --b and --m ") in err
        assert list(tmp_path.iterdir()) == []

    def test_io_failure(self, tmp_path):
        code = main(["common", "--b", "3", "--m", "50", "--pi", "0.05",
                     "--out", str(tmp_path / "missing_dir" / "x.csv")])
        assert code == 4

    def test_reproduce_all_exits_with_a_failing_sub_commands_code(self, tmp_path, capsys):
        # the first sub-command's output path is a directory: an I/O error,
        # reported once, not as a solver error, naming the sub-command
        (tmp_path / "regimes_shared_belief.csv").mkdir()
        assert main(["reproduce-all", "--outdir", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.count("trustpd:") == 1 and "trustpd: I/O error:" in err
        assert "common" in err


class TestCachedParser:
    @pytest.mark.parametrize("first,second", [
        (["common", "--b", "3", "--m", "50", "--pi", "0.05"],
         ["common", "--b", "3", "--m", "50", "--pi-grid", "5"]),
        (["asymmetric", "--pi1", "0.03", "--pi2", "0.08"],
         ["asymmetric", "--pi1", "0.03", "--sweep-pi2", "0.05", "0.1", "3"]),
        (["common", "--b", "0.5", "--m", "10", "--pi", "0.05"],
         ["common", "--pi", "0.05"]),
        (["compare", "--b", "2", "--m", "8", "--grid", "-1"],
         ["compare", "--b", "2", "--m", "8", "--grid", "7"]),
    ])
    def test_no_state_carried_between_calls(self, tmp_path, first, second):
        out = tmp_path / "x.csv"

        def outputs(argv):
            for p in tmp_path.iterdir():
                p.unlink()
            code = exit_code(argv + ["--out", str(out)])
            return code, {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        chained = [outputs(argv) for argv in (first, second)]
        fresh = []
        for argv in (first, second):
            cli.build_parser.cache_clear()
            fresh.append(outputs(argv))
        assert chained == fresh
        assert chained[0][0] == 0 or chained[0][1] == {}
        assert chained[1][0] == 0 and "x.csv.manifest.json" in chained[1][1]


class TestWritersMatchTheStandardLibrary:
    def test_every_reproduce_all_file(self, tmp_path):
        assert main(["reproduce-all", "--outdir", str(tmp_path)]) == 0
        paths = sorted(tmp_path.iterdir())
        assert len(paths) == 22
        for path in paths:
            assert path.read_bytes() == stdlib_rendering(path), path.name

    def test_rows_with_empty_cells(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["common", "--b", "2", "--m", "8", "--ell-bar", "1",
                     "--pi-grid", "20", "--out", str(out)]) == 0
        assert any(r["ell_high"] == r["ell_corner"] == "" for r in read_csv(out))
        assert out.read_bytes() == stdlib_rendering(out)

    @pytest.mark.parametrize("n_rows", [0, 1, cli.CSV_BATCH - 1, cli.CSV_BATCH,
                                        cli.CSV_BATCH + 1, 3 * cli.CSV_BATCH + 1])
    def test_tables_across_batch_boundaries(self, tmp_path, n_rows):
        # every row once, in order, whether it ends a batch, starts one or
        # is the header's only company; the rows come as an iterator, as
        # the commands pass them
        header = ["pi", "regime", "ell", "n"]
        rows = [[repr(k / 7), "triple" if k % 2 else "unique", "" if k % 3 else repr(-k * 0.1),
                 str(k)] for k in range(n_rows)]
        out = tmp_path / "t.csv"
        cli._write_csv(out, header, iter(rows))
        assert out.read_bytes() == stdlib_rendering(out)
        with open(out, newline="") as fh:
            assert list(csv.reader(fh)) == [header, *rows]

    def test_writing_memory_is_flat_in_rows(self, tmp_path):
        # 10^5 rows generated as written peak at about 26 KB: a batch's
        # lines and joined text, and the file's buffers. 1 KiB a row of a
        # batch bounds that whatever the row count; a whole-table join of
        # these rows peaks at 10.4 MB
        rows = ([repr(k / 7), str(k), ""] for k in range(10 ** 5))
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "big.csv", ["x", "k", "e"], rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli.CSV_BATCH * 1024
        assert (tmp_path / "big.csv").stat().st_size > 2 * 10 ** 6


# sha256 of every file `reproduce-all --outdir out` writes, run from a fresh
# working directory: the manifests hold the relative output paths, so they
# are pinned too. A change that moves any bit of the published results, or
# of a manifest, shows here, on every machine the pinned reruns cover.
PINNED_REPRODUCE_ALL = {
    "asymmetric_sweep.csv":
        "76b41f0527b437642f4a0d34acbf5942acb231442b42be7fcb903a11926e9379",
    "asymmetric_sweep.csv.manifest.json":
        "d6be84499b8f4ff0f04b5be96ec5ed58370011627d4cedd27e715856ded7f8e5",
    "crossing_belief_sensitivity.json":
        "29cea1d3fde5831ffd01bf279ebabcbf182ad8ea6efb30ab144255c0a33cf0fb",
    "crossing_belief_vs_b.csv":
        "aeb952effe14f95f6eae618ed6b7445adce7f1e7fe565fe154950fd1f1e6b59d",
    "crossing_belief_vs_b.csv.manifest.json":
        "db700ceb4d317c4f46646091f69d9f471da8243b61851d4c2406ff3825a7dcd6",
    "crossing_belief_vs_m.csv":
        "a61025813914e6409add6fc2d531914289a5f2b1963401a5f96a87399f2b1c9f",
    "cutoff_dispersed_belief.csv":
        "5d22ce8ddd2d5db31801f1c36d7159499ae72912766446eca1de10d5b8a887e9",
    "cutoff_dispersed_belief.csv.manifest.json":
        "a3fb734886dcf70bc5747ac2f95bc62ed6840b364adc2c5d14ba6fa3f8062303",
    "cutoff_dispersed_belief.summary.json":
        "e8cf135ecc821649264d42bc31e775bb5326de8c0c9d5f31eb9449e8ea17c042",
    "exante_region.csv":
        "afedac4833a78fd17f47c09cd88119b9b716f2f94241205d0e2663fb0d5fb391",
    "exante_region.csv.manifest.json":
        "ad6150cbd7a20077c977afb0d982b70b455d1cea915883e8ab38ae9c218d9e4f",
    "exante_single_pair.csv":
        "7bf451e971c13a53992f3c72d252bbfe336339f2c68cf411db6c9bcdb0a17e86",
    "exante_single_pair.csv.manifest.json":
        "4b2753b5fc2b85e1acf206fd66932633685394438c34b30af135688b295ce03b",
    "group_thresholds.csv":
        "0677ec6c7e6dcfae5546a7ff611117c6affd04e081c0317e344adebf46845ed1",
    "group_thresholds.csv.manifest.json":
        "3f0066aa41af7be386f941915b19b2e47a455989b705b92f6c8155197ad0d3fc",
    "regimes_shared_belief.csv":
        "333268bf3b8e109959d0517e13e996bc8da63af74fe4bbb62f4d45b37b999d90",
    "regimes_shared_belief.csv.manifest.json":
        "3f79f494685d984074bc6c65c11a97f42be2f097bae39009273aa792775464f6",
    "simulation_common.json":
        "c67bd6db1304fa00b0f48ba94921da0efcf160dc3bd361a41ba3eb332bfbe4f0",
    "simulation_common.json.manifest.json":
        "7b4e9af1a8d10d1261a2d27db5ba12118c63f616e686a56b687ec49d55eec567",
    "threshold_comparison.csv":
        "3ef22fc72f840b232df2136dd621168d071e5b5c4a975f00f3d8b50b17923b46",
    "threshold_comparison.csv.manifest.json":
        "c1514dda008696e28e3e6ac155a8ebec63661f05d0e1c2de8768e2cdaf7aac50",
    "threshold_comparison.summary.json":
        "641aa9753b29e88041df37dbf63ffecf4adc57a8665204a74941f052717c4be3",
}


def test_reproduce_all_pinned_bits(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce-all", "--outdir", "out"]) == 0
    data = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (tmp_path / "out").iterdir()}
    assert data == PINNED_REPRODUCE_ALL


class TestReproducibility:
    def test_rerun_is_byte_identical(self, tmp_path):
        argv = ["compare", "--b", "2", "--m", "8", "--out", str(tmp_path / "c.csv")]
        main(argv)
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        main(argv)
        second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert first == second
        assert any(name.endswith(".manifest.json") for name in first)

    def test_simulate_rerun_byte_identical(self, tmp_path):
        argv = ["simulate", "--scenario", "diverse", "--b", "2", "--m", "8",
                "--n-samples", "5000", "--seed", "4", "--out", str(tmp_path / "s.json")]
        main(argv)
        first = (tmp_path / "s.json").read_bytes()
        main(argv)
        assert (tmp_path / "s.json").read_bytes() == first
