import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trustpd
from trustpd.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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

    def test_nonconvergence_exit_code(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["diverse", "--b", "2", "--m", "8", "--max-iter", "1",
                     "--tol", "1e-14", "--out", str(out)])
        assert code == 3


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

    def test_io_failure(self, tmp_path):
        code = main(["common", "--b", "3", "--m", "50", "--pi", "0.05",
                     "--out", str(tmp_path / "missing_dir" / "x.csv")])
        assert code == 4


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
