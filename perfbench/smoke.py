"""Smoke test of the benchmark itself, at each workload's smallest size.

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
that traced and untraced passes give identical op results, that the
boundary band stays out of shared_solves and in the boundary_band diagnostic,
and that a corrupted oracle value shows up as failed ops. Takes about two minutes,
most of it in reproduce_all passes.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
os.chdir(ROOT)

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _check_workload(name):
    result, record = run.run(name, seed=0, seconds=0.01, trace=0)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert result["correct"], record["problems"]

    traced, trecord = run.run(name, seed=0, seconds=0.01, trace=1, trace_rounds=1)
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(traced["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["per_layer"])
    assert trecord["summary"]["traced_result_mismatches"] == 0
    assert traced["correct"], trecord["problems"]
    assert traced["metrics"]["trace.python_calls"]["value"] > 0
    return traced


def test_shared_solves():
    traced = _check_workload("shared_solves")["metrics"]
    assert traced["common_eq.solve_common_equilibria.calls"]["value"] > 0
    assert traced["common_eq.psi.calls"]["value"] > 0


def test_dispersed_group():
    traced = _check_workload("dispersed_group")["metrics"]
    assert traced["extensions.solve_group_diverse.calls"]["value"] == 16
    assert traced["diverse_eq.solve_diverse_threshold.iterations"]["value"] > 0
    assert traced["montecarlo.simulate.draws_per_s"]["value"] > 0


def test_reproduce_all():
    traced = _check_workload("reproduce_all")["metrics"]
    assert traced["cli.outputs_identical"]["value"] == len(workloads.load_reference()["files"])
    assert traced["cli.bytes_written"]["value"] > 0
    assert traced["cli.main.self_s"]["value"] > 0


def test_shared_solves_has_no_band_ops():
    gen = workloads.rounds(workloads.WORKLOADS["shared_solves"], run.import_trustpd(), seed=0)
    assert all(op.band is None for _ in range(3) for op in next(gen))


def test_boundary_band_reports_failed_frac():
    result, record = run.run("boundary_band", seed=0, seconds=0.01, trace=0)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]] + ["failed_frac"]
    frac = result["metrics"]["failed_frac"]["value"]
    assert frac == result["failed"] / result["attempted"]
    assert all(f["band"] for f in record["failures"])
    assert result["correct"], record["problems"]


def test_corrupted_oracle_counts_as_failed():
    true_criticals = workloads.uniform_criticals

    def corrupted(b, m, ell_bar):
        pi_low, ell_p, pi_p = true_criticals(b, m, ell_bar)
        return pi_low, ell_p, pi_p * (1.0 + 1e-6)

    workloads.uniform_criticals = corrupted
    try:
        result, record = run.run("shared_solves", seed=0, seconds=0.01, trace=0)
    finally:
        workloads.uniform_criticals = true_criticals
    bad = [f for f in record["failures"] if f["kind"] == "critical_pair"]
    assert bad and "closed form" in bad[0]["error"]
    assert result["failed"] >= len(bad)
    assert not result["correct"]


def test_reference_comparison_catches_a_changed_value():
    reference = workloads.load_reference()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        outdir = Path(tmp)
        for name, text in reference["files"].items():
            (outdir / name).write_bytes(text.encode())
        error, identical, _ = workloads.compare_outputs(reference, outdir)
        assert error is None and identical == len(reference["files"])

        name = "regimes_shared_belief.csv"
        text = reference["files"][name]
        row = text.splitlines()[100].split(",")
        row[2] = repr(float(row[2]) * (1.0 + 1e-5))
        (outdir / name).write_bytes(text.replace(text.splitlines()[100], ",".join(row)).encode())
        error, identical, _ = workloads.compare_outputs(reference, outdir)
        assert error and error.startswith(name)
        assert identical == len(reference["files"]) - 1


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok   {name}", flush=True)
    print(f"{len(tests)} passed")
