"""trustpd benchmark: one workload, one process, metrics as JSON.

    python3 perfbench/run.py --workload shared_solves --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

--trace 0 reports the end-to-end metrics:
  setup_s      median of repeated set-ups (at least three, and at least 1 s in
               all); one set-up is a fresh import of trustpd, generating the
               seeded inputs and one warm-up op
  ops_per_s    ops completed per second of op time in the timed phase (the
               benchmark's own input generation and oracle checks excluded)
  op_p50_ms    median op latency
  peak_rss_mb  peak resident memory of the process
The timed phase runs whole rounds of the workload until --seconds have passed.
Times are wall-clock times rescaled to a reference host speed (see
SpeedProbe); the raw wall-clock figures are in the summary line. Per-layer
times are raw.

--trace 1 runs a fixed op list (the workload's first ``trace_rounds`` rounds)
three times: untraced, with span wrappers, and under cProfile. It reports the
per-layer metrics; their ``calls`` counts and trace.python_calls depend only on
the seed. All three passes must give identical op results.

Every op is checked by an oracle. An op that raises or fails its oracle counts
in ``failed`` and is logged with its inputs. ``correct`` is false when an op
fails outside the shared-belief boundary band, or when the traced passes
disagree with the untraced one. Only the diagnostic workload boundary_band
(not listed in BENCHMARK.json) has band ops; its failures are the known
defects of the shared solver next to a regime boundary, and it reports
failed_frac among its metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from tracing import PROFILED, CallCounter, Tracer, span_stats  # noqa: E402
from workloads import DIAGNOSTICS, WORKLOADS, rounds  # noqa: E402

# Set-up is repeated at least SETUP_MIN_REPS times and until SETUP_MIN_S have
# passed, so a set-up of tens of milliseconds still gets a steady median.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
WARMUP_ROUND = -1  # a round no timed phase uses, so the warm-up shares no inputs

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")]

# (span name, field of span_stats, unit); the metric is "<span>.<field>".
SPAN_METRICS = [
    ("common_eq.solve_common_equilibria", "calls", "count"),
    ("common_eq.solve_common_equilibria", "busy_s", "s"),
    ("common_eq.solve_common_equilibria", "self_s", "s"),
    ("common_eq.solve_common_equilibria", "fails", "count"),
    ("common_eq.critical_pair", "busy_s", "s"),
    ("numerics.bisect_root", "calls", "count"),
    ("numerics.bisect_root", "busy_s", "s"),
    ("numerics.bisect_root", "fails", "count"),
    ("numerics.scan_sign_changes", "busy_s", "s"),
    ("numerics.adaptive_simpson", "calls", "count"),
    ("numerics.adaptive_simpson", "busy_s", "s"),
    ("diverse_eq.solve_diverse_threshold", "calls", "count"),
    ("diverse_eq.solve_diverse_threshold", "busy_s", "s"),
    ("diverse_eq.solve_diverse_threshold", "iterations", "count"),
    ("diverse_eq.apply_T", "calls", "count"),
    ("diverse_eq.apply_T", "busy_s", "s"),
    ("extensions.solve_asymmetric", "busy_s", "s"),
    ("extensions.solve_group_common", "busy_s", "s"),
    ("extensions.solve_group_diverse", "calls", "count"),
    ("extensions.solve_group_diverse", "busy_s", "s"),
    ("analysis.solve_pi_dagger", "calls", "count"),
    ("analysis.solve_pi_dagger", "busy_s", "s"),
    ("analysis.diversity_region", "busy_s", "s"),
    ("montecarlo.simulate", "busy_s", "s"),
    ("montecarlo.deviation_check", "busy_s", "s"),
    ("cli.main", "self_s", "s"),
]
# cProfile call counts of the scalar kernels, as "<module>.<function>.calls"
KERNELS = [f"{module}.{fn}" for module, fns in PROFILED.items() for fn in fns]
OTHER_METRICS = [
    ("montecarlo.simulate.draws_per_s", "1/s"),
    ("cli.bytes_written", "bytes"),
    ("cli.outputs_identical", "count"),
    ("trace.python_calls", "count"),
    ("trace.overhead_frac", "frac"),
]
PER_LAYER = ([(f"{span}.{field}", unit) for span, field, unit in SPAN_METRICS]
             + [(f"{kernel}.calls", "count") for kernel in KERNELS] + OTHER_METRICS)


class SetupError(RuntimeError):
    pass


class WallTimer:
    """Times one call at a time in raw wall-clock seconds."""

    def begin(self):
        self._start = time.perf_counter()

    def end(self) -> tuple[float, float]:
        """(raw seconds, reported seconds) since begin(); the same here."""
        elapsed = time.perf_counter() - self._start
        return elapsed, elapsed


# The probe's duration at the reference speed: about its median on a 2-vCPU
# Intel Xeon VM at 2.1 GHz.
PROBE_REF_S = 1.5e-4
PROBE_INTERVAL_S = 0.2


class SpeedProbe(WallTimer):
    """Times calls and rescales them to a reference host speed.

    On a shared 2-vCPU VM the host switches between speed modes up to 1.6x
    apart that last from seconds to minutes, longer than a run, so raw times
    of one commit spread by 30-45% from run to run. The probe is a fixed piece
    of the kind of work trustpd does (interpreted scalar arithmetic through
    small numpy calls, plus one vector op), read at the start and end of each
    timed call and every PROBE_INTERVAL_S inside it, from a SIGALRM handler
    that runs between bytecodes. Each stretch t between readings p0 and p1
    counts as t * PROBE_REF_S / ((p0 + p1) / 2): the time it would take where
    the probe takes PROBE_REF_S. Time spent in the probe itself is excluded.
    """

    def __init__(self):
        self._x = np.linspace(0.0, 1.0, 2001)
        self.readings: list[float] = []
        self._reading = False
        self._last = self.read()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._stretch())

    def _kernel(self):
        total = 0.0
        for i in range(20):
            total += float(np.clip(np.asarray(i * 0.1, dtype=float) / 8.0, 0.0, 1.0)) - i
        return total + float(np.sum(np.clip(self._x * 1.1, 0.0, 1.0)))

    def read(self) -> float:
        """Median of three timed runs of the kernel, in seconds."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        reading = statistics.median(times)
        self.readings.append(reading)
        return reading

    def _stretch(self):
        if self._reading:  # a tick that lands inside the probe waits for the next
            return
        self._reading = True
        elapsed = time.perf_counter() - self._mark
        reading = self.read()
        self._raw += elapsed
        self._scaled += elapsed * PROBE_REF_S / (0.5 * (self._last + reading))
        self._last = reading
        self._mark = time.perf_counter()
        self._reading = False

    def begin(self):
        self._raw = self._scaled = 0.0
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def end(self) -> tuple[float, float]:
        """(raw seconds, rescaled seconds) since begin(), probe time excluded."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._stretch()
        return self._raw, self._scaled


def import_trustpd():
    """Import trustpd and its CLI afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "trustpd" or n.startswith("trustpd.")]:
        del sys.modules[name]
    tp = importlib.import_module("trustpd")
    importlib.import_module("trustpd.cli")
    if Path(tp.__file__).resolve().parent != SRC / "trustpd":
        raise SetupError(f"trustpd imported from {tp.__file__}, not from {SRC}")
    return tp


def run_op(op, timer, call=None):
    """Run one op; return (result, raw_s, reported_s, error or None).
    Only the call is timed."""
    if op.prepare is not None:
        op.prepare()
    call = call or (lambda fn: fn())
    timer.begin()
    try:
        result = call(op.call)
        error = None
    except Exception as exc:  # a solver that raises is a failed op, not a crashed run
        result, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        raw, reported = timer.end()
    return result, raw, reported, error


def check_op(op, result, error):
    if error is not None:
        return error
    try:
        return op.check(result)
    except Exception as exc:  # an oracle that cannot even read the result
        return f"oracle raised {type(exc).__name__}: {exc}"


def setup(workload, seed, timer):
    """Median reported and median raw time of repeated fresh set-ups, and the
    last set-up's module."""
    reported, raw = [], []
    while len(raw) < SETUP_MIN_REPS or sum(raw) < SETUP_MIN_S:
        timer.begin()
        tp = import_trustpd()
        warm = next(rounds(workload, tp, seed, start=WARMUP_ROUND))[0]
        run_op(warm, WallTimer())
        times = timer.end()
        raw.append(times[0])
        reported.append(times[1])
        # Free the modules this set-up replaced, so the number of set-ups a
        # run happens to make does not show in peak_rss_mb.
        gc.collect()
    return tp, statistics.median(reported), statistics.median(raw)


class Ledger:
    """Latencies and failures of the ops a phase ran."""

    def __init__(self, workload):
        self.workload = workload
        self.raw: list[float] = []       # wall-clock seconds
        self.reported: list[float] = []  # as the phase's timer reports them
        self.failures: list[dict] = []

    def add(self, op, round_index, raw, reported, error):
        self.raw.append(raw)
        self.reported.append(reported)
        if error is not None:
            self.failures.append({"workload": self.workload.name, "round": round_index,
                                  "kind": op.kind, "band": op.band, "inputs": op.inputs,
                                  "error": error})

    @property
    def unexplained(self):
        """Failures outside the shared-belief boundary band."""
        return [f for f in self.failures if f["band"] is None]


def timed_phase(workload, tp, seed, seconds, timer):
    ledger = Ledger(workload)
    start = time.perf_counter()
    for r, ops in enumerate(rounds(workload, tp, seed)):
        for op in ops:
            result, raw, reported, error = run_op(op, timer)
            ledger.add(op, r, raw, reported, check_op(op, result, error))
        if time.perf_counter() - start >= seconds:
            break
    return ledger


def end_to_end(workload, seed, seconds):
    probe = SpeedProbe()
    tp, setup_s, raw_setup_s = setup(workload, seed, probe)
    ledger = timed_phase(workload, tp, seed, seconds, probe)
    lat, raw = ledger.reported, ledger.raw
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = {"ops": len(lat), "failed_frac": len(ledger.failures) / len(lat),
               "probe_median_s": statistics.median(probe.readings),
               "raw_setup_s": raw_setup_s, "raw_ops_per_s": len(raw) / sum(raw),
               "raw_op_p50_ms": statistics.median(raw) * 1e3}
    # A tail percentile is only worth reporting with ten samples beyond it, so
    # op_p90_ms goes to the summary (with "ops" as its sample count), not the metrics.
    if len(lat) >= 100:
        summary["op_p90_ms"] = statistics.quantiles(lat, n=10)[-1] * 1e3
        summary["raw_op_p90_ms"] = statistics.quantiles(raw, n=10)[-1] * 1e3
    return ledger, metrics, summary, []


def traced(workload, seed, n_rounds):
    """Untraced, span-traced and profiled passes over the first rounds."""
    tp, _, _ = setup(workload, seed, WallTimer())
    gen = rounds(workload, tp, seed)
    ops = [(r, op) for r in range(n_rounds) for op in next(gen)]

    def one_pass(call=None):
        """[(result, error, digest, latency)] for every op, digests taken at
        once because reproduce-all's next pass overwrites its files."""
        runs = []
        for _, op in ops:
            result, latency, _, error = run_op(op, WallTimer(), call)
            runs.append((result, error, error or op.digest(result), latency))
        return runs

    plain = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        spanned = one_pass(lambda fn: tracer.call("op", fn))
    finally:
        tracer.uninstall()
    counter = CallCounter()
    profiled = one_pass(counter.call)

    ledger = Ledger(workload)
    for (r, op), (result, error, _, latency) in zip(ops, plain):
        ledger.add(op, r, latency, latency, check_op(op, result, error))
    mismatches = sum(a[2] != b[2] or a[2] != c[2] for a, b, c in zip(plain, spanned, profiled))
    plain_s = sum(run[3] for run in plain)
    spanned_s = sum(run[3] for run in spanned)

    stats = span_stats(tracer.spans)
    python_calls, kernels = counter.counts()
    metrics = {f"{span}.{field}": stats[span][field] for span, field, _ in SPAN_METRICS}
    metrics.update({f"{kernel}.calls": kernels[kernel] for kernel in KERNELS})
    sim = stats["montecarlo.simulate"]
    cli_counters = [op.counters for _, op in ops if op.counters]
    metrics.update({
        "montecarlo.simulate.draws_per_s": sim["draws"] / sim["busy_s"] if sim["calls"] else 0.0,
        "cli.bytes_written": sum(c.get("bytes_written", 0) for c in cli_counters),
        "cli.outputs_identical": sum(c.get("identical", 0) for c in cli_counters),
        "trace.python_calls": python_calls,
        "trace.overhead_frac": (spanned_s - plain_s) / plain_s,
    })
    summary = {"ops": len(ops), "failed_frac": len(ledger.failures) / len(ops),
               "untraced_s": plain_s, "traced_s": spanned_s, "spans": len(tracer.spans),
               "traced_result_mismatches": mismatches}
    problems = [f"{mismatches} ops gave different results when traced or profiled"] if mismatches else []
    return ledger, metrics, summary, problems


def git_commit(root: Path):
    """HEAD of the checkout if it is a git work tree (read without running git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(workload, seed, seconds, trace):
    import numpy

    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_commit": git_commit(ROOT), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu_model()}


def run(workload_name, seed, seconds, trace, trace_rounds=None):
    """Run one workload; return (result line, full record).

    ``trace_rounds`` shortens the traced op list (the smoke test uses 1).
    """
    workload = {**WORKLOADS, **DIAGNOSTICS}[workload_name]
    if trace:
        ledger, metrics, summary, problems = traced(
            workload, seed, trace_rounds or workload.trace_rounds)
        spec = PER_LAYER
    else:
        ledger, metrics, summary, problems = end_to_end(workload, seed, seconds)
        spec = END_TO_END
    if workload_name in DIAGNOSTICS:
        metrics["failed_frac"] = summary["failed_frac"]
        spec = spec + [("failed_frac", "frac")]
    unexplained = ledger.unexplained
    if unexplained:
        problems.append(f"{len(unexplained)} ops failed outside the boundary band")
    result = {
        "correct": not problems,
        "attempted": summary["ops"],
        "failed": len(ledger.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    record = {"stamp": stamp(workload_name, seed, seconds, trace), "summary": summary,
              "problems": problems, "result": result, "failures": ledger.failures}
    return result, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + sorted(DIAGNOSTICS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trustpd" / "__init__.py").is_file():
        print(f"perfbench: no trustpd sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)  # reproduce_all writes, and records, paths relative to the root
    sys.path.insert(0, str(SRC))
    try:
        result, record = run(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    log = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps(record, indent=1) + "\n")
    print("stamp " + json.dumps(record["stamp"]))
    print("summary " + json.dumps({**record["summary"], "failures": len(record["failures"]),
                                   "problems": record["problems"], "log": str(log.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
