"""Per-layer measurement for traced runs: spans around calls into trustpd's
modules, recorded from the benchmark's side, and call counts from cProfile.

Spans wrap a module's public functions wherever trustpd binds them, not only in
the defining module: ``trustpd.extensions.bisect_root`` and
``trustpd.cli.solve_group_diverse`` are separate names for the same function,
and a call through either must be seen. Spans stay in memory with the index
of their parent span, so self time is a span's duration minus its children's.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import sys
import time
from collections import defaultdict

# Functions that get a span on every call, by trustpd module.
SPANNED = {
    "numerics": ("bisect_root", "scan_sign_changes", "adaptive_simpson"),
    "common_eq": ("solve_common_equilibria", "critical_pair"),
    "diverse_eq": ("solve_diverse_threshold", "apply_T"),
    "extensions": ("solve_asymmetric", "solve_group_common", "solve_group_diverse"),
    "analysis": ("solve_pi_dagger", "diversity_region"),
    "montecarlo": ("simulate", "deviation_check"),
    "cli": ("main",),
}

# Scalar kernels called thousands of times per op. A span on each would cost
# more than the kernel, so their counts come from the cProfile pass instead.
PROFILED = {
    "common_eq": ("psi", "best_response_threshold"),
    "extensions": ("binomial_mixture",),
    "core": ("payoff_cooperate",),
}


def _simulate_draws(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return config.n_samples


# A number recorded on each span from the call's arguments or result, and the
# name span_stats sums it under.
EXTRAS = {
    "diverse_eq.solve_diverse_threshold": ("iterations", lambda args, kwargs, result: result.iterations),
    "montecarlo.simulate": ("draws", _simulate_draws),
}


class Tracer:
    """Installs span wrappers on trustpd's module bindings and keeps the spans.

    A span is ``[name, parent_index, start, end, failed, extra]``. Wrappers
    record only while ``active`` is set, so oracle calls made between ops pass
    straight through.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        _, extra = EXTRAS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, False, None]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "trustpd" or n.startswith("trustpd.")]
        for short, names in SPANNED.items():
            home = sys.modules[f"trustpd.{short}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def call(self, name, fn):
        """Run ``fn`` as a root span named ``name`` with recording on."""
        index = len(self.spans)
        span = [name, -1, 0.0, 0.0, False, None]
        self.spans.append(span)
        self._stack = [index]
        self.active = True
        span[2] = time.perf_counter()
        try:
            return fn()
        except BaseException:
            span[4] = True
            raise
        finally:
            span[3] = time.perf_counter()
            self.active = False
            self._stack = []


def span_stats(spans) -> dict:
    """Per span name: calls, fails, busy_s, self_s and the sum of its EXTRAS.

    busy_s counts only spans with no ancestor of the same name, so a function
    that re-enters itself (cli.main under reproduce-all) is not counted twice.
    self_s is each span's duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = defaultdict(lambda: defaultdict(int, busy_s=0.0, self_s=0.0))
    for i, (name, parent, start, end, failed, extra) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["fails"] += failed
        entry["self_s"] += (end - start) - child_time[i]
        if extra is not None:
            entry[EXTRAS[name][0]] += extra
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            entry["busy_s"] += end - start
    return stats


class CallCounter:
    """cProfile switched on only around op calls."""

    def __init__(self):
        self.profile = cProfile.Profile()

    def call(self, fn):
        self.profile.enable()
        try:
            return fn()
        finally:
            self.profile.disable()

    def counts(self) -> tuple[int, dict]:
        """(total calls seen, calls of each PROFILED kernel by "module.function")."""
        stats = pstats.Stats(self.profile)
        kernels = {f"{mod}.{fn}": 0 for mod, fns in PROFILED.items() for fn in fns}
        for (filename, _, fn_name), (_, ncalls, _, _, _) in stats.stats.items():
            path = filename.replace("\\", "/")
            for mod, fns in PROFILED.items():
                if fn_name in fns and path.endswith(f"/trustpd/{mod}.py"):
                    kernels[f"{mod}.{fn_name}"] += ncalls
        return stats.total_calls, kernels
