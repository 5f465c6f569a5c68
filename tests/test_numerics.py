import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trustpd as tp
from trustpd.numerics import (
    ITP_N0, _simpson_step, bisect_root, bracket_roots, refine_from, scan_sign_changes,
)


def scan_reference(values, grid, zero_tol):
    """Cell-by-cell scan: the definition scan_sign_changes must reproduce."""
    zeros = [float(x) for x, v in zip(grid, values) if abs(v) <= zero_tol]
    brackets = []
    for i in range(len(grid) - 1):
        v0, v1 = values[i], values[i + 1]
        if abs(v0) <= zero_tol or abs(v1) <= zero_tol:
            continue
        if v0 * v1 < 0:
            brackets.append((float(grid[i]), float(grid[i + 1]), float(v0), float(v1)))
    return zeros, brackets


class TestScanSignChanges:
    def test_exact_zeros_block_their_cells(self):
        grid = np.linspace(0.0, 4.0, 5)
        values = np.array([-1.0, 0.0, 1.0, 0.0, -1.0])
        assert scan_sign_changes(values, grid, zero_tol=0.0) == ([1.0, 3.0], [])

    def test_value_within_tolerance_next_to_sign_change(self):
        grid = np.linspace(0.0, 3.0, 4)
        values = np.array([2.0, 1e-12, -1.0, -2.0])
        zeros, brackets = scan_sign_changes(values, grid, zero_tol=1e-10)
        assert zeros == [1.0]
        assert brackets == []

    def test_no_sign_change(self):
        grid = np.linspace(0.0, 1.0, 11)
        assert scan_sign_changes(grid + 1.0, grid, zero_tol=1e-10) == ([], [])

    def test_zeros_on_grid_endpoints(self):
        grid = np.linspace(0.0, 1.0, 11)
        assert scan_sign_changes(grid, grid, zero_tol=0.0) == ([0.0], [])
        assert scan_sign_changes(grid - 1.0, grid, zero_tol=0.0) == ([1.0], [])

    def test_brackets_are_python_float_pairs(self):
        grid = np.linspace(0.0, 1.0, 3)
        zeros, brackets = scan_sign_changes(np.array([1.0, -1.0, 1.0]), grid, zero_tol=0.0)
        assert zeros == [] and brackets == [(0.0, 0.5, 1.0, -1.0), (0.5, 1.0, -1.0, 1.0)]
        assert all(type(x) is float for cell in brackets for x in cell)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_cell_by_cell_reference(self, seed):
        rng = np.random.default_rng(seed)
        grid = np.sort(rng.random(300))
        values = rng.choice([-1.0, 1.0], 300) * rng.random(300) ** 4
        values[rng.integers(0, 300, 20)] = 0.0
        for zero_tol in (0.0, 1e-3):
            assert scan_sign_changes(values, grid, zero_tol) == scan_reference(
                values, grid, zero_tol
            )


class TestBracketRoots:
    def test_refines_every_bracket_in_grid_order(self):
        roots = bracket_roots(np.sin, np.linspace(0.5, 10.0, 40), tol=1e-13)
        assert roots == pytest.approx([np.pi, 2 * np.pi, 3 * np.pi], abs=1e-12)
        assert all(abs(np.sin(r)) <= 1e-13 for r in roots)
        # a grid zero at 0.25 sorts between the refined roots -sqrt(2) and sqrt(2)
        roots = bracket_roots(lambda x: (x * x - 2.0) * (x - 0.25), np.linspace(-2.0, 2.0, 17),
                              tol=1e-13)
        assert roots[1] == 0.25
        assert roots == pytest.approx([-np.sqrt(2.0), 0.25, np.sqrt(2.0)], abs=1e-12)

    def test_values_are_f_on_the_grid(self):
        # f is evaluated once, on the whole grid, and each bracket is then
        # refined from the grid values at its ends
        grid = np.linspace(0.0, 2.0, 11)
        calls = []

        def f(x):
            calls.append(np.array(x, dtype=float, copy=True))
            return x * x - 2.0

        roots = bracket_roots(f, grid, tol=1e-12)
        assert roots == pytest.approx([np.sqrt(2.0)], abs=1e-12)
        np.testing.assert_array_equal(calls[0], grid)
        assert all(np.ndim(x) == 0 and 1.4 < x < 1.6 for x in calls[1:])

    def test_grid_zeros_are_not_bisected(self):
        def f(x):
            if np.ndim(x) == 0:
                raise AssertionError(f"refined at {x}")
            return x - 1.0

        assert bracket_roots(f, np.linspace(0.0, 2.0, 5), tol=1e-12) == [1.0]

    def test_roots_on_grid_endpoints(self):
        grid = np.linspace(0.0, 1.0, 11)
        assert bracket_roots(lambda x: x, grid, tol=1e-12) == [0.0]
        assert bracket_roots(lambda x: 1.0 - x, grid, tol=1e-12) == [1.0]

    def test_no_sign_change(self):
        assert bracket_roots(lambda x: x + 1.0, np.linspace(0.0, 1.0, 11), tol=1e-10) == []


@st.composite
def sign_change_brackets(draw):
    """(f, lo, hi) with f(lo), f(hi) nonzero and of opposite signs, f smooth
    and monotone, non-monotone with several roots, or with a jump at r; or
    smooth with values near 1e300, whose products overflow; or smooth as
    np.float64, whose overflow would warn; or exactly linear."""
    lo = draw(st.floats(-1e3, 1e3))
    hi = lo + draw(st.floats(1e-12, 1e3)) * max(1.0, abs(lo))
    assume(lo < hi)
    r = draw(st.floats(lo, hi))
    scale = draw(st.floats(0.01, 100.0))
    kind = draw(st.sampled_from(["smooth", "wave", "jump", "huge", "numpy", "linear"]))
    if kind == "smooth":
        def f(x):
            return math.tanh(scale * (x - r)) + 1e-3 * (x - r)
    elif kind == "wave":
        def f(x):
            return math.sin(scale * (x - r)) + 0.3 * math.sin(x)
    elif kind == "huge":
        def f(x):
            return 1e300 * (math.tanh(scale * (x - r)) + 1e-3 * (x - r))
    elif kind == "numpy":
        big = np.float64(draw(st.sampled_from([1.0, 1e300])))

        def f(x):
            return big * (np.tanh(scale * (x - r)) + 1e-3 * (x - r))
    elif kind == "linear":
        def f(x):
            return scale * (x - r)
    else:
        def f(x):
            return 1.0 + x * x if x >= r else -scale
    sign = draw(st.sampled_from([1.0, -1.0]))
    flo, fhi = sign * f(lo), sign * f(hi)
    assume(flo != 0.0 and fhi != 0.0 and (flo < 0) != (fhi < 0))
    return (lambda x: sign * f(x)), lo, hi


def counted(f):
    """f with a count of its calls in .calls."""
    def wrapper(x):
        wrapper.calls += 1
        return f(x)
    wrapper.calls = 0
    return wrapper


def bisection_worst_case(lo, hi):
    """Halvings that take [lo, hi] to adjacent floats wherever its root is:
    down to the finest float spacing in the bracket."""
    finest = math.ulp(0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi)))
    return math.ceil(math.log2(hi - lo) - math.log2(finest))


class TestRootRefinement:
    @given(bracket=sign_change_brackets(), ftol=st.sampled_from([0.0, 1e-300, 1e-12, 1e-6]))
    @settings(max_examples=300, deadline=None)
    def test_contract(self, bracket, ftol):
        f, lo, hi = bracket
        g = counted(f)
        root = bisect_root(g, lo, hi, ftol=ftol)
        assert lo <= root <= hi
        if abs(f(root)) > ftol:
            # the bracket collapsed: its ends are adjacent floats, signs apart
            assert (f(root) < 0) != (f(math.nextafter(root, math.inf)) < 0)
        assert g.calls <= bisection_worst_case(lo, hi) + ITP_N0 + 2

    @given(bracket=sign_change_brackets(), ftol=st.sampled_from([0.0, 1e-12]))
    @settings(max_examples=100, deadline=None)
    def test_end_values_save_two_calls(self, bracket, ftol):
        f, lo, hi = bracket
        plain, given_ends = counted(f), counted(f)
        root = bisect_root(plain, lo, hi, ftol=ftol)
        assert bisect_root(given_ends, lo, hi, ftol=ftol, flo=f(lo), fhi=f(hi)) == root
        assert given_ends.calls == plain.calls - 2

    def test_zero_ftol_collapses_the_bracket(self):
        root = bisect_root(lambda x: x * x - 2.0, 1.0, 2.0, ftol=0.0)
        assert root * root - 2.0 < 0.0 < math.nextafter(root, 2.0) ** 2 - 2.0

    def test_a_smooth_root_takes_a_few_steps(self):
        g = counted(lambda x: math.expm1(x - 1.3))
        assert abs(math.expm1(bisect_root(g, 0.0, 4.0, ftol=1e-14) - 1.3)) <= 1e-14
        # bisection: 50; two ends and eight steps, three midpoints where
        # Chandrupatla's test fails, then five inverse-quadratic ones
        assert g.calls <= 10

    @given(lo=st.integers(0, 2000), width=st.integers(1, 2000), at=st.floats(0.0, 1.0),
           ftol=st.sampled_from([0.0, 5e-324]))
    @settings(max_examples=200, deadline=None)
    def test_subnormal_brackets(self, lo, width, at, ftol):
        # a bracket of subnormals, whose float spacing is the smallest float:
        # half of it rounds to zero, so no step may divide by it
        tiny = math.ulp(0.0)
        lo, hi = lo * tiny, (lo + width) * tiny
        r = lo + round(at * width) * tiny
        assume(lo < r < hi)
        g = counted(lambda x: x - r)
        root = bisect_root(g, lo, hi, ftol=ftol)
        assert abs(root - r) <= ftol
        assert g.calls <= bisection_worst_case(lo, hi) + ITP_N0 + 2

    def test_a_subnormal_root(self):
        assert bisect_root(lambda x: x - 1e-320, 0.0, 1e-318, ftol=0.0) == 1e-320

    def test_no_sign_change_raises(self):
        with pytest.raises(tp.ConvergenceError, match="no sign change"):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, ftol=1e-12)

    def test_a_zero_at_lo_takes_one_evaluation(self):
        g = counted(lambda x: x)
        assert bisect_root(g, 0.0, 1.0, ftol=0.0) == 0.0
        assert g.calls == 1

    def test_a_steep_root_needs_no_step_cap(self):
        # 1051 evaluations, which a step cap of 200 would cut short
        g = counted(lambda x: math.atan((x - 1e-300) * 1e299))
        assert bisect_root(g, 0.0, 1.0, ftol=0.0) == 1e-300
        assert g.calls <= bisection_worst_case(0.0, 1.0) + ITP_N0 + 2

    def test_a_jump_across_the_whole_float_range(self):
        # the widest bracket there is: its width overflows to inf, so the
        # steps are midpoints, about 2076 of them down to the jump at 1e-300
        g = counted(lambda x: -1.0 if x < 1e-300 else 1.0)
        big = sys.float_info.max
        assert bisect_root(g, -big, big, ftol=0.0) == math.nextafter(1e-300, 0.0)
        assert g.calls <= 2102

    @given(bracket=sign_change_brackets(),
           start=st.sampled_from(["inside", "lo", "hi", "below", "above", "nan"]),
           dx_df=st.sampled_from([0.0, 1e-300, 1.0, 1e300, math.inf, math.nan, -1.0]),
           ftol=st.sampled_from([0.0, 1e-12, 1e-6]), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_model_start_contract(self, bracket, start, dx_df, ftol, data):
        # refine_from from any estimate and inverse slope, however wrong:
        # the root contract of bisect_root, within its worst case. Its step
        # is a product of Python floats, as the solvers' values are, which
        # may overflow to inf; as np.float64 that would warn
        f0, lo, hi = bracket

        def f(x):
            return float(f0(x))

        x = data.draw(st.floats(lo, hi)) if start == "inside" else {
            "lo": lo, "hi": hi, "below": lo - 1.0, "above": hi + 1.0, "nan": math.nan}[start]
        g = counted(f)
        root = refine_from(g, x, dx_df, lo, hi, f(lo), f(hi), ftol)
        assert lo <= root <= hi
        if abs(f(root)) > ftol:
            assert (f(root) < 0) != (f(math.nextafter(root, math.inf)) < 0)
        assert g.calls <= bisection_worst_case(lo, hi) + ITP_N0 + 2


def itp_reference(f, lo, hi, *, ftol, flo=None, fhi=None):
    """`bisect_root` written plainly, with abs, min and max in every step,
    the sign of f(lo) read at each, and a, b and c kept by name: the oracle
    the leaner step must match, float for float and evaluation for
    evaluation.

    After the first step, c is the end the last step replaced, a the end
    that replaced it and b the other end. Where |f(a)| < |f(c)| and
    Chandrupatla's test passes, the step starts from his inverse-quadratic
    estimate a + t (b - a), and otherwise, or when that is not inside the
    bracket, from the midpoint. Either is then projected into ITP's
    window."""
    if flo is None:
        flo = f(lo)
    if flo == 0.0:
        return lo
    if fhi is None:
        fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise tp.ConvergenceError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    width = hi - lo
    eps = max(0.5 * math.ulp(max(abs(lo), abs(hi))), math.ulp(0.0))
    mant, n_half = math.frexp(width / (2.0 * eps))
    reach = eps * 2.0 ** (max(n_half - (mant == 0.5), 0) + ITP_N0)
    a = b = c = fa = fb = fc = None
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        x = mid
        if c is not None and abs(fa) < abs(fc):
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                t = (fa / (fb - fa) * (fc / (fb - fc))
                     + (c - a) * (fa / (fc - fa) * (fb / (fc - fb))) / (b - a))
                x = a + t * (b - a)
                if not lo < x < hi:
                    x = mid
        lower, upper = hi - (reach - eps), lo + (reach - eps)
        x = mid if lower > upper else min(max(x, lower), upper)
        reach *= 0.5
        if not lo < x < hi:
            x = mid
        fx = f(x)
        if abs(fx) <= ftol:
            return x
        if (flo < 0) != (fx < 0):
            c, fc, hi, fhi = hi, fhi, x, fx
            a, fa, b, fb = hi, fhi, lo, flo
        else:
            c, fc, lo, flo = lo, flo, x, fx
            a, fa, b, fb = lo, flo, hi, fhi


@st.composite
def itp_cases(draw):
    """(f, lo, hi): a smooth, steep, step or exactly linear f, a smooth one
    with values near 1e300 or as np.float64, or one that is NaN on part of
    the bracket, on a bracket of normal floats, or x - r on subnormals. A NaN
    or a root at an end leaves no sign change, so that error is drawn too.
    """
    kind = draw(st.sampled_from(["smooth", "steep", "step", "linear", "huge", "numpy", "nan",
                                 "subnormal"]))
    if kind == "subnormal":
        tiny = math.ulp(0.0)
        start, width = draw(st.integers(-2000, 2000)), draw(st.integers(1, 4000))
        lo, hi = start * tiny, (start + width) * tiny
        r = draw(st.floats(lo - tiny, hi + tiny))
        return (lambda x: x - r), lo, hi
    lo = draw(st.floats(-1e3, 1e3))
    hi = lo + draw(st.floats(1e-12, 1e3)) * max(1.0, abs(lo))
    assume(lo < hi)
    r = draw(st.floats(lo, hi))
    scale = draw(st.floats(0.01, 100.0))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "smooth":
        def f(x):
            return sign * (math.tanh(scale * (x - r)) + 1e-3 * (x - r))
    elif kind == "steep":
        def f(x):
            return sign * math.atan(1e12 * scale * (x - r))
    elif kind == "step":
        def f(x):
            return sign * (1.0 + x * x if x >= r else -scale)
    elif kind == "linear":
        def f(x):
            return sign * scale * (x - r)
    elif kind == "huge":
        def f(x):
            return sign * 1e300 * (math.tanh(scale * (x - r)) + 1e-3 * (x - r))
    elif kind == "numpy":
        big = np.float64(sign * draw(st.sampled_from([1.0, 1e300])))

        def f(x):
            return big * (np.tanh(scale * (x - r)) + 1e-3 * (x - r))
    else:
        a, b = sorted(draw(st.floats(lo, hi)) for _ in range(2))

        def f(x):
            return math.nan if a <= x <= b else sign * (x - r)
    return f, lo, hi


def evaluations(impl, f, lo, hi, **kwargs):
    """(the float.hex of impl's result or its error message, the float.hex
    of every point impl evaluated f at, in order)."""
    points = []

    def recorded(x):
        points.append(x.hex())
        return f(x)

    try:
        out = impl(recorded, lo, hi, **kwargs).hex()
    except tp.ConvergenceError as exc:
        out = str(exc)
    return out, points


@given(case=itp_cases(), ftol=st.sampled_from([0.0, 1e-14, 1e-10, 1e-3]),
       ends_given=st.booleans())
@settings(max_examples=1000, deadline=None)
def test_itp_step_matches_the_reference(case, ftol, ends_given):
    # the step compares where the reference called abs, min and max: the
    # same root, from the same evaluations, and the same errors
    f, lo, hi = case
    ends = {"flo": f(lo), "fhi": f(hi)} if ends_given else {}
    kwargs = dict(ftol=ftol, **ends)
    assert (evaluations(bisect_root, f, lo, hi, **kwargs)
            == evaluations(itp_reference, f, lo, hi, **kwargs))


def test_bisect_root_with_a_subnormal_end_value():
    # f(0) * f(mid) underflows to -0.0 here; the bracket must still close on 0
    root = bisect_root(lambda x: 5e-324 - x, 0.0, 1.0, ftol=1e-12)
    assert 0.0 < root <= 1e-12


def test_shared_solver_at_a_subnormal_belief():
    # K = 5e-324 at l = 0: the low root lies next to 0 and g vanishes there
    eqs = tp.solve_common_equilibria(5e-324, tp.validate_params(2.0, 2.0), tp.uniform_loss(1.0))
    assert eqs.regime == "unique-interior"
    assert eqs.lowest <= 1e-10


class TestSimpsonStep:
    def test_uniform_grid_gives_its_step(self):
        assert _simpson_step(np.linspace(0.0, 2.0, 9)) == 0.25

    def test_rounding_sized_departure_is_accepted(self):
        x = np.linspace(0.0, 1.0, 5)
        x[2] += 1e-14
        assert _simpson_step(x) == 0.25

    def test_non_uniform_grid_raises(self):
        x = np.linspace(0.0, 1.0, 5)
        x[2] += 1e-6
        with pytest.raises(ValueError, match="uniform"):
            _simpson_step(x)

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_nan_knot_raises(self, where):
        x = np.linspace(0.0, 1.0, 5)
        x[where] = np.nan
        with pytest.raises(ValueError, match="uniform"):
            _simpson_step(x)

    @pytest.mark.parametrize("n_points", [2, 4, 1000])
    def test_odd_interval_count_raises(self, n_points):
        with pytest.raises(ValueError, match="even interval count"):
            _simpson_step(np.linspace(0.0, 1.0, n_points))


# float.hex of solve_common_equilibria at the worked example (b, m, ell_bar) =
# (3, 50, 8), two beliefs per regime, recorded from the pole-free solver of
# g = K - phi with brackets from the shape of phi, each root started from its
# uniform-loss model (the interior roots moved by at most 1.5e-11 from
# refinement by bisect_root, and each now lies within 1e-16 of the exact
# root): any change in the solver's bits shows here.
PINNED_COMMON = {
    0.01: ("unique-interior", [("0x1.9deb534d3cc6fp-2", "interior-low")]),
    0.03: ("unique-interior", [("0x1.6098f07b53d93p+0", "interior-low")]),
    0.05: ("triple", [("0x1.67dfaba2857e1p+1", "interior-low"),
                      ("0x1.cc102a2ebd40fp+2", "interior-high"),
                      ("0x1.0000000000000p+3", "corner-upper")]),
    0.055: ("triple", [("0x1.af9992cfb7a84p+1", "interior-low"),
                       ("0x1.a8333698242bep+2", "interior-high"),
                       ("0x1.0000000000000p+3", "corner-upper")]),
    0.07: ("unique-corner", [("0x1.0000000000000p+3", "corner-upper")]),
    0.1: ("unique-corner", [("0x1.0000000000000p+3", "corner-upper")]),
}


@pytest.mark.parametrize("pi", sorted(PINNED_COMMON))
def test_common_equilibria_pinned_bits(pi, fig_params, fig_dist):
    eqs = tp.solve_common_equilibria(pi, fig_params, fig_dist)
    got = (eqs.regime, [(float(r.value).hex(), r.kind) for r in eqs.roots])
    assert got == PINNED_COMMON[pi]


def test_common_sweep_distribution_calls(fig_params, fig_dist):
    # reproduce-all's shared-belief sweep, 240 beliefs on [0, 0.12) at
    # (3, 50, 8): each root and the tangency start from their uniform-loss
    # models and take one evaluation, so the sweep makes 879 cdf and 557 pdf
    # calls, against 1852 and 636 when every bracket was refined by
    # bisect_root
    calls = {"cdf": 0, "pdf": 0}

    def counted(name):
        def call(x):
            calls[name] += 1
            return getattr(fig_dist, name)(x)
        return call

    dist = dataclasses.replace(fig_dist, cdf=counted("cdf"), pdf=counted("pdf"))
    for pi in np.linspace(0.0, 0.12, 240, endpoint=False).tolist():
        tp.solve_common_equilibria(pi, fig_params, dist)
    assert calls["cdf"] + calls["pdf"] <= 1436
