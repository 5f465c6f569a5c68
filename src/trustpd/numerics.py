"""Small numerical kernels used across the solvers: bracketed root
refinement, from a bracket or from a model's estimate, sign-change
scanning, grid root bracketing, composite/adaptive Simpson quadrature, and
a float square that gives inf where the float power raises on overflow.

A solver that sweeps a function for its roots evaluates it once on the
whole scan grid as a numpy array; `scan_sign_changes` splits the samples into
zeros (|f| <= tol) and sign-change brackets, and each bracket is refined by
scalar `bisect_root` to |f| <= tol, starting from the samples at its ends.
`bracket_roots` bundles the three steps and returns the grid zeros and the
refined roots as one sorted list. Two solvers still scan, where a function
may have several roots: `extensions.solve_asymmetric` with both beliefs on
one side of (b-1)/m, and `extensions.solve_group_common` under `as_printed`.

`bisect_root` steps from Chandrupatla's inverse-quadratic estimate where
his test passes, and from the midpoint otherwise (Adv. Eng. Software 28(3),
1997), projected into ITP's window about the midpoint, which keeps it
inside the bracket (Oliveira and Takahashi, ACM TOMS 47(1), 2020):
bisection's bracket, contract and worst case within ITP_N0 steps, and
superlinear convergence on the smooth functions the solvers bracket. A
step calls nothing but f: |x| and the projection's clamp are comparisons,
which give what abs, min and max give, NaN and signed zeros included, and
the sign of f(lo), which never changes, is read once. The solvers'
closures are built the same way, with their checks and constants settled
once per solve, so that a step pays only for its arithmetic.
`refine_from` starts from a model's estimate of the root and hands only a
miss to `bisect_root`, on a sub-bracket about it. Its callers are the
shared-belief roots of `common_eq.solve_common_equilibria`, the tangency
loss of `common_eq._tangency_loss`, and `extensions.solve_asymmetric` with
the beliefs on opposite sides of (b-1)/m, each from a uniform-loss model.

Quadrature and curve interpolation deliberately share grids elsewhere in the
package, so the composite rule here works directly on a supplied knot vector.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConvergenceError, check_tol


# ITP's projection leaves ITP_N0 steps of slack over bisection
ITP_N0 = 2
SIMPSON_MAX_DEPTH = 50  # halvings `adaptive_simpson` allows below the whole interval


def bisect_root(f, lo: float, hi: float, *, ftol: float,
                flo: float | None = None, fhi: float | None = None) -> float:
    """Root of f on a sign-change bracket lo < hi, refined until |f(x)| <= ftol.

    f must be continuous on [lo, hi], so that the bracket always holds a root.
    The residual criterion (not the interval width) is the contract the
    equilibrium solvers expose, so iteration continues past the usual width
    stop while the residual is still large. A bracket that shrinks to two
    adjacent floats first is returned as its lower end, within one ulp of
    the root. Raises ConvergenceError when f has no sign change on [lo, hi].
    flo and fhi, when given, are f(lo) and f(hi), which a caller that
    scanned a grid already has. f(lo) is settled first: an exact zero there
    is returned before f(hi) is evaluated.

    Each step starts from an estimate of the root. Once a step has replaced
    an end c of the bracket, a being the end that replaced it and b the
    other end, the estimate is the root a + t (b - a) of the inverse
    quadratic through the three points where |f(a)| < |f(c)| and
    Chandrupatla's test phi^2 < xi, (1 - phi)^2 < 1 - xi passes
    (xi = (a-b)/(c-b), phi = (f(a)-f(b))/(f(c)-f(b))): the quadratic is then
    monotone between a and b. t is in Chandrupatla's divided form, ratios of
    differences, never divided by their product, which underflows to 0 among
    subnormals. On the first step, where the test fails, or where that
    estimate is NaN or not inside the bracket, the estimate is the midpoint,
    as in Chandrupatla's method. Either is then projected into ITP's window
    about the midpoint, which shrinks so that, n_half being the halvings
    bisection needs to bring the bracket to one float spacing of its larger
    end, n_half + ITP_N0 steps do that; further steps are midpoints. So it
    takes at most ITP_N0 steps more than bisection's worst case for the
    bracket, about 2100 over the whole float range, and needs no step cap;
    on a smooth f its steps converge superlinearly. The bracket, the
    contract and the worst case are bisection's, hence the name.
    """
    if flo is None:
        flo = f(lo)
    if flo == 0.0:
        return lo
    if fhi is None:
        fhi = f(hi)
    if fhi == 0.0:
        return hi
    # signs are compared, not products, which underflow for tiny values
    if (flo < 0) == (fhi < 0):
        raise ConvergenceError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    # eps: half the float spacing at the larger end. `reach` bounds the width
    # of the bracket a step leaves, halving from eps 2^(n_half + ITP_N0), so
    # that it is 2 eps after n_half + ITP_N0 steps (an inf or nan width gives
    # n_half = 0, and so plain halving). Among subnormals the spacing is the
    # smallest float, and half of it would round to zero, so eps is floored
    # there: subnormal sums are exact and need no rounding margin
    eps = max(0.5 * math.ulp(max(abs(lo), abs(hi))), math.ulp(0.0))
    mant, n_half = math.frexp((hi - lo) / (2.0 * eps))
    reach = eps * 2.0 ** (max(n_half - (mant == 0.5), 0) + ITP_N0)
    lo_negative = flo < 0  # f(lo) keeps its sign as lo moves
    neg_ftol = -ftol
    c = None  # the end the last step replaced, and fc = f(c)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        x = mid
        if c is not None:
            # interpolate, inverse-quadratically through the ends and c:
            # a is the end that replaced c, and has f's sign there, b the
            # other end. |f(a)| < |f(c)| keeps fc - fa from 0 and phi below
            # 1, and the ends' opposite signs keep every other divisor from
            # 0. Where the test passes, t and its first term lie in (0, 1),
            # and (c - a) times the product in the second is at most |b - a|
            # across, so no partial sum or product overflows
            if c > hi:
                a, fa, b, fb = hi, fhi, lo, flo
            else:
                a, fa, b, fb = lo, flo, hi, fhi
            if fa < fc if fa > 0 else fc < fa:
                xi = (a - b) / (c - b)
                phi = (fa - fb) / (fc - fb)
                if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                    across = b - a
                    t = (fa / (fb - fa) * (fc / (fb - fc))
                         + (c - a) * (fa / (fc - fa) * (fb / (fc - fb))) / across)
                    x = a + t * across
                    if not lo < x < hi:
                        x = mid
        # project: keep both parts of the bracket within reach. The window
        # ends are pulled in by eps, which absorbs their rounding: a sum
        # rounds by at most eps at magnitudes up to the larger end. x stays
        # inside (lo, hi): x = lower can only replace an x above lo, and
        # lower rounds to hi only for a pull r = reach - eps of at most half
        # the spacing below hi, when upper = lo + r rounds below hi (a float
        # lies between lo and hi), so lower > upper; x = upper likewise
        lower, upper = hi - (reach - eps), lo + (reach - eps)
        if lower > upper:
            x = mid
        elif lower > x:
            x = lower
        elif upper < x:
            x = upper
        reach *= 0.5
        fx = f(x)
        if neg_ftol <= fx <= ftol:
            return x
        if lo_negative != (fx < 0):
            c, fc, hi, fhi = hi, fhi, x, fx
        else:
            c, fc, lo, flo = lo, flo, x, fx


def square(x: float) -> float:
    """x ** 2 as the float power gives it, whose last bit differs from
    x * x's for some x, and inf where that power raises OverflowError."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def refine_from(f, x, dx_df, lo, hi, flo, fhi, ftol):
    """Root of f on the sign-change bracket [lo, hi], where f(lo) = flo and
    f(hi) = fhi, to |f| <= ftol, starting from a model's estimate x of it;
    dx_df is the model's inverse slope at x. fhi may be None, and f(hi) is
    then evaluated only if `bisect_root` needs it.

    x is returned when |f(x)| <= ftol. Otherwise one more point is taken on
    the root's side of x: past the model's Newton step by as much again,
    2 |f(x) dx_df| away, and at least four float spacings, so that where the
    model is nearly right the two points bracket the root tightly. The part
    of the bracket that holds the root then goes to `bisect_root` with its
    end values, as the whole bracket does when x is not strictly inside it
    (NaN included). Only comparisons, products and sums of Python floats:
    nothing here divides.
    """
    if not lo < x < hi:
        return bisect_root(f, lo, hi, ftol=ftol, flo=flo, fhi=fhi)
    fx = f(x)
    if -ftol <= fx <= ftol:
        return x
    step = 2.0 * fx * dx_df
    step = step if step >= 0.0 else -step
    spacing = 4.0 * math.ulp(x)
    if not step >= spacing:
        step = spacing
    if (fx < 0) == (flo < 0):
        lo, flo, y = x, fx, x + step
    else:
        hi, fhi, y = x, fx, x - step
    if lo < y < hi:
        fy = f(y)
        if -ftol <= fy <= ftol:
            return y
        if (fy < 0) == (flo < 0):
            lo, flo = y, fy
        else:
            hi, fhi = y, fy
    return bisect_root(f, lo, hi, ftol=ftol, flo=flo, fhi=fhi)


def scan_sign_changes(values: np.ndarray, grid: np.ndarray, zero_tol: float):
    """Split a sampled function into exact zeros and sign-change brackets.

    Returns (zeros, brackets): grid points where |value| <= zero_tol, and
    (a, b, f(a), f(b)) cells with strictly opposite signs at the ends, which
    carry the samples at their ends so that `bisect_root` need not evaluate
    them again. A cell with a zero at either end is never a bracket.
    """
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    zero = np.abs(values) <= zero_tol
    signs = np.sign(values)
    cells = np.flatnonzero((signs[:-1] * signs[1:] < 0) & ~zero[:-1] & ~zero[1:])
    return grid[zero].tolist(), list(zip(grid[cells].tolist(), grid[cells + 1].tolist(),
                                          values[cells].tolist(), values[cells + 1].tolist()))


def bracket_roots(f, grid, *, tol: float) -> list:
    """All roots of f visible on a grid, in ascending order.

    f must accept the whole grid as one array and return its values, and a
    scalar and return a float, equal to the array's element there. It is
    evaluated once on the grid: the grid points with |f| <= tol are roots as
    they stand, and each sign-change bracket is refined by `bisect_root` to
    |f| <= tol, starting from the grid values at its ends.
    """
    grid = np.asarray(grid, dtype=float)
    zeros, brackets = scan_sign_changes(np.asarray(f(grid), dtype=float), grid, tol)
    return sorted(zeros + [bisect_root(f, a, b, ftol=tol, flo=fa, fhi=fb)
                           for a, b, fa, fb in brackets])


def composite_simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule on a uniform grid with an even interval count."""
    return _simpson_sum(np.asarray(y, dtype=float), _simpson_step(x))


def _simpson_step(x) -> float:
    """The step h of a composite Simpson grid, after checking that x is
    uniform with an even interval count, for `_simpson_sum` on a grid that
    comes from the caller.

    Uniform means every step within 1e-12 max(1, |h|) + 1e-8 |h| of h, the
    test of np.allclose(steps, h, rtol=1e-8, atol=1e-12 max(1, |h|)), made as
    one max of |step - h|. A NaN knot makes that max NaN, which fails it.
    Raises ValueError on an odd or too small interval count, and on a grid
    that is not uniform."""
    x = np.asarray(x, dtype=float)
    n = x.size - 1
    if n < 2 or n % 2 != 0:
        raise ValueError(f"composite Simpson needs an even interval count, got {n}")
    h = (x[-1] - x[0]) / n
    if not np.abs(x[1:] - x[:-1] - h).max() <= 1e-12 * max(1.0, abs(h)) + 1e-8 * abs(h):
        raise ValueError("composite Simpson expects a uniform grid")
    return h


def _simpson_sum(y: np.ndarray, h: float) -> float:
    """Composite Simpson sum of samples y on a checked grid of step h."""
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def _simpson_cell(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature with Richardson correction, halving each
    cell at most SIMPSON_MAX_DEPTH times."""
    check_tol(tol)
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson_cell(f, a, fa, b, fb)

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm, flm, left = _simpson_cell(f, a, fa, m, fm)
        rm, frm, right = _simpson_cell(f, m, fm, b, fb)
        delta = left + right - whole
        if depth >= SIMPSON_MAX_DEPTH or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        return recurse(a, fa, lm, flm, m, fm, left, tol / 2.0, depth + 1) + recurse(
            m, fm, rm, frm, b, fb, right, tol / 2.0, depth + 1
        )

    return recurse(a, fa, m, fm, b, fb, whole, tol, 0)
