"""Small numerical kernels used across the solvers: bracketed bisection,
sign-change scanning, grid root bracketing, and composite/adaptive Simpson
quadrature.

Every solver that sweeps a function for its roots goes through
`bracket_roots`: the function is evaluated once on the whole scan grid as a
numpy array, `scan_sign_changes` splits the samples into exact zeros and
sign-change brackets, and each bracket is refined by scalar `bisect_root`.

Quadrature and curve interpolation deliberately share grids elsewhere in the
package, so the composite rule here works directly on a supplied knot vector.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import ConvergenceError


def bisect_root(f, lo: float, hi: float, *, ftol: float, max_iter: int = 200) -> float:
    """Bisection on a sign-change bracket, run until |f(mid)| <= ftol.

    The residual criterion (not the interval width) is the contract the
    equilibrium solvers expose, so iteration continues past the usual width
    stop while the residual is still large.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ConvergenceError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) <= ftol:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo <= np.finfo(float).eps * max(1.0, abs(lo), abs(hi)):
            if abs(fmid) <= ftol:
                return mid
            break
    if abs(f(mid)) <= ftol:
        return mid
    raise ConvergenceError(
        f"bisection stalled at x={mid} with residual {f(mid):.3e} > ftol={ftol:.1e}"
    )


def scan_sign_changes(values: np.ndarray, grid: np.ndarray, zero_tol: float):
    """Split a sampled function into exact zeros and sign-change brackets.

    Returns (zeros, brackets): grid points where |value| <= zero_tol, and
    (a, b) interval pairs with strictly opposite signs at the ends. A cell
    with a zero at either end is never a bracket.
    """
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    zero = np.abs(values) <= zero_tol
    signs = np.sign(values)
    cells = np.flatnonzero((signs[:-1] * signs[1:] < 0) & ~zero[:-1] & ~zero[1:])
    brackets = list(zip(grid[cells].tolist(), grid[cells + 1].tolist()))
    return grid[zero].tolist(), brackets


class RootScan(NamedTuple):
    """Outcome of `bracket_roots`, in grid order."""

    values: np.ndarray  # f on the scan grid
    zeros: list  # grid points with |f| <= zero_tol
    roots: list  # one bisected root per sign-change bracket


def bracket_roots(f, grid, *, zero_tol: float, ftol: float) -> RootScan:
    """All roots of f visible on a grid.

    f must accept the whole grid as one array and return its values, and a
    scalar and return a float. It is evaluated once on the grid; each
    sign-change bracket is then refined by `bisect_root` to |f| <= ftol.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(f(grid), dtype=float)
    zeros, brackets = scan_sign_changes(values, grid, zero_tol)
    return RootScan(values, zeros, [bisect_root(f, a, b, ftol=ftol) for a, b in brackets])


def composite_simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule on a uniform grid with an even interval count."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.size - 1
    if n < 2 or n % 2 != 0:
        raise ValueError(f"composite Simpson needs an even interval count, got {n}")
    h = (x[-1] - x[0]) / n
    steps = np.diff(x)
    if not np.allclose(steps, h, rtol=1e-8, atol=1e-12 * max(1.0, abs(h))):
        raise ValueError("composite Simpson expects a uniform grid")
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def _simpson_cell(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 50) -> float:
    """Adaptive Simpson quadrature with Richardson correction."""
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson_cell(f, a, fa, b, fb)

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm, flm, left = _simpson_cell(f, a, fa, m, fm)
        rm, frm, right = _simpson_cell(f, m, fm, b, fb)
        delta = left + right - whole
        if depth >= max_depth or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        return recurse(a, fa, lm, flm, m, fm, left, tol / 2.0, depth + 1) + recurse(
            m, fm, rm, frm, b, fb, right, tol / 2.0, depth + 1
        )

    return recurse(a, fa, m, fm, b, fb, whole, tol, 0)
