"""Domain types shared by every solver: game parameters, loss and belief
distributions, payoff evaluation, and discretized threshold curves.

Payoff conventions (all dimensionless, double precision): mutual cooperation
pays 1, defecting on a cooperating strategic partner pays b, cooperating
against a defector costs the privately observed loss l, and defecting on a
committed always-cooperate partner nets b - m, where m is the moral penalty.
Parameters must satisfy b > 1 and m > b - 1 so that a player certain of
facing a committed partner prefers to cooperate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# Beliefs are clamped to [0, 1 - BELIEF_EPS] wherever pi/(1-pi) is evaluated;
# pi = 1 is handled analytically (cooperate for every loss).
BELIEF_EPS = 1e-9

# Default knot count for discretized threshold curves.
DEFAULT_GRID_SIZE = 1001


class ParameterError(ValueError):
    """Invalid argument or model primitive (named assumption violated)."""


class RegimeError(ValueError):
    """Operation requested outside the parameter regime where it is defined."""


class ConvergenceError(RuntimeError):
    """Iterative solver failed to reach its tolerance."""


class InvariantViolation(RuntimeError):
    """A quantity left the range guaranteed by the model assumptions."""


@dataclass(frozen=True)
class GameParams:
    """Payoff primitives: defection benefit b and moral cost m."""

    b: float
    m: float

    def __post_init__(self):
        if not np.isfinite(self.b) or self.b <= 1.0:
            raise ParameterError(
                f"defection benefit must satisfy b > 1, got b={self.b}"
            )
        if not np.isfinite(self.m) or self.m <= self.b - 1.0:
            raise ParameterError(
                f"moral cost must satisfy m > b - 1, got m={self.m} with b={self.b}"
            )

    @property
    def pi_low(self) -> float:
        """Belief (b-1)/m above which full cooperation sustains itself."""
        return (self.b - 1.0) / self.m

    @property
    def coop_premium(self) -> float:
        """1 + m - b, the net gain from cooperating with a committed partner."""
        return 1.0 + self.m - self.b


def check_tol(tol: float) -> None:
    """Raise ParameterError unless a solver tolerance is positive and finite."""
    if not 0.0 < tol < np.inf:  # NaN fails too
        raise ParameterError(f"tolerance must be positive and finite, got {tol}")


def validate_params(b: float, m: float) -> GameParams:
    """Construct GameParams, rejecting b <= 1 or m <= b - 1 with diagnostics."""
    return GameParams(float(b), float(m))


@dataclass(frozen=True)
class LossDistribution:
    """Loss distribution F on [0, ell_bar] given as analytic cdf/pdf/ppf.

    All three callables accept scalars or numpy arrays. `monotone_hazard`
    declares that f/(1-F) is nondecreasing on the interior, the regularity
    condition the common-beliefs equilibrium structure relies on. `knots`
    are the losses where the density may jump, increasing from 0 to
    ell_bar; the density is smooth between them. They default to the
    support ends, and quadrature splits its range there.
    """

    cdf: Callable
    pdf: Callable
    ppf: Callable
    ell_bar: float
    monotone_hazard: bool = False
    knots: tuple[float, ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.ell_bar) or self.ell_bar <= 0:
            raise ParameterError(f"upper support must be positive, got {self.ell_bar}")
        _set_knots(self, 0.0, self.ell_bar)


@dataclass(frozen=True)
class BeliefDistribution:
    """Belief distribution G on [0, 1] with positive interior density.

    `knots` are the beliefs where the density may jump, increasing from 0
    to 1, as for `LossDistribution`; they default to (0, 1).
    """

    cdf: Callable
    pdf: Callable
    ppf: Callable
    knots: tuple[float, ...] = ()

    def __post_init__(self):
        _set_knots(self, 0.0, 1.0)


def _set_knots(dist, lo: float, hi: float) -> None:
    """Store dist.knots as a tuple of floats, (lo, hi) when none are given."""
    knots = tuple(float(k) for k in dist.knots) or (float(lo), float(hi))
    if knots[0] != lo or knots[-1] != hi or any(a >= b for a, b in zip(knots, knots[1:])):
        raise ParameterError(f"density knots must increase strictly from {lo} to {hi}, got {knots}")
    object.__setattr__(dist, "knots", knots)


def uniform_loss(ell_bar: float) -> LossDistribution:
    """Uniform loss distribution on [0, ell_bar]; hazard 1/(ell_bar - l)."""
    ell_bar = float(ell_bar)
    if not np.isfinite(ell_bar) or ell_bar <= 0:
        raise ParameterError(f"upper support must be positive, got {ell_bar}")
    density = 1.0 / ell_bar

    def cdf(x):
        if isinstance(x, np.ndarray) and x.ndim:
            return (np.asarray(x, dtype=float) / ell_bar).clip(0.0, 1.0)
        u = float(x) / ell_bar
        return 0.0 if u < 0.0 else 1.0 if u > 1.0 else u

    def pdf(x):
        if isinstance(x, np.ndarray) and x.ndim:
            return np.full_like(np.asarray(x, dtype=float), density)
        return density

    return LossDistribution(
        cdf=cdf,
        pdf=pdf,
        ppf=lambda u: np.asarray(u, dtype=float) * ell_bar,
        ell_bar=ell_bar,
        monotone_hazard=True,
    )


def uniform_belief() -> BeliefDistribution:
    """Uniform belief distribution on [0, 1]."""
    def cdf(x):
        if isinstance(x, np.ndarray) and x.ndim:
            return np.asarray(x, dtype=float).clip(0.0, 1.0)
        u = float(x)
        return 0.0 if u < 0.0 else 1.0 if u > 1.0 else u

    def pdf(x):
        if isinstance(x, np.ndarray) and x.ndim:
            return np.ones_like(np.asarray(x, dtype=float))
        return 1.0

    return BeliefDistribution(
        cdf=cdf,
        pdf=pdf,
        ppf=lambda u: np.asarray(u, dtype=float),
    )


def _tabulated(knots, cdf_values, lo, hi, what):
    knots = np.asarray(knots, dtype=float)
    vals = np.asarray(cdf_values, dtype=float)
    if knots.ndim != 1 or knots.shape != vals.shape or knots.size < 2:
        raise ParameterError(f"{what}: knots and cdf values must be equal-length 1-d arrays")
    if not (np.all(np.diff(knots) > 0) and knots[0] == lo and (hi is None or knots[-1] == hi)):
        raise ParameterError(f"{what}: knots must increase strictly and span the support")
    if abs(vals[0]) > 1e-12 or abs(vals[-1] - 1.0) > 1e-12:
        raise ParameterError(f"{what}: cdf must run from 0 to 1")
    # pinned, so that the cdf is exactly 0 and 1 at the support ends
    vals = vals.copy()
    vals[0], vals[-1] = 0.0, 1.0
    if not np.all(np.diff(vals) > 0):
        raise ParameterError(f"{what}: cdf must be strictly increasing (density > 0)")

    slopes = np.diff(vals) / np.diff(knots)

    def cdf(x):
        return np.interp(np.asarray(x, dtype=float), knots, vals)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, slopes.size - 1)
        return slopes[idx]

    def ppf(u):
        return np.interp(np.asarray(u, dtype=float), vals, knots)

    return cdf, pdf, ppf, knots, slopes


def tabulated_loss(knots, cdf_values) -> LossDistribution:
    """Loss distribution from a tabulated, strictly increasing cdf.

    The density is the piecewise-constant derivative of the interpolated cdf,
    so the table knots are the distribution's `knots`. Within a segment the
    hazard f/(1-F) rises with F; across a knot it moves with the density, so
    the monotone-hazard flag is set exactly when the density is nondecreasing
    (a convex cdf).
    """
    cdf, pdf, ppf, k, slopes = _tabulated(knots, cdf_values, 0.0, None, "tabulated loss")
    return LossDistribution(
        cdf=cdf, pdf=pdf, ppf=ppf, ell_bar=float(k[-1]),
        monotone_hazard=bool(np.all(np.diff(slopes) >= -1e-12 * slopes[1:])),
        knots=tuple(k.tolist()),
    )


def tabulated_belief(knots, cdf_values) -> BeliefDistribution:
    """Belief distribution on [0, 1] from a tabulated, strictly increasing cdf;
    its density is piecewise constant between the table knots."""
    cdf, pdf, ppf, k, _ = _tabulated(knots, cdf_values, 0.0, 1.0, "tabulated belief")
    return BeliefDistribution(cdf=cdf, pdf=pdf, ppf=ppf, knots=tuple(k.tolist()))


def hazard(dist: LossDistribution, ell: float) -> float:
    """Hazard rate f(l)/(1 - F(l)); undefined at the upper support."""
    ell = float(ell)
    if not 0.0 <= ell < dist.ell_bar:
        raise ParameterError(
            f"hazard is defined on [0, ell_bar); got l={ell}, ell_bar={dist.ell_bar}"
        )
    return float(dist.pdf(ell)) / (1.0 - float(dist.cdf(ell)))


# Scalar helpers. Some kernels that accept a scalar or an array are called
# with a scalar at every root-solver step (`_group_loss`'s cdf in the shared
# solver, `_payoff_gap` in `_kink_beliefs`), so a scalar stays a Python float
# there instead of passing through 0-d arrays. The uniform distributions' cdf
# and pdf inline the array test and clamp by comparisons instead: there a
# call to `_is_array`, `min` or `max` costs more than the arithmetic it guards.


def _is_array(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim > 0


def float_or_array(x):
    """x as a Python float when it is a scalar or 0-d array, else unchanged."""
    return x if _is_array(x) else float(x)


def all_within(x, lo: float, hi: float, *, include_hi: bool = True) -> bool:
    """Whether x, a scalar or every element of an array, lies in [lo, hi]
    ([lo, hi) when include_hi is false). NaN never does."""
    return bool(np.all((lo <= x) & ((x <= hi) if include_hi else (x < hi))))


def _check_unit(name, x):
    if not all_within(x, 0.0, 1.0):
        raise ParameterError(f"{name} must lie in [0, 1], got {x}")


def payoff_cooperate(ell, pi, p):
    """Expected payoff from cooperating given belief pi and the partner's
    conditional cooperation probability p: pi + (1-pi)p - (1-pi)(1-p)l.

    Arguments may be scalars or broadcastable arrays. Independent of (b, m).
    """
    _check_unit("pi", pi)
    _check_unit("p", p)
    return pi + (1.0 - pi) * p - (1.0 - pi) * (1.0 - p) * ell


def payoff_defect(pi, p, params: GameParams):
    """Expected payoff from defecting: pi(b - m) + (1-pi)pb, elementwise for arrays."""
    _check_unit("pi", pi)
    _check_unit("p", p)
    return pi * (params.b - params.m) + (1.0 - pi) * p * params.b


class EquilibriumRoot(NamedTuple):
    value: float
    kind: str  # "interior-low" | "interior-high" | "corner-upper" | "corner-zero"


@dataclass(frozen=True)
class EquilibriumSet:
    """Classified fixed points of the common-beliefs best response at one belief."""

    pi: float
    roots: tuple[EquilibriumRoot, ...]
    regime: str  # "unique-interior" | "triple" | "unique-corner"

    def interior(self) -> tuple[float, ...]:
        return tuple(r.value for r in self.roots if r.kind.startswith("interior"))

    def _first(self, *kinds: str) -> float | None:
        """Value of the first root of one of these kinds, None when there is none."""
        return next((r.value for r in self.roots if r.kind in kinds), None)

    @property
    def ell_low(self) -> float | None:
        return self._first("interior-low", "corner-zero")

    @property
    def ell_high(self) -> float | None:
        return self._first("interior-high")

    @property
    def ell_corner(self) -> float | None:
        return self._first("corner-upper")

    @property
    def lowest(self) -> float:
        return min(r.value for r in self.roots)


@dataclass(frozen=True)
class ThresholdCurve:
    """Piecewise-linear monotone-capable curve on a strictly increasing grid.

    Houses both parameterizations of a threshold strategy: loss thresholds as
    a function of belief, or belief thresholds as a function of loss.
    `knots` and `values` are taken as float arrays without a copy where they
    already are one, and made read-only: a caller's own arrays become
    read-only too.
    """

    knots: np.ndarray
    values: np.ndarray
    codomain: tuple[float, float] = (0.0, 1.0)
    monotone: bool = False

    def __post_init__(self):
        knots = np.ascontiguousarray(self.knots, dtype=float)
        if knots.ndim != 1 or knots.size < 2:
            raise ParameterError("curve needs equal-length 1-d knots and values, N >= 2")
        if not (knots[1:] > knots[:-1]).all():
            raise ParameterError("curve knots must be strictly increasing")
        if not (math.isfinite(knots[0]) and math.isfinite(knots[-1])):
            raise ParameterError("curve knots must be finite")
        values = np.ascontiguousarray(self.values, dtype=float)
        if knots.shape != values.shape:
            raise ParameterError("curve needs equal-length 1-d knots and values, N >= 2")
        lo, hi = self.codomain
        tol = 1e-12 * max(1.0, abs(hi - lo))
        # a nondecreasing array holds no NaN, which fails every comparison,
        # so its ends are its min and max
        rising = self.monotone and (values[1:] >= values[:-1]).all()
        vmin, vmax = (values[0], values[-1]) if rising else (values.min(), values.max())
        # written so that a NaN value, whose min and max are NaN, fails; the
        # message gives min and max, which may differ from the ends in the sign of a zero
        if not (lo - tol <= vmin and vmax <= hi + tol):
            raise ParameterError(f"curve values leave the codomain [{lo}, {hi}]: "
                                 f"range [{values.min()}, {values.max()}]")
        if self.monotone and not rising:
            raise ParameterError("curve flagged monotone but values decrease")
        knots.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        # np.interp returns a value between a segment's end values, up to a
        # rounding that the pad 1e-12 max(1, max|value|) covers
        pad = 1e-12 * max(1.0, -vmin, vmax)
        object.__setattr__(self, "_floor_ceiling", (vmin - pad, vmax + pad))

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    def __call__(self, x):
        """np.interp on the knots; raises on NaN and out-of-domain queries."""
        out = np.interp(self._checked(x), self.knots, self.values)
        return float(out) if out.ndim == 0 else out

    def at_or_above(self, x, y) -> np.ndarray:
        """Whether y >= self(x), elementwise: that expression bit for bit,
        with the same checks on x, and without most of its interpolation."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        out, flags = np.empty((2, x.size), dtype=bool)
        self._at_or_above_into(x.reshape(-1), y.reshape(-1), out, flags)
        return out.reshape(x.shape)

    def _at_or_above_into(self, x, y, out, flags) -> None:
        """out = (y >= self(x)) bit for bit, for 1-d float arrays x and y,
        with the checks of `self(x)`; flags is a bool work array, and all
        four arrays have one length.

        Every value np.interp returns lies between the curve's floor and
        ceiling, so only a y between them is compared with the interpolated
        value. Near an equilibrium cutoff curve that is a few percent of
        uniform beliefs at most.
        """
        self._checked(x)
        floor, ceiling = self._floor_ceiling
        np.greater_equal(y, ceiling, out=out)
        # y < floor stays False, as does a NaN y
        near = np.flatnonzero(np.greater(np.greater_equal(y, floor, out=flags), out, out=flags))
        if near.size:
            out[near] = y[near] >= np.interp(x[near], self.knots, self.values)

    def _checked(self, x) -> np.ndarray:
        """x as a float array, raising on NaN and queries outside the domain."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.domain
        pad = 1e-12 * max(1.0, hi - lo)
        # min and max are NaN when any query is, which fails both comparisons
        if x.size and not (lo - pad <= x.min() and x.max() <= hi + pad):
            raise ParameterError(f"query outside curve domain [{lo}, {hi}] or NaN")
        return x

    def invert(self, y: float) -> float:
        """Smallest preimage of y on a monotone curve.

        Unique on strictly increasing segments; the left endpoint of any flat
        segment otherwise.
        """
        if not self.monotone:
            raise ParameterError("inversion requires a curve flagged monotone")
        y = float(y)
        vmin, vmax = float(self.values[0]), float(self.values[-1])
        pad = 1e-12 * max(1.0, vmax - vmin)
        if y < vmin - pad or y > vmax + pad:
            raise ParameterError(f"value {y} outside curve range [{vmin}, {vmax}]")
        y = min(max(y, vmin), vmax)
        # First index where values >= y; everything before lies strictly below,
        # so interpolating on segment (i-1, i) yields the smallest preimage and
        # i == 0 degenerates to the left endpoint of a flat bottom segment.
        i = int(np.searchsorted(self.values, y, side="left"))
        if i == 0:
            return float(self.knots[0])
        v0, v1 = self.values[i - 1], self.values[i]
        k0, k1 = self.knots[i - 1], self.knots[i]
        return float(k0 + (y - v0) / (v1 - v0) * (k1 - k0))


def constant_curve(knots, value: float, codomain=(0.0, 1.0)) -> ThresholdCurve:
    """Curve with a single value everywhere (nondecreasing, hence monotone)."""
    knots = np.asarray(knots, dtype=float)
    return ThresholdCurve(knots, np.full(knots.shape, float(value)), codomain, monotone=True)
