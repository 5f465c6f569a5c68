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

from dataclasses import dataclass, field
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


def validate_params(b: float, m: float) -> GameParams:
    """Construct GameParams, rejecting b <= 1 or m <= b - 1 with diagnostics."""
    return GameParams(float(b), float(m))


@dataclass(frozen=True)
class LossDistribution:
    """Loss distribution F on [0, ell_bar] given as analytic cdf/pdf/ppf.

    All three callables accept scalars or numpy arrays. `monotone_hazard`
    declares that f/(1-F) is nondecreasing on the interior, the regularity
    condition the common-beliefs equilibrium structure relies on.
    """

    cdf: Callable
    pdf: Callable
    ppf: Callable
    ell_bar: float
    monotone_hazard: bool = False

    def __post_init__(self):
        if not np.isfinite(self.ell_bar) or self.ell_bar <= 0:
            raise ParameterError(f"upper support must be positive, got {self.ell_bar}")


@dataclass(frozen=True)
class BeliefDistribution:
    """Belief distribution G on [0, 1] with positive interior density."""

    cdf: Callable
    pdf: Callable
    ppf: Callable


def uniform_loss(ell_bar: float) -> LossDistribution:
    """Uniform loss distribution on [0, ell_bar]; hazard 1/(ell_bar - l)."""
    ell_bar = float(ell_bar)
    if not np.isfinite(ell_bar) or ell_bar <= 0:
        raise ParameterError(f"upper support must be positive, got {ell_bar}")
    return LossDistribution(
        cdf=lambda x: np.clip(np.asarray(x, dtype=float) / ell_bar, 0.0, 1.0),
        pdf=lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / ell_bar),
        ppf=lambda u: np.asarray(u, dtype=float) * ell_bar,
        ell_bar=ell_bar,
        monotone_hazard=True,
    )


def uniform_belief() -> BeliefDistribution:
    """Uniform belief distribution on [0, 1]."""
    return BeliefDistribution(
        cdf=lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0),
        pdf=lambda x: np.ones_like(np.asarray(x, dtype=float)),
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

    The density is the piecewise-constant derivative of the interpolated cdf;
    the monotone-hazard flag is set only when the implied hazard is
    nondecreasing across segments.
    """
    cdf, pdf, ppf, k, slopes = _tabulated(knots, cdf_values, 0.0, None, "tabulated loss")
    mids = 0.5 * (k[:-1] + k[1:])
    haz = pdf(mids) / (1.0 - cdf(mids))
    return LossDistribution(
        cdf=cdf, pdf=pdf, ppf=ppf, ell_bar=float(k[-1]),
        monotone_hazard=bool(np.all(np.diff(haz) >= -1e-12)),
    )


def tabulated_belief(knots, cdf_values) -> BeliefDistribution:
    """Belief distribution on [0, 1] from a tabulated, strictly increasing cdf."""
    cdf, pdf, ppf, _, _ = _tabulated(knots, cdf_values, 0.0, 1.0, "tabulated belief")
    return BeliefDistribution(cdf=cdf, pdf=pdf, ppf=ppf)


def hazard(dist: LossDistribution, ell: float) -> float:
    """Hazard rate f(l)/(1 - F(l)); undefined at the upper support."""
    ell = float(ell)
    if not 0.0 <= ell < dist.ell_bar:
        raise ParameterError(
            f"hazard is defined on [0, ell_bar); got l={ell}, ell_bar={dist.ell_bar}"
        )
    return float(dist.pdf(ell)) / (1.0 - float(dist.cdf(ell)))


# Scalar helpers for the kernels that accept a scalar or an array. The root
# solvers call those kernels with scalars at every bisection step, so a scalar
# stays a Python float throughout instead of passing through 0-d arrays.


def _is_array(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim > 0


def float_or_array(x):
    """x as a Python float when it is a scalar or 0-d array, else unchanged."""
    return x if _is_array(x) else float(x)


def select(cond, a, b):
    """np.where(cond, a, b), or plain `a if cond else b` for a scalar cond."""
    if _is_array(cond):
        return np.where(cond, a, b)
    return a if cond else b


def any_of(cond) -> bool:
    """Whether a scalar condition holds, or any element of an array one does."""
    return bool(cond.any()) if _is_array(cond) else bool(cond)


def all_within(x, lo: float, hi: float, *, include_hi: bool = True) -> bool:
    """Whether x, a scalar or every element of an array, lies in [lo, hi]
    ([lo, hi) when include_hi is false). NaN never does."""
    if not _is_array(x):
        return lo <= x <= hi if include_hi else lo <= x < hi
    return bool(np.all((lo <= x) & ((x <= hi) if include_hi else (x < hi))))


def _check_unit(name, x):
    if not all_within(x, 0.0, 1.0):
        raise ParameterError(f"{name} must lie in [0, 1], got {x}")


def payoff_cooperate(ell, pi, p, params: GameParams | None = None):
    """Expected payoff from cooperating given belief pi and the partner's
    conditional cooperation probability p: pi + (1-pi)p - (1-pi)(1-p)l.

    Arguments may be scalars or broadcastable arrays. Independent of (b, m);
    the params argument exists for interface symmetry.
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

    @property
    def ell_low(self) -> float | None:
        for r in self.roots:
            if r.kind in ("interior-low", "corner-zero"):
                return r.value
        return None

    @property
    def ell_high(self) -> float | None:
        for r in self.roots:
            if r.kind == "interior-high":
                return r.value
        return None

    @property
    def ell_corner(self) -> float | None:
        for r in self.roots:
            if r.kind == "corner-upper":
                return r.value
        return None

    @property
    def lowest(self) -> float:
        return min(r.value for r in self.roots)


@dataclass(frozen=True)
class ThresholdCurve:
    """Piecewise-linear monotone-capable curve on a strictly increasing grid.

    Houses both parameterizations of a threshold strategy: loss thresholds as
    a function of belief, or belief thresholds as a function of loss.
    """

    knots: np.ndarray
    values: np.ndarray
    codomain: tuple[float, float] = (0.0, 1.0)
    monotone: bool = False

    def __post_init__(self):
        knots = np.ascontiguousarray(self.knots, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
            raise ParameterError("curve needs equal-length 1-d knots and values, N >= 2")
        if not np.all(np.diff(knots) > 0):
            raise ParameterError("curve knots must be strictly increasing")
        lo, hi = self.codomain
        tol = 1e-12 * max(1.0, abs(hi - lo))
        if values.min() < lo - tol or values.max() > hi + tol:
            raise ParameterError(
                f"curve values leave the codomain [{lo}, {hi}]: "
                f"range [{values.min()}, {values.max()}]"
            )
        if self.monotone and not np.all(np.diff(values) >= 0):
            raise ParameterError("curve flagged monotone but values decrease")
        knots.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    def __call__(self, x):
        """Piecewise-linear interpolation; raises on out-of-domain queries."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.domain
        pad = 1e-12 * max(1.0, hi - lo)
        if np.any(x < lo - pad) or np.any(x > hi + pad):
            raise ParameterError(f"query outside curve domain [{lo}, {hi}]")
        out = np.interp(x, self.knots, self.values)
        return float(out) if out.ndim == 0 else out

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
