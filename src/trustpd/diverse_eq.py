"""Belief-threshold equilibrium when each player's belief is private.

Strategies are described by a belief cutoff as a function of the loss: given
loss l, cooperate when the own belief is at least s(l). The symmetric
equilibrium cutoff is the unique fixed point of

    T(s)(l) = 1 - (1 + m - b) / (m + (l - (b - 1)) * I[s]),
    I[s] = integral of G(s(l)) dF(l) over the loss support,

which is a contraction on bounded curves for most games, but not all. T(s)
depends on s only through the scalar I[s], so the solver keeps the curve's
values on a uniform knot grid as plain arrays and takes each step as one
pass over them: iterating T while it contracts, otherwise solving the scalar
equation I[s_I] = I, s_I the cutoff at I, with `bisect_root`. For uniform F
and G on [0, 1] the fixed point is 1 - (1+m-b)/(a + c*l) with coefficients
(a, c) tied together by a scalar system, solved exactly or by the large-m
closed forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BeliefDistribution,
    ConvergenceError,
    DEFAULT_GRID_SIZE,
    GameParams,
    InvariantViolation,
    LossDistribution,
    ParameterError,
    ThresholdCurve,
    all_within,
    check_tol,
    float_or_array,
)
from .numerics import bisect_root, composite_simpson


@dataclass(frozen=True)
class DiverseSolution:
    """Converged belief-cutoff curve with solver diagnostics.

    `iterations` counts solver steps, each one Simpson-and-cutoff pass, and
    `residual_history` holds each step's max|T(s) - s|, `residual` that of
    the returned curve. `contraction_gamma` is the bound (1+m-b) sup g / m^2,
    with the exact sup of the belief density. It bounds T's Lipschitz
    constant only where |l - (b-1)| <= 1 and m + (l-(b-1)) I >= m; elsewhere
    T need not contract though it reads below one (0.77 at (4, 3.0625) with
    a steep belief, where the iterates two-cycle). `damped` is set when the
    fixed point was found as a root of the scalar equation in I rather than
    by iterating T: when the bound is at least one, or when an iteration
    step shrank the residual by less than a tenth.
    """

    threshold: ThresholdCurve
    coop_prob: float
    iterations: int
    residual: float
    contraction_gamma: float
    residual_history: tuple[float, ...]
    damped: bool


@dataclass(frozen=True)
class AlphaBeta:
    """Coefficients of the uniform-case cutoff 1 - (1+m-b)/(alpha + beta*l).

    beta is the mean cutoff over [0, 1]; the cutoff at l = 0, the lower kink
    of the inverted threshold, is 1 - (1+m-b)/alpha. The two coincide for
    the approximate coefficients only.
    """

    alpha: float
    beta: float
    mode: str  # "exact" | "approximate"

    def __post_init__(self):
        if not (self.alpha > 0 and 0.0 < self.beta < 1.0):
            raise InvariantViolation(
                f"alpha must be positive and beta in (0, 1): got ({self.alpha}, {self.beta})"
            )


def _check_unit_curve(curve: ThresholdCurve, dist: LossDistribution):
    lo, hi = curve.domain
    if abs(lo) > 1e-9 or abs(hi - dist.ell_bar) > 1e-9 * max(1.0, dist.ell_bar):
        raise ParameterError(
            f"curve domain [{lo}, {hi}] must span the loss support [0, {dist.ell_bar}]"
        )
    if curve.values.min() < -1e-12 or curve.values.max() > 1.0 + 1e-12:
        raise ParameterError("curve values must lie in [0, 1]")


def _cutoff(big_i: float, shift: np.ndarray, params: GameParams) -> np.ndarray:
    """The cutoff values 1 - (1+m-b)/(m + (l-(b-1)) I), clipped to [0, 1], on
    knots l given as shift = l - (b-1). The denominator is affine in l, so its
    sign on the grid is decided at the two end knots. The cutoff is computed
    as ((b-1) + (l-(b-1)) I)/den, the same value without the cancellation of
    1 - (1+m-b)/den when it is small, about (b-1)/m at large m. The product
    (l-(b-1)) I is formed once, and the cutoff built in its array."""
    out = shift * big_i
    den = out + params.m
    if den[0] <= 0.0 or den[-1] <= 0.0:
        raise InvariantViolation(
            "best-response denominator vanished; parameters inconsistent with m > b - 1"
        )
    out += params.b - 1.0
    out /= den
    # b - 1 < m, so each numerator rounds to at most its denominator and the
    # quotient to at most 1: only the lower end needs clipping. The numerator
    # is monotone in l, so it is negative somewhere only if at an end knot
    # (where I > 1). None is -0.0, so np.maximum gives the two-sided clip's bits
    if out[0] < 0.0 or out[-1] < 0.0:
        np.maximum(out, 0.0, out=out)
    return out


def apply_T(
    curve: ThresholdCurve, params: GameParams, F: LossDistribution, G: BeliefDistribution
) -> ThresholdCurve:
    """One application of the best-response operator on the curve's own grid.

    The integral I is computed by composite Simpson on the knots so that
    quadrature and interpolation never disagree about the curve.
    """
    _check_unit_curve(curve, F)
    k = curve.knots
    big_i = composite_simpson(np.asarray(G.cdf(curve.values)) * np.asarray(F.pdf(k)), k)
    vals = _cutoff(big_i, k - (params.b - 1.0), params)
    return ThresholdCurve(k, vals, codomain=(0.0, 1.0),
                          monotone=bool((vals[1:] >= vals[:-1]).all()))


def cooperation_prob_given_strategy(
    curve: ThresholdCurve, F: LossDistribution, G: BeliefDistribution
) -> float:
    """Probability a strategic partner cooperates: integral of 1 - G(s(l)) dF."""
    _check_unit_curve(curve, F)
    k = curve.knots
    return composite_simpson((1.0 - np.asarray(G.cdf(curve.values))) * np.asarray(F.pdf(k)), k)


_DENSITY_PROBES = np.linspace(0.0, 1.0, 2001)
_DENSITY_PROBES.setflags(write=False)


def _density_sup(G: BeliefDistribution) -> float:
    """sup of G's density: its largest value on a 2001-point grid and at the
    midpoint of every segment between G's knots, which is exact for a
    piecewise-constant density however narrow its segments."""
    knots = G.knots
    mids = [0.5 * (lo + hi) for lo, hi in zip(knots, knots[1:])]
    return float(np.asarray(G.pdf(np.concatenate((_DENSITY_PROBES, mids)))).max())


@functools.lru_cache(maxsize=8)
def _simpson_grid(ell_bar: float, n_knots: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniform grid of n_knots losses on [0, ell_bar] and its composite
    Simpson weights h/3 (1, 4, 2, 4, ..., 2, 4, 1), both read-only, shared by
    every solve on that support and knot count."""
    knots = np.linspace(0.0, ell_bar, n_knots)
    knots.setflags(write=False)
    weights = np.full(n_knots, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= ell_bar / (n_knots - 1) / 3.0
    weights.setflags(write=False)
    return knots, weights


def solve_diverse_threshold(
    params: GameParams,
    F: LossDistribution,
    G: BeliefDistribution,
    tol: float = 1e-10,
    max_iter: int = 10000,
    n_knots: int = DEFAULT_GRID_SIZE,
) -> DiverseSolution:
    """Fixed point of T on a uniform grid of n_knots losses.

    T(s) depends on s only through the scalar I[s], so the state of the
    solver is the curve's values on the knots, and each step is one pass over
    plain arrays: I as the sum of G(s) times the weights w, the cutoff at I
    built in one array, and the residual as one max. w is the composite
    Simpson weights times F's density at the knots; the knots and the
    weights are built once per (ell_bar, n_knots) and cached read-only, and
    `coop_prob` and the damped path's M come from the same w. The returned
    curve is validated once, knots and values, when it is built. The sum is
    one multiply and one `np.add.reduce`, not `np.dot`: BLAS picks its
    summation order by CPU, so `np.dot` gives other bits on other machines.

    A step makes nine numpy calls on the knots besides G's cdf, and at the
    default 1001 knots their per-call overhead, not the arithmetic, sets its
    time. On a 2-vCPU Xeon (best of 40 runs) a solve at (2.5, 20) takes
    about 117 us, 7 steps of 11 us and 37 us to set up and finish. The
    steps are Picard's, stopped by the rule below: a secant step on I would
    take fewer, but `reproduce-all` writes the count, 8 at (2, 8), and a
    count that moves fails the comparison of its outputs with the recorded
    ones.

    The contraction bound is gamma = (1+m-b) |G| |F| / m^2, where
    the G factor must be the Lipschitz constant of the belief cdf (the sup of
    its density, exact for a piecewise-constant one; 1 for the uniform case)
    for the bound to control |G(s1)-G(s2)|, and the F factor is the unit
    total mass.

    - gamma < 1: iterate T from the constant curve (b-1)/m, the T-image of the
      all-cooperate curve. Uniqueness makes the start immaterial, so the
      cheapest admissible curve wins. Each iteration records max|T(s) - s|.
      The bound takes |l - (b-1)| <= 1 and a denominator of at least m, which
      fail when b - 1 is large against m - (b-1); there the iterates can
      settle on a two-cycle, or creep: at (2, 1 + 1e-11) the residual ratio
      of successive steps stays near 1, and 10000 steps end at a residual
      of 1.9e-2. So a step that shrinks the residual by less than a tenth
      (a ratio of 0.9 or more) hands over to the root solve below. Where T
      does contract, the ratio is far below that: 0.056 at (2, 8), and at
      most 0.26 over 600 games drawn like the benchmark's.
    - gamma >= 1, or after such a step (`damped`): one `bisect_root` call
      on [0, M], M the Simpson mass of F's density, solves Phi(I) = I, where
      Phi(I) = I[s_I] and s_I is the cutoff at I; Phi(0) >= 0 and
      Phi(M) <= M. Each evaluation is a step that records max|T(s_I) - s_I|.
      Its excess is 0 once that is at most tol and Phi(I) - I otherwise, so
      every bracket holds a zero, and s_I is returned there.

    Raises ParameterError unless n_knots - 1 is an even count of at least 2
    (Simpson's rule), tol is positive and finite and max_iter at least 1, and
    ConvergenceError when max_iter steps in all do not reach tol, when the
    bracket on I collapses above tol, or when the curve decreases. It may be
    flat: from m - (b-1) of about 1e13 on, neighbouring knots round to one
    cutoff, as do a few near ell_bar at m - (b-1) = 1e-13, where the cutoff
    is within 1e-13 of 1.
    """
    check_tol(tol)
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    if n_knots < 3 or n_knots % 2 == 0:
        raise ParameterError(f"n_knots must be odd and at least 3, got {n_knots}")
    knots, simpson = _simpson_grid(F.ell_bar, n_knots)
    w = simpson * F.pdf(knots)
    shift = knots - (params.b - 1.0)
    gamma = params.coop_premium * _density_sup(G) * 1.0 / params.m ** 2

    history: list[float] = []

    def image(vals):
        """(I[s], T(s)) for cutoff values s, recording max|T(s) - s|."""
        big_i = float(np.add.reduce(G.cdf(vals) * w))
        out = _cutoff(big_i, shift, params)
        gap = out - vals
        history.append(float(np.abs(gap, out=gap).max()))
        if history[-1] > tol and len(history) >= max_iter:
            raise ConvergenceError(
                f"no fixed point after {max_iter} iterations (last residual {history[-1]:.3e})"
            )
        return big_i, out

    damped = gamma >= 1.0
    # the constant starting curve, as one number: G's cdf and the residual broadcast it
    vals = params.pi_low
    while not damped:
        vals = image(vals)[1]
        if history[-1] <= tol:
            break
        # a step that shrinks the residual by less than a tenth: T contracts
        # too slowly here, or not at all
        damped = len(history) > 1 and history[-1] >= 0.9 * history[-2]
    if not damped:
        residual = history[-1]
    else:
        evaluated = {}

        def excess(big_i):
            cut = _cutoff(big_i, shift, params)
            phi = image(cut)[0]
            evaluated[big_i] = cut, history[-1]
            return 0.0 if history[-1] <= tol else phi - big_i

        # image() enforces the step budget, so bisect_root's cap never binds
        root = bisect_root(excess, 0.0, float(w.sum()), ftol=0.0, max_iter=max_iter)
        vals, residual = evaluated[root]
        if residual > tol:
            raise ConvergenceError(
                f"bisection on I collapsed at {root!r} (last residual {residual:.3e})"
            )

    try:
        threshold = ThresholdCurve(knots, vals, codomain=(0.0, 1.0), monotone=True)
    except ParameterError as exc:
        raise ConvergenceError(f"converged cutoff curve is no threshold: {exc}") from None
    return DiverseSolution(
        threshold=threshold,
        coop_prob=float(np.add.reduce((1.0 - np.asarray(G.cdf(vals))) * w)),
        iterations=len(history),
        residual=residual,
        contraction_gamma=gamma,
        residual_history=tuple(history),
        damped=damped,
    )


def _approximate_alpha_beta(params: GameParams) -> tuple[float, float]:
    # beta = (r-1)/(r+1) = x/(r+1)^2, r = sqrt(1+x): no cancellation as r -> 1
    a = params.coop_premium
    x = 4.0 * (params.b - 1.0) / a
    root = math.sqrt(1.0 + x)
    return a / 2.0 * (1.0 + root), x / (root + 1.0) ** 2


def _log1p_ratio_minus_one(x: float) -> float:
    """log1p(x)/x - 1 for x > 0; below 1e-4, where the quotient is within
    about 5e-5 of 1 and the subtraction would cancel, its series to x^4."""
    if x < 1e-4:
        return x * (-0.5 + x * (1.0 / 3.0 + x * (-0.25 + x * 0.2)))
    return math.log1p(x) / x - 1.0


def solve_alpha_beta(params: GameParams, mode: str = "exact") -> AlphaBeta:
    """Cutoff coefficients for uniform F and G on [0, 1].

    Approximate mode returns the large-m closed forms. Exact mode solves the
    defining scalar system; substituting alpha = m - (b-1) beta reduces it to
    one equation in beta, refined to adjacent floats, after which both
    original equations are verified, each to 1e-9 of its largest term.

    The reduced equation beta - 1 + (a/beta) log1p(beta/alpha) = 0, a = 1+m-b,
    is solved as beta + L - (b-1)(1-beta)(1+L)/alpha = 0 with x = beta/alpha
    and L = log1p(x)/x - 1, using a/alpha = 1 - (b-1)(1-beta)/alpha. Its terms
    are then of the size of beta rather than 1, which keeps beta to a few ulps
    when it is small, about (b-1)/m at large m. The left side is -(b-1)/m
    at beta = 0 and 1 + L > 0 at beta = 1, so the bracket runs from the
    smallest positive float to 1, whatever the size of beta.
    """
    if mode not in ("exact", "approximate"):
        raise ParameterError(f"mode must be 'exact' or 'approximate', got {mode!r}")
    a = params.coop_premium
    if mode == "approximate":
        alpha, beta = _approximate_alpha_beta(params)
        return AlphaBeta(alpha=alpha, beta=beta, mode="approximate")
    b1 = params.b - 1.0

    def reduced(beta):
        alpha = params.m - b1 * beta
        big_l = _log1p_ratio_minus_one(beta / alpha)
        return beta + big_l - b1 * (1.0 - beta) * (1.0 + big_l) / alpha

    beta = bisect_root(reduced, math.ulp(0.0), 1.0, ftol=0.0, max_iter=300)
    alpha = params.m - b1 * beta
    log_term = math.log1p(beta / alpha)
    t1 = a * (1.0 + b1 / beta * log_term)
    t2 = a / beta * log_term
    r1 = alpha - t1
    r2 = beta - 1.0 + t2
    if abs(r1) > 1e-9 * max(alpha, t1) or abs(r2) > 1e-9 * max(1.0, t2):
        raise ConvergenceError(
            f"exact coefficient system residuals too large: {r1:.3e}, {r2:.3e}"
        )
    return AlphaBeta(alpha=alpha, beta=beta, mode="exact")


def _cutoff_at(params: GameParams, ab: AlphaBeta, loss: float) -> float:
    """The uniform-case cutoff 1 - (1+m-b)/(alpha + beta*l) at l = loss, as
    ((b-1)(1-beta) + beta*l)/(alpha + beta*l): the two agree because
    alpha = m - (b-1) beta in both modes, and this form does not cancel at
    small beliefs."""
    return ((params.b - 1.0) * (1.0 - ab.beta) + ab.beta * loss) / (ab.alpha + ab.beta * loss)


def closed_form_diverse_uniform(pi, params: GameParams, ab: AlphaBeta):
    """Loss threshold implied by the uniform-case cutoff, inverted at belief pi.

    The middle branch ((1+m-b)/(1-pi) - alpha)/beta clipped to [0, 1], which
    is zero below the cutoff at l = 0, 1 - (1+m-b)/alpha, and one from the
    cutoff at l = 1 on. pi may be a scalar (returns a float) or an array of
    beliefs. With alpha = m - (b-1) beta, (1+m-b) - alpha is -(b-1)(1-beta),
    so the middle branch is computed as (pi alpha - (b-1)(1-beta))/((1-pi) beta)
    and the upper kink by `_cutoff_at`: neither subtracts two terms of the
    size of m, whose rounding would move the threshold by about eps m^2/(b-1).
    """
    if not all_within(pi, 0.0, 1.0, include_hi=False):
        raise ParameterError(f"belief must lie in [0, 1), got {pi}")
    pi = float_or_array(pi)
    upper = _cutoff_at(params, ab, 1.0)
    middle = (pi * ab.alpha - (params.b - 1.0) * (1.0 - ab.beta)) / ((1.0 - pi) * ab.beta)
    middle = np.where(0.0 > middle, 0.0, middle)
    middle = np.where(1.0 < middle, 1.0, middle)
    return float_or_array(np.where(pi >= upper, 1.0, middle))
