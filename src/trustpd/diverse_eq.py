"""Belief-threshold equilibrium when each player's belief is private.

Strategies are described by a belief cutoff as a function of the loss: given
loss l, cooperate when the own belief is at least s(l). The symmetric
equilibrium cutoff is the unique fixed point of

    T(s)(l) = 1 - (1 + m - b) / (m + (l - (b - 1)) * I[s]),
    I[s] = integral of G(s(l)) dF(l) over the loss support,

a contraction on bounded curves, solved here by iterating T on a shared knot
grid. For uniform F and G on [0, 1] the fixed point is 1 - (1+m-b)/(a + c*l)
with coefficients (a, c) tied together by a scalar system, solved exactly or
by the large-m closed forms.
"""

from __future__ import annotations

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
    constant_curve,
    float_or_array,
    select,
)
from .numerics import bisect_root, composite_simpson


@dataclass(frozen=True)
class DiverseSolution:
    """Converged belief-cutoff curve with solver diagnostics."""

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

    beta doubles as the cutoff at l = 0 and as the mean cutoff over [0, 1].
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
    den = params.m + (k - (params.b - 1.0)) * big_i
    if np.any(den <= 0.0):
        raise InvariantViolation(
            "best-response denominator vanished; parameters inconsistent with m > b - 1"
        )
    vals = 1.0 - params.coop_premium / den
    vals = np.clip(vals, 0.0, 1.0)
    return ThresholdCurve(k, vals, codomain=(0.0, 1.0),
                          monotone=bool(np.all(np.diff(vals) >= 0)))


def cooperation_prob_given_strategy(
    curve: ThresholdCurve, F: LossDistribution, G: BeliefDistribution
) -> float:
    """Probability a strategic partner cooperates: integral of 1 - G(s(l)) dF."""
    _check_unit_curve(curve, F)
    k = curve.knots
    integrand = (1.0 - np.asarray(G.cdf(curve.values))) * np.asarray(F.pdf(k))
    return composite_simpson(integrand, k)


def solve_diverse_threshold(
    params: GameParams,
    F: LossDistribution,
    G: BeliefDistribution,
    tol: float = 1e-10,
    max_iter: int = 10000,
    n_knots: int = DEFAULT_GRID_SIZE,
) -> DiverseSolution:
    """Iterate T to its fixed point from the constant curve (b-1)/m.

    The start is the T-image of the all-cooperate curve; uniqueness makes the
    choice immaterial, so the cheapest admissible curve wins. The sufficient
    contraction bound is (1+m-b) |G| |F| / m^2, where the G factor must be
    the Lipschitz constant of the belief cdf (the sup of its density; 1 for
    the uniform case) for the bound to control |G(s1)-G(s2)|, and the F
    factor is the unit total mass. When the bound is not below one the
    iteration is damped (step halfway toward T(s)) and flagged.
    """
    knots = np.linspace(0.0, F.ell_bar, n_knots)
    s = constant_curve(knots, params.pi_low)
    g_sup = float(np.max(np.asarray(G.pdf(np.linspace(0.0, 1.0, 2001)))))
    gamma = params.coop_premium * g_sup * 1.0 / params.m ** 2
    damped = gamma >= 1.0

    history: list[float] = []
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        image = apply_T(s, params, F, G)
        vals = image.values if not damped else 0.5 * (s.values + image.values)
        residual = float(np.max(np.abs(vals - s.values)))
        history.append(residual)
        s = ThresholdCurve(knots, vals, codomain=(0.0, 1.0),
                           monotone=bool(np.all(np.diff(vals) >= 0)))
        if residual <= tol:
            break
    else:
        raise ConvergenceError(
            f"no fixed point after {max_iter} iterations (last residual {residual:.3e})"
        )

    if not np.all(np.diff(s.values) > 0):
        raise ConvergenceError("converged cutoff curve is not strictly increasing")
    s = ThresholdCurve(knots, s.values, codomain=(0.0, 1.0), monotone=True)
    return DiverseSolution(
        threshold=s,
        coop_prob=cooperation_prob_given_strategy(s, F, G),
        iterations=iteration,
        residual=residual,
        contraction_gamma=gamma,
        residual_history=tuple(history),
        damped=damped,
    )


def _approximate_alpha_beta(params: GameParams) -> tuple[float, float]:
    a = params.coop_premium
    root = math.sqrt(1.0 + 4.0 * (params.b - 1.0) / a)
    return a / 2.0 * (1.0 + root), (root - 1.0) / (root + 1.0)


def solve_alpha_beta(params: GameParams, mode: str = "exact") -> AlphaBeta:
    """Cutoff coefficients for uniform F and G on [0, 1].

    Approximate mode returns the large-m closed forms. Exact mode solves the
    defining scalar system; substituting alpha = m - (b-1) beta reduces it to
    one equation in beta, bracketed on (0, 1) and bisected, after which both
    original equations are verified.
    """
    if mode not in ("exact", "approximate"):
        raise ParameterError(f"mode must be 'exact' or 'approximate', got {mode!r}")
    a = params.coop_premium
    if mode == "approximate":
        alpha, beta = _approximate_alpha_beta(params)
        return AlphaBeta(alpha=alpha, beta=beta, mode="approximate")

    def reduced(beta):
        alpha = params.m - (params.b - 1.0) * beta
        return beta * beta - beta + a * math.log1p(beta / alpha)

    beta = bisect_root(reduced, 1e-12, 1.0 - 1e-12, ftol=1e-15, max_iter=300)
    alpha = params.m - (params.b - 1.0) * beta
    r1 = alpha - a * (1.0 + (params.b - 1.0) / beta * math.log1p(beta / alpha))
    r2 = beta - 1.0 + a / beta * math.log1p(beta / alpha)
    scale = max(1.0, alpha)
    if abs(r1) > 1e-9 * scale or abs(r2) > 1e-9:
        raise ConvergenceError(
            f"exact coefficient system residuals too large: {r1:.3e}, {r2:.3e}"
        )
    return AlphaBeta(alpha=alpha, beta=beta, mode="exact")


def closed_form_diverse_uniform(pi, params: GameParams, ab: AlphaBeta):
    """Loss threshold implied by the uniform-case cutoff, inverted at belief pi.

    Zero below beta, one above 1 - (1+m-b)/(alpha+beta), and the middle branch
    ((1+m-b)/(1-pi) - alpha)/beta in between. pi may be a scalar (returns a
    float) or an array of beliefs.
    """
    if not all_within(pi, 0.0, 1.0, include_hi=False):
        raise ParameterError(f"belief must lie in [0, 1), got {pi}")
    pi = float_or_array(pi)
    a = params.coop_premium
    upper = 1.0 - a / (ab.alpha + ab.beta)
    middle = (a / (1.0 - pi) - ab.alpha) / ab.beta
    middle = select(0.0 > middle, 0.0, middle)
    middle = select(1.0 < middle, 1.0, middle)
    return select(pi < ab.beta, 0.0, select(pi >= upper, 1.0, middle))
