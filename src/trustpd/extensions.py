"""Asymmetric commonly-known beliefs and the (n+1)-player group game.

With beliefs pi1 != pi2 known to both sides, the equilibrium thresholds solve
the coupled system l1 = BR(l2; pi1), l2 = BR(l1; pi2) of clamped reduced-form
best responses. When pi1 < (b-1)/m player 1's reaction slopes down, the
curves intersect once, and raising pi2 strictly lowers l1.

The group game pits one player against n possibly-committed others. Two
payoff readings are implemented behind a flag: `as_printed` keeps the source
equations verbatim, with cooperation worth (1-l) times the probability all
others cooperate and defection worth b - m pi^n outright; `consistent`
carries the two-player payoff algebra over, with cooperation worth
(1+l) P^n - l and defection worth b P^n - m pi^n for P the per-player
cooperation probability, so n = 1 reproduces the two-player game exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .common_eq import best_response_threshold
from .core import (
    BeliefDistribution,
    ConvergenceError,
    GameParams,
    LossDistribution,
    ParameterError,
    RegimeError,
    ThresholdCurve,
    float_or_array,
)
from .numerics import adaptive_simpson, bracket_roots

VARIANTS = ("consistent", "as_printed")


@dataclass(frozen=True)
class AsymmetricEquilibrium:
    pi1: float
    pi2: float
    ell1_hat: float
    ell2_hat: float
    unique: bool


def solve_asymmetric(
    pi1: float, pi2: float, params: GameParams, dist: LossDistribution, tol: float = 1e-12
) -> AsymmetricEquilibrium:
    """Solve the two-threshold system through the composed best response.

    l1 is a fixed point of BR1(BR2(.)), a continuous map of [0, ell_bar] into
    itself, so `bracket_roots` on a 2001-point grid always lands on a solution;
    this avoids the cobweb divergence plain alternation suffers when the
    partner's reaction curve is steep. Uniqueness holds (and is flagged) for
    pi1 < (b-1)/m; outside that range the lowest intersection is returned
    with unique=False.
    """
    big_l = dist.ell_bar

    def br1(l2):
        return best_response_threshold(pi1, l2, params, dist)

    def br2(l1):
        return best_response_threshold(pi2, l1, params, dist)

    def gap(l1):
        return br1(br2(l1)) - l1

    scan = bracket_roots(gap, np.linspace(0.0, big_l, 2001), zero_tol=tol, ftol=tol)
    roots = scan.zeros + scan.roots
    if not roots:
        raise ConvergenceError("no intersection of the reaction curves found")
    ell1 = min(roots)
    ell2 = br2(ell1)
    return AsymmetricEquilibrium(
        pi1=pi1, pi2=pi2, ell1_hat=ell1, ell2_hat=ell2, unique=pi1 < params.pi_low
    )


def asymmetric_sensitivity(
    pi1: float,
    pi2: float,
    params: GameParams,
    dist: LossDistribution,
    step: float = 1e-5,
) -> float:
    """Central-difference d(l1)/d(pi2); negative when pi1 < (b-1)/m < pi2.

    Requires an interior solution at pi2 and both perturbations: at a corner
    the threshold is locally constant and the derivative is not defined.
    """
    if not pi1 < params.pi_low < pi2:
        raise ParameterError(
            f"sign claim needs pi1 < (b-1)/m < pi2; got pi1={pi1}, pi2={pi2}, "
            f"(b-1)/m={params.pi_low}"
        )
    margin = 1e-7 * dist.ell_bar
    solutions = [
        solve_asymmetric(pi1, p2, params, dist) for p2 in (pi2 - step, pi2, pi2 + step)
    ]
    for sol in solutions:
        for val in (sol.ell1_hat, sol.ell2_hat):
            if val < margin or val > dist.ell_bar - margin:
                raise RegimeError(
                    f"corner solution at (pi1={sol.pi1}, pi2={sol.pi2}); "
                    "derivative undefined"
                )
    return (solutions[2].ell1_hat - solutions[0].ell1_hat) / (2.0 * step)


def binomial_mixture(n: int, pi, q) -> np.ndarray | float:
    """Sum over k of C(n,k) pi^k q^(n-k), with exact integer coefficients.

    Equals (pi + q)^n; kept as an explicit sum so the group equations read
    like their definitions. Python integers never overflow, so no log-space
    branch is needed at large n.
    """
    pi = np.asarray(pi, dtype=float)
    q = np.asarray(q, dtype=float)
    out = np.zeros(np.broadcast(pi, q).shape)
    for k in range(n + 1):
        out = out + math.comb(n, k) * pi ** k * q ** (n - k)
    return float(out) if out.ndim == 0 else out


class GroupRoot(NamedTuple):
    value: float
    corner: bool
    residual: float


def _payoff_gap(n: int, pi, t, coop_prob, params: GameParams, variant: str):
    """Cooperation-minus-defection payoff at loss threshold t against n others,
    each strategic other cooperating with probability coop_prob.

    Elementwise over arrays of pi, t or coop_prob, and a float for scalars.
    float_power keeps the scalar pow of pi**n, so a belief gives the same gap
    alone or as an array element.
    """
    s = binomial_mixture(n, pi, (1.0 - pi) * coop_prob)
    moral = params.m * np.float_power(pi, n)
    if variant == "consistent":
        return float_or_array((1.0 + t - params.b) * s - t + moral)
    return float_or_array((1.0 - t) * s - t - params.b + moral)


def _group_gap(n: int, pi: float, params: GameParams, variant: str,
               coop_prob_of: Callable) -> Callable:
    """The payoff gap at a shared belief pi as a function of the threshold t.

    coop_prob_of(t) supplies the per-other-player strategic cooperation
    probability (F(t) in the common case, the population constant in the
    diverse case). t may be a scalar (the gap is a float) or an array.
    """
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return lambda t: _payoff_gap(n, pi, t, coop_prob_of(t), params, variant)


def solve_group_common(
    n: int,
    pi: float,
    params: GameParams,
    F: LossDistribution,
    variant: str = "consistent",
    tol: float = 1e-12,
) -> GroupRoot:
    """Threshold of one player facing n others under a shared belief.

    Takes the first sign change `bracket_roots` finds in the payoff gap; with
    no interior crossing the threshold is the corner the gap's sign dictates
    (cooperate for all losses when positive throughout).
    """
    if n < 1:
        raise ParameterError(f"group size n must be >= 1, got {n}")
    if not 0.0 <= pi < 1.0:
        raise ParameterError(f"belief must lie in [0, 1), got {pi}")
    gap = _group_gap(n, pi, params, variant, F.cdf)
    big_l = F.ell_bar
    scan = bracket_roots(gap, np.linspace(0.0, big_l, 1001), zero_tol=tol, ftol=tol)
    if scan.roots:
        root = scan.roots[0]
        return GroupRoot(value=root, corner=False, residual=abs(gap(root)))
    if scan.zeros:
        return GroupRoot(value=scan.zeros[0], corner=False, residual=abs(gap(scan.zeros[0])))
    vals = scan.values
    corner = big_l if vals[vals != 0].mean() > 0 else 0.0
    return GroupRoot(value=corner, corner=True, residual=abs(gap(corner)))


def _group_threshold_given_q(n, pis, q, params, variant, big_l):
    """Per-belief thresholds with the population cooperation probability fixed.

    With q fixed the payoff gap is linear in t, so the root is closed-form
    and only needs clamping to [0, ell_bar].
    """
    s = binomial_mixture(n, pis, (1.0 - pis) * q)
    moral = params.m * pis ** n
    if variant == "consistent":
        den = 1.0 - s
        num = moral - (params.b - 1.0) * s
        t = np.where(den > 1e-14, num / np.where(den > 1e-14, den, 1.0), np.inf)
        # P -> 1 collapses the gap to the constant 1 - b + m pi^n
        const_sign = 1.0 - params.b + moral
        t = np.where(den > 1e-14, t, np.where(const_sign > 0, np.inf, -np.inf))
    else:
        t = (s - params.b + moral) / (s + 1.0)
    return np.clip(t, 0.0, big_l)


def _clamp_kinks(n, q, params, variant, big_l):
    """Beliefs where the threshold enters/leaves its clamped corners.

    The payoff gap is decreasing in t, so the threshold sits at 0 exactly
    when the gap at t=0 is nonpositive and at ell_bar when the gap at
    t=ell_bar is nonnegative; both gap-at-corner functions are smooth in pi,
    so their roots mark the integrand kinks.
    """
    def h0(pi):
        return _payoff_gap(n, pi, 0.0, q, params, variant)

    def h_top(pi):
        return _payoff_gap(n, pi, big_l, q, params, variant)

    grid = np.linspace(0.0, 1.0, 513)
    kinks = [k for fn in (h0, h_top)
             for k in bracket_roots(fn, grid, zero_tol=0.0, ftol=1e-14).roots]
    return sorted(k for k in kinks if 0.0 < k < 1.0)


def solve_group_diverse(
    n: int,
    params: GameParams,
    F: LossDistribution,
    G: BeliefDistribution,
    tol: float = 1e-12,
    variant: str = "consistent",
    n_knots: int = 2001,
    max_iter: int = 500,
) -> ThresholdCurve:
    """Group thresholds as a function of the own belief, beliefs private.

    Outer fixed point on the scalar population cooperation probability
    q = integral of F(threshold(pi)) dG(pi): given q the per-belief threshold
    is explicit, and q is re-integrated until stationary. The integrand has
    derivative kinks where the threshold hits its corners, so the integral is
    assembled piecewise between the kink beliefs with adaptive Simpson.
    """
    if n < 1:
        raise ParameterError(f"group size n must be >= 1, got {n}")
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")
    pis = np.linspace(0.0, 1.0, n_knots)
    big_l = F.ell_bar

    def q_update(q):
        def integrand(pi):
            t = _group_threshold_given_q(n, np.asarray([pi]), q, params, variant, big_l)
            return float(F.cdf(t[0])) * float(G.pdf(pi))

        splits = [0.0] + _clamp_kinks(n, q, params, variant, big_l) + [1.0]
        return sum(
            adaptive_simpson(integrand, a, b, tol=1e-13)
            for a, b in zip(splits[:-1], splits[1:])
            if b > a
        )

    q = 0.0  # start from all-defect
    history = []
    for _ in range(max_iter):
        q_next = q_update(q)
        history.append(abs(q_next - q))
        converged = history[-1] <= tol
        q = q_next
        if converged:
            break
    else:
        raise ConvergenceError(
            f"population cooperation probability did not settle in {max_iter} "
            f"iterations; residual history tail {history[-5:]}"
        )
    t = _group_threshold_given_q(n, pis, q, params, variant, big_l)
    return ThresholdCurve(pis, t, codomain=(0.0, big_l),
                          monotone=bool(np.all(np.diff(t) >= 0)))
