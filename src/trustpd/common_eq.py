"""Best responses and equilibria when both players share one known belief.

The workhorse is the reduced-form best response

    psi(l; pi) = (1 + m - b)/(1 - F(l)) * pi/(1 - pi) - (b - 1) F(l)/(1 - F(l)),

the optimal own loss threshold against a partner using threshold l. Symmetric
equilibria are its fixed points, clamped to [0, ell_bar]. Three belief ranges
arise: a unique interior threshold below (b-1)/m, coexistence of two interior
thresholds with the full-cooperation corner up to a tangency belief, and the
corner alone beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BELIEF_EPS,
    ConvergenceError,
    EquilibriumRoot,
    EquilibriumSet,
    GameParams,
    LossDistribution,
    ParameterError,
    RegimeError,
    all_within,
    any_of,
    float_or_array,
    select,
)
from .numerics import bisect_root, bracket_roots

# Scan-grid resolution of bracket_roots in the fixed-point search, and the minimum
# separation below which two interior brackets are treated as one merged
# (near-tangency) root.
SCAN_CELLS = 2000
MIN_ROOT_SEPARATION = 1e-4


def _clamp_belief(pi: float) -> float:
    if not 0.0 <= pi <= 1.0:
        raise ParameterError(f"belief must lie in [0, 1], got {pi}")
    return min(pi, 1.0 - BELIEF_EPS)


def psi(ell, pi: float, params: GameParams, dist: LossDistribution):
    """Reduced-form best-response threshold to a partner playing threshold ell.

    ell may be a scalar (returns a float) or an array of thresholds (returns
    an array); every element must lie in [0, ell_bar).
    """
    if not all_within(ell, 0.0, dist.ell_bar, include_hi=False):
        raise ParameterError(
            f"psi is defined on [0, ell_bar); got l={ell}, ell_bar={dist.ell_bar}"
        )
    pi = _clamp_belief(pi)
    big_f = float_or_array(dist.cdf(ell))
    ratio = pi / (1.0 - pi)
    return (params.coop_premium * ratio - (params.b - 1.0) * big_f) / (1.0 - big_f)


def psi_dl(ell: float, pi: float, params: GameParams, dist: LossDistribution,
           step: float | None = None) -> float:
    """Central-difference slope of psi in ell (one-sided at the support ends)."""
    h = step if step is not None else 1e-6 * dist.ell_bar
    lo = max(ell - h, 0.0)
    hi = min(ell + h, dist.ell_bar * (1.0 - 1e-12))
    return (psi(hi, pi, params, dist) - psi(lo, pi, params, dist)) / (hi - lo)


def chi_bound(pi: float, params: GameParams, dist: LossDistribution) -> float:
    """Opponent-threshold bound above which defecting for every loss is optimal.

    chi(pi) = F^-1((m/(b-1) - 1) * pi/(1 - pi)); defined for pi below (b-1)/m,
    where the inner argument stays within [0, 1].
    """
    pi = _clamp_belief(pi)
    arg = (params.m / (params.b - 1.0) - 1.0) * pi / (1.0 - pi)
    if arg > 1.0:
        raise RegimeError(
            f"full-defection bound undefined at pi={pi} >= (b-1)/m={params.pi_low}; "
            "the full-cooperation corner case applies"
        )
    return float(dist.ppf(arg))


def best_response_threshold(
    pi: float, opponent_threshold, params: GameParams, dist: LossDistribution
):
    """Optimal own threshold against a partner using `opponent_threshold`.

    Handles the analytic corner cases (certain-honest partner, fully
    cooperative partner, full-defection bound) before clamping psi. The
    opponent threshold may be a scalar (returns a float) or an array.
    """
    if not 0.0 <= pi <= 1.0:
        raise ParameterError(f"belief must lie in [0, 1], got {pi}")
    big_l = dist.ell_bar
    opp = float_or_array(opponent_threshold)
    if not all_within(opp, 0.0, big_l):
        raise ParameterError(
            f"opponent threshold {opponent_threshold} outside [0, {big_l}]"
        )
    if pi >= 1.0:
        return float_or_array(np.full(np.shape(opp), big_l))
    # Corners: against a fully cooperative partner (threshold ell_bar) the
    # best response is 0 below (b-1)/m and ell_bar above; below (b-1)/m a
    # partner beyond the full-defection bound chi is met with 0 as well.
    corner = 0.0 if pi < params.pi_low else big_l
    use_psi = opp < big_l
    if pi < params.pi_low and any_of(use_psi):
        use_psi = use_psi & (opp <= chi_bound(pi, params, dist))
    best = psi(select(use_psi, opp, 0.0), pi, params, dist)
    best = select(0.0 > best, 0.0, best)
    best = select(big_l < best, big_l, best)
    return select(use_psi, best, corner)


@dataclass(frozen=True)
class CommonCriticals:
    """Critical beliefs of the common-beliefs regime map.

    pi_low = (b-1)/m separates strategic substitutes from complements;
    (ell_prime, pi_prime) is the tangency of psi with the identity, the upper
    edge of the multiple-equilibrium belief range.
    """

    pi_low: float
    ell_prime: float
    pi_prime: float


def critical_pair(params: GameParams, dist: LossDistribution, tol: float = 1e-12) -> CommonCriticals:
    """Solve l - 1/h(l) = b - 1 for the tangency loss, then back out pi_prime.

    Requires ell_bar > b - 1; below that the best response never becomes
    tangent to the identity and the corner takes over directly.
    """
    big_l = dist.ell_bar
    if big_l <= params.b - 1.0:
        raise RegimeError(
            f"no tangency: ell_bar={big_l} <= b-1={params.b - 1.0}; "
            "threshold rises to ell_bar at pi=(b-1)/m without a multiple-equilibrium range"
        )

    def gap(ell):
        f = float(dist.pdf(ell))
        return ell - (1.0 - float(dist.cdf(ell))) / f - (params.b - 1.0)

    lo, hi = 0.0, big_l * (1.0 - 1e-12)
    if gap(lo) >= 0 or gap(hi) <= 0:
        raise ConvergenceError(
            "tangency equation does not bracket a root; hazard is not increasing"
        )
    ell_prime = bisect_root(gap, lo, hi, ftol=tol * max(1.0, big_l))
    big_f = float(dist.cdf(ell_prime))
    k = ell_prime * (1.0 - big_f) + (params.b - 1.0) * big_f
    pi_prime = k / (params.coop_premium + k)
    return CommonCriticals(pi_low=params.pi_low, ell_prime=ell_prime, pi_prime=pi_prime)


def _classify(root: float, pi: float, params: GameParams, dist: LossDistribution) -> EquilibriumRoot:
    if root <= 1e-12 * dist.ell_bar:
        return EquilibriumRoot(0.0, "corner-zero")
    slope = psi_dl(root, pi, params, dist) - 1.0
    return EquilibriumRoot(root, "interior-low" if slope < 0 else "interior-high")


def solve_common_equilibria(
    pi: float, params: GameParams, dist: LossDistribution, tol: float = 1e-10
) -> EquilibriumSet:
    """All symmetric equilibria at one belief, classified, with a regime label.

    Interior roots come from `bracket_roots` on psi(l; pi) - l over a grid of
    SCAN_CELLS cells, refined by bisection to the residual tolerance; the
    full-cooperation corner is included exactly when pi >= (b-1)/m, where the
    clamped best response maps ell_bar to itself. Root structure is
    authoritative for the regime label; at the measure-zero boundary beliefs
    a lone interior root alongside the corner is reported under the
    `unique-corner` label.
    """
    if not 0.0 <= pi < 1.0:
        raise ParameterError(f"belief must lie in [0, 1), got {pi}")
    big_l = dist.ell_bar

    grid = np.linspace(0.0, big_l * (1.0 - 1e-9), SCAN_CELLS + 1)
    scan = bracket_roots(lambda x: psi(x, pi, params, dist) - x, grid, zero_tol=tol, ftol=tol)
    roots = sorted(scan.zeros + scan.roots)

    # Merge near-tangency pairs closer than the separation filter.
    merged: list[float] = []
    for r in roots:
        if merged and r - merged[-1] < MIN_ROOT_SEPARATION * big_l:
            merged[-1] = 0.5 * (merged[-1] + r)
        else:
            merged.append(r)

    classified = [_classify(r, pi, params, dist) for r in merged]
    has_corner = pi >= params.pi_low
    if has_corner:
        classified.append(EquilibriumRoot(big_l, "corner-upper"))

    n_interior = len(merged)
    if n_interior > 2:
        raise ConvergenceError(
            f"{n_interior} interior fixed points at pi={pi}: inconsistent with an "
            "increasing hazard rate"
        )
    if not has_corner:
        if n_interior != 1:
            raise ConvergenceError(
                f"expected a unique interior fixed point at pi={pi} < (b-1)/m, "
                f"found {n_interior}"
            )
        regime = "unique-interior"
    elif n_interior == 2:
        regime = "triple"
    else:
        regime = "unique-corner"

    return EquilibriumSet(pi=pi, roots=tuple(classified), regime=regime)


def closed_form_common_uniform(pi, params: GameParams):
    """Threshold for losses uniform on [0, 1] and b >= 2 (unique equilibrium):

        b/2 - sqrt(b^2/4 - (1+m-b) pi/(1-pi))   for pi < (b-1)/m, else 1.

    pi may be a scalar (returns a float) or an array of beliefs.
    """
    if params.b < 2.0:
        raise ParameterError(f"closed form requires b >= 2, got b={params.b}")
    if not all_within(pi, 0.0, 1.0, include_hi=False):
        raise ParameterError(f"belief must lie in [0, 1), got {pi}")
    pi = select(1.0 - BELIEF_EPS < pi, 1.0 - BELIEF_EPS, float_or_array(pi))
    below = pi < params.pi_low
    disc = params.b ** 2 / 4.0 - params.coop_premium * pi / (1.0 - pi)
    negative = below & (disc < 0.0)
    if any_of(negative):
        raise ParameterError(
            f"negative discriminant {np.min(disc, where=negative, initial=0.0)} "
            "below (b-1)/m: parameters violate b >= 2"
        )
    return float_or_array(select(below, params.b / 2.0 - np.sqrt(select(below, disc, 0.0)), 1.0))
