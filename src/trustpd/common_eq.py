"""Best responses and equilibria when both players share one known belief.

The workhorse is the reduced-form best response

    psi(l; pi) = (1 + m - b)/(1 - F(l)) * pi/(1 - pi) - (b - 1) F(l)/(1 - F(l)),

the optimal own loss threshold against a partner using threshold l. Symmetric
equilibria are its fixed points, clamped to [0, ell_bar]. Multiplying
psi(l) - l by 1 - F(l) removes the pole at ell_bar: the interior fixed points
are the roots of

    g(l) = K - phi(l),  K = (1 + m - b) pi/(1 - pi),  phi(l) = (b - 1) F(l) + l (1 - F(l)),

and psi(l) - l = g(l)/(1 - F(l)). Under a nondecreasing hazard, phi rises from
phi(0) = 0 to its maximum at the tangency loss l' and falls back to
phi(ell_bar) = b - 1, while K rises with pi and equals b - 1 at (b-1)/m. So g
has at most one root on each side of l', and three belief ranges follow:
below (b-1)/m a unique interior threshold; from there up to the tangency
belief pi', where K = phi(l'), two interior thresholds, one each side of l',
coexisting with the full-cooperation corner; beyond pi' the corner alone.
`solve_common_equilibria` takes one bracket per root from this shape, with no
grid scan.

Under uniform losses, the paper's running case, g = l^2/ell_bar -
l (1 + (b-1)/ell_bar) + K is quadratic and phi' affine. So each root starts
from a quadratic model of g, and the tangency loss from the secant of phi',
built from values the solver already holds: one evaluation meets the
residual tolerance, and `bisect_root` refines only a miss, on a sub-bracket
that a step past the root by twice the model's Newton correction (at least
four float spacings) cuts about it. On other losses the models are
approximate and the same miss path applies.
"""

from __future__ import annotations

import math
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
    check_tol,
    float_or_array,
    hazard,
)
from .numerics import refine_from, square


def _clamp_belief(pi: float) -> float:
    if not 0.0 <= pi <= 1.0:
        raise ParameterError(f"belief must lie in [0, 1], got {pi}")
    return min(pi, 1.0 - BELIEF_EPS)


def _psi_of_cdf(pi: float, params: GameParams):
    """psi at belief pi as a function of F(l), a float or an array:
    (K - (b-1) F)/(1 - F), K = (1+m-b) pi/(1-pi), with pi checked and
    clamped to 1 - BELIEF_EPS here. The one place psi's arithmetic is written.
    """
    pi = _clamp_belief(pi)
    k = params.coop_premium * (pi / (1.0 - pi))
    b1 = params.b - 1.0
    return lambda big_f: (k - b1 * big_f) / (1.0 - big_f)


def psi(ell, pi: float, params: GameParams, dist: LossDistribution):
    """Reduced-form best-response threshold to a partner playing threshold ell.

    ell may be a scalar (returns a float) or an array of thresholds (returns
    an array); every element must lie in [0, ell_bar), short of psi's pole,
    where F reaches 1.
    """
    if not all_within(ell, 0.0, dist.ell_bar, include_hi=False):
        raise ParameterError(
            f"psi is defined on [0, ell_bar); got l={ell}, ell_bar={dist.ell_bar}"
        )
    big_f = float_or_array(dist.cdf(ell))
    if (big_f >= 1.0) if isinstance(big_f, float) else (big_f >= 1.0).any():
        raise ParameterError(f"psi's pole: F(l) = 1 at l={ell}, short of ell_bar={dist.ell_bar}")
    return _psi_of_cdf(pi, params)(big_f)


def psi_dl(ell: float, pi: float, params: GameParams, dist: LossDistribution) -> float:
    """Slope of psi in ell: h(l) (psi(l) - (b - 1)), with h the hazard rate."""
    return hazard(dist, ell) * (psi(ell, pi, params, dist) - (params.b - 1.0))


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
    """Optimal own threshold against a partner using `opponent_threshold`:
    psi clamped to [0, ell_bar], apart from the corners pi = 1 (ell_bar) and
    a partner at ell_bar, psi's pole (0 below (b-1)/m, ell_bar from there).
    Beyond `chi_bound` psi's numerator is negative, so the clamp gives 0. The
    opponent threshold may be a scalar (returns a float) or an array.
    """
    best_response = _best_response(pi, params, dist)
    opp = float_or_array(opponent_threshold)
    if not all_within(opp, 0.0, dist.ell_bar):
        raise ParameterError(
            f"opponent threshold {opponent_threshold} outside [0, {dist.ell_bar}]"
        )
    return best_response(opp)


def _best_response(pi: float, params: GameParams, dist: LossDistribution):
    """`best_response_threshold` at belief pi as a function of the opponent
    threshold alone, a float or an array in [0, ell_bar], which it does not
    check. The belief's check and clamp, K and the corner are settled here,
    once, so that a root solver's step pays only for F and psi's arithmetic.

    psi's pole is where F reaches 1, at ell_bar or, where F rounds to 1
    short of it, before: the corner is returned there. Elsewhere psi's
    denominator 1 - F is positive and K finite, so for F's values in [0, 1]
    no result is NaN.
    """
    psi_at = _psi_of_cdf(pi, params)
    big_l, cdf = dist.ell_bar, dist.cdf
    if pi >= 1.0:
        return lambda opp: float_or_array(np.full(np.shape(opp), big_l))
    corner = 0.0 if pi < params.pi_low else big_l

    def best_response(opp):
        if isinstance(opp, np.ndarray) and opp.ndim:
            big_f = cdf(opp)
            use_psi = big_f < 1.0
            best = psi_at(np.where(use_psi, big_f, 0.0))
            best = np.where(0.0 > best, 0.0, best)
            best = np.where(big_l < best, big_l, best)
            return np.where(use_psi, best, corner)
        big_f = float(cdf(opp))
        best = psi_at(big_f) if big_f < 1.0 else corner
        return 0.0 if best < 0.0 else big_l if best > big_l else best

    return best_response


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


TANGENCY_TOL = 1e-12


def _tangency_loss(params: GameParams, dist: LossDistribution) -> float:
    """The tangency loss l' of `critical_pair`, to |phi'(l')| <= TANGENCY_TOL.

    The estimate is the root of the secant of phi' through its values at 0
    and ell_bar, ell_bar phi'(0)/(phi'(0) - phi'(ell_bar)), which is exact
    where phi' is affine, as under uniform losses.
    """
    big_l = dist.ell_bar
    b1 = params.b - 1.0
    if big_l <= b1:
        raise RegimeError(
            f"no tangency: ell_bar={big_l} <= b-1={b1}; "
            "threshold rises to ell_bar at pi=(b-1)/m without a multiple-equilibrium range"
        )

    def dphi(ell):
        return (1.0 - float(dist.cdf(ell))) - float(dist.pdf(ell)) * (ell - b1)

    dphi_lo, dphi_hi = dphi(0.0), dphi(big_l) or -math.ulp(0.0)
    if dphi_lo <= 0 or dphi_hi >= 0:
        raise ConvergenceError(
            "tangency equation does not bracket a root; hazard is not increasing"
        )
    across = dphi_lo - dphi_hi
    return refine_from(dphi, big_l * (dphi_lo / across), -(big_l / across), 0.0, big_l,
                       dphi_lo, dphi_hi, TANGENCY_TOL)


def critical_pair(params: GameParams, dist: LossDistribution) -> CommonCriticals:
    """Solve phi'(l) = 0 for the tangency loss, to |phi'| <= TANGENCY_TOL,
    then back out pi_prime.

    phi'(l) = (1 - F) - f (l - (b - 1)) is the tangency condition
    l - 1/h(l) = b - 1 multiplied by -f, so it has the same root and needs no
    division by a density that may vanish at l = 0. Requires ell_bar > b - 1;
    below that the best response never becomes tangent to the identity and
    the corner takes over directly. The root is bracketed on [0, ell_bar]:
    phi'(0) = 1 + f(0) (b - 1) > 0 and phi'(ell_bar) = -f(ell_bar)
    (ell_bar - (b - 1)) < 0, however close the tangency lies to ell_bar. Where
    the density vanishes at ell_bar, phi'(ell_bar) = 0 is approached from
    below, as phi' = (1 - F)(1 - h (l - (b - 1))) and the hazard h is
    unbounded there; the smallest negative float stands in for it.

    The first try is the root of the secant of phi' through those two end
    values. Under uniform losses phi' = 1 - (2l - (b-1))/ell_bar is affine,
    so the secant is phi' itself, and its root l' = (ell_bar + b - 1)/2 meets
    the tolerance at the one evaluation; elsewhere a miss is refined by
    `bisect_root` on a sub-bracket about it.
    """
    ell_prime = _tangency_loss(params, dist)
    big_f = float(dist.cdf(ell_prime))
    b1 = params.b - 1.0
    k = ell_prime * (1.0 - big_f) + b1 * big_f
    pi_prime = k / (params.coop_premium + k)
    return CommonCriticals(pi_low=params.pi_low, ell_prime=ell_prime, pi_prime=pi_prime)


def solve_common_equilibria(
    pi: float, params: GameParams, dist: LossDistribution, tol: float = 1e-10
) -> EquilibriumSet:
    """All symmetric equilibria at one belief, classified, with a regime label.

    Interior equilibria are the roots of g = K - phi on [0, ell_bar) (module
    docstring), computed as (K - l)(1 - F) + (K - (b-1)) F with
    K - (b-1) = m (pi - (b-1)/m)/(1 - pi), so that g(0) = K and
    g(ell_bar) = K - (b-1) has the sign of pi - (b-1)/m exactly. The shape of
    phi gives each root its own bracket, and no grid is scanned:

    - below (b-1)/m, K < b - 1 and both terms of g are <= 0 from l = K on, so
      [0, min(K, ell_bar)] holds the one root, `interior-low` (`corner-zero`
      only when it is exactly 0, as at pi = 0; a root however close to 0 is
      reported as refined);
    - from (b-1)/m on with ell_bar <= b - 1, phi <= b - 1 <= K: no root;
    - at pi = (b-1)/m exactly, g = (l - (b-1))(1 - F) vanishes at l = b - 1;
    - above it with K >= ell_bar, phi <= max(b-1, l) < ell_bar <= K on
      [0, ell_bar): no root, decided before the tangency loss is sought, as
      g(l') > 0 would decide it;
    - otherwise g falls to its minimum at the tangency loss l' of
      `critical_pair`: none when g(l') > 0, one at l' when g(l') = 0, and two
      when g(l') < 0, `interior-low` in [0, l'] and `interior-high` in
      [l', ell_bar].

    Each root starts from a quadratic model of g built from values the
    solver already holds; under uniform losses g = l^2/ell_bar
    - l (1 + (b-1)/ell_bar) + K is itself quadratic, so the model is exact.
    Below (b-1)/m the model passes through (0, K) with g's slope there,
    -(1 + f(0)(b-1)), and through (hi, g(hi)), hi = min(K, ell_bar); its
    root is 2K/(-s + sqrt(s^2 - 4cK)), s the slope and c the curvature.
    Around l', with a = -g(l') > 0, the model of each root is the parabola
    with its vertex at (l', g(l')) through the far end of the root's
    bracket: the low root at l' (K/(K+a))/(1 + sqrt(a/(K+a))), the high root
    at l' + (ell_bar - l') sqrt(a/(K - (b-1) + a)). None of the three
    cancels, a subnormal K included. g is evaluated once at the estimate,
    which is the root when the residual meets ftol below; on a miss, or when
    the estimate is not a float inside its bracket (an underflowing hi^2 or
    a discriminant that is not positive gives NaN), the bracket is refined
    by `bisect_root`.

    The root contract: every interior root meets |g| <= ftol, or is the
    lower end of a sign-change bracket of two adjacent floats, within one
    ulp of an exact root of g. ftol is tol times a lower bound on 1 - F at
    any root in the bracket; since psi(l) - l = g(l)/(1 - F(l)), a root
    that meets it has |psi(l) - l| <= tol. On [0, hi] the bound is
    1 - F(hi). On [l', ell_bar] a root l > K solves
    (l - K)(1 - F) = (K - (b-1)) F, so 1 - F >= (K - (b-1)) F(l')/(ell_bar - K).
    The second case comes only where ftol lies below the rounding of g:
    next to the pole at ell_bar, and where the bound is 0.
    The contract bounds the residual, not the error in l: near pi' the slope
    of g at a root tends to 0, as g'(l') = 0, so a root may lie about
    ftol/|g'| from the exact one. At (4, 4), uniform on [0, 5], 1e-9
    relative below pi', tol = 1e-12 let refinement from the whole brackets
    stop 3.6e-10 and 5.2e-10 from the exact roots of the uniform quadratic;
    the models' one evaluation lands within 8.1e-13 of them.

    The corner ell_bar is an equilibrium exactly when pi >= (b-1)/m, and
    the roots then end with it. The regime follows from the roots
    (`EquilibriumSet.regime`): `unique-interior` below (b-1)/m, `triple`
    when two interior roots join the corner, and `unique-corner` otherwise.
    At pi = (b-1)/m exactly, the high root coincides with ell_bar and is
    reported once, as `corner-upper`, beside the low root l = b - 1 if
    ell_bar > b - 1, under `unique-corner`.

    Requires a nondecreasing hazard rate (`dist.monotone_hazard`).
    """
    check_tol(tol)
    if not 0.0 <= pi < 1.0:
        raise ParameterError(f"belief must lie in [0, 1), got {pi}")
    if not dist.monotone_hazard:
        raise ParameterError(
            "shared-belief equilibria need a nondecreasing hazard rate; "
            "the loss distribution is not flagged monotone_hazard"
        )
    big_l = dist.ell_bar
    b1 = params.b - 1.0
    clamped = float(_clamp_belief(pi))
    k = params.coop_premium * clamped / (1.0 - clamped)
    k_excess = params.m * (clamped - params.pi_low) / (1.0 - clamped)

    def g_at(ell, big_f):
        return (k - ell) * (1.0 - big_f) + k_excess * big_f

    def g(ell):
        return g_at(ell, float(dist.cdf(ell)))

    if k_excess < 0.0:
        hi = min(k, big_l)
        f_hi = float(dist.cdf(hi))
        g_hi = g_at(hi, f_hi)
        slope = -(1.0 + float(dist.pdf(0.0)) * b1)
        hi2 = hi * hi
        curve = (g_hi - k - slope * hi) / hi2 if hi2 else math.nan
        disc = slope * slope - 4.0 * curve * k
        root_slope = math.sqrt(disc) if disc > 0.0 else math.nan
        roots = [refine_from(g, 2.0 * k / (root_slope - slope), -1.0 / root_slope, 0.0, hi,
                             k, g_hi, tol * (1.0 - f_hi))]
    elif big_l <= b1:
        roots = []
    elif k_excess == 0.0:
        roots = [b1]
    elif k >= big_l:
        roots = []
    else:
        ell_prime = _tangency_loss(params, dist)
        f_prime = float(dist.cdf(ell_prime))
        g_prime = g_at(ell_prime, f_prime)
        if g_prime > 0.0:
            roots = []
        elif g_prime == 0.0:
            roots = [ell_prime]
        else:
            a = -g_prime
            low = ell_prime * (k / (k + a)) / (1.0 + math.sqrt(a / (k + a)))
            high = ell_prime + (big_l - ell_prime) * math.sqrt(a / (k_excess + a))
            high_slack = k_excess * f_prime / (big_l - k)
            roots = [
                refine_from(g, low, (low - ell_prime) / (a + a), 0.0, ell_prime,
                            k, g_prime, tol * (1.0 - f_prime)),
                refine_from(g, high, (high - ell_prime) / (a + a), ell_prime, big_l,
                            g_prime, k_excess, tol * high_slack),
            ]
    classified = [
        EquilibriumRoot(r, "corner-zero" if r == 0.0 else kind)
        for r, kind in zip(roots, ("interior-low", "interior-high"))
    ]
    if pi >= params.pi_low:
        classified.append(EquilibriumRoot(big_l, "corner-upper"))
    return EquilibriumSet(pi=pi, roots=tuple(classified))


def closed_form_common_uniform(pi, params: GameParams):
    """Threshold for losses uniform on [0, 1] and b >= 2 (unique equilibrium):

        b/2 - sqrt(b^2/4 - K)   for pi < (b-1)/m, else 1,  K = (1+m-b) pi/(1-pi),

    taken as K/(b/2 + sqrt(b^2/4 - K)), whose digits hold at large b. pi
    may be a scalar (returns a float) or an array of beliefs. Raises
    ParameterError for b < 2, and for a b whose square b**2 overflows (b of
    about 1.34e154 or more), where the expression has no float value.
    """
    b_sq = square(params.b)
    if params.b < 2.0 or b_sq == math.inf:
        raise ParameterError(f"closed form requires b >= 2 with a finite b**2, got b={params.b}")
    if not all_within(pi, 0.0, 1.0, include_hi=False):
        raise ParameterError(f"belief must lie in [0, 1), got {pi}")
    pi = np.where(1.0 - BELIEF_EPS < pi, 1.0 - BELIEF_EPS, float_or_array(pi))
    below = pi < params.pi_low
    k = params.coop_premium * pi / (1.0 - pi)
    disc = b_sq / 4.0 - k
    negative = below & (disc < 0.0)
    if np.any(negative):
        raise ParameterError(
            f"negative discriminant {np.min(disc, where=negative, initial=0.0)} "
            "below (b-1)/m: parameters violate b >= 2"
        )
    threshold = np.where(below, k / (params.b / 2.0 + np.sqrt(np.where(below, disc, 0.0))), 1.0)
    return float_or_array(threshold)
