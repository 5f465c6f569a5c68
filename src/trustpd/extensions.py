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
Under a shared belief the `consistent` gap is the two-player one at belief
pi^n under the loss law F~ of `_group_loss`.

With beliefs private, each threshold depends on the others only through the
population cooperation probability q = integral of F(t(pi)) dG(pi), a fixed
point of the scalar map Phi that re-integrates q. Phi maps [0, 1] into
itself, so `solve_group_diverse` refines Phi(q) - q on that bracket with
`bisect_root`. Each update integrates with a fixed Gauss-Legendre rule on
every piece between the beliefs where the integrand is not smooth,
evaluated as one array. At each knot of F the gap's shape leaves at most one
such belief, which one `bisect_root` on [0, 1] finds (`_kink_beliefs`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .common_eq import (
    _best_response,
    _clamp_belief,
    _psi_of_cdf,
    psi_dl,
    solve_common_equilibria,
)
from .core import (
    BeliefDistribution,
    GameParams,
    LossDistribution,
    ParameterError,
    RegimeError,
    ThresholdCurve,
    _is_array,
    check_count,
    float_or_array,
)
from .numerics import bisect_root, bracket_roots, refine_from, square

VARIANTS = ("consistent", "as_printed")
SOLVE_TOL = 1e-12  # the residual every root and fixed point here is refined to


@dataclass(frozen=True)
class AsymmetricEquilibrium:
    pi1: float
    pi2: float
    ell1_hat: float
    ell2_hat: float
    unique: bool


def _straddling_start(pi1: float, pi2: float, params: GameParams, big_l: float) -> float:
    """l1 of the solution under losses uniform on [0, ell_bar], for beliefs
    on opposite sides of (b-1)/m: the model start of a straddling solve.

    Uniform psi is (b-1) + e ell_bar/(ell_bar - l), e = K - (b-1) taken at
    the belief clamped as `_psi_of_cdf` clamps it. So with W_i = ell_bar - l_i
    and d = ell_bar - (b-1), an interior solution solves
    (d - W_i) W_j = e_i ell_bar. Eliminating the above player's W leaves,
    for the below player's, d W^2 - s W + d e_a ell_bar = 0,
    s = d^2 + (e_a - e_b) ell_bar, which is negative at W = d, while
    l_b < b - 1 puts W_b above d: W_b is the larger root,
    (s + sqrt(disc))/(2d), disc = (d^2 - (e_a + e_b) ell_bar)^2
    - 4 e_a e_b ell_bar^2. As e_a >= 0 > e_b, s and disc are sums of
    nonnegative terms, and nothing cancels in W_b, nor in
    l_a = (b-1) + e_a ell_bar/W_b. l_b is then psi_b at F = l_a/ell_bar, in
    psi's own arithmetic, which cancels only as l_b nears 0, where
    ell_bar - W_b would lose spacings of ell_bar. With a belief at (b-1)/m,
    e_a = 0, so l_a is b - 1 exactly and l_b is psi_b(b - 1).

    Where l_b <= 0 the below player defects at every loss, and the above
    one's threshold is psi_a(0) = K_a. Where l_a is not below ell_bar, or
    d <= 0, the above player cooperates at every loss, and the result is
    NaN; with player 1 below, l_b <= 0 is returned as it stands. l_a lies
    below ell_bar exactly, but rounds onto it where e_b is within rounding
    of 0 and e_a ell_bar > d^2: at (3, 50) on [0, 8], pi1 = 0.5 and pi2 one
    float below (b-1)/m. The square in disc is inf where it overflows
    (`numerics.square`): l_a is then b - 1, as at ell_bar = 1e100 with
    pi = (0.01, 0.1), where that moves l_b by rounding only, or NaN, as from
    ell_bar = 1e154 on, where e_a ell_bar 2d overflows too. A start outside
    (0, ell_bar), NaN included, leaves the whole bracket to `bisect_root`.
    """
    b1 = params.b - 1.0
    d = big_l - b1
    if not d > 0.0:
        return math.nan
    below_first = pi1 < params.pi_low
    pi_a, pi_b = (pi2, pi1) if below_first else (pi1, pi2)
    pi_low = params.pi_low
    p_a, p_b = _clamp_belief(pi_a), _clamp_belief(pi_b)
    e_a = params.m * (p_a - pi_low) / (1.0 - p_a)
    e_b = params.m * (p_b - pi_low) / (1.0 - p_b)
    s = d * d + (e_a - e_b) * big_l
    disc = square(d * d - (e_a + e_b) * big_l) - 4.0 * e_a * e_b * big_l * big_l
    ell_a = b1 + e_a * big_l * (d + d) / (s + math.sqrt(disc))
    if not 0.0 < ell_a < big_l:
        return math.nan
    ell_b = _psi_of_cdf(pi_b, params)(ell_a / big_l)
    if below_first:
        return ell_b
    return ell_a if ell_b > 0.0 else _psi_of_cdf(pi_a, params)(0.0)


def solve_asymmetric(
    pi1: float, pi2: float, params: GameParams, dist: LossDistribution
) -> AsymmetricEquilibrium:
    """Solve the two-threshold system through the composed best response.

    l1 is a fixed point of BR1(BR2(.)), a continuous map of [0, ell_bar] into
    itself, so the gap BR1(BR2(l1)) - l1 is >= 0 at 0 and <= 0 at ell_bar;
    solving for its roots avoids the cobweb divergence plain alternation
    suffers when the partner's reaction curve is steep. The root contract:
    the returned l1 meets |gap| <= SOLVE_TOL, or is the lower end of a
    sign-change bracket of two adjacent floats, within one ulp of a root of
    the gap. The second case comes next to ell_bar, where the best
    responses' 1/(1 - F) pole leaves no float that meets the bound. There is
    always a root: the best responses lie in [0, ell_bar] and are never NaN
    (`common_eq._best_response`), so gap(0) >= 0 >= gap(ell_bar), and a
    scan of the gap from 0 to ell_bar meets a grid zero or a sign change.
    With the beliefs on opposite sides of (b-1)/m (a belief at it counts as
    above), one best response is nonincreasing and the other
    nondecreasing, so the composed one is nonincreasing, gap' <= -1, and
    [0, ell_bar] brackets the gap's one root. gap(0) is settled first, so
    an l1 = 0 corner returns after one evaluation. The root then starts
    from the uniform-loss model `_straddling_start` through `refine_from`,
    as the shared solver's roots do, with dx_df = -1: since gap' <= -1, the
    root lies within |gap(x)| of the start x, and the miss step 2|gap(x)|
    brackets it. Under uniform losses the model is exact to rounding, and
    a solve takes two evaluations of the gap, gap(0) and gap(x), unless the
    gap's rounding at x exceeds SOLVE_TOL, as next to the pole. Under other
    losses it is approximate, and a miss goes to `bisect_root` on the
    sub-bracket; gap(ell_bar) is evaluated only there, where needed. With
    both on one side, as at (3, 50) on [0, 1] with
    pi1 = pi2 = 0.03, there can be three intersections: `bracket_roots` scans
    a 2001-point grid for them, the lowest is returned, and `unique` says
    whether the scan found only one. A root pair inside one cell goes
    unseen, and `unique` is then set on what is left: at (7.8839, 650.35),
    uniform on [0, 6.9161], pi1 = pi2 = 0.01058497274, 1.7e-3 of the way
    from the tangency belief pi' down to (b-1)/m, the shared low and high
    roots 6.8993 and 6.9007 lie in one 0.0035-wide cell, and the corner
    (6.9161, 6.9161) is returned with `unique=True`.
    """
    big_l = dist.ell_bar
    # both beliefs are checked here, before F is evaluated, and each step
    # evaluates only F and psi's arithmetic
    br1 = _best_response(pi1, params, dist)
    br2 = _best_response(pi2, params, dist)

    def gap(l1):
        return br1(br2(l1)) - l1

    if (pi1 < params.pi_low) != (pi2 < params.pi_low):
        gap_lo = gap(0.0)
        if gap_lo == 0.0:
            roots = [0.0]
        else:
            roots = [refine_from(gap, _straddling_start(pi1, pi2, params, big_l), -1.0,
                                 0.0, big_l, gap_lo, None, SOLVE_TOL)]
    else:
        roots = bracket_roots(gap, np.linspace(0.0, big_l, 2001), tol=SOLVE_TOL)
    ell1 = roots[0]
    ell2 = br2(ell1)
    return AsymmetricEquilibrium(
        pi1=pi1, pi2=pi2, ell1_hat=ell1, ell2_hat=ell2, unique=len(roots) == 1
    )


def asymmetric_sensitivity(
    pi1: float,
    pi2: float,
    params: GameParams,
    dist: LossDistribution,
) -> float:
    """d(l1)/d(pi2) by implicit differentiation; negative when pi1 < (b-1)/m < pi2.

    At an interior solution l1 = psi(l2; pi1) and l2 = psi(l1; pi2), so
    d l1/d pi2 = psi1'(l2) dpsi2/dpi2 / (1 - psi1'(l2) psi2'(l1)), with psi'
    the slope in the partner's threshold (`psi_dl`) and
    dpsi/dpi = (1+m-b) / ((1-pi)^2 (1-F(l))). Requires an interior solution:
    at a corner the threshold is locally constant and the derivative is not
    defined.
    """
    if not pi1 < params.pi_low < pi2:
        raise ParameterError(
            f"sign claim needs pi1 < (b-1)/m < pi2; got pi1={pi1}, pi2={pi2}, "
            f"(b-1)/m={params.pi_low}"
        )
    sol = solve_asymmetric(pi1, pi2, params, dist)
    l1, l2 = sol.ell1_hat, sol.ell2_hat
    margin = 1e-7 * dist.ell_bar
    if not margin <= min(l1, l2) <= max(l1, l2) <= dist.ell_bar - margin:
        raise RegimeError(
            f"corner solution at (pi1={pi1}, pi2={pi2}); derivative undefined"
        )
    slope1 = psi_dl(l2, pi1, params, dist)
    dpsi2_dpi2 = params.coop_premium / ((1.0 - pi2) ** 2 * (1.0 - float(dist.cdf(l1))))
    return slope1 * dpsi2_dpi2 / (1.0 - slope1 * psi_dl(l1, pi2, params, dist))


class GroupRoot(NamedTuple):
    value: float
    corner: bool
    residual: float


def _gap_terms(n: int, pi, coop_prob, params: GameParams, variant: str):
    """(a, slope) of the cooperation-minus-defection payoff a + slope t at
    loss threshold t against n others, each strategic other cooperating with
    probability coop_prob. With s = (pi + (1-pi) coop_prob)^n, `consistent`
    has a = (1-b) s + m pi^n and slope s - 1, `as_printed` a = s - b + m pi^n
    and slope -(1 + s). Elementwise over arrays of pi or coop_prob, with
    float_power; scalars, 0-d arrays included, are taken as Python floats and
    raised with the float `**`, which costs a fraction of float_power on
    numpy scalars. float_power is the scalar pow, so a belief gives the same
    terms alone or as an array element.
    """
    if _is_array(pi) or _is_array(coop_prob):
        power = np.float_power
    else:
        pi, coop_prob, power = float(pi), float(coop_prob), pow
    s = power(pi + (1.0 - pi) * coop_prob, n)
    moral = params.m * power(pi, n)
    if variant == "consistent":
        return (1.0 - params.b) * s + moral, s - 1.0
    return s - params.b + moral, -(1.0 + s)


def _payoff_gap(n: int, pi, t, coop_prob, params: GameParams, variant: str):
    """The payoff gap a + slope t of `_gap_terms`, elementwise over arrays of
    pi, t or coop_prob, and a float for scalars."""
    a, slope = _gap_terms(n, pi, coop_prob, params, variant)
    return float_or_array(a + slope * t)


def _check_group(n: int, variant: str) -> int:
    """The group size n as an int, after checking n and variant."""
    n = check_count("group size n", n, 1)
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return n


def _group_loss(n: int, pi: float, F: LossDistribution) -> LossDistribution:
    """F~ = (P^n - pi^n)/(1 - pi^n), P = pi + (1-pi) F(t), on F's support.

    The `consistent` gap (1+t-b) P^n - t + m pi^n is (1 - pi^n)(K~ - phi~(t)),
    K~ = (1+m-b) pi^n/(1 - pi^n) and phi~ = (b-1) F~ + t (1 - F~): the
    two-player g at belief pi^n under F~. F~'s hazard is F's times
    n/sum_{j<n} P^-j, nondecreasing in t, so F~ keeps F's `monotone_hazard`
    and its knots. A scalar t is taken in Python floats, with `**`, as in
    `_gap_terms`.
    """
    c = float(np.float_power(pi, n))

    def power(t, k):
        if _is_array(t):
            return np.float_power(pi + (1.0 - pi) * F.cdf(t), k)
        return (pi + (1.0 - pi) * float(F.cdf(t))) ** k

    return LossDistribution(
        cdf=lambda t: (power(t, n) - c) / (1.0 - c),
        pdf=lambda t: n * (1.0 - pi) * power(t, n - 1) * F.pdf(t) / (1.0 - c),
        ppf=lambda u: F.ppf((np.float_power(c + np.asarray(u) * (1.0 - c), 1.0 / n) - pi)
                            / (1.0 - pi)),
        ell_bar=F.ell_bar,
        monotone_hazard=F.monotone_hazard,
        knots=F.knots,
    )


def solve_group_common(
    n: int,
    pi: float,
    params: GameParams,
    F: LossDistribution,
    variant: str = "consistent",
) -> GroupRoot:
    """Threshold of one player facing n others under a shared belief.

    `consistent`: the lowest equilibrium `solve_common_equilibria` finds at
    belief pi^n under F~ (`_group_loss`), near-tangency pairs included; it
    needs `F.monotone_hazard`. Its |psi~(l) - l| <= SOLVE_TOL gives
    |gap| = (1 - pi^n)(1 - F~)|psi~(l) - l| <= SOLVE_TOL, a root next to 0
    included. `corner` means ell_bar. As for the two-player solver, the
    bound is on the residual: near the tangency belief of the reduced game
    the slope of the gap at a root tends to 0, and the root may lie about
    SOLVE_TOL/|gap'| from the exact one.

    `as_printed`: the gap has no one-peak shape (at n = 1, uniform on
    [0, 0.4], (b, m) = (1.5, 25.6) and pi = 0.05 it is negative at 0 and
    changes sign at 0.2 and 0.358), so this takes the lowest root
    `bracket_roots` finds on a 1001-point grid, refined to |gap| <= SOLVE_TOL;
    a root pair inside one cell goes unseen. With none, `corner` is set and
    the threshold is ell_bar when the gap at 0 is positive, 0 otherwise.
    """
    n = _check_group(n, variant)
    if not 0.0 <= pi < 1.0:
        raise ParameterError(f"belief must lie in [0, 1), got {pi}")

    def gap(t):
        return _payoff_gap(n, pi, t, F.cdf(t), params, variant)

    big_l = F.ell_bar
    if variant == "consistent":
        value = solve_common_equilibria(float(np.float_power(pi, n)), params,
                                        _group_loss(n, pi, F), tol=SOLVE_TOL).lowest
        corner = value == big_l
    else:
        roots = bracket_roots(gap, np.linspace(0.0, big_l, 1001), tol=SOLVE_TOL)
        value = roots[0] if roots else (big_l if gap(0.0) > 0 else 0.0)
        corner = not roots
    return GroupRoot(value=value, corner=corner, residual=abs(gap(value)))


def _group_threshold_given_q(n, pis, q, params, variant, big_l):
    """Per-belief thresholds with the population cooperation probability fixed.

    With q fixed the payoff gap a + slope t is linear in t (`_gap_terms`), so
    the root is -a/slope, clamped to [0, ell_bar]. A flat gap (slope 0, all
    others cooperate for sure) is the constant a: the threshold is ell_bar
    when a > 0 and 0 otherwise.
    """
    a, slope = _gap_terms(n, pis, q, params, variant)
    t = np.divide(a, -slope, out=np.where(a > 0.0, big_l, 0.0), where=slope != 0.0)
    return np.clip(t, 0.0, big_l)


def _kink_beliefs(n, q, params, variant, F: LossDistribution, G: BeliefDistribution):
    """Beliefs that split [0, 1] into pieces where F(t(pi)) g(pi) is smooth.

    F(t(pi)) is smooth except where t(pi) crosses a knot k of F: a jump of
    F's density, or a support end, where t is clamped. The payoff gap is
    decreasing in t, so t(pi) crosses k exactly where the gap at t = k
    changes sign. That gap is c s(pi) + m pi^n - d with
    s = (q + (1-q) pi)^n: c = 1-b+k and d = k under `consistent`, c = 1-k
    and d = b+k under `as_printed`. It is <= 0 at pi = 0. It increases in pi
    when c >= 0, and when c < 0 its slope changes sign at most once, from
    minus to plus. So it has at most one root in (0, 1], and one exactly
    when the gap at 1 is >= 0 (1+m-b > 0 under `consistent`, 1+m-b-2k under
    `as_printed`); then [0, 1] brackets it and `bisect_root` refines it to
    |gap| <= 1e-14, returning 0 or 1 when the gap vanishes there. G's knots
    add the jumps of its density, and 0 and 1. Returns the sorted split
    points.
    """
    splits = list(G.knots)
    for k in F.knots:
        def gap(pi, k=k):
            return _payoff_gap(n, pi, k, q, params, variant)

        top = gap(1.0)
        if top >= 0.0:
            splits.append(bisect_root(gap, 0.0, 1.0, ftol=1e-14, fhi=top))
    return np.array(sorted(set(splits)))  # np.unique would load numpy.ma on numpy 2


# Gauss-Legendre nodes per smooth piece of the q_update integrand.
GAUSS_NODES = 32
GROUP_KNOTS = 2001  # beliefs, equally spaced on [0, 1], on solve_group_diverse's curve


@functools.cache
def _gauss_legendre():
    """GAUSS_NODES-point Gauss-Legendre nodes, ascending, and weights on
    [-1, 1], read-only.

    Newton's method on P_n, the Legendre polynomial of degree n = GAUSS_NODES,
    from x_i = cos(pi (i - 1/4) / (n + 1/2)) for the n/2 positive nodes,
    mirrored to the negative ones, so the rule is symmetric. P_n and
    P_n' = n (x P_n - P_(n-1)) / (x^2 - 1) come from the three-term
    recurrence (k+1) P_(k+1) = (2k+1) x P_k - k P_(k-1), and each weight is
    2 / ((1 - x^2) P_n'(x)^2). Three steps reach rounding; after five the
    nodes equal numpy.polynomial.legendre.leggauss's bit for bit, and the
    weights lie within 3.7e-16 of its weights and within 1.3e-16 of the
    rule to 50 digits (leggauss's within 4.1e-16). Plain ufuncs, so the
    group solver calls no LAPACK routine (leggauss calls `eigvalsh`) and,
    on numpy 2 and later, does not load numpy.polynomial: leggauss's import
    and call add about 1.75 MB of resident memory, this rule about 0.4 MB.
    numpy 1.x loads numpy.polynomial at `import numpy`.
    """
    n = GAUSS_NODES

    def legendre(x):  # P_n(x) and P_n'(x)
        p0, p1 = np.ones_like(x), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    x = np.array([math.cos(math.pi * (i - 0.25) / (n + 0.5)) for i in range(1, n // 2 + 1)])
    for _ in range(5):
        p, dp = legendre(x)
        x = x - p / dp
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes, weights = np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _q_update(n, q, params, variant, F: LossDistribution, G: BeliefDistribution) -> float:
    """The population cooperation probability the thresholds given q imply:
    the integral of F(t(pi)) dG(pi) over [0, 1].

    A fixed Gauss-Legendre rule on each piece between the kink beliefs; the
    integrand is evaluated once on the nodes of every piece together. The sum
    is a multiply and `np.add.reduce`, not `np.dot`, whose BLAS kernel, and
    so its summation order, depends on the CPU.
    """
    nodes, weights = _gauss_legendre()
    splits = _kink_beliefs(n, q, params, variant, F, G)
    half = 0.5 * np.diff(splits)[:, None]
    pis = (0.5 * (splits[1:] + splits[:-1])[:, None] + half * nodes).ravel()
    t = _group_threshold_given_q(n, pis, q, params, variant, F.ell_bar)
    return float(np.add.reduce(F.cdf(t) * G.pdf(pis) * (half * weights).ravel()))


def _group_fixed_point(n, params, variant, F: LossDistribution, G: BeliefDistribution) -> float:
    """A population cooperation probability q in [0, 1] with
    |Phi(q) - q| <= SOLVE_TOL, Phi the `_q_update` map.

    Phi is continuous and maps [0, 1] into itself, so Phi(q) - q is >= 0 at
    0 and <= 0 at 1, and [0, 1] brackets a fixed point, which `bisect_root`
    refines. Of several fixed points, the one returned is the one the
    bracket narrows onto.
    """
    return bisect_root(lambda q: _q_update(n, q, params, variant, F, G) - q, 0.0, 1.0,
                       ftol=SOLVE_TOL)


def solve_group_diverse(
    n: int,
    params: GameParams,
    F: LossDistribution,
    G: BeliefDistribution,
    variant: str = "consistent",
) -> ThresholdCurve:
    """Group thresholds as a function of the own belief, beliefs private.

    Outer fixed point on the scalar population cooperation probability
    q = integral of F(threshold(pi)) dG(pi): given q the per-belief threshold
    is explicit, and q is a root of Phi(q) - q on [0, 1], Phi the update
    that re-integrates it, refined by `bisect_root` until
    |Phi(q) - q| <= SOLVE_TOL (`_group_fixed_point`). The integrand is
    smooth between the kink beliefs (where the threshold hits its corners or
    a density knot of F, and G's density knots), so each update applies a
    fixed Gauss-Legendre rule on every piece between them. The curve holds
    the thresholds at GROUP_KNOTS equally spaced beliefs.
    """
    n = _check_group(n, variant)
    q = _group_fixed_point(n, params, variant, F, G)
    pis = np.linspace(0.0, 1.0, GROUP_KNOTS)
    t = _group_threshold_given_q(n, pis, q, params, variant, F.ell_bar)
    return ThresholdCurve(pis, t, codomain=(0.0, F.ell_bar))
