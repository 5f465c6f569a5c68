"""Belief-threshold equilibrium when each player's belief is private.

Strategies are described by a belief cutoff as a function of the loss: given
loss l, cooperate when the own belief is at least s(l). The symmetric
equilibrium cutoff is the unique fixed point of

    T(s)(l) = 1 - (1 + m - b) / (m + (l - (b - 1)) * I[s]),
    I[s] = integral of G(s(l)) dF(l) over the loss support,

which is a contraction on bounded curves for most games, but not all.
I[s] is the probability that a strategic partner defects, so it lies in
[0, 1], and so does the cutoff; the kernel takes a quadrature's I as at
most 1, where a density that jumps between knots can sum above it. T(s)
depends on s only through the scalar I[s], so the solver keeps the curve's
values on a uniform knot grid as plain arrays and takes each step as one
pass over them that builds the cutoff at I as an array: iterating T while
it contracts, otherwise solving the scalar equation I[s_I] = I, s_I the
cutoff at I, with `bisect_root`. A step's
residual max|T(s) - s| is the gap between two cutoffs, at I and at the J of
the current curve, (m - (b-1)) x (I-J)/((m + x I)(m + x J)) with
x = l - (b-1): it has one sign on each side of l = b-1 and grows toward
both ends of the loss support while its peak x = m/sqrt(I J) lies past the
last knot, and there the solver reads it at the two end knots. For uniform
F and G on [0, 1] the fixed point is
1 - (1+m-b)/(a + c*l) with coefficients (a, c) tied together by a scalar
system, solved exactly or by the large-m closed forms.
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
    NoThresholdEquilibrium,
    ParameterError,
    ThresholdCurve,
    all_within,
    check_count,
    check_tol,
    float_or_array,
)
from .numerics import bisect_root, composite_simpson, square


@dataclass(frozen=True)
class DiverseSolution:
    """Converged belief-cutoff curve with solver diagnostics.

    `residual_history` holds each solver step's max|T(s) - s|, a step being
    one Simpson-and-cutoff pass that builds T(s) as an array; `iterations`
    is their count and `residual` the last, that of the returned curve. An
    entry is read at the two end knots when x_N^2 I J < m^2,
    x_N = ell_bar - (b-1), I and J the weighted sums the step's two cutoffs
    are built at, and over all knots otherwise, so it may differ from the
    all-knot max by the rounding of the cutoff values (see
    `solve_diverse_threshold`). A converged curve that dips by rounding is
    returned lifted to its running max, and one more pass records the
    lifted curve's residual over all knots. `contraction_gamma` is the bound
    (1+m-b) sup g / m^2, with the exact sup of the belief density. It bounds
    T's Lipschitz constant only where |l - (b-1)| <= 1 and
    m + (l-(b-1)) I >= m; elsewhere T need not contract though it reads
    below one (0.77 at (4, 3.0625) with a steep belief, where the iterates
    two-cycle). `damped` is set when the fixed point was found as a root of
    the scalar equation in I rather than by iterating T: when the bound is
    at least one, or when an iteration step shrank the residual by less than
    a tenth.
    """

    threshold: ThresholdCurve
    coop_prob: float
    contraction_gamma: float
    residual_history: tuple[float, ...]
    damped: bool

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def residual(self) -> float:
        return self.residual_history[-1]


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


def _cutoff(big_i: float, shift: np.ndarray, params: GameParams, den=None):
    """The cutoff values 1 - (1+m-b)/(m + (l-(b-1)) I) on knots l given as
    the array shift = l - (b-1). I is a probability, the chance that a
    strategic partner defects, and is taken as min(I, 1): a Simpson sum over
    a density that jumps between knots may exceed 1. The cutoff is computed
    as ((b-1) + (l-(b-1)) I)/den, the same value without the cancellation of
    1 - (1+m-b)/den when it is small, about (b-1)/m at large m. The product
    (l-(b-1)) I is formed once, and the cutoff built in its array; den, when
    given, is an array of shift's size that receives the denominators.

    For I in [0, 1], l >= 0 and m > b - 1, IEEE rounding is monotone, so
    every numerator rounds to at least 0 and every denominator to at least
    m - (b-1) > 0, and b - 1 < m keeps each quotient at most 1: the cutoff
    lies in [0, 1] with no clipping."""
    big_i, b1, m = min(big_i, 1.0), params.b - 1.0, params.m
    out = shift * big_i
    den = np.add(out, m, out=den)
    out += b1
    out /= den
    return out


def apply_T(
    curve: ThresholdCurve, params: GameParams, F: LossDistribution, G: BeliefDistribution
) -> ThresholdCurve:
    """One application of the best-response operator on the curve's own grid.

    The integral I is computed by composite Simpson on the knots so that
    quadrature and interpolation never disagree about the curve, and taken
    as at most 1, as the solver takes it (`_cutoff`).
    """
    _check_unit_curve(curve, F)
    k = curve.knots
    big_i = composite_simpson(np.asarray(G.cdf(curve.values)) * np.asarray(F.pdf(k)), k)
    return ThresholdCurve(k, _cutoff(big_i, k - (params.b - 1.0), params), codomain=(0.0, 1.0))


def cooperation_prob_given_strategy(
    curve: ThresholdCurve, F: LossDistribution, G: BeliefDistribution
) -> float:
    """Probability a strategic partner cooperates: integral of 1 - G(s(l)) dF."""
    _check_unit_curve(curve, F)
    k = curve.knots
    return composite_simpson((1.0 - np.asarray(G.cdf(curve.values))) * np.asarray(F.pdf(k)), k)


@functools.lru_cache(maxsize=8)
def _density_probes(knots: tuple[float, ...]) -> np.ndarray:
    """The beliefs where `_density_sup` reads G's density: a 2001-point grid
    on [0, 1] and the midpoint of every segment between G's knots, read-only,
    shared by every G with those knots."""
    mids = [0.5 * (lo + hi) for lo, hi in zip(knots, knots[1:])]
    probes = np.concatenate((np.linspace(0.0, 1.0, 2001), mids))
    probes.setflags(write=False)
    return probes


def _density_sup(G: BeliefDistribution) -> float:
    """sup of G's density: its largest value at `_density_probes`, which is
    exact for a piecewise-constant density however narrow its segments."""
    return float(np.asarray(G.pdf(_density_probes(G.knots))).max())


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
    solver is the curve's values on the knots, and a step is one pass over
    plain arrays: G's cdf at s, I as its sum times the weights w, the cutoff
    at I, and the residual max|T(s) - s|, read at the two end knots where the
    gap peaks at one of them (below). Every step, Picard's or the root
    solve's, builds the cutoff at I as an array, T(s). The sum is one
    multiply and one `np.add.reduce`, not `np.dot`: BLAS picks its summation
    order by CPU, so `np.dot` gives other bits on other machines. The
    end-knot residual is taken on Python floats, with IEEE's bits.

    Built once per solve: w, the composite Simpson weights times F's density
    at the knots, from which `coop_prob` and the rounding bound's M come;
    the knots' shifts l - (b-1); one work array, which holds a step's
    weighted cdf, then its cutoff's denominators, then T(s) - s, and at the
    end the terms of `coop_prob`. Cached read-only: the knots and the
    Simpson weights per (ell_bar, n_knots), and the beliefs where G's
    density is probed for gamma per tuple of G's knots. The returned curve
    is validated once, when it is built. Its values are the cutoff at an I
    that is no NaN, as the residual at or below tol shows, and at least 0
    for a cdf in [0, 1], so they lie in [0, 1] (`_cutoff`); only knots that
    repeat, on a support too narrow for n_knots floats, raise there, a
    ParameterError.
    The steps are Picard's, stopped by the rule below: a secant step on I
    would take fewer, but `reproduce-all` writes the count, and its recorded
    outputs pin it.

    A step maps the cutoff at J (the start (b-1)/m is the cutoff at J = 0)
    to the cutoff at I. The two differ by a x (I-J)/((m + x I)(m + x J)),
    a = m - (b-1), x = l - (b-1), whose derivative in x has the sign of
    m^2 - x^2 I J. The cutoffs take I and J at most 1, so on the knots
    below b - 1, where |x| <= b - 1 < m, that sign is positive. So while
    x_N^2 I J < m^2 at the last knot, x_N = ell_bar - (b-1), the residual
    max|T(s) - s| lies at knot 0 or knot N, and it is read there; the test
    takes the sums I and J before they are bounded by 1, which can only send
    more steps to all knots. x_N^2 and m^2 are the float power's squares,
    inf where they overflow (`numerics.square`, from about 1.34e154 on): the
    strict test then sends a step to all knots unless only m^2 overflows,
    where x_N^2 I J, a float, lies below the exact m^2. Otherwise (a loss
    support reaching past the peak x = m/sqrt(I J)) it is the max over all
    knots. An entry read at the
    end knots may differ from the all-knot max by the rounding of the cutoff
    values, of order eps (|x I| + |(b-1) + x I|)/(m + x I) each, which can
    decide a stop only for a tol at that level.

    The contraction bound is gamma = (1+m-b) |G| |F| / m^2, where
    the G factor must be the Lipschitz constant of the belief cdf (the sup of
    its density, exact for a piecewise-constant one; 1 for the uniform case)
    for the bound to control |G(s1)-G(s2)|, and the F factor is the unit
    total mass. Where m^2 overflows it is divided by m twice instead.

    - gamma < 1: iterate T from the constant curve (b-1)/m, the T-image of the
      all-cooperate curve. Uniqueness makes the start immaterial, so the
      cheapest admissible curve wins. Each iteration records max|T(s) - s|.
      The bound takes |l - (b-1)| <= 1 and a denominator of at least m, which
      fail when b - 1 is large against m - (b-1); there the iterates can
      settle on a two-cycle, or creep: at (2, 1 + 1e-11) the residual ratio
      of successive steps stays near 1, and 10000 steps end at a residual
      of 1.9e-2. So a step that shrinks the residual by less than a tenth
      (a ratio of 0.9 or more) hands over to the root solve below. Where T
      does contract, the ratio is far below that.
    - gamma >= 1, or after such a step (`damped`): one `bisect_root` call
      on [0, 1] solves Phi(I) = I, where Phi(I) = I[s_I] and s_I is the
      cutoff at I; Phi(0) >= 0, and Phi(1) <= 1 unless the cutoff at
      min(Phi(1), 1) is s_1 itself. Each evaluation is a step that records
      max|T(s_I) - s_I|. Its excess is 0 once that is at most tol and
      Phi(I) - I otherwise, so every bracket holds a zero, and s_I is
      returned there.

    Raises ParameterError unless n_knots is an odd integer of at least 3
    (Simpson's rule), tol is positive and finite and max_iter an integer of
    at least 1 (a bool is neither), and
    ConvergenceError when max_iter steps in all do not reach tol, or when
    the bracket on I collapses above tol. A NaN residual, as from a belief
    cdf that returns NaN or a density that overflows, does not reach tol, so
    max_iter bounds every solve. A collapse raises
    NoThresholdEquilibrium, a ConvergenceError, where Phi jumps over the
    diagonal between the bracket's two adjacent floats by more than tol and
    more than 2 n_knots eps M, the rounding bound of two weighted sums of M,
    the Simpson mass of F's density: an atom of G, as at (2, 50), uniform F
    on [0, 0.5] and G with knots [0, 0.01, 0.01 + 1 ulp, 1] and cdf
    [0, 1/3, 2/3, 1], where Phi jumps by 4.4e-4 at I = 0.5775.

    The returned curve is nondecreasing, and may be flat: from m - (b-1) of
    about 1e13 on, neighbouring knots round to one cutoff, as do a few near
    ell_bar at m - (b-1) = 1e-13, where the cutoff is within 1e-13 of 1.
    The cutoff increases in l, so where rounding makes the converged values
    dip, as they do by 2^-52 next to 1 at (1.82942081724959,
    0.8294208172497276) on [0, 2.2715243992822787], they are lifted to their
    running max, and one more pass records the lifted curve's max|T(s) - s|
    over all knots, so that `residual` is the returned curve's; a curve that
    does not dip keeps its bits and its history.
    """
    check_tol(tol)
    max_iter = check_count("max_iter", max_iter, 1)
    n_knots = check_count("n_knots", n_knots, 3)
    if n_knots % 2 == 0:
        raise ParameterError(f"n_knots must be odd, got {n_knots}")
    knots, simpson = _simpson_grid(F.ell_bar, n_knots)
    w = simpson * F.pdf(knots)
    shift = knots - (params.b - 1.0)
    # when the residual is read at the two end knots: see the docstring
    end_sq, m_sq = square(shift.item(-1)), square(params.m)
    gamma = (params.coop_premium * _density_sup(G) * 1.0 / m_sq if m_sq < math.inf
             else params.coop_premium / params.m * _density_sup(G) / params.m)
    # a step's weighted cdf, then its cutoff's denominators, then T(s) - s;
    # at the end the terms of coop_prob
    work = np.empty(n_knots)
    history: list[float] = []

    def image(vals, cur_i):
        """(I[s], T(s)) for the cutoff values s at cur_i, recording max|T(s) - s|."""
        big_i = float(np.add.reduce(np.multiply(G.cdf(vals), w, out=work)))
        out = _cutoff(big_i, shift, params, work)
        if end_sq * cur_i * big_i < m_sq:
            history.append(max(abs(out.item(0) - vals.item(0)),
                               abs(out.item(-1) - vals.item(-1))))
        else:
            np.subtract(out, vals, out=work)
            history.append(float(np.abs(work, out=work).max()))
        if not history[-1] <= tol and len(history) >= max_iter:
            raise ConvergenceError(
                f"no fixed point after {max_iter} iterations (last residual {history[-1]:.3e})"
            )
        return big_i, out

    damped = gamma >= 1.0
    # the constant starting curve, the cutoff at I = 0, as one value: G's cdf
    # and the residual broadcast it
    vals, cur_i = np.full(1, params.pi_low), 0.0
    while not damped:
        cur_i, vals = image(vals, cur_i)
        if history[-1] <= tol:
            break
        # a step that shrinks the residual by less than a tenth: T contracts
        # too slowly here, or not at all
        damped = len(history) > 1 and history[-1] >= 0.9 * history[-2]
    if damped:
        # the last (I, Phi(I)) on each side of the diagonal: the bracket's ends
        bracket = {}

        def excess(big_i):
            nonlocal vals
            vals = _cutoff(big_i, shift, params, work)
            phi = image(vals, big_i)[0]
            if history[-1] <= tol:
                return 0.0
            bracket[phi > big_i] = (big_i, phi)
            return phi - big_i

        # the root is the last evaluation, where the excess is 0, unless the
        # bracket collapsed onto two floats first; image() enforces the budget
        root = bisect_root(excess, 0.0, 1.0, ftol=0.0)
        if not history[-1] <= tol:
            (lo, phi_lo), (hi, phi_hi) = bracket[True], bracket[False]
            jump = phi_lo - phi_hi
            if jump > max(tol, 2.0 * n_knots * np.finfo(float).eps * float(w.sum())):
                raise NoThresholdEquilibrium(
                    f"no threshold equilibrium: Phi(I) jumps by {jump:.3e} between the "
                    f"adjacent floats I = {lo!r} and {hi!r} (last residual "
                    f"{history[-1]:.3e})")
            raise ConvergenceError(f"bisection on I collapsed at {root!r} "
                                   f"(last residual {history[-1]:.3e})")

    threshold = ThresholdCurve(knots, vals, codomain=(0.0, 1.0))
    if not threshold.monotone:
        # the cutoff increases in l, so a dip is rounding, where the curve is
        # flat next to 1: lift it to its running max, and record the lifted
        # curve's residual over all knots
        vals = np.maximum.accumulate(vals)
        threshold = ThresholdCurve(knots, vals, codomain=(0.0, 1.0))
        big_i = float(np.add.reduce(np.multiply(G.cdf(vals), w, out=work)))
        history.append(float(np.abs(_cutoff(big_i, shift, params) - vals).max()))
    return DiverseSolution(
        threshold=threshold,
        coop_prob=float(np.add.reduce(np.multiply(np.subtract(1.0, G.cdf(vals), out=work), w,
                                                  out=work))),
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
    one equation, refined to adjacent floats, after which both original
    equations are verified, each to 1e-9 of its largest term.

    The reduced equation beta - 1 + (a/beta) log1p(beta/alpha) = 0, a = 1+m-b,
    is solved in beta when its root is at most 1/2, and in c = 1 - beta
    otherwise; its sign at 1/2 tells which. a is formed as m - (b-1), which
    rounds once (b - 1 is exact), where 1 + m - b would lose the digits of a
    small a to the rounding of 1 + m.

    In beta it is solved as beta + L - (b-1)(1-beta)(1+L)/alpha = 0 with
    x = beta/alpha and L = log1p(x)/x - 1, using a/alpha = 1 -
    (b-1)(1-beta)/alpha. Its terms are then of the size of beta rather than
    1, which keeps beta to a few ulps when it is small, about (b-1)/m at
    large m; the left side is -(b-1)/m at beta = 0. In c it is solved as
    (a/beta) log1p(beta/alpha) - c = 0 with alpha = a + (b-1) c, the same
    function, a log1p(1/a) > 0 at c = 0. Its terms are of the size of c,
    about a log(1/a) at small a, where alpha = m - (b-1) beta would cancel.

    With t = (a/beta) log1p(beta/alpha), the two original equations are
    alpha - a = (b-1) t and 1 - beta = t. They are verified as
    (b-1) c = (b-1) t and c = t, in terms of the size of c; written with
    alpha and beta themselves, they would subtract terms of the size of m
    and of 1 that cancel as a -> 0.
    """
    if mode not in ("exact", "approximate"):
        raise ParameterError(f"mode must be 'exact' or 'approximate', got {mode!r}")
    if mode == "approximate":
        alpha, beta = _approximate_alpha_beta(params)
        return AlphaBeta(alpha=alpha, beta=beta, mode="approximate")
    b1 = params.b - 1.0
    a = params.m - b1

    def reduced(beta):
        alpha = params.m - b1 * beta
        big_l = _log1p_ratio_minus_one(beta / alpha)
        return beta + big_l - b1 * (1.0 - beta) * (1.0 + big_l) / alpha

    def reduced_in_c(c):
        beta = 1.0 - c
        return a / beta * math.log1p(beta / (a + b1 * c)) - c

    half = reduced(0.5)
    if half >= 0.0:
        beta = bisect_root(reduced, math.ulp(0.0), 0.5, ftol=0.0, fhi=half)
        alpha, c = params.m - b1 * beta, 1.0 - beta
    else:
        c = bisect_root(reduced_in_c, math.ulp(0.0), 0.5, ftol=0.0, fhi=half)
        alpha, beta = a + b1 * c, 1.0 - c
    t = a / beta * math.log1p(beta / alpha)
    r1 = b1 * c - b1 * t
    r2 = c - t
    if abs(r1) > 1e-9 * b1 * max(c, t) or abs(r2) > 1e-9 * max(c, t):
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
