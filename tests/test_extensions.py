import hashlib
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_common_eq import uniform_fixed_points
from test_vectorized import power_loss

import reference
import trustpd as tp
from trustpd import extensions
from trustpd.common_eq import _best_response, psi
from trustpd.extensions import (
    SOLVE_TOL,
    VARIANTS,
    _gauss_legendre,
    _group_fixed_point,
    _group_loss,
    _group_threshold_given_q,
    _kink_beliefs,
    _payoff_gap,
    _q_update,
    _straddling_start,
)
from trustpd.numerics import adaptive_simpson, bisect_root, bracket_roots


def clamp_br(pi, opp, params, dist):
    return tp.best_response_threshold(pi, opp, params, dist)


class TestSolveAsymmetric:
    def test_symmetric_beliefs_reduce_to_common_solver(self, fig_params, fig_dist):
        sol = tp.solve_asymmetric(0.03, 0.03, fig_params, fig_dist)
        common = tp.solve_common_equilibria(0.03, fig_params, fig_dist, tol=1e-12)
        assert sol.unique
        assert sol.ell1_hat == pytest.approx(common.lowest, abs=1e-8)
        assert sol.ell2_hat == pytest.approx(common.lowest, abs=1e-8)

    def test_system_residuals(self, fig_params, fig_dist):
        sol = tp.solve_asymmetric(0.03, 0.10, fig_params, fig_dist)
        assert sol.ell1_hat == pytest.approx(
            clamp_br(0.03, sol.ell2_hat, fig_params, fig_dist), abs=1e-10
        )
        assert sol.ell2_hat == pytest.approx(
            clamp_br(0.10, sol.ell1_hat, fig_params, fig_dist), abs=1e-10
        )

    def test_raising_optimism_backfires(self, fig_params, fig_dist):
        lo = tp.solve_asymmetric(0.03, 0.05, fig_params, fig_dist)
        hi = tp.solve_asymmetric(0.03, 0.10, fig_params, fig_dist)
        assert hi.ell1_hat < lo.ell1_hat
        assert hi.ell2_hat > lo.ell2_hat

    def test_zero_optimist_belief(self, fig_params, fig_dist):
        # pi2 = 0 hard-wires player 2 to defect; player 1 best-responds to p=0
        sol = tp.solve_asymmetric(0.03, 0.0, fig_params, fig_dist)
        assert sol.ell2_hat == pytest.approx(0.0, abs=1e-10)
        expected = fig_params.coop_premium * 0.03 / 0.97
        assert sol.ell1_hat == pytest.approx(expected, abs=1e-10)

    def test_unique_flag_gates_on_pi1(self, fig_params, fig_dist):
        assert tp.solve_asymmetric(0.03, 0.2, fig_params, fig_dist).unique
        assert not tp.solve_asymmetric(0.05, 0.05, fig_params, fig_dist).unique

    def test_unique_flag_counts_intersections_below_the_boundary(self, fig_params, unit_loss):
        # both beliefs below (b-1)/m on [0, 1]: besides the returned (0, 1),
        # (1, 0) and the shared-belief threshold, about 0.625 for both, are
        # fixed points of the best responses
        sol = tp.solve_asymmetric(0.03, 0.03, fig_params, unit_loss)
        assert (sol.ell1_hat, sol.ell2_hat) == pytest.approx((0.0, 1.0), abs=1e-12)
        assert not sol.unique
        shared = tp.solve_common_equilibria(0.03, fig_params, unit_loss).lowest
        assert shared == pytest.approx(0.625, abs=1e-3)
        for l1, l2 in ((1.0, 0.0), (shared, shared)):
            assert clamp_br(0.03, l2, fig_params, unit_loss) == pytest.approx(l1, abs=1e-9)
            assert clamp_br(0.03, l1, fig_params, unit_loss) == pytest.approx(l2, abs=1e-9)


def asymmetric_quadratic_roots(b, m, pi1, pi2, ell_bar):
    """The roots l1 of L(K1 - l1)(L - l1) = (K2 L - (b-1) l1)((b-1) - l1), in
    60-digit decimal from the float inputs: with uniform losses on [0, L],
    every interior solution of l1 = psi(l2; pi1), l2 = psi(l1; pi2) is one,
    K_i = (1+m-b) pi_i/(1-pi_i)."""
    with localcontext() as ctx:
        ctx.prec = 60
        b, m, pi1, pi2, big_l = map(Decimal, (b, m, pi1, pi2, ell_bar))
        c = b - 1
        k1, k2 = ((1 + m - b) * p / (1 - p) for p in (pi1, pi2))
        qa = big_l - c
        qb = k2 * big_l + c * c - big_l * (k1 + big_l)
        qc = big_l * (k1 * big_l - k2 * c)
        if qa == 0:
            return [-qc / qb]
        root_disc = (qb * qb - 4 * qa * qc).sqrt()
        return [(-qb + s * root_disc) / (2 * qa) for s in (-1, 1)]


def assert_root_contract(gap, ell1):
    """|gap(l1)| <= SOLVE_TOL, or l1 is the lower end of a sign-change
    bracket of two adjacent floats."""
    value = gap(ell1)
    assert abs(value) <= SOLVE_TOL or value > 0.0 > gap(math.nextafter(ell1, math.inf))


@given(b=st.floats(1.05, 8.0), log_gap=st.floats(-2.0, 3.0),
       ell_bar=st.one_of(st.sampled_from([1.0, 8.0]), st.floats(0.5, 16.0)),
       log_below=st.floats(-14.0, -3.0), log_above=st.none() | st.floats(-14.0, -3.0),
       below_first=st.booleans(), family=st.sampled_from(["uniform", 0.5, 0.8]))
@settings(max_examples=200, deadline=None)
def test_straddling_asymmetric_solve(b, log_gap, ell_bar, log_below, log_above, below_first,
                                     family):
    """Beliefs on opposite sides of (b-1)/m, one of them possibly at it: one
    intersection, meeting the root contract, the lowest one the 2001-point
    scan finds, and for an interior solution under uniform losses a root of
    the uniform quadratic. Tabulated power-law losses take the model start's
    miss path."""
    params = tp.validate_params(b, b - 1.0 + 10.0 ** log_gap)
    dist = tp.uniform_loss(ell_bar) if family == "uniform" else power_loss(ell_bar, family)
    pi_low = params.pi_low
    below = pi_low * (1.0 - 10.0 ** log_below)
    above = pi_low if log_above is None else min(pi_low * (1.0 + 10.0 ** log_above), 1.0)
    assume(below < pi_low <= above)
    pi1, pi2 = (below, above) if below_first else (above, below)
    sol = tp.solve_asymmetric(pi1, pi2, params, dist)
    assert sol.unique

    def gap(l1):
        return clamp_br(pi1, clamp_br(pi2, l1, params, dist), params, dist) - l1

    assert_root_contract(gap, sol.ell1_hat)
    assert sol.ell2_hat == clamp_br(pi2, sol.ell1_hat, params, dist)
    scan = bracket_roots(gap, np.linspace(0.0, ell_bar, 2001), tol=1e-12)
    assert abs(sol.ell1_hat - scan[0]) <= 1e-9 * ell_bar
    lo, hi = sorted((sol.ell1_hat, sol.ell2_hat))
    if family == "uniform" and 1e-7 * ell_bar <= lo and hi <= ell_bar - 1e-7 * ell_bar:
        roots = asymmetric_quadratic_roots(b, params.m, pi1, pi2, ell_bar)
        assert min(abs(Decimal(sol.ell1_hat) - r) for r in roots) <= Decimal(1e-10 * ell_bar)


@given(b=st.floats(1.5, 4.0), m_frac=st.floats(0.0, 1.0), excess=st.floats(1.0, 10.0),
       below_frac=st.floats(0.05, 0.95), above_frac=st.floats(0.05, 1.5),
       below_first=st.booleans())
@settings(max_examples=300, deadline=None)
def test_straddling_uniform_solve_takes_two_gap_evaluations(b, m_frac, excess, below_frac,
                                                            above_frac, below_first):
    """Games drawn as the benchmark's asymmetric solves draw them, in either
    order: the uniform model's start meets the tolerance at once, so a
    solve evaluates the gap at 0 and at the start, and an l1 = 0 corner at
    0 alone. Counted as calls of player 1's best response; the bisection
    from [0, ell_bar] this replaced took 6 to 16 for an interior solution
    on 1000 such games."""
    m = max(8.0, 2.0 * b) + m_frac * (80.0 - max(8.0, 2.0 * b))
    params, ell_bar = tp.validate_params(b, m), b - 1.0 + excess
    pi_low, _, pi_prime = (float(x) for x in reference.shared_uniform_criticals(b, m, ell_bar))
    below, above = pi_low * below_frac, pi_low + (pi_prime - pi_low) * above_frac
    pi1, pi2 = (below, above) if below_first else (above, below)
    counts = {}

    def counting(pi, params, dist):
        best_response = _best_response(pi, params, dist)
        counts.setdefault(pi, 0)

        def call(opp):
            counts[pi] += 1
            return best_response(opp)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extensions, "_best_response", counting)
        sol = tp.solve_asymmetric(pi1, pi2, params, tp.uniform_loss(ell_bar))
    assert counts[pi1] == (1 if sol.ell1_hat == 0.0 else 2)
    assert sol.ell2_hat == clamp_br(pi2, sol.ell1_hat, params, tp.uniform_loss(ell_bar))


@pytest.mark.parametrize("ell_bar", [1e100, 1e154, 1e160])
def test_straddling_start_whose_squares_overflow(ell_bar, fig_params):
    """At (3, 50) with pi = (0.01, 0.1), the uniform model's discriminant
    squares a number past the float maximum's square root from
    ell_bar = 1e100 on, where the float power raised OverflowError. The
    square is inf: the start is then l_b at l_a = b - 1, or, from 1e154 on,
    where the product e_a ell_bar 2d overflows too, NaN, which leaves the
    whole bracket to `bisect_root`.
    The solve meets the root contract, with l1 = K_1 = 48/99 and
    l2 = (b-1) + e_2 = 16/3 to the tolerance."""
    dist = tp.uniform_loss(ell_bar)
    start = _straddling_start(0.01, 0.1, fig_params, ell_bar)
    assert math.isnan(start) if ell_bar >= 1e154 else start == pytest.approx(48 / 99)
    sol = tp.solve_asymmetric(0.01, 0.1, fig_params, dist)

    def gap(l1):
        return (clamp_br(0.01, clamp_br(0.1, l1, fig_params, dist), fig_params, dist)
                - l1)

    assert_root_contract(gap, sol.ell1_hat)
    assert sol.ell1_hat == pytest.approx(48 / 99, rel=1e-9)
    assert sol.ell2_hat == pytest.approx(16 / 3, rel=1e-9)


def test_straddling_start_that_rounds_onto_ell_bar(fig_params, fig_dist):
    """The model's l_a lies below ell_bar exactly, but rounds onto it where
    e_b is within rounding of 0 and e_a ell_bar > d^2: at (3, 50) on [0, 8],
    pi1 = 0.5 and pi2 one float below (b-1)/m. The start is NaN, and the
    solve bisects [0, ell_bar] to the corner (ell_bar, 0)."""
    below = math.nextafter(fig_params.pi_low, 0.0)
    assert math.isnan(_straddling_start(0.5, below, fig_params, 8.0))
    sol = tp.solve_asymmetric(0.5, below, fig_params, fig_dist)
    assert (sol.ell1_hat, sol.ell2_hat, sol.unique) == (8.0, 0.0, True)


@given(b=st.floats(1.05, 8.0), log_gap=st.floats(-2.0, 3.0), excess=st.floats(1.0, 10.0),
       log_d=st.floats(-3.0, 0.0, exclude_max=True))
@settings(max_examples=150, deadline=None)
def test_same_side_asymmetric_solve(b, log_gap, excess, log_d):
    """Both beliefs at pi = pi' - d (pi' - (b-1)/m), d log-uniform in
    [1e-3, 1): the shared low root, within 1e-9 ell_bar of the uniform
    quadratic's, and unique=False, as the high root and the corner are
    intersections too. ell_bar is (b-1) plus 1 to 10, as the benchmark draws
    it. The scan misses the two interior roots when both fall in one cell of
    its 2001-point grid, which they do below about d = 1e-5 (4 of 300
    benchmark-like games at 1e-5, 257 at 1e-8): that defect is not tested
    here."""
    params = tp.validate_params(b, b - 1.0 + 10.0 ** log_gap)
    ell_bar = b - 1.0 + excess
    # at pi' the uniform quadratic's discriminant vanishes:
    # (L + b - 1)^2 = 4 (1+m-b) L pi'/(1 - pi')
    ratio = (ell_bar + b - 1.0) ** 2 / (4.0 * params.coop_premium * ell_bar)
    pi_prime = ratio / (1.0 + ratio)
    pi = pi_prime - 10.0 ** log_d * (pi_prime - params.pi_low)
    assume(params.pi_low <= pi < pi_prime)
    sol = tp.solve_asymmetric(pi, pi, params, tp.uniform_loss(ell_bar))
    low = uniform_fixed_points(b, params.m, ell_bar, pi)[0]
    assert not sol.unique
    assert abs(sol.ell1_hat - low) <= 1e-9 * ell_bar
    assert abs(sol.ell2_hat - low) <= 1e-9 * ell_bar


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP 2: same-side scan misses a root pair inside one cell")
def test_same_side_root_pair_inside_one_scan_cell():
    """A same-side game whose two interior roots, 0.0013 apart, fall in one
    cell of the scan's grid: the shared low root, as the common solver finds
    it, and unique=False. The scan sees no sign change there and returns the
    corner (6.9161, 6.9161, unique=True)."""
    pi, params, dist = 0.01058497274, tp.validate_params(7.8839, 650.35), tp.uniform_loss(6.9161)
    sol = tp.solve_asymmetric(pi, pi, params, dist)
    low = tp.solve_common_equilibria(pi, params, dist, tol=1e-12).ell_low
    assert abs(sol.ell1_hat - low) <= 1e-6 * dist.ell_bar
    assert sol.unique is False


# float.hex of (ell1_hat, ell2_hat) and `unique` from solve_asymmetric on the
# figure game (3, 50), uniform on [0, 8] unless a loss support is given:
# straddling beliefs both ways round, a belief at (b-1)/m = 0.04, beliefs of 0
# and 1, and same-side beliefs, which the scan solves. Recorded before the
# per-solve best responses, whose steps must keep these bits, and again when
# root refinement took inverse-quadratic steps (at most 7.4e-13 apart), the
# midpoint in place of the truncated regula falsi point (1.4e-13), and when
# straddling solves started from the uniform quadratic's root: (0.03, 0.1)
# moved by 5.1e-14, to 3.4e-16 from the exact root, and now mirrors
# (0.1, 0.03) bit for bit.
PINNED_ASYMMETRIC = {
    (0.03, 0.1): ("0x1.6e22ee0123434p-2", "0x1.5f507125dcd58p+2", True),
    (0.1, 0.03): ("0x1.5f507125dcd58p+2", "0x1.6e22ee0123434p-2", True),
    (0.03, 0.04): ("0x1.500e135a9c975p+0", "0x1.0000000000000p+1", True),
    (0.04, 0.03): ("0x1.0000000000000p+1", "0x1.500e135a9c975p+0", True),
    (0.04, 0.1): ("0x1.0000000000000p+1", "0x1.9c71c71c71c73p+2", False),
    (0.03, 0.0): ("0x1.7c0a8e83f5718p+0", "0x0.0p+0", True),
    (0.0, 0.1): ("0x0.0p+0", "0x1.5555555555556p+2", True),
    (0.03, 1.0): ("0x0.0p+0", "0x1.0000000000000p+3", True),
    (1.0, 0.03): ("0x1.0000000000000p+3", "0x0.0p+0", True),
    (0.1, 1.0): ("0x1.0000000000000p+3", "0x1.0000000000000p+3", True),
    (0.03, 0.03): ("0x1.6098f07b5367fp+0", "0x1.6098f07b53e3ep+0", True),
    (0.05, 0.05): ("0x1.67dfaba2857e2p+1", "0x1.67dfaba2857e2p+1", False),
    (0.03, 0.03, 1.0): ("0x0.0p+0", "0x1.0000000000000p+0", False),
}


@pytest.mark.parametrize("case", PINNED_ASYMMETRIC)
def test_asymmetric_pinned_bits(case, fig_params):
    pi1, pi2, *support = case
    assert fig_params.pi_low == 0.04
    ell_bar = support[0] if support else 8.0
    sol = tp.solve_asymmetric(pi1, pi2, fig_params, tp.uniform_loss(ell_bar))
    assert (sol.ell1_hat.hex(), sol.ell2_hat.hex(), sol.unique) == PINNED_ASYMMETRIC[case]


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
@pytest.mark.parametrize("slot", [0, 1])
def test_asymmetric_checks_beliefs_before_evaluating_f(bad, slot, fig_params, fig_dist):
    calls = []

    def cdf(x):
        calls.append(x)
        return fig_dist.cdf(x)

    dist = tp.LossDistribution(cdf=cdf, pdf=fig_dist.pdf, ppf=fig_dist.ppf, ell_bar=8.0,
                               monotone_hazard=True)
    beliefs = [0.03, 0.1]
    beliefs[slot] = bad
    with pytest.raises(tp.ParameterError, match=rf"^belief must lie in \[0, 1\], got {bad}$"):
        tp.solve_asymmetric(*beliefs, fig_params, dist)
    assert calls == []


class TestAsymmetricSensitivity:
    def test_negative_across_sampled_configurations(self, fig_params, fig_dist):
        for pi1 in (0.02, 0.03):
            for pi2 in (0.05, 0.06, 0.065):
                d = tp.asymmetric_sensitivity(pi1, pi2, fig_params, fig_dist)
                assert d < 0

    def test_hypothesis_gate(self, fig_params, fig_dist):
        # both beliefs below (b-1)/m: outside the claim, rejected
        with pytest.raises(tp.ParameterError):
            tp.asymmetric_sensitivity(0.02, 0.03, fig_params, fig_dist)

    def test_corner_reported(self, fig_params, fig_dist):
        # pi2 large enough that player 2 cooperates for every loss
        with pytest.raises(tp.RegimeError):
            tp.asymmetric_sensitivity(0.03, 0.3, fig_params, fig_dist)

    def test_matches_implicit_function_formula(self, fig_params, fig_dist):
        # oracle: Psi_l Psi_pi / (1 - Psi_l Psi_l) from finite differences of psi
        pi1, pi2 = 0.03, 0.08
        sol = tp.solve_asymmetric(pi1, pi2, fig_params, fig_dist)
        h = 1e-6

        def dpsi_dl(ell, pi):
            return (psi(ell + h, pi, fig_params, fig_dist)
                    - psi(ell - h, pi, fig_params, fig_dist)) / (2 * h)

        def dpsi_dpi(ell, pi):
            return (psi(ell, pi + h, fig_params, fig_dist)
                    - psi(ell, pi - h, fig_params, fig_dist)) / (2 * h)

        num = dpsi_dl(sol.ell2_hat, pi1) * dpsi_dpi(sol.ell1_hat, pi2)
        den = 1 - dpsi_dl(sol.ell2_hat, pi1) * dpsi_dl(sol.ell1_hat, pi2)
        expected = num / den
        measured = tp.asymmetric_sensitivity(pi1, pi2, fig_params, fig_dist)
        assert measured == pytest.approx(expected, rel=0.05)

    def test_matches_central_difference_of_the_solver(self, fig_params, fig_dist):
        # oracle: d l1/d pi2 by central differences of solve_asymmetric,
        # over criterion 7's twenty configurations
        step = 1e-5
        for pi1 in (0.02, 0.025, 0.03, 0.035):
            for pi2 in (0.045, 0.05, 0.055, 0.06, 0.065):
                up, down = (tp.solve_asymmetric(pi1, pi2 + s, fig_params, fig_dist).ell1_hat
                            for s in (step, -step))
                measured = tp.asymmetric_sensitivity(pi1, pi2, fig_params, fig_dist)
                assert measured == pytest.approx((up - down) / (2 * step), rel=1e-6)


class TestGroupCommon:
    def test_n1_consistent_matches_two_player(self, fig_params, fig_dist):
        for pi in (0.03, 0.05, 0.08):
            group = tp.solve_group_common(1, pi, fig_params, fig_dist, variant="consistent")
            eqs = tp.solve_common_equilibria(pi, fig_params, fig_dist, tol=1e-12)
            two = eqs.lowest if eqs.regime != "unique-corner" else eqs.ell_corner
            assert group.value == pytest.approx(two, abs=1e-6)

    def test_zero_belief_forces_defection_corner(self, fig_params, fig_dist):
        for variant in ("consistent", "as_printed"):
            for n in (1, 4):
                root = tp.solve_group_common(n, 0.0, fig_params, fig_dist, variant=variant)
                assert root.value == 0.0
                if variant == "as_printed":
                    # the gap is -b at t = 0 and negative throughout: no root, and
                    # the corner is read from the sign of the gap at 0
                    assert root.corner

    def test_strong_moral_cost_forces_cooperation(self, unit_loss):
        # m pi^n > b with the remaining terms bounded: cooperate for all losses
        params = tp.validate_params(2, 40)
        root = tp.solve_group_common(1, 0.9, params, unit_loss, variant="consistent")
        assert root.value == 1.0
        assert root.corner
        # one-sided inequality at the cooperation corner: gap >= 0 everywhere
        for t in np.linspace(0, 1, 50):
            s = 0.9 + 0.1 * float(unit_loss.cdf(t))
            gap = (1 + t - params.b) * s - t + params.m * 0.9
            assert gap >= 0

    @pytest.mark.parametrize("n, gap_at_zero", [(2, 1.2e-11), (5, 3e-12), (2, 5e-13)])
    def test_root_next_to_zero_meets_the_residual_contract(self, n, gap_at_zero):
        # gap(0) = pi^n (1+m-b) and the root lies within 1e-12 ell_bar of 0;
        # the shared solver reports it as refined, and its residual bound
        # gives |gap| <= SOLVE_TOL, whether or not |gap(0)| <= SOLVE_TOL
        params = tp.validate_params(2, 8)
        F = tp.uniform_loss(16.0)
        pi = (gap_at_zero / params.coop_premium) ** (1.0 / n)
        root = tp.solve_group_common(n, pi, params, F, variant="consistent")
        assert not root.corner
        assert root.residual == abs(_payoff_gap(n, pi, root.value, F.cdf(root.value), params,
                                                "consistent")) <= SOLVE_TOL
        assert 0.0 < root.value <= 1e-12 * F.ell_bar

    def test_as_printed_residual(self, p28, unit_loss):
        for n, pi in ((1, 0.3), (3, 0.7)):
            root = tp.solve_group_common(n, pi, p28, unit_loss, variant="as_printed")
            assert not root.corner
            assert root.residual <= 1e-8
            # oracle: plug the root back into the printed equation
            s = (pi + (1 - pi) * float(unit_loss.cdf(root.value))) ** n
            lhs = (1 - root.value) * s - root.value
            rhs = p28.b - p28.m * pi**n
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_rejects_bad_arguments(self, p28, unit_loss, unit_belief):
        with pytest.raises(tp.ParameterError):
            tp.solve_group_common(0, 0.5, p28, unit_loss)
        with pytest.raises(tp.ParameterError):
            tp.solve_group_common(2, 1.0, p28, unit_loss)
        with pytest.raises(tp.ParameterError):
            tp.solve_group_common(2, 0.5, p28, unit_loss, variant="bogus")
        # a group size is an integer of at least 1, and a bool is none
        for n in (math.nan, 2.5, math.inf, True):
            with pytest.raises(tp.ParameterError, match="group size"):
                tp.solve_group_common(n, 0.5, p28, unit_loss)
            with pytest.raises(tp.ParameterError, match="group size"):
                tp.solve_group_diverse(n, p28, unit_loss, unit_belief)
        # a numpy integer is solved as the int it equals
        assert (tp.solve_group_common(np.int64(2), 0.3, p28, unit_loss)
                == tp.solve_group_common(2, 0.3, p28, unit_loss))
        assert (tp.solve_group_diverse(np.int64(2), p28, unit_loss, unit_belief).values.tobytes()
                == tp.solve_group_diverse(2, p28, unit_loss, unit_belief).values.tobytes())


def group_losses():
    """Uniform and power-law tabulated losses on [0, 2], by name."""
    losses = {f"power{k}": power_loss(2.0, k) for k in (0.5, 0.8, 1.0)}
    return {"uniform": tp.uniform_loss(2.0), **losses}


class TestGroupLoss:
    """F~ of `_group_loss`, the law under which the consistent group gap is the
    two-player one at belief pi^n."""

    @pytest.mark.parametrize("name", sorted(group_losses()))
    @pytest.mark.parametrize("n, pi", [(1, 0.03), (2, 0.3), (5, 0.6), (10, 0.9), (3, 0.0)])
    def test_gap_is_the_two_player_gap(self, name, n, pi):
        F, params = group_losses()[name], tp.validate_params(3.0, 50.0)
        tilde, c = _group_loss(n, pi, F), pi ** n
        k = params.coop_premium * c / (1.0 - c)
        for t in np.linspace(0.0, F.ell_bar, 101).tolist():
            big_f = float(tilde.cdf(t))
            phi = (params.b - 1.0) * big_f + t * (1.0 - big_f)
            gap = _payoff_gap(n, pi, t, F.cdf(t), params, "consistent")
            scale = 1.0 + t + params.b + params.m * c
            assert abs(gap - (1.0 - c) * (k - phi)) <= 1e-14 * scale

    @pytest.mark.parametrize("name", sorted(group_losses()))
    @pytest.mark.parametrize("n, pi", [(1, 0.03), (2, 0.3), (5, 0.6), (10, 0.9), (3, 0.0)])
    def test_ppf_inverts_cdf(self, name, n, pi):
        F = group_losses()[name]
        tilde = _group_loss(n, pi, F)
        ts = np.linspace(0.0, F.ell_bar, 201)
        np.testing.assert_allclose(tilde.ppf(tilde.cdf(ts)), ts, rtol=0.0, atol=1e-12 * F.ell_bar)
        assert tilde.cdf(0.0) == 0.0 and tilde.cdf(F.ell_bar) == 1.0

    @pytest.mark.parametrize("name", sorted(group_losses()))
    @pytest.mark.parametrize("n, pi", [(1, 0.03), (2, 0.3), (10, 0.9), (3, 0.0)])
    def test_keeps_a_nondecreasing_hazard(self, name, n, pi):
        F = group_losses()[name]
        tilde = _group_loss(n, pi, F)
        assert tilde.monotone_hazard and tilde.knots == F.knots and tilde.ell_bar == F.ell_bar
        ts = np.linspace(0.0, F.ell_bar, 802)[:-1]
        h = tilde.pdf(ts) / (1.0 - tilde.cdf(ts))
        assert np.all(np.diff(h) >= -1e-9 * h[1:])

    def test_non_monotone_hazard(self, fig_params):
        # density 0.5, 0.05, 0.45 on three unit segments: the hazard dips on
        # the middle one
        F = tp.tabulated_loss([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.55, 1.0])
        assert not _group_loss(2, 0.1, F).monotone_hazard
        with pytest.raises(tp.ParameterError, match="hazard"):
            tp.solve_group_common(2, 0.1, fig_params, F, variant="consistent")
        root = tp.solve_group_common(2, 0.1, fig_params, F, variant="as_printed")
        assert 0.0 <= root.value <= F.ell_bar

    def test_as_printed_gap_changes_sign_twice(self):
        # no one-peak shape: negative at 0, a root at 0.2 and another at 0.358
        params, F, pi = tp.validate_params(1.5, 25.6), tp.uniform_loss(0.4), 0.05
        roots = bracket_roots(lambda t: _payoff_gap(1, pi, t, F.cdf(t), params, "as_printed"),
                              np.linspace(0.0, 0.4, 1001), tol=1e-14)
        assert _payoff_gap(1, pi, 0.0, 0.0, params, "as_printed") < 0.0
        assert roots == pytest.approx([0.2, 0.358], abs=1e-3)
        root = tp.solve_group_common(1, pi, params, F, variant="as_printed")
        assert root.value == pytest.approx(roots[0], abs=1e-12) and not root.corner


def reduced_pi_prime(n, pi, params, F):
    """pi' of the two-player game under the group loss F~ at belief pi."""
    return tp.critical_pair(params, _group_loss(n, pi, F)).pi_prime


def belief_below_reduced_pi_prime(n, rel, params, F):
    """The belief pi with pi^n = (1 - rel) pi'(pi), pi' the reduced game's
    tangency belief: pi^n - (1 - rel) pi' is negative at 0 and positive near 1."""
    return bisect_root(lambda pi: pi ** n - (1.0 - rel) * reduced_pi_prime(n, pi, params, F),
                       0.0, 1.0 - 1e-9, ftol=0.0)


@given(b=st.floats(1.05, 6.0), log_gap=st.floats(-1.0, 2.5), n=st.integers(1, 10),
       family=st.sampled_from(["uniform", 0.5, 0.8, 1.0]), ell_bar=st.floats(0.5, 16.0),
       belief=st.one_of(st.tuples(st.just("random"), st.floats(0.0, 0.999)),
                        st.tuples(st.just("below-pi-prime"), st.floats(-12.0, -3.0)),
                        st.tuples(st.just("near-one"), st.floats(-6.0, -1.0))))
@settings(max_examples=300, deadline=None)
def test_consistent_group_solve(b, log_gap, n, family, ell_bar, belief):
    """The consistent group threshold is the lowest root of the payoff gap, or
    ell_bar when the gap stays positive, near pi' of the reduced game too."""
    params = tp.validate_params(b, b - 1.0 + 10.0 ** log_gap)
    F = tp.uniform_loss(ell_bar) if family == "uniform" else power_loss(ell_bar, family)
    mode, x = belief
    if mode == "random":
        pi = x
    elif mode == "near-one":
        pi = 1.0 - 10.0 ** x
    else:
        assume(ell_bar > b - 1.0)
        pi = belief_below_reduced_pi_prime(n, 10.0 ** x, params, F)
    root = tp.solve_group_common(n, pi, params, F, variant="consistent")

    def gap(t):
        return _payoff_gap(n, pi, t, F.cdf(t), params, "consistent")

    assert root.corner == (root.value == ell_bar)
    if not root.corner:
        assert root.residual == abs(gap(root.value)) <= SOLVE_TOL
    grid = np.linspace(0.0, ell_bar, 20001)
    below = grid if root.corner else grid[grid < root.value]
    assert np.all(gap(below) >= -SOLVE_TOL)
    if n == 1:
        def agrees(want, atol):
            # two roots with |gap| <= SOLVE_TOL lie apart by up to 2 SOLVE_TOL
            # over the slope of the gap between them, (1 - pi) |phi'|, which
            # vanishes at the tangency loss: near pi' that exceeds atol
            at = max(root.value, want)
            dphi = (1.0 - float(F.cdf(at))) - float(F.pdf(at)) * (at - (b - 1.0))
            return (abs(root.value - want) - atol) * (1.0 - pi) * abs(dphi) <= 2.0 * SOLVE_TOL

        shared = tp.solve_common_equilibria(pi, params, F, tol=SOLVE_TOL).lowest
        assert agrees(shared, 1e-9 * ell_bar)
        if family == "uniform":
            want = min(uniform_fixed_points(b, params.m, ell_bar, pi)
                       + ((ell_bar,) if pi >= params.pi_low else ()))
            assert agrees(want, 1e-10 * ell_bar)


class TestGroupDiverse:
    def test_n1_consistent_matches_two_player_curve(self, p28, unit_loss, unit_belief, diverse_28):
        group = tp.solve_group_diverse(1, p28, unit_loss, unit_belief, variant="consistent")
        s = diverse_28.threshold
        errs = []
        for pi in np.linspace(0.005, 0.995, 199):
            if pi <= s.values[0]:
                two = 0.0
            elif pi >= s.values[-1]:
                two = 1.0
            else:
                two = s.invert(float(pi))
            errs.append(abs(float(group(float(pi))) - two))
        assert max(errs) <= 1e-6

    def test_first_iterate_from_all_defect_is_monotone(self, p28):
        pis = np.linspace(0, 1, 400)
        for variant in ("consistent", "as_printed"):
            t = _group_threshold_given_q(2, pis, 0.0, p28, variant, 1.0)
            assert np.all(np.diff(t) >= -1e-12)

    def test_root_solves_take_few_evaluations(self, monkeypatch, unit_loss, unit_belief):
        # the kink gap in pi is a hockey stick, near -1 and then steep: a
        # regula falsi fallback crept in from the flat side, and took 94
        # evaluations at (4, 40), n = 8, q = 0.3 and 20652 over the 64 games
        points = []

        def counted_bisect_root(f, lo, hi, **kwargs):
            def g(x):
                points.append(x)
                return f(x)
            return bisect_root(g, lo, hi, **kwargs)

        monkeypatch.setattr(extensions, "bisect_root", counted_bisect_root)
        _kink_beliefs(8, 0.3, tp.validate_params(4, 40), "consistent", unit_loss, unit_belief)
        assert len(points) <= 30
        points.clear()
        for b, m in ((1.5, 6), (2, 8), (3, 20), (4, 40)):
            for n in range(1, 9):
                for variant in VARIANTS:
                    tp.solve_group_diverse(n, tp.validate_params(b, m), unit_loss, unit_belief,
                                           variant=variant)
        assert len(points) <= 8000

    def test_converged_curve_monotone(self, p28, unit_loss, unit_belief):
        curve = tp.solve_group_diverse(2, p28, unit_loss, unit_belief)
        assert curve.monotone

    def test_thresholds_fall_toward_pure_dilemma_as_group_grows(self, p28, unit_loss, unit_belief):
        vals = [
            float(tp.solve_group_diverse(n, p28, unit_loss, unit_belief)(0.5))
            for n in (1, 2, 5, 10)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]

    def test_group_common_thresholds_fall_in_n_too(self, p28, unit_loss):
        vals = [
            tp.solve_group_common(n, 0.5, p28, unit_loss).value for n in (1, 2, 5, 10)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_threshold_matches_scalar_pow(self, p28):
        # oracle: the closed-form root with Python float arithmetic, whose
        # pow is the one float_power and the kink gaps use
        pis = np.linspace(0.0, 1.0, 1001)
        q = 0.3
        for n in (2, 3, 5, 7):
            for variant in ("consistent", "as_printed"):
                t = _group_threshold_given_q(n, pis, q, p28, variant, 1.0)
                for pi, got in zip(pis.tolist(), t.tolist()):
                    s = (pi + (1.0 - pi) * q) ** n
                    moral = p28.m * pi ** n
                    if variant == "as_printed":
                        want = (s - p28.b + moral) / (s + 1.0)
                    elif 1.0 - s > 1e-14:
                        want = (moral - (p28.b - 1.0) * s) / (1.0 - s)
                    else:
                        want = math.inf if 1.0 - p28.b + moral > 0 else -math.inf
                    assert got == min(max(want, 0.0), 1.0)

    def test_kinks_keep_exact_grid_zeros(self, p28, unit_loss, unit_belief):
        # n = 1 consistent: the gap at t = ell_bar = 1 is 8 pi - 1 for every
        # q, which vanishes exactly on grid point 64/512
        for q in (0.0, 0.5):
            kinks = _kink_beliefs(1, q, p28, "consistent", unit_loss, unit_belief)
            assert 0.125 in kinks.tolist()

    def test_kinks_include_density_knots(self, p28):
        F = tp.tabulated_loss([0.0, 0.5, 1.0], [0.0, 0.25, 1.0])
        G = tp.tabulated_belief([0.0, 0.3, 1.0], [0.0, 0.5, 1.0])
        q = 0.4
        kinks = _kink_beliefs(2, q, p28, "consistent", F, G)
        assert kinks[0] == 0.0 and kinks[-1] == 1.0 and 0.3 in kinks.tolist()
        # the belief whose threshold sits on the loss knot 0.5 is a kink
        mid = [k for k in kinks.tolist()
               if abs(_payoff_gap(2, k, 0.5, q, p28, "consistent")) <= 1e-13]
        assert len(mid) == 1
        t = _group_threshold_given_q(2, np.array(mid), q, p28, "consistent", 1.0)
        assert t[0] == pytest.approx(0.5, abs=1e-12)

    def test_import_leaves_numpy_polynomial_unloaded(self, tmp_path):
        # neither importing trustpd nor a whole reproduce-all run loads
        # numpy.ma (np.unique's), numpy.polynomial (leggauss's) or
        # concurrent.futures (the thread pool's); numpy.random stays loaded,
        # for simulate's Philox draws. numpy 1.x loads the first two at
        # `import numpy`, so this test needs numpy 2 or later
        src = Path(tp.__file__).resolve().parents[1]
        code = """import sys, trustpd
from trustpd.cli import main
unused = ("numpy.ma", "numpy.polynomial", "concurrent.futures")
print([name for name in unused if name in sys.modules])
assert main(["reproduce-all", "--outdir", sys.argv[1]]) == 0
print([name for name in unused if name in sys.modules], "numpy.random" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-3:] == ["[]", "[] True", ""]

    def test_gauss_legendre_rule_is_symmetric_and_exact_to_degree_63(self):
        nodes, weights = _gauss_legendre()
        assert nodes.size == weights.size == extensions.GAUSS_NODES
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert np.all(np.diff(nodes) > 0.0)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        # x^k for k <= 2n - 1, summed as `_q_update` sums; k = 0 is the
        # weights' sum, 2. leggauss's rule misses x^2 to x^20 by up to 1.3e-15
        for k in range(2 * extensions.GAUSS_NODES):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(np.add.reduce(weights * nodes**k)) - exact) <= 1e-15, k

    def test_gauss_legendre_rule_matches_leggauss(self):
        # numpy.polynomial is imported here only, as the reference. Against
        # the rule to 50 digits, leggauss's weights are off by up to 4.1e-16
        # (472 ulps of the smallest) and these by up to 1.3e-16, so the
        # weights are compared in ulps of 1, the scale of their sum
        from numpy.polynomial.legendre import leggauss

        nodes, weights = _gauss_legendre()
        want_nodes, want_weights = leggauss(extensions.GAUSS_NODES)
        assert np.all(np.abs(nodes - want_nodes) <= 4 * np.spacing(np.abs(want_nodes)))
        assert np.all(np.abs(weights - want_weights) <= 4 * np.spacing(1.0))


@given(b=st.floats(1.05, 8.0), log_gap=st.floats(-2.0, 2.0), n=st.integers(1, 8),
       variant=st.sampled_from(VARIANTS), q=st.floats(0.0, 1.0),
       ell_bar=st.floats(0.05, 20.0),
       inner=st.none() | st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3, unique=True))
@settings(max_examples=100, deadline=None)
def test_kink_beliefs_find_every_knot_crossing(b, log_gap, n, variant, q, ell_bar, inner):
    """At each knot k of a uniform or tabulated F, `_kink_beliefs` finds as
    many crossings (grid zeros and sign changes of the gap at t = k) as a
    scan of a grid of 128 * 512 + 1 beliefs, and each one it returns is a
    root of that gap to the 1e-14 it refines to. Its docstring gives the
    shape of the gap that leaves at most one crossing per knot. Given all of
    F's knots and G's, it returns each split once, in increasing order.
    """
    params = tp.validate_params(b, b - 1.0 + 10.0**log_gap)
    if inner is None:
        F = tp.uniform_loss(ell_bar)
    else:
        knots = ell_bar * np.r_[0.0, np.sort(inner), 1.0]
        F = tp.tabulated_loss(knots, np.linspace(0.0, 1.0, knots.size))
    fine = np.linspace(0.0, 1.0, 128 * 512 + 1)
    crossings = set()
    for k in F.knots:
        gap = _payoff_gap(n, fine, k, q, params, variant)
        signs = np.sign(gap)
        want = np.count_nonzero(signs == 0.0) + np.count_nonzero(signs[:-1] * signs[1:] < 0.0)
        # it reads only the distributions' knots: given k alone as F's and
        # none as G's, it returns the crossings of k
        got = _kink_beliefs(n, q, params, variant, SimpleNamespace(knots=(k,)),
                            SimpleNamespace(knots=()))
        assert got.size == want, (k, got)
        for pi in got.tolist():
            # or, where the gap's rounding is coarser than 1e-14 (with m near
            # 100 and a knot near 15 its terms reach tens, and one ulp of 32
            # is 7.1e-15), a sign change within one ulp above
            at = _payoff_gap(n, pi, k, q, params, variant)
            above = _payoff_gap(n, math.nextafter(pi, 2.0), k, q, params, variant)
            assert abs(at) <= 1e-14 or (at < 0.0) != (above < 0.0), (k, pi, at)
        crossings.update(got.tolist())
    # with every knot of F and uniform G's 0 and 1: each split once, ascending
    splits = _kink_beliefs(n, q, params, variant, F, tp.uniform_belief())
    assert np.all(np.diff(splits) > 0.0)
    assert set(splits.tolist()) == crossings | {0.0, 1.0}


def simpson_q_update(n, q, params, variant, F, G):
    """The q update as adaptive Simpson computes it: a scalar integrand,
    integrated piecewise between the beliefs where the threshold enters or
    leaves a clamped corner, and G's density knots. Adaptive Simpson refines
    around F's density knots on its own, but it can take an interval with a
    jump of G's density for converged: without those splits the update was
    off by 8e-6 at q = 1 in the tabulated game below."""
    def integrand(pi):
        t = _group_threshold_given_q(n, np.asarray([pi]), q, params, variant, F.ell_bar)
        return float(F.cdf(t[0])) * float(G.pdf(pi))

    grid = np.linspace(0.0, 1.0, 513)
    kinks = []
    for corner in (0.0, F.ell_bar):
        kinks += bracket_roots(lambda pi: _payoff_gap(n, pi, corner, q, params, variant),
                               grid, tol=1e-14)
    splits = sorted({0.0, 1.0, *G.knots, *(k for k in kinks if 0.0 < k < 1.0)})
    return sum(adaptive_simpson(integrand, a, b, tol=1e-13)
               for a, b in zip(splits[:-1], splits[1:]) if b > a)


def substitute(update, tol=1e-12, max_iter=500):
    """q by plain substitution q <- update(q) from q = 0, to a step of tol."""
    q = 0.0
    for _ in range(max_iter):
        q_next = update(q)
        converged = abs(q_next - q) <= tol
        q = q_next
        if converged:
            return q
    raise AssertionError("reference substitution did not converge")


def _tabulated_pair():
    knots = np.linspace(0.0, 2.0, 5)
    F = tp.tabulated_loss(knots, (knots / 2.0) ** 2)
    G = tp.tabulated_belief([0.0, 0.3, 0.7, 1.0], [0.0, 0.2, 0.7, 1.0])
    return F, G


# The benchmark's sixteen group games: n = k and 9 - k, both variants, at the
# k-th (b, m) centre
REFERENCE_GAMES = [
    (n, variant, b, m, "uniform")
    for k, (b, m) in enumerate(((1.5, 6.0), (2.0, 8.0), (3.0, 20.0), (4.0, 40.0)), start=1)
    for n in (k, 9 - k)
    for variant in ("consistent", "as_printed")
] + [(3, "consistent", 2.0, 8.0, "tabulated"), (2, "as_printed", 1.5, 6.0, "tabulated")]


@pytest.mark.parametrize("n, variant, b, m, dists", REFERENCE_GAMES)
def test_group_diverse_matches_adaptive_simpson(monkeypatch, n, variant, b, m, dists):
    params = tp.validate_params(b, m)
    F, G = _tabulated_pair() if dists == "tabulated" else (tp.uniform_loss(1.0), tp.uniform_belief())
    q_ref = substitute(lambda q: simpson_q_update(n, q, params, variant, F, G))

    q_update, visited = extensions._q_update, []

    def recorded(*args):
        visited.append((args[1], q_update(*args)))
        return visited[-1][1]

    monkeypatch.setattr(extensions, "_q_update", recorded)
    q = _group_fixed_point(n, params, variant, F, G)
    monkeypatch.undo()
    # the Gauss-Legendre update is the adaptive-Simpson one at every q visited
    for q_seen, update in visited:
        assert abs(update - simpson_q_update(n, q_seen, params, variant, F, G)) <= 1e-12
    assert abs(q - q_ref) <= 1e-12
    curve = tp.solve_group_diverse(n, params, F, G, variant=variant)
    want = _group_threshold_given_q(n, curve.knots, q_ref, params, variant, F.ell_bar)
    assert np.max(np.abs(curve.values - want)) <= 1e-12


def concentrated_belief(start, width):
    """Tabulated belief with 0.9 of its mass on [start, start + width]."""
    return tp.tabulated_belief([0.0, start, start + width, 1.0], [0.0, 0.05, 0.95, 1.0])


@pytest.mark.parametrize("b, m, n, start, width", [
    (4.6, 8.1, 10, 0.786, 0.002),  # the updates two-cycle, steps of +-0.395
    (3.88, 2.91, 10, 0.924, 0.0494),  # they oscillate, shrinking by about 1% a step
])
def test_group_fixed_point_where_substitution_cycles(b, m, n, start, width):
    params, F, G = tp.validate_params(b, m), tp.uniform_loss(1.0), concentrated_belief(start, width)
    q = _group_fixed_point(n, params, "consistent", F, G)
    assert abs(_q_update(n, q, params, "consistent", F, G) - q) <= 1e-12
    curve = tp.solve_group_diverse(n, params, F, G)
    want = _group_threshold_given_q(n, curve.knots, q, params, "consistent", F.ell_bar)
    np.testing.assert_array_equal(curve.values, want)


@given(b=st.floats(1.05, 8.0), log_gap=st.floats(-2.0, 2.0), n=st.integers(1, 10),
       variant=st.sampled_from(VARIANTS), start=st.floats(1e-3, 0.99),
       log_width=st.floats(-3.0, -1.0))
@settings(max_examples=100, deadline=None)
def test_group_fixed_point_under_concentrated_beliefs(b, log_gap, n, variant, start, log_width):
    width = 10.0 ** log_width
    assume(start + width < 1.0)
    params = tp.validate_params(b, b - 1.0 + 10.0 ** log_gap)
    F, G = tp.uniform_loss(1.0), concentrated_belief(start, width)
    q = _group_fixed_point(n, params, variant, F, G)
    assert abs(_q_update(n, q, params, variant, F, G) - q) <= 1e-12


# sha256 of the group curve's values (GROUP_KNOTS floats): one game per
# benchmark centre, n from 1 to 8, both variants. The q update sums with
# np.add.reduce: with np.dot, OpenBLAS's SkylakeX, Haswell and Prescott
# kernels gave three different sets of curves. Re-recorded when root
# refinement took inverse-quadratic steps (values at most 8e-13 apart), the
# midpoint in place of the truncated regula falsi point (2.7e-11), and the
# Gauss-Legendre weights by Newton's method in place of leggauss's (4.3e-15).
PINNED_GROUP = {
    (1.5, 6.0, 1, "consistent"): "dae0e16483f3563f75b58c8df1b718cdfe2c7d721205896b93eb921a5070c6bc",
    (1.5, 6.0, 1, "as_printed"): "90ae3edd26dd0b57b2b6c60b8d0a5e607eb4abfb5f48bee294b2c7e21d9071a6",
    (2.0, 8.0, 4, "consistent"): "fa835b61b650594a734970912550e6e49741b7360cd4935c6ae0dd2cf303cdae",
    (2.0, 8.0, 4, "as_printed"): "86b44bb3d05921a9b8744c3d59444bb1b39a16a79673b62d47f63cf937f60a38",
    (3.0, 20.0, 2, "consistent"): "59691b959fa92a79ad2b11a8a36aca7aa5b6e0f63a14e8cc625fd0eb159165d6",
    (3.0, 20.0, 2, "as_printed"): "eb91099b1d84725e505689802949a7910d20a2bc0a40e51c4aaa48a5d3a0241b",
    (4.0, 40.0, 8, "consistent"): "f1b5f9eea5579714f6d363e33e865373b6659c3ed995b7ac118112b6f048f3b7",
    (4.0, 40.0, 8, "as_printed"): "e4fc3e32268c73942fa28ffb0fff07eb9d8c867c10c427472c71f2b625a87969",
}


@pytest.mark.parametrize("case", sorted(PINNED_GROUP))
def test_group_diverse_pinned_bits(case, unit_loss, unit_belief):
    b, m, n, variant = case
    curve = tp.solve_group_diverse(n, tp.validate_params(b, m), unit_loss, unit_belief,
                                   variant=variant)
    assert hashlib.sha256(curve.values.tobytes()).hexdigest() == PINNED_GROUP[case]
