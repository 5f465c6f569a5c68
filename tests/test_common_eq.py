import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_vectorized import games, make_game

import trustpd as tp
from trustpd.common_eq import psi, psi_dl
from trustpd.numerics import bisect_root


def uniform_fixed_points(b, m, big_l, pi):
    """Independent oracle: interior fixed points of the uniform-case best
    response solve l^2 - (L+b-1) l + (1+m-b) L pi/(1-pi) = 0 directly."""
    r = pi / (1 - pi)
    p_sum = big_l + b - 1
    prod = (1 + m - b) * big_l * r
    disc = p_sum * p_sum - 4 * prod
    if disc < 0:
        return ()
    s = math.sqrt(disc)
    return tuple(x for x in ((p_sum - s) / 2, (p_sum + s) / 2) if 0 <= x < big_l)


class TestPsi:
    def test_at_zero_loss(self, fig_params, fig_dist):
        # F(0) = 0 collapses psi to (1+m-b) pi/(1-pi)
        pi = 0.05
        assert psi(0.0, pi, fig_params, fig_dist) == pytest.approx(48 * pi / (1 - pi))

    def test_at_zero_belief_nonpositive(self, fig_params, fig_dist):
        for ell in np.linspace(0.0, 7.9, 9):
            val = psi(float(ell), 0.0, fig_params, fig_dist)
            big_f = ell / 8
            assert val == pytest.approx(-2 * big_f / (1 - big_f))
            assert val <= 0

    def test_fixed_point_near_plotted_low_root(self, fig_params, fig_dist):
        # oracle: bisection on psi(l; 0.05) - l brackets a root near 2.8
        root = bisect_root(
            lambda x: psi(x, 0.05, fig_params, fig_dist) - x, 2.0, 3.5, ftol=1e-12
        )
        assert root == pytest.approx(2.8115133803903385, abs=1e-9)
        assert psi(2.8, 0.05, fig_params, fig_dist) == pytest.approx(2.8, abs=0.05)

    def test_rejects_upper_support(self, fig_params, fig_dist):
        with pytest.raises(tp.ParameterError):
            psi(8.0, 0.05, fig_params, fig_dist)

    @given(pi=st.floats(0.0005, 0.9), ell=st.floats(0.0, 7.5))
    @settings(max_examples=80, deadline=None)
    def test_slope_sign_flips_at_pi_low(self, pi, ell):
        # decreasing in l below (b-1)/m, increasing above
        params = tp.validate_params(3, 50)
        dist = tp.uniform_loss(8.0)
        if abs(pi - params.pi_low) < 1e-3:
            return
        slope = psi_dl(ell, pi, params, dist)
        if pi < params.pi_low:
            assert slope < 0
        else:
            assert slope > 0

    @given(pi=st.floats(0.01, 0.95), ell=st.floats(0.0, 7.5))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_in_belief(self, pi, ell):
        params = tp.validate_params(3, 50)
        dist = tp.uniform_loss(8.0)
        h = 1e-6
        assert psi(ell, pi + h, params, dist) > psi(ell, pi - h, params, dist)


class TestChiBound:
    def test_zero_belief(self, fig_params, fig_dist):
        assert tp.chi_bound(0.0, fig_params, fig_dist) == 0.0

    def test_approaches_upper_support_at_pi_low(self, fig_params, fig_dist):
        pi = fig_params.pi_low * (1 - 1e-9)
        assert tp.chi_bound(pi, fig_params, fig_dist) == pytest.approx(8.0, abs=1e-6)

    def test_worked_value(self, fig_params, fig_dist):
        # (m/(b-1) - 1) = 24; oracle: F(chi) must equal the inner expression
        chi = tp.chi_bound(0.02, fig_params, fig_dist)
        inner = 24 * 0.02 / 0.98
        assert float(fig_dist.cdf(chi)) == pytest.approx(inner, abs=1e-12)
        assert chi == pytest.approx(8 * inner)

    def test_rejects_beliefs_past_pi_low(self, fig_params, fig_dist):
        with pytest.raises(tp.RegimeError):
            tp.chi_bound(0.05, fig_params, fig_dist)


class TestBestResponse:
    def test_certain_honest_partner_cooperates_everywhere(self, fig_params, fig_dist):
        for opp in (0.0, 4.0, 8.0):
            assert tp.best_response_threshold(1.0, opp, fig_params, fig_dist) == 8.0

    def test_zero_belief_defects(self, fig_params, fig_dist):
        for opp in (0.0, 4.0, 8.0):
            assert tp.best_response_threshold(0.0, opp, fig_params, fig_dist) == 0.0

    def test_corner_sustains_itself_above_pi_low(self, fig_params, fig_dist):
        # oracle: payoff comparison at the marginal loss with p = F(8) = 1
        assert tp.best_response_threshold(0.05, 8.0, fig_params, fig_dist) == 8.0
        uc = tp.payoff_cooperate(8.0, 0.05, 1.0)
        ud = tp.payoff_defect(0.05, 1.0, fig_params)
        assert uc > ud

    def test_fully_cooperative_partner_below_pi_low(self, fig_params, fig_dist):
        assert tp.best_response_threshold(0.03, 8.0, fig_params, fig_dist) == 0.0

    def test_defection_beyond_chi(self, fig_params, fig_dist):
        chi = tp.chi_bound(0.02, fig_params, fig_dist)
        assert tp.best_response_threshold(0.02, chi + 0.01, fig_params, fig_dist) == 0.0
        assert tp.best_response_threshold(0.02, chi - 0.01, fig_params, fig_dist) > 0.0

    def test_continuous_at_chi(self, fig_params, fig_dist):
        chi = tp.chi_bound(0.02, fig_params, fig_dist)
        near = tp.best_response_threshold(0.02, chi - 1e-9, fig_params, fig_dist)
        assert near == pytest.approx(0.0, abs=1e-6)


class TestSolveCommonEquilibria:
    def test_unique_interior_regime(self, fig_params, fig_dist):
        eqs = tp.solve_common_equilibria(0.03, fig_params, fig_dist)
        assert eqs.regime == "unique-interior"
        (root,) = eqs.interior()
        assert root == pytest.approx(uniform_fixed_points(3, 50, 8, 0.03)[0], abs=1e-9)
        assert eqs.ell_corner is None

    def test_triple_regime(self, fig_params, fig_dist):
        eqs = tp.solve_common_equilibria(0.05, fig_params, fig_dist)
        assert eqs.regime == "triple"
        low, high = uniform_fixed_points(3, 50, 8, 0.05)
        assert eqs.ell_low == pytest.approx(low, abs=1e-9)
        assert eqs.ell_high == pytest.approx(high, abs=1e-9)
        assert eqs.ell_corner == 8.0
        kinds = [r.kind for r in eqs.roots]
        assert kinds == ["interior-low", "interior-high", "corner-upper"]

    def test_unique_corner_regime(self, fig_params, fig_dist):
        eqs = tp.solve_common_equilibria(0.08, fig_params, fig_dist)
        assert eqs.regime == "unique-corner"
        assert [r.kind for r in eqs.roots] == ["corner-upper"]
        assert uniform_fixed_points(3, 50, 8, 0.08) == ()

    def test_zero_belief_full_defection(self, fig_params, fig_dist):
        eqs = tp.solve_common_equilibria(0.0, fig_params, fig_dist)
        assert eqs.regime == "unique-interior"
        assert eqs.ell_low == 0.0
        assert eqs.roots[0].kind == "corner-zero"

    def test_residual_invariant(self, fig_params, fig_dist):
        for pi in (0.01, 0.03, 0.045, 0.055):
            eqs = tp.solve_common_equilibria(pi, fig_params, fig_dist, tol=1e-11)
            for root in eqs.interior():
                if root > 0:
                    assert abs(psi(root, pi, fig_params, fig_dist) - root) <= 1e-11

    def test_interior_threshold_increasing_below_pi_low(self, fig_params, fig_dist):
        beliefs = np.linspace(0.0, fig_params.pi_low * 0.999, 25)
        roots = [tp.solve_common_equilibria(float(p), fig_params, fig_dist).ell_low
                 for p in beliefs]
        assert np.all(np.diff(roots) >= 0)

    def test_triple_branches_move_oppositely(self, fig_params, fig_dist):
        beliefs = np.linspace(0.045, 0.058, 8)
        lows, highs = [], []
        for p in beliefs:
            eqs = tp.solve_common_equilibria(float(p), fig_params, fig_dist)
            assert eqs.regime == "triple"
            lows.append(eqs.ell_low)
            highs.append(eqs.ell_high)
        assert np.all(np.diff(lows) > 0)
        assert np.all(np.diff(highs) < 0)

    def test_no_profitable_deviation_at_equilibria(self, fig_params, fig_dist):
        # just below the threshold cooperating must win; just above, defecting
        for pi in (0.02, 0.05):
            eqs = tp.solve_common_equilibria(pi, fig_params, fig_dist)
            for root in eqs.interior():
                if not 0 < root < 8:
                    continue
                p = float(fig_dist.cdf(root))
                eps = 1e-6
                below = tp.payoff_cooperate(root - eps, pi, p) - tp.payoff_defect(pi, p, fig_params)
                above = tp.payoff_cooperate(root + eps, pi, p) - tp.payoff_defect(pi, p, fig_params)
                assert below >= -1e-12
                assert above <= 1e-12

    def test_rejects_belief_one(self, fig_params, fig_dist):
        with pytest.raises(tp.ParameterError):
            tp.solve_common_equilibria(1.0, fig_params, fig_dist)


    def test_exactly_at_pi_low_with_tangency(self, fig_params, fig_dist):
        # g(ell_bar) = 0: the high root is the corner, reported once; the low
        # root solves (l - (b-1))(1 - F(l)) = 0, so l = b - 1
        eqs = tp.solve_common_equilibria(fig_params.pi_low, fig_params, fig_dist)
        assert eqs.regime == "unique-corner"
        assert [r.kind for r in eqs.roots] == ["interior-low", "corner-upper"]
        assert eqs.ell_low == pytest.approx(2.0, abs=1e-12)
        assert eqs.ell_corner == 8.0

    def test_exactly_at_pi_low_without_tangency(self, p28, unit_loss):
        # ell_bar = b - 1: phi rises to b - 1 = K only at ell_bar
        eqs = tp.solve_common_equilibria(p28.pi_low, p28, unit_loss)
        assert p28.pi_low == 0.125
        assert eqs.regime == "unique-corner"
        assert [r.kind for r in eqs.roots] == ["corner-upper"]
        assert eqs.ell_corner == 1.0

    def test_high_root_next_to_upper_support(self, fig_params, fig_dist):
        # just above (b-1)/m the high root sits within one grid cell of ell_bar
        pi = fig_params.pi_low + 1e-9
        eqs = tp.solve_common_equilibria(pi, fig_params, fig_dist)
        assert eqs.regime == "triple"
        low, high = uniform_fixed_points(3, 50, 8, pi)
        assert eqs.ell_high == pytest.approx(high, abs=1e-9)
        assert 8.0 - 8.0 / 2000 < eqs.ell_high < 8.0

    def test_pair_inside_one_cell_below_pi_prime(self, fig_params, fig_dist):
        # the two interior roots are about 4e-5 apart, inside one scan cell
        crit = tp.critical_pair(fig_params, fig_dist)
        pi = crit.pi_prime - 1e-12
        eqs = tp.solve_common_equilibria(pi, fig_params, fig_dist)
        assert eqs.regime == "triple"
        assert eqs.ell_low < crit.ell_prime < eqs.ell_high
        assert eqs.ell_high - eqs.ell_low < 8.0 / 2000

    def test_rejects_non_monotone_hazard(self, fig_params):
        # density 0.5, 0.05, 0.45 on three unit segments: the hazard dips on
        # the middle one
        dist = tp.tabulated_loss([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.55, 1.0])
        assert not dist.monotone_hazard
        with pytest.raises(tp.ParameterError, match="hazard"):
            tp.solve_common_equilibria(0.03, fig_params, dist)


def g_oracle(ell, pi, params, dist):
    """K - phi(l), the pole-free fixed-point residual, written out directly."""
    big_f = float(dist.cdf(ell))
    k = params.coop_premium * pi / (1.0 - pi)
    return k - ((params.b - 1.0) * big_f + ell * (1.0 - big_f))


# a belief anywhere, or at an offset of 1e-12..1e-3 on either side of a
# regime edge
near_edge = st.tuples(
    st.sampled_from(["pi_low", "pi_prime"]), st.sampled_from([-1.0, 1.0]), st.floats(-12.0, -3.0)
)


@given(game=games, belief=st.one_of(st.floats(0.0, 0.999), near_edge))
@settings(max_examples=300, deadline=None)
def test_solver_agrees_with_critical_beliefs(game, belief):
    params, dist = make_game(*game)
    try:
        pi_prime = tp.critical_pair(params, dist).pi_prime
    except tp.RegimeError:
        pi_prime = params.pi_low  # ell_bar <= b - 1: no multiple-equilibrium range
    if isinstance(belief, tuple):
        edge, side, exponent = belief
        pi = (params.pi_low if edge == "pi_low" else pi_prime) + side * 10.0**exponent
    else:
        pi = belief
    assume(0.0 <= pi < 1.0)
    eqs = tp.solve_common_equilibria(pi, params, dist)
    for root in eqs.interior():
        assert abs(g_oracle(root, pi, params, dist)) <= 1e-10
    if abs(pi - pi_prime) <= 1e-14 or pi == params.pi_low:
        return
    if pi < params.pi_low:
        want, n_interior = "unique-interior", 1
    elif pi < pi_prime:
        want, n_interior = "triple", 2
    else:
        want, n_interior = "unique-corner", 0
    assert eqs.regime == want
    assert sum(r.kind != "corner-upper" for r in eqs.roots) == n_interior


class TestCriticalPair:
    def test_tangency_next_to_support_end(self):
        # b - 1 rounds to just below ell_bar = 0.2: the tangency (ell_bar +
        # b - 1)/2 lies within 3e-17 of ell_bar
        params, dist = tp.validate_params(1.2, 1.2), tp.uniform_loss(0.2)
        crit = tp.critical_pair(params, dist)
        assert crit.ell_prime == pytest.approx(0.2, abs=1e-12)
        assert crit.pi_prime == pytest.approx(params.pi_low, abs=1e-15)

    def test_uniform_tangency_closed_form(self, fig_params, fig_dist):
        # uniform hazard 1/(L-l) turns l - 1/h = b-1 into l = (L+b-1)/2
        crit = tp.critical_pair(fig_params, fig_dist)
        assert crit.ell_prime == pytest.approx(5.0, abs=1e-9)
        assert crit.pi_low == pytest.approx(0.04)

    def test_pi_prime_value_and_tangency(self, fig_params, fig_dist):
        crit = tp.critical_pair(fig_params, fig_dist)
        assert crit.pi_prime == pytest.approx(3.125 / 51.125, abs=1e-12)
        # oracle: the best response is tangent to the identity there
        assert psi(crit.ell_prime, crit.pi_prime, fig_params, fig_dist) == pytest.approx(
            crit.ell_prime, abs=1e-6
        )
        assert psi_dl(crit.ell_prime, crit.pi_prime, fig_params, fig_dist) == pytest.approx(
            1.0, abs=1e-4
        )

    def test_residual_of_tangency_equation(self, fig_params, fig_dist):
        crit = tp.critical_pair(fig_params, fig_dist)
        h = tp.hazard(fig_dist, crit.ell_prime)
        assert crit.ell_prime - 1 / h == pytest.approx(fig_params.b - 1, abs=1e-9)

    def test_ordering(self, fig_params, fig_dist):
        crit = tp.critical_pair(fig_params, fig_dist)
        assert fig_params.b - 1 < crit.ell_prime < 8.0
        assert crit.pi_prime > crit.pi_low

    def test_regime_error_when_support_too_small(self, p28, unit_loss):
        # ell_bar = 1 <= b - 1 = 1: no tangency branch
        with pytest.raises(tp.RegimeError):
            tp.critical_pair(p28, unit_loss)


class TestClosedFormCommonUniform:
    def test_zero_belief(self, p28):
        assert tp.closed_form_common_uniform(0.0, p28) == 0.0

    def test_continuity_at_pi_low(self, p28):
        # oracle: both branches evaluated at the boundary
        pi = p28.pi_low
        below = tp.closed_form_common_uniform(pi - 1e-12, p28)
        assert tp.closed_form_common_uniform(pi, p28) == 1.0
        assert below == pytest.approx(1.0, abs=1e-5)
        disc = p28.b**2 / 4 - p28.coop_premium * pi / (1 - pi)
        assert disc == pytest.approx((p28.b / 2 - 1) ** 2, abs=1e-12)

    def test_worked_value(self, p28):
        expected = 1 - math.sqrt(1 - 7 * (0.05 / 0.95))
        assert tp.closed_form_common_uniform(0.05, p28) == pytest.approx(expected, abs=1e-14)

    def test_agrees_with_solver(self):
        # oracle: the scan-and-bisect solver on the same uniform distribution
        for b, m in ((2, 8), (3, 20), (4, 30)):
            params = tp.validate_params(b, m)
            dist = tp.uniform_loss(1.0)
            for pi in np.linspace(0, 1, 40, endpoint=False):
                eqs = tp.solve_common_equilibria(float(pi), params, dist, tol=1e-12)
                root = eqs.lowest if eqs.regime == "unique-interior" else eqs.ell_corner
                assert tp.closed_form_common_uniform(float(pi), params) == pytest.approx(
                    root, abs=1e-8
                )

    def test_rejects_b_below_two(self):
        with pytest.raises(tp.ParameterError):
            tp.closed_form_common_uniform(0.1, tp.validate_params(1.5, 9))
