import dataclasses
import math
import random
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_vectorized import games, make_game

import reference
import trustpd as tp
from trustpd import common_eq, numerics
from trustpd.common_eq import psi, psi_dl
from trustpd.numerics import bisect_root

EPS = 2.0**-52


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


    def test_partner_where_the_cdf_rounds_to_one_short_of_ell_bar(self):
        # F(x) rounds to 1 one float below ell_bar = 1: psi's pole, where its
        # 1/(1 - F) divided by zero. The corner is returned there, 0 below
        # (b-1)/m = 1/3 and ell_bar from it, for a float and in an array
        dist = tp.tabulated_loss([0.0, 0.5, 1.0], [0.0, 1.0 - 2.0 ** -53, 1.0])
        x = math.nextafter(1.0, 0.0)
        assert float(dist.cdf(x)) == 1.0
        params = tp.validate_params(2.0, 3.0)
        for pi, corner in ((0.2, 0.0), (0.5, 1.0)):
            assert tp.best_response_threshold(pi, x, params, dist) == corner
            both = tp.best_response_threshold(pi, np.array([0.25, x]), params, dist)
            assert both[1] == corner
            assert both[0] == tp.best_response_threshold(pi, 0.25, params, dist)


@pytest.mark.parametrize("at_pole", [
    lambda x, params, dist: psi(x, 0.2, params, dist),
    lambda x, params, dist: psi(np.array([0.25, x]), 0.2, params, dist),
    lambda x, params, dist: psi_dl(x, 0.2, params, dist),
    lambda x, params, dist: tp.hazard(dist, x),
], ids=["psi", "psi-array", "psi_dl", "hazard"])
def test_psi_and_hazard_name_the_pole_where_the_cdf_rounds_to_one(at_pole):
    # one float below ell_bar = 1, F(x) rounds to 1 and 1 - F(x) is 0: the
    # scalar forms divided by it and raised ZeroDivisionError, and psi on an
    # array returned -inf there with a RuntimeWarning
    dist = tp.tabulated_loss([0.0, 0.5, 1.0], [0.0, 1.0 - 2.0 ** -53, 1.0])
    x = math.nextafter(1.0, 0.0)
    with pytest.raises(tp.ParameterError, match="psi's pole"):
        at_pole(x, tp.validate_params(2.0, 3.0), dist)


@given(game=games, pi_frac=st.floats(0.0, 1.0 - 1e-9), vector=st.booleans())
@settings(max_examples=150, deadline=None)
def test_best_response_is_clamped_psi_below_pi_low(game, pi_frac, vector):
    """Below (b-1)/m: 0 against every partner at or beyond chi (and against
    ell_bar), and psi clamped to [0, ell_bar] against every other."""
    params, dist = make_game(*game)
    pi, big_l = pi_frac * params.pi_low, dist.ell_bar
    opponents = np.linspace(0.0, big_l, 97)
    if vector:
        br = tp.best_response_threshold(pi, opponents, params, dist)
    else:
        br = np.array([tp.best_response_threshold(pi, float(x), params, dist) for x in opponents])
    beyond = (opponents >= tp.chi_bound(pi, params, dist) + 1e-12 * big_l) | (opponents == big_l)
    assert np.all(br[beyond] == 0.0)
    inside = opponents[~beyond]
    np.testing.assert_array_equal(br[~beyond], np.clip(psi(inside, pi, params, dist), 0.0, big_l))


def test_closed_form_where_b_squared_overflows():
    # b ** 2 raised OverflowError from about b = 1.34e154 on
    assert tp.closed_form_common_uniform(0.0, tp.validate_params(1.34e154, 1e155)) == 0.0
    with pytest.raises(tp.ParameterError, match=r"finite b\*\*2"):
        tp.closed_form_common_uniform(0.0, tp.validate_params(1.35e154, 1e155))


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

    def test_root_next_to_zero_is_reported_as_refined(self, fig_params, fig_dist):
        # the root lies about 4.8e-12 from 0, where |psi(0)| = 4.8e-12 breaks
        # the contract at tol = 1e-12: only an exact 0 is `corner-zero`
        eqs = tp.solve_common_equilibria(1e-13, fig_params, fig_dist, tol=1e-12)
        (root,) = eqs.roots
        assert root.kind == "interior-low"
        assert 0.0 < root.value == eqs.ell_low
        assert abs(psi(root.value, 1e-13, fig_params, fig_dist) - root.value) <= 1e-12

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

    def test_exactly_at_pi_prime_with_g_zero_at_the_tangency(self, monkeypatch):
        # at (2, 4), uniform on [0, 5], pi' = 3/8 and l' = 3, and g(l') is
        # exactly 0 in floats: the double root l' is reported as it stands
        # beside the corner, and only the tangency loss is refined
        params, dist = tp.validate_params(2.0, 4.0), tp.uniform_loss(5.0)
        crit = tp.critical_pair(params, dist)
        assert (crit.ell_prime, crit.pi_prime) == (3.0, 0.375)
        refine, ftols = common_eq.refine_from, []

        def recorded(*args):
            ftols.append(args[-1])
            return refine(*args)

        monkeypatch.setattr(common_eq, "refine_from", recorded)
        eqs = tp.solve_common_equilibria(crit.pi_prime, params, dist)
        assert ftols == [common_eq.TANGENCY_TOL]
        assert eqs.roots == (tp.EquilibriumRoot(3.0, "interior-low"),
                             tp.EquilibriumRoot(5.0, "corner-upper"))
        assert eqs.regime == "unique-corner"

    def test_high_root_next_to_upper_support(self, fig_params, fig_dist):
        # just above (b-1)/m the high root sits within one grid cell of ell_bar
        pi = fig_params.pi_low + 1e-9
        eqs = tp.solve_common_equilibria(pi, fig_params, fig_dist)
        assert eqs.regime == "triple"
        low, high = uniform_fixed_points(3, 50, 8, pi)
        assert eqs.ell_high == pytest.approx(high, abs=1e-9)
        assert 8.0 - 8.0 / 2000 < eqs.ell_high < 8.0

    def test_pair_inside_one_cell_below_pi_prime(self, fig_params, fig_dist):
        # the two interior roots are about 4e-5 apart, closer than the 4e-3
        # cells of a 2000-cell scan of [0, ell_bar]
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

    def test_pair_around_a_kinked_tangency(self):
        # the density jumps from 0.2 to 0.6 at l = 2, so phi peaks at that kink
        # and g is V-shaped there: 1e-11 below pi' the two interior roots lie
        # about 4e-10 either side of 2, a pair a grid scan cannot see
        params = tp.validate_params(1.5, 8.0)
        dist = tp.tabulated_loss([0.0, 2.0, 3.0], [0.0, 0.4, 1.0])
        pi = tp.critical_pair(params, dist).pi_prime - 1e-11
        eqs = tp.solve_common_equilibria(pi, params, dist)
        assert eqs.regime == "triple"
        assert eqs.ell_low < 2.0 < eqs.ell_high

    def test_never_calls_the_cdf_with_an_array(self, fig_params, fig_dist):
        def scalar_cdf(ell):
            assert np.ndim(ell) == 0, "cdf called with an array"
            return fig_dist.cdf(ell)

        dist = dataclasses.replace(fig_dist, cdf=scalar_cdf)
        # zero, below, at and above (b-1)/m = 0.04, and past pi'
        for pi in (0.0, 0.01, 0.04, 0.05, 0.1, 0.5):
            tp.solve_common_equilibria(pi, fig_params, dist)


def vanishing_density_losses():
    """Two losses on [0, 4] with a rising hazard whose density vanishes at a
    support end, with (l', pi') at (b, m) = (2, 8) and the coefficients of
    phi(l) = F + l (1 - F), highest power first.

    - F = (l/4)^2, density l/8, 0 at l = 0: phi'(l) = 1 + l/8 - 3 l^2/16, so
      l' = 8/3, phi(l') = 52/27 and pi' = 52/241.
    - F = 1 - (1 - l/4)^2, density (1 - l/4)/2, 0 at l = 4:
      phi'(l) = (1 - l/4)(3/2 - 3 l/4), so l' = 2, phi(l') = 5/4 and
      pi' = 5/33.
    """
    def loss(cdf, pdf, ppf):
        return tp.LossDistribution(
            cdf=lambda x: cdf(np.clip(np.asarray(x, dtype=float) / 4.0, 0.0, 1.0)),
            pdf=lambda x: pdf(np.asarray(x, dtype=float) / 4.0),
            ppf=lambda u: 4.0 * ppf(np.asarray(u, dtype=float)),
            ell_bar=4.0,
            monotone_hazard=True,
        )

    return {
        "zero-at-0": (loss(lambda t: t**2, lambda t: t / 2.0, np.sqrt),
                      8.0 / 3.0, 52.0 / 241.0, [-1.0 / 16.0, 1.0 / 16.0, 1.0, 0.0]),
        "zero-at-ell_bar": (loss(lambda t: 1.0 - (1.0 - t) ** 2, lambda t: (1.0 - t) / 2.0,
                                 lambda u: 1.0 - np.sqrt(1.0 - u)),
                            2.0, 5.0 / 33.0, [1.0 / 16.0, -9.0 / 16.0, 1.5, 0.0]),
    }


@pytest.mark.parametrize("name", ["zero-at-0", "zero-at-ell_bar"])
class TestVanishingDensity:
    def test_critical_pair(self, p28, name):
        dist, ell_prime, pi_prime, _ = vanishing_density_losses()[name]
        crit = tp.critical_pair(p28, dist)
        assert crit.ell_prime == pytest.approx(ell_prime, abs=1e-9)
        assert crit.pi_prime == pytest.approx(pi_prime, abs=1e-9)

    @pytest.mark.parametrize("regime, at", [
        ("unique-interior", -0.6), ("triple", 0.5), ("unique-corner", 1.5),
    ])
    def test_solver_in_each_regime(self, p28, name, regime, at):
        # a belief `at` of the way from (b-1)/m = 1/8 to pi'; oracle: the real
        # roots in [0, 4) of g = K - phi, a cubic
        dist, _, pi_prime, phi = vanishing_density_losses()[name]
        pi = p28.pi_low + at * (pi_prime - p28.pi_low)
        eqs = tp.solve_common_equilibria(pi, p28, dist)
        assert eqs.regime == regime
        cubic = np.roots(-np.array(phi) + [0.0, 0.0, 0.0, 7.0 * pi / (1.0 - pi)])
        want = sorted(r.real for r in cubic if abs(r.imag) < 1e-12 and 0.0 <= r.real < 4.0)
        np.testing.assert_allclose(eqs.interior(), want, rtol=0.0, atol=1e-9)


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


# a belief anywhere, or at an offset of 1e-14..1e-3 on either side of a
# regime edge
close_to_edge = st.tuples(
    st.sampled_from(["pi_low", "pi_prime"]), st.sampled_from([-1.0, 1.0]), st.floats(-14.0, -3.0)
)


@st.composite
def convex_tables(draw):
    """Up to four segments with nondecreasing densities, as (knot fractions,
    cdf values): a tangency at a knot makes phi peak at a kink."""
    widths = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4)))
    densities = np.sort(draw(st.lists(st.floats(0.1, 1.0), min_size=widths.size,
                                      max_size=widths.size)))
    mass = np.concatenate([[0.0], np.cumsum(densities * widths)])
    return np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum(), mass / mass[-1]


def make_shared_game(b, excess_m, big_l, family):
    """`make_game`, or a tabulated loss from a `convex_tables` draw."""
    if isinstance(family, tuple):
        return (tp.validate_params(b, b - 1.0 + excess_m),
                tp.tabulated_loss(family[0] * big_l, family[1]))
    return make_game(b, excess_m, big_l, family)


shared_games = st.tuples(
    st.floats(1.05, 6.0),  # b
    st.floats(0.05, 80.0),  # m - (b - 1)
    st.floats(0.2, 12.0),  # ell_bar
    st.one_of(st.sampled_from(["uniform", 0.5, 0.8]), convex_tables()),
)


@given(game=shared_games, belief=st.one_of(st.floats(0.0, 0.999), close_to_edge))
@settings(max_examples=400, deadline=None)
def test_brackets_from_the_shape_of_phi(game, belief):
    big_l, family = game[2:]
    params, dist = make_shared_game(*game)
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
    tol = 1e-10
    eqs = tp.solve_common_equilibria(pi, params, dist, tol=tol)
    k = params.coop_premium * pi / (1.0 - pi)
    for root in eqs.interior():
        # |psi(l) - l| <= tol, up to the rounding of g's terms
        slack = 1.0 - float(dist.cdf(root))
        rounding = 1e-14 * max(k, params.b - 1.0, root)
        assert abs(g_oracle(root, pi, params, dist)) <= tol * slack + rounding
    if abs(pi - pi_prime) > 1e-14 and pi != params.pi_low:
        assert eqs.regime == ("unique-interior" if pi < params.pi_low
                              else "triple" if pi < pi_prime else "unique-corner")
    if family == "uniform":
        # g = q/L with q the oracle's quadratic, so a root with |g| <= tol lies
        # within tol L/sqrt(disc) of the oracle's, beside the oracle's own
        # rounding; L stands in for a high root within rounding of ell_bar
        p_sum = big_l + params.b - 1.0
        disc = max(p_sum * p_sum - 4.0 * k * big_l, 1e-300)
        bound = (tol + 1e-14 * p_sum * p_sum) * big_l / math.sqrt(disc) + 1e-14 * big_l
        want = uniform_fixed_points(params.b, params.m, big_l, pi) + (big_l,)
        for root in eqs.interior():
            assert min(abs(root - w) for w in want) <= bound


@given(game=shared_games, excess=st.one_of(st.just(0.0), st.floats(1e-15, 1e-12),
                                           st.floats(1e-6, 3.0)))
@settings(max_examples=200, deadline=None)
def test_belief_with_k_at_or_above_ell_bar_skips_the_tangency(game, excess):
    # above (b-1)/m with K >= ell_bar, phi <= max(b-1, l) < ell_bar <= K on
    # [0, ell_bar): no interior root, decided without seeking l', and the
    # answer the tangency's g(l') > 0 gives
    params, dist = make_shared_game(*game)
    big_l = dist.ell_bar
    assume(big_l > params.b - 1.0)
    k_target = big_l * (1.0 + excess)
    pi = k_target / (params.coop_premium + k_target)
    assume(pi < 1.0 - tp.BELIEF_EPS)
    # K as the solver forms it, which may round below ell_bar
    assume(params.coop_premium * pi / (1.0 - pi) >= big_l)

    def no_tangency(*args):
        raise AssertionError("_tangency_loss called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(common_eq, "_tangency_loss", no_tangency)
        eqs = tp.solve_common_equilibria(pi, params, dist)
    assert eqs.roots == (tp.EquilibriumRoot(big_l, "corner-upper"),)
    assert eqs.regime == "unique-corner"
    assert g_oracle(tp.critical_pair(params, dist).ell_prime, pi, params, dist) > 0.0


@given(game=shared_games, belief=st.one_of(st.just(0.0), st.floats(-16.0, -8.0)),
       tol=st.sampled_from([1e-10, 1e-12]))
@settings(max_examples=300, deadline=None)
def test_tiny_belief_roots_meet_the_residual_contract(game, belief, tol):
    # pi log-uniform in [1e-16, 1e-8], or 0: the low root lies about
    # (1+m-b) pi from 0, and is reported as refined, however close to 0
    params, dist = make_shared_game(*game)
    pi = belief and 10.0**belief
    eqs = tp.solve_common_equilibria(pi, params, dist, tol=tol)
    for root in eqs.roots:
        if root.kind != "corner-upper":
            assert abs(psi(root.value, pi, params, dist) - root.value) <= tol
            assert (root.value == 0.0) == (pi == 0.0)
            assert (root.kind == "corner-zero") == (root.value == 0.0)


@st.composite
def uniform_games_near_edges(draw):
    """(b, m, ell_bar, pi): b - 1 log-uniform on [1e-3, 10], m - (b-1) on
    [1e-3, 1e3], ell_bar below or above b - 1 at a relative distance
    log-uniform down to 1e-9, and pi at 0, subnormal, 1e-300, or at a
    relative offset log-uniform in [1e-12, 1e-1] on either side of (b-1)/m
    or of pi' (of (b-1)/m when ell_bar <= b - 1), or uniform in [0, 1)."""
    b = 1.0 + 10.0 ** draw(st.floats(-3.0, 1.0))
    b1 = b - 1.0
    m = b1 + 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        ell_bar = b1 * (1.0 - 10.0 ** draw(st.floats(-9.0, -0.1)))
    else:
        ell_bar = b1 * (1.0 + 10.0 ** draw(st.floats(-9.0, 1.0)))
    pi_low, _, pi_prime = reference.shared_uniform_criticals(b, m, ell_bar)
    edge = float(pi_low if pi_prime is None or draw(st.booleans()) else pi_prime)
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -1.0))
    pi = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300]),
                        st.just(edge * (1.0 + offset)), st.floats(0.0, 0.999)))
    return b, m, ell_bar, pi


@given(game=uniform_games_near_edges(), tol=st.sampled_from([1e-10, 1e-12]))
@example(game=(2.0, 2.0, 2.0, 0.5), tol=1e-10)  # pi = (b-1)/m exactly
# pi = (b-1)/m exactly with ell_bar < b - 1: the low root of the quadratic is
# ell_bar itself, the corner
@example(game=(4.16227766016838, 6.32455532033676, 3.130654883566696, 0.5), tol=1e-10)
@settings(max_examples=600, deadline=None)
def test_uniform_roots_match_the_exact_reference(game, tol):
    b, m, ell_bar, pi = game
    assume(pi < 1.0)
    params, dist = tp.validate_params(b, m), tp.uniform_loss(ell_bar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eqs = tp.solve_common_equilibria(pi, params, dist, tol=tol)
    pi_low, _, pi_prime = reference.shared_uniform_criticals(b, m, ell_bar)
    want = reference.shared_uniform_roots(b, m, ell_bar, pi)
    exact_pi = Decimal(pi)
    if exact_pi < pi_low:
        regime, n_interior = "unique-interior", 1
    elif exact_pi == pi_low:
        # the quadratic is (l - (b-1))(l - ell_bar)/ell_bar: its high root is
        # the corner, reported once as `corner-upper`, beside the low root
        # b - 1 when ell_bar > b - 1, under `unique-corner` (as documented)
        regime, n_interior = "unique-corner", 1 if ell_bar > b - 1.0 else 0
    elif pi_prime is None or exact_pi > pi_prime:
        regime, n_interior = "unique-corner", 0
    else:
        regime, n_interior = "triple", 2
    roots = [r.value for r in eqs.roots if r.kind != "corner-upper"]
    assert eqs.regime == regime
    assert len(roots) == len(want) == n_interior
    # |psi(l) - l| <= tol, up to the rounding of psi's terms and of the
    # coop premium 1 + m - b in K, which the pole at ell_bar amplifies by
    # 1/(1 - F); next to the pole these reach 1e-8 with tol = 1e-12
    k = params.coop_premium * pi / (1.0 - pi)
    for root in roots:
        rounding = 4.0 * EPS * (max(k, b - 1.0, root) + (1.0 + m) * pi / (1.0 - pi))
        assert abs(psi(root, pi, params, dist) - root) <= tol + rounding / (1.0 - root / ell_bar)
    # where g' vanishes, at pi', a residual within tol leaves the root only
    # within about sqrt(tol) of the exact one
    if pi_prime is None or abs(exact_pi / pi_prime - 1) > Decimal(1e-6):
        for root, exact in zip(roots, want):
            assert abs(Decimal(root) - exact) <= Decimal(1e-9 * ell_bar)


def test_uniform_roots_seldom_reach_root_refinement(monkeypatch):
    # draws like the benchmark's shared solves: seven beliefs inside the
    # three regimes, 2% of a regime's width off its edges, and one uniform
    # [0, 1] game with b >= 2 and a belief below 1.5 (b-1)/m. The model
    # starts are exact for uniform losses, so a root reaches bisect_root
    # only where its ftol rounds below g's rounding: on [0, ell_bar], where
    # ftol is 0, and next to the pole
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return bisect_root(*args, **kwargs)

    monkeypatch.setattr(numerics, "bisect_root", counting)
    rng = random.Random(2)
    roots = 0
    for j in range(2400):
        if j % 8 == 7:
            b = rng.uniform(2.0, 4.0)
            params, big_l = tp.validate_params(b, rng.uniform(2.0 * b, 60.0)), 1.0
            pi = rng.uniform(0.0, 1.5 * params.pi_low)
        else:
            b = rng.uniform(1.5, 4.0)
            params = tp.validate_params(b, rng.uniform(max(8.0, 2.0 * b), 80.0))
            big_l = b - 1.0 + rng.uniform(1.0, 10.0)
            pi_low, _, pi_prime = (float(x) for x in reference.shared_uniform_criticals(
                params.b, params.m, big_l))
            u = rng.uniform(0.02, 0.98)
            pi = (u * pi_low, pi_low + u * (pi_prime - pi_low),
                  pi_prime + u * min(0.3, 1.0 - pi_prime))[j % 3]
        roots += len(tp.solve_common_equilibria(pi, params, tp.uniform_loss(big_l)).interior())
    assert roots > 2000
    assert len(calls) < 0.05 * roots


def test_roots_at_zero_ftol_take_few_calls(unit_loss):
    # below (b-1)/m with K >= ell_bar the root's bracket is [0, ell_bar],
    # where 1 - F vanishes, so ftol = 0 and the model's one evaluation seldom
    # lands on g = 0 exactly. The step past the root, by at least four float
    # spacings, brackets it within a few floats: on these 165 games a solve
    # makes at most 7 cdf and pdf calls, where refining [x, ell_bar] without
    # that step made up to 25, and the whole bracket up to 34
    calls = [0]

    def counted(name):
        def call(x):
            calls[0] += 1
            return getattr(unit_loss, name)(x)
        return call

    dist = dataclasses.replace(unit_loss, cdf=counted("cdf"), pdf=counted("pdf"))
    rng = random.Random(3)
    most, solves = 0, 0
    for _ in range(400):
        b = rng.uniform(2.0, 4.0)
        params = tp.validate_params(b, rng.uniform(2.0 * b, 60.0))
        pi = rng.uniform(0.0, params.pi_low)
        if params.coop_premium * pi / (1.0 - pi) < 1.0:
            continue
        calls[0] = 0
        tp.solve_common_equilibria(pi, params, dist)
        most, solves = max(most, calls[0]), solves + 1
    assert solves > 100
    assert most <= 8


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

    @pytest.mark.parametrize("b", [1e12, 1e14, 1e150])
    def test_agrees_with_solver_at_large_b(self, b):
        # b/2 - sqrt(b^2/4 - K) lost about eps b/2 of a threshold about K/b:
        # 0.47369384765625 at b = 1e12, 0.4765625 at 1e14 and 0.0 at 1e150
        params = tp.validate_params(b, 10 * b)
        eqs = tp.solve_common_equilibria(0.05, params, tp.uniform_loss(1.0))
        assert eqs.regime == "unique-interior"
        assert tp.closed_form_common_uniform(0.05, params) == pytest.approx(eqs.lowest, abs=1e-12)
