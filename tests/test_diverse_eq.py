import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trustpd as tp
from trustpd import diverse_eq, numerics
from trustpd.numerics import composite_simpson


class TestApplyT:
    def test_all_defect_curve(self, p28, unit_loss, unit_belief):
        knots = np.linspace(0, 1, 1001)
        image = tp.apply_T(tp.constant_curve(knots, 1.0), p28, unit_loss, unit_belief)
        expected = 1 - 7 / (8 + knots - 1)
        assert np.allclose(image.values, expected, atol=1e-12)

    def test_all_cooperate_curve(self, p28, unit_loss, unit_belief):
        knots = np.linspace(0, 1, 1001)
        image = tp.apply_T(tp.constant_curve(knots, 0.0), p28, unit_loss, unit_belief)
        assert np.allclose(image.values, (p28.b - 1) / p28.m, atol=1e-14)

    def test_identity_curve_uses_mean_half(self, p28, unit_loss, unit_belief):
        knots = np.linspace(0, 1, 1001)
        ident = tp.ThresholdCurve(knots, knots)
        # oracle: the integral of l over [0,1] is exactly 1/2
        big_i = composite_simpson(np.asarray(unit_belief.cdf(knots)) * np.asarray(unit_loss.pdf(knots)), knots)
        assert big_i == pytest.approx(0.5, abs=1e-10)
        image = tp.apply_T(ident, p28, unit_loss, unit_belief)
        assert np.allclose(image.values, 1 - 7 / (8 + (knots - 1) * 0.5), atol=1e-12)

    def test_image_stays_in_unit_interval(self, p28, unit_loss, unit_belief):
        # the correct range bound: [0, 1), attained at l=0 under an all-defect curve
        knots = np.linspace(0, 1, 501)
        for const in (0.0, 0.3, 1.0):
            image = tp.apply_T(tp.constant_curve(knots, const), p28, unit_loss, unit_belief)
            assert image.values.min() >= 0.0
            assert image.values.max() < 1.0
        defect_image = tp.apply_T(tp.constant_curve(knots, 1.0), p28, unit_loss, unit_belief)
        assert defect_image.values[0] == pytest.approx(0.0, abs=1e-14)

    def test_value_at_b_minus_one_pinned(self, fig_params, fig_dist, unit_belief):
        # T(s)(b-1) = (b-1)/m regardless of the input curve
        knots = np.linspace(0, 8, 1001)
        for const in (0.2, 0.8):
            image = tp.apply_T(tp.constant_curve(knots, const), fig_params, fig_dist, unit_belief)
            idx = np.argmin(np.abs(knots - (fig_params.b - 1)))
            assert image.values[idx] == pytest.approx(fig_params.pi_low, abs=1e-9)


class TestSolveDiverseThreshold:
    def test_contraction_gamma_value(self, diverse_28):
        assert diverse_28.contraction_gamma == pytest.approx(7 / 64, abs=1e-15)
        assert not diverse_28.damped

    def test_per_step_contraction(self, diverse_28):
        hist = diverse_28.residual_history
        ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 1)]
        assert max(ratios) <= 7 / 64 + 1e-9

    def test_converged_residual_and_monotonicity(self, diverse_28):
        assert diverse_28.residual <= 1e-10
        assert np.all(np.diff(diverse_28.threshold.values) > 0)
        assert diverse_28.threshold.monotone

    @pytest.mark.parametrize("n_knots", [-5, 0, 1, 2, 1000])
    def test_grid_without_even_simpson_intervals_rejected(self, n_knots, p28, unit_loss,
                                                         unit_belief):
        with pytest.raises(tp.ParameterError, match="n_knots"):
            tp.solve_diverse_threshold(p28, unit_loss, unit_belief, n_knots=n_knots)

    def test_fixed_point_idempotence(self, diverse_28, p28, unit_loss, unit_belief):
        image = tp.apply_T(diverse_28.threshold, p28, unit_loss, unit_belief)
        assert np.max(np.abs(image.values - diverse_28.threshold.values)) <= 1e-9

    def test_cutoff_at_zero_equals_premium_over_alpha_exact(self, diverse_28, p28):
        # the converged curve satisfies s(0) = 1 - (1+m-b)/alpha with the
        # exact coefficients; it equals beta itself only in the large-m limit
        ab = tp.solve_alpha_beta(p28, "exact")
        assert diverse_28.threshold.values[0] == pytest.approx(
            1 - p28.coop_premium / ab.alpha, abs=1e-9
        )
        ab_apx = tp.solve_alpha_beta(p28, "approximate")
        assert diverse_28.threshold.values[0] == pytest.approx(ab_apx.beta, abs=5e-3)

    def test_coop_prob_complementarity(self, diverse_28, p28, unit_loss, unit_belief):
        s = diverse_28.threshold
        defect_mass = composite_simpson(
            np.asarray(unit_belief.cdf(s.values)) * np.asarray(unit_loss.pdf(s.knots)), s.knots
        )
        assert diverse_28.coop_prob + defect_mass == pytest.approx(1.0, abs=1e-10)

    def test_nonconvergence_raises(self, p28, unit_loss, unit_belief):
        with pytest.raises(tp.ConvergenceError):
            tp.solve_diverse_threshold(p28, unit_loss, unit_belief, tol=1e-14, max_iter=2)

    def test_damping_engages_when_bound_exceeds_one(self, unit_loss, unit_belief):
        # m small enough that (1+m-b)/m^2 >= 1 while m > b - 1 still holds
        params = tp.validate_params(1.05, 0.4)
        sol = tp.solve_diverse_threshold(params, unit_loss, unit_belief, tol=1e-9)
        assert sol.damped
        assert sol.contraction_gamma >= 1.0
        assert sol.residual <= 1e-9

    def test_point_mass_beliefs_reduce_to_common_solver(self, unit_loss):
        # steep belief cdf around pi_bar: the cutoff's preimage of pi_bar must
        # match the common-beliefs threshold at that belief (unique regime)
        params = tp.validate_params(2, 8)
        pi_bar, width = 0.08, 0.005
        knots = np.array([0.0, pi_bar - width, pi_bar + width, 1.0])
        cdf = np.array([0.0, 1e-6, 1 - 1e-6, 1.0])
        steep = tp.tabulated_belief(knots, cdf)
        sol = tp.solve_diverse_threshold(params, unit_loss, steep)
        assert sol.damped  # the steep cdf breaks the sufficient contraction bound
        ell_at_pi_bar = sol.threshold.invert(pi_bar)
        common = tp.solve_common_equilibria(pi_bar, params, tp.uniform_loss(1.0))
        assert common.regime == "unique-interior"
        assert ell_at_pi_bar == pytest.approx(common.lowest, abs=0.02)


# float.hex of undamped solve_diverse_threshold results on the unit loss, so
# that any change in the bits of the contraction iteration shows here. Each
# entry holds iterations, residual_history, coop_prob and the curve at knots
# 0, 250, 500, 750, 1000. Re-recorded when the cutoff became
# ((b-1) + (l-(b-1)) I)/den, free of the cancellation in 1 - (1+m-b)/den,
# and when I became one weighted sum, not two slice sums.
TABULATED_G = ([0.0, 0.3, 0.7, 1.0], [0.0, 0.2, 0.8, 1.0])
PINNED_DIVERSE = {
    (2.0, 8.0, "uniform"): (
        8,
        ["0x1.c71c71c71c720p-7", "0x1.9872ec2e06780p-11", "0x1.6c74eacf76000p-15",
         "0x1.454ec6f568000p-19", "0x1.225bd9ae00000p-23", "0x1.032a307800000p-27",
         "0x1.cea4e40000000p-32", "0x1.9cf1000000000p-36"],
        "0x1.c35993c92cf99p-1",
        ["0x1.ca22313f3848bp-4", "0x1.d7c05c0382b67p-4", "0x1.e544861c95b57p-4",
         "0x1.f2aef9bd7cb87p-4", "0x1.0000000000000p-3"],
    ),
    (3.0, 20.0, "uniform"): (
        8,
        ["0x1.29e4129e412a0p-7", "0x1.474b876511b00p-11", "0x1.669f86ffbe800p-15",
         "0x1.8905f8fba0000p-19", "0x1.aeb7bf5900000p-23", "0x1.d80720a000000p-27",
         "0x1.02a6644000000p-30", "0x1.1b75000000000p-34"],
        "0x1.d00f496eb805cp-1",
        ["0x1.76c1ba0c88284p-4", "0x1.7b25ebdd5125bp-4", "0x1.7f87773cf4307p-4",
         "0x1.83e65e90deda7p-4", "0x1.8842a43b9c0dap-4"],
    ),
    (2.0, 8.0, "tabulated"): (
        7,
        ["0x1.2dcf7ea712dd8p-7", "0x1.662bb57a0c200p-12", "0x1.a778bffed0000p-17",
         "0x1.f4bf4befc0000p-22", "0x1.280f816400000p-26", "0x1.5e15948000000p-31",
         "0x1.9df7400000000p-36"],
        "0x1.d6d80c963bf4dp-1",
        ["0x1.db9f78d4516bap-4", "0x1.e4c94822a445dp-4", "0x1.ede73f32d9168p-4",
         "0x1.f6f974ed70f65p-4", "0x1.0000000000000p-3"],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_DIVERSE))
def test_diverse_pinned_bits(case, unit_loss, unit_belief):
    b, m, belief = case
    G = unit_belief if belief == "uniform" else tp.tabulated_belief(*TABULATED_G)
    sol = tp.solve_diverse_threshold(tp.validate_params(b, m), unit_loss, G)
    assert not sol.damped
    assert pinned_digest(sol) == PINNED_DIVERSE[case]


def pinned_digest(sol):
    """A solve's iterations, residual_history, coop_prob and curve at knots
    0, 250, 500, 750 and 1000, as float.hex strings."""
    values = sol.threshold.values
    return (
        sol.iterations,
        [r.hex() for r in sol.residual_history],
        sol.coop_prob.hex(),
        [float(values[i]).hex() for i in (0, 250, 500, 750, 1000)],
    )


def steep_belief(lo, width, mass):
    """Tabulated G with `mass` on [lo, lo + width] and the rest spread over
    the two outer segments in proportion to their lengths."""
    rest = (1.0 - mass) / (1.0 - width)
    return tp.tabulated_belief([0.0, lo, lo + width, 1.0],
                               [0.0, rest * lo, rest * lo + mass, 1.0])


# float.hex of damped solves, as PINNED_DIVERSE holds undamped ones: the
# steep G of TestDampedBisection at (3, 20), damped from the start, and the
# two-cycle at (4, 3.0625), 5 substitution steps before the root solve on I:
# the fifth shrinks the residual by a ratio of 0.915, less than a tenth. The
# root solve starts from the bracket [0, M] whatever step hands over, so its
# 14 steps and the curve do not depend on the handover step.
DAMPED_GAMES = {
    "steep-G": ((3.0, 20.0), tp.tabulated_belief([0.0, 0.075, 0.085, 1.0],
                                                 [0.0, 1e-6, 1 - 1e-6, 1.0])),
    "two-cycle": ((4.0, 3.0625), steep_belief(0.5, 0.0078125, 0.9)),
}
PINNED_DAMPED = {
    "steep-G": (
        10,
        ["0x1.99997c434686ep-4", "0x1.999990f8679f0p-4", "0x1.7e4901778aeaap-5",
         "0x1.7f7889c9d116cp-6", "0x1.0065f0bed445cp-6", "0x1.c59164d5329c0p-10",
         "0x1.bcfeb5601c000p-17", "0x1.88c1b88630000p-20", "0x1.0c4d468000000p-31",
         "0x1.3df3640000000p-34"],
        "0x1.585f169bed205p-1",
        ["0x1.1cd27cd6ccb26p-4", "0x1.2ce122e6edaf2p-4", "0x1.3ccd4adda1bf3p-4",
         "0x1.4c976367fd852p-4", "0x1.5c3fd95b8dbffp-4"],
    ),
    "two-cycle": (
        19,
        ["0x1.c78b196c52e5bp-1", "0x1.5b3341e082ee7p-1", "0x1.c3d82b118741ap-2",
         "0x1.71073021cf79cp-2", "0x1.51ce0a316dc0cp-2", "0x1.c78b196c52e5bp-1",
         "0x1.909ef59015cb6p-1", "0x1.74485f888735dp-1", "0x1.d6b8a651b68e8p-2",
         "0x1.214a133000462p-2", "0x1.83cdf9bd4b8b6p-3", "0x1.0ebaf24e3f014p-3",
         "0x1.1b4154cd4bde0p-4", "0x1.4969181b09f30p-3", "0x1.3cbfa1d9c4c00p-12",
         "0x1.0216387230000p-16", "0x1.4bfca30000000p-30", "0x1.91d0500000000p-32",
         "0x1.1000000000000p-48"],
        "0x1.3c5c26add6cbap-6",
        ["0x1.ec8f0bc51863fp-2", "0x1.a878fef711dc4p-1", "0x1.cb9b7b520fbd8p-1",
         "0x1.da9d4be15a539p-1", "0x1.e2f04a30a0f72p-1"],
    ),
}


@pytest.mark.parametrize("game", sorted(PINNED_DAMPED))
def test_damped_pinned_bits(game, unit_loss):
    (b, m), G = DAMPED_GAMES[game]
    sol = tp.solve_diverse_threshold(tp.validate_params(b, m), unit_loss, G)
    assert sol.damped
    assert pinned_digest(sol) == PINNED_DAMPED[game]


def assert_fixed_point(sol, params, F, G):
    s = sol.threshold
    assert np.max(np.abs(tp.apply_T(s, params, F, G).values - s.values)) <= 1e-9
    assert np.all(np.diff(s.values) > 0)


class TestDampedBisection:
    def test_steep_belief_with_steep_fixed_point_map(self, unit_loss):
        # the belief cdf of test_point_mass_beliefs_reduce_to_common_solver at
        # (3, 20): the scalar map Phi(I) has slope about -4 at its root, where
        # even half-steps toward T(s) diverge
        params = tp.validate_params(3, 20)
        knots = np.array([0.0, 0.075, 0.085, 1.0])
        steep = tp.tabulated_belief(knots, np.array([0.0, 1e-6, 1 - 1e-6, 1.0]))
        sol = tp.solve_diverse_threshold(params, unit_loss, steep)
        assert sol.damped
        assert sol.iterations <= 60
        assert sol.residual == sol.residual_history[-1] <= 1e-10
        assert len(sol.residual_history) == sol.iterations
        assert_fixed_point(sol, params, unit_loss, steep)

    def test_contraction_gamma_sees_a_narrow_density_segment(self, unit_loss):
        # mass 1/2 on a segment of width 1e-4 that falls between the points
        # of a 2001-point grid: the sup of g is 5000
        G = tp.tabulated_belief([0.0, 0.12021, 0.12031, 1.0], [0.0, 0.25, 0.75, 1.0])
        params = tp.validate_params(2, 8)
        sol = tp.solve_diverse_threshold(params, unit_loss, G)
        assert sol.contraction_gamma == pytest.approx(7 * 5000 / 64, rel=1e-9)
        assert sol.damped
        assert_fixed_point(sol, params, unit_loss, G)

    def test_iteration_that_stops_contracting_switches_to_bisection(self, unit_loss):
        # gamma < 1, yet T is no contraction here: the denominator of the
        # cutoff falls to m - (b-1) = 0.0625 and |l - (b-1)| reaches 3, which
        # the bound leaves out, so the iterates settle on a two-cycle
        params = tp.validate_params(4, 3.0625)
        G = steep_belief(0.5, 0.0078125, 0.9)
        sol = tp.solve_diverse_threshold(params, unit_loss, G)
        assert sol.contraction_gamma < 1.0
        assert sol.damped
        hist = sol.residual_history
        stall = next(k for k in range(1, len(hist)) if hist[k] >= hist[k - 1])
        assert all(hist[k] < hist[k - 1] for k in range(1, stall))
        assert_fixed_point(sol, params, unit_loss, G)

    @pytest.mark.parametrize("b, m, G, tol", [
        (2.0, 8.0, tp.tabulated_belief([0.0, 0.12021, 0.12031, 1.0], [0.0, 0.25, 0.75, 1.0]),
         1e-10),
        (3.0, 20.0, tp.tabulated_belief([0.0, 0.075, 0.085, 1.0], [0.0, 1e-6, 1 - 1e-6, 1.0]),
         1e-10),
        (1.05, 0.4, tp.uniform_belief(), 1e-9),
    ], ids=["narrow-spike", "steep-G", "bound-above-one"])
    def test_root_on_I_takes_few_evaluations(self, unit_loss, b, m, G, tol):
        # damped from the start; the halving this replaced took 28, 28 and 24
        # steps on these games, ITP on the same bracket about 10
        params = tp.validate_params(b, m)
        sol = tp.solve_diverse_threshold(params, unit_loss, G, tol=tol)
        assert sol.damped and sol.contraction_gamma >= 1.0
        assert sol.iterations == len(sol.residual_history) <= 12
        assert sol.residual <= tol
        assert_fixed_point(sol, params, unit_loss, G)

    def test_collapsed_bracket_above_tol_raises(self, unit_loss):
        # no double reaches a residual of 1e-300: the bracket on I shrinks to
        # adjacent floats, and that is reported, not returned as converged
        G = tp.tabulated_belief([0.0, 0.12021, 0.12031, 1.0], [0.0, 0.25, 0.75, 1.0])
        with pytest.raises(tp.ConvergenceError, match="collapsed"):
            tp.solve_diverse_threshold(tp.validate_params(2, 8), unit_loss, G, tol=1e-300)

    def test_spike_positions_all_converge(self, unit_loss):
        # spikes across the range of the (2, 8) cutoff curve, most of them
        # missed by a 2001-point sample of g
        params = tp.validate_params(2, 8)
        for lo in np.linspace(0.105, 0.126, 43):
            G = steep_belief(lo, 1e-4, 0.96)
            assert_fixed_point(tp.solve_diverse_threshold(params, unit_loss, G),
                               params, unit_loss, G)


@st.composite
def belief_distributions(draw):
    kind = draw(st.sampled_from(["uniform", "tabulated", "steep"]))
    if kind == "uniform":
        return tp.uniform_belief()
    if kind == "tabulated":
        cuts = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4, unique=True)))
        masses = draw(st.lists(st.floats(0.05, 1.0), min_size=len(cuts) + 1,
                               max_size=len(cuts) + 1))
        return tp.tabulated_belief([0.0, *cuts, 1.0], np.cumsum([0.0, *masses]) / sum(masses))
    width = draw(st.floats(1e-4, 1e-2))
    lo = draw(st.floats(0.01, 0.99 - width))
    return steep_belief(lo, width, draw(st.floats(0.5, 0.999)))


@given(b=st.floats(1.05, 6.0), excess_m=st.floats(0.05, 80.0), G=belief_distributions(),
       ell_bar=st.floats(0.5, 8.0))
@settings(max_examples=100, deadline=None)
def test_every_game_reaches_the_fixed_point(b, excess_m, G, ell_bar):
    # uniform, tabulated and steep G, the steep and narrow ones on the damped
    # path; every segment of a steep G has mass >= 1e-6: the outer two get at
    # least (1 - 0.999) * 0.01. The oracle is apply_T, whose Simpson sum is
    # the slice-sum rule, not the solver's weighted one
    params = tp.validate_params(b, b - 1.0 + excess_m)
    F = tp.uniform_loss(ell_bar)
    tol = 1e-10
    sol = tp.solve_diverse_threshold(params, F, G, tol=tol)
    s = sol.threshold
    assert np.max(np.abs(tp.apply_T(s, params, F, G).values - s.values)) <= tol
    assert np.all(np.diff(s.values) > 0)
    assert sol.iterations == len(sol.residual_history)
    defect_mass = composite_simpson(np.asarray(G.cdf(s.values)) * np.asarray(F.pdf(s.knots)),
                                    s.knots)
    assert abs(sol.coop_prob + defect_mass - 1.0) <= 1e-12


@given(b=st.floats(2.0, 8.0), log_gap=st.floats(-1.0, 15.0))
@settings(max_examples=40, deadline=None)
def test_large_m_matches_the_exact_uniform_closed_form(b, log_gap):
    # the cutoff is about (b-1)/m at large m: as 1 - (1+m-b)/den it cancelled,
    # and neighbouring knots rounded to one value from m - (b-1) ~ 10^6.5.
    # From about 10^13 on they round to one value in any form: the curve is
    # flat to rounding there, and it is accepted as nondecreasing
    params = tp.validate_params(b, b - 1.0 + 10.0**log_gap)
    sol = tp.solve_diverse_threshold(params, tp.uniform_loss(1.0), tp.uniform_belief())
    ab = tp.solve_alpha_beta(params, "exact")
    # 1 - (1+m-b)/(alpha + beta l), with alpha - (1+m-b) = (b-1)(1-beta)
    knots = sol.threshold.knots
    want = ((params.b - 1.0) * (1.0 - ab.beta) + ab.beta * knots) / (ab.alpha + ab.beta * knots)
    np.testing.assert_allclose(sol.threshold.values, want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("b", [2.0, 5.0])
@pytest.mark.parametrize("excess_m", [1e-9, 1e-11, 1e-13])
def test_small_excess_m_hands_over_to_the_root_on_I(b, excess_m):
    # as m - (b-1) -> 0 the cutoff's denominator m + (l-(b-1)) I nearly
    # vanishes at l = 0, and T's iterates shrink the residual by ratios near
    # 1: iterating to tol takes thousands of steps, or more than the
    # 10000-step budget. A step that shrinks the residual by less than a
    # tenth hands over to the root solve on I. The oracle is apply_T; the
    # curve may be flat to rounding near 1
    params = tp.validate_params(b, b - 1.0 + excess_m)
    F, G = tp.uniform_loss(1.0), tp.uniform_belief()
    sol = tp.solve_diverse_threshold(params, F, G)
    s = sol.threshold
    assert sol.damped
    assert sol.residual == sol.residual_history[-1] <= 1e-10
    assert sol.iterations == len(sol.residual_history) <= 100
    assert np.max(np.abs(tp.apply_T(s, params, F, G).values - s.values)) <= 1e-10
    assert s.monotone


def test_solve_validates_once(monkeypatch, p28, unit_loss, unit_belief):
    # each step is one pass over plain arrays with one call of G's cdf, and
    # coop_prob makes one more; the grid is built, cached and never checked,
    # and one validated ThresholdCurve is built, for the result
    counts = {"curve": 0, "grid": 0, "cdf": 0}
    post_init = tp.ThresholdCurve.__post_init__
    simpson_step = numerics._simpson_step

    def counted_post_init(self):
        counts["curve"] += 1
        post_init(self)

    def counted_step(x):
        counts["grid"] += 1
        return simpson_step(x)

    def counted_cdf(x):
        counts["cdf"] += 1
        return unit_belief.cdf(x)

    G = tp.BeliefDistribution(cdf=counted_cdf, pdf=unit_belief.pdf, ppf=unit_belief.ppf)
    monkeypatch.setattr(tp.ThresholdCurve, "__post_init__", counted_post_init)
    monkeypatch.setattr(numerics, "_simpson_step", counted_step)
    sol = tp.solve_diverse_threshold(p28, unit_loss, G)
    assert sol.iterations == 8
    assert counts["cdf"] == sol.iterations + 1
    assert counts["curve"] == 1 and counts["grid"] == 0


def test_solver_curves_share_the_grid_and_check_knots_and_values(p28, unit_loss, unit_belief):
    diverse_eq._simpson_grid.cache_clear()
    first = tp.solve_diverse_threshold(p28, unit_loss, unit_belief).threshold
    second = tp.solve_diverse_threshold(p28, unit_loss, unit_belief).threshold
    assert second.knots is first.knots
    with pytest.raises(tp.ParameterError, match="codomain"):
        tp.ThresholdCurve(first.knots, np.full(first.knots.size, np.nan))
    with pytest.raises(tp.ParameterError, match="values decrease"):
        tp.ThresholdCurve(first.knots, first.values[::-1], monotone=True)
    knots = first.knots.copy()
    knots[5] = knots[4]
    with pytest.raises(tp.ParameterError, match="strictly increasing"):
        tp.ThresholdCurve(knots, first.values)


def reference_curve_checks(knots, values, codomain, monotone):
    """A curve's checks in their order, with the extremes always taken as
    min and max: the ParameterError message, or the (floor, ceiling) pair
    as float.hex."""
    knots = np.ascontiguousarray(knots, dtype=float)
    if knots.ndim != 1 or knots.size < 2:
        return "curve needs equal-length 1-d knots and values, N >= 2"
    if not (knots[1:] > knots[:-1]).all():
        return "curve knots must be strictly increasing"
    if not (np.isfinite(knots[0]) and np.isfinite(knots[-1])):
        return "curve knots must be finite"
    values = np.ascontiguousarray(values, dtype=float)
    if knots.shape != values.shape:
        return "curve needs equal-length 1-d knots and values, N >= 2"
    lo, hi = codomain
    tol = 1e-12 * max(1.0, abs(hi - lo))
    vmin, vmax = values.min(), values.max()
    if not (lo - tol <= vmin and vmax <= hi + tol):
        return f"curve values leave the codomain [{lo}, {hi}]: range [{vmin}, {vmax}]"
    if monotone and not (values[1:] >= values[:-1]).all():
        return "curve flagged monotone but values decrease"
    pad = 1e-12 * max(1.0, -vmin, vmax)
    return float(vmin - pad).hex(), float(vmax + pad).hex()


_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.25, 0.5, 1.0])
_entries = st.one_of(_SPECIAL, st.floats(0.0, 1.0), st.floats(-0.5, 1.5), st.floats())


@st.composite
def curve_inputs(draw):
    """(knots, values, codomain, monotone): mostly a valid grid and values
    of its length, some bad; values with NaN, infinities, signed zeros and
    ties, sorted or not."""
    if draw(st.integers(0, 3)):
        steps = draw(st.lists(st.floats(1e-6, 10.0), min_size=2, max_size=8))
        knots = np.cumsum(steps) - draw(st.floats(0.0, 10.0))
    else:
        n = draw(st.integers(0, 8))
        knots = np.array(draw(st.lists(_entries, min_size=n, max_size=n)))
        if n and n % 2 == 0 and draw(st.booleans()):
            knots = knots.reshape(2, -1)
    size = knots.size if draw(st.integers(0, 9)) else draw(st.integers(0, 8))
    values = draw(st.lists(_entries, min_size=size, max_size=size))
    if draw(st.integers(0, 2)):
        values.sort(key=lambda v: (math.isnan(v), v))
    codomain = draw(st.one_of(
        st.just((0.0, 1.0)),
        st.just((-np.inf, np.inf)),
        st.tuples(st.floats(-2.0, 1.0), st.floats(0.0, 3.0)),
        st.tuples(_entries, _entries),
    ))
    return knots, np.array(values, dtype=float), codomain, draw(st.booleans())


@given(curve_inputs())
# signed zeros at the ends of a nondecreasing curve: numpy's min and max of
# [0.0, -0.0] are -0.0, -0.0
@example((np.array([0.0, 1.0]), np.array([0.0, -0.0]), (1.0, 2.0), True))
@example((np.array([0.0, 1.0]), np.array([0.0, -0.0]), (0.0, 1.0), True))
@settings(max_examples=600, deadline=None)
def test_curve_checks_match_the_reference(inputs):
    knots, values, codomain, monotone = inputs
    # infinite values make inf - inf in the pad, a NaN floor on both sides
    with np.errstate(invalid="ignore"):
        expected = reference_curve_checks(knots.copy(), values.copy(), codomain, monotone)
        try:
            curve = tp.ThresholdCurve(knots, values, codomain, monotone)
        except tp.ParameterError as exc:
            assert str(exc) == expected
        else:
            assert tuple(float(v).hex() for v in curve._floor_ceiling) == expected


class TestCooperationProb:
    def test_all_defect(self, unit_loss, unit_belief):
        knots = np.linspace(0, 1, 101)
        assert tp.cooperation_prob_given_strategy(
            tp.constant_curve(knots, 1.0), unit_loss, unit_belief
        ) == pytest.approx(0.0, abs=1e-12)

    def test_all_cooperate(self, unit_loss, unit_belief):
        knots = np.linspace(0, 1, 101)
        assert tp.cooperation_prob_given_strategy(
            tp.constant_curve(knots, 0.0), unit_loss, unit_belief
        ) == pytest.approx(1.0, abs=1e-12)

    def test_identity_curve(self, unit_loss, unit_belief):
        knots = np.linspace(0, 1, 101)
        ident = tp.ThresholdCurve(knots, knots)
        assert tp.cooperation_prob_given_strategy(ident, unit_loss, unit_belief) == pytest.approx(0.5, abs=1e-12)


class TestAlphaBeta:
    def test_approximate_closed_forms(self, p28):
        ab = tp.solve_alpha_beta(p28, "approximate")
        root = math.sqrt(1 + 4 / 7)
        assert ab.alpha == pytest.approx(3.5 * (1 + root), abs=1e-14)
        assert ab.beta == pytest.approx((root - 1) / (root + 1), abs=1e-14)

    def test_approximate_satisfies_its_system(self, p28):
        # oracle: residuals of alpha = (1+m-b)(1 + (b-1)/alpha), beta = 1 - (1+m-b)/alpha
        ab = tp.solve_alpha_beta(p28, "approximate")
        a = p28.coop_premium
        assert ab.alpha == pytest.approx(a * (1 + (p28.b - 1) / ab.alpha), abs=1e-9)
        assert ab.beta == pytest.approx(1 - a / ab.alpha, abs=1e-9)

    def test_exact_satisfies_printed_system(self, p28):
        ab = tp.solve_alpha_beta(p28, "exact")
        a = p28.coop_premium
        assert ab.alpha == pytest.approx(
            a * (1 + (p28.b - 1) / ab.beta * math.log1p(ab.beta / ab.alpha)), abs=1e-10
        )
        assert ab.beta == pytest.approx(
            1 - a / ab.beta * math.log1p(ab.beta / ab.alpha), abs=1e-10
        )

    def test_exact_beta_is_mean_cutoff(self, p28, diverse_28):
        ab = tp.solve_alpha_beta(p28, "exact")
        s = diverse_28.threshold
        mean_cutoff = composite_simpson(s.values, s.knots)
        assert ab.beta == pytest.approx(mean_cutoff, abs=2e-3)

    def test_modes_converge_as_m_grows(self):
        prev = None
        for m in (100, 10_000):
            params = tp.validate_params(2, m)
            exact = tp.solve_alpha_beta(params, "exact")
            apx = tp.solve_alpha_beta(params, "approximate")
            assert apx.beta == pytest.approx(0.0, abs=0.05)
            ratio = exact.alpha / apx.alpha
            if prev is not None:
                assert abs(ratio - 1) < abs(prev - 1)
            prev = ratio
        assert abs(prev - 1) < 1e-4

    def test_invalid_mode(self, p28):
        with pytest.raises(tp.ParameterError):
            tp.solve_alpha_beta(p28, "other")

    @given(b=st.floats(2.0, 8.0), log_gap=st.floats(-3.0, 9.0))
    @settings(max_examples=40, deadline=None)
    def test_exact_beta_matches_the_decimal_oracle(self, b, log_gap):
        params = tp.validate_params(b, b - 1.0 + 10.0 ** log_gap)
        beta = tp.solve_alpha_beta(params, "exact").beta
        want = exact_beta_oracle(params.b, params.m)
        assert abs(Decimal(beta) - want) <= Decimal(1e-13) * want

    @pytest.mark.parametrize("b, m", [(1.0 + 1e-13, 1.0), (1.5, 1e12), (2.0, 1e13)])
    def test_exact_beta_below_1e_12(self, b, m):
        # beta is about (b-1)/m; the bracket used to start at 1e-12
        params = tp.validate_params(b, m)
        beta = tp.solve_alpha_beta(params, "exact").beta
        want = exact_beta_oracle(params.b, params.m)
        assert abs(Decimal(beta) - want) <= Decimal(1e-13) * want


def exact_beta_oracle(b: float, m: float) -> Decimal:
    """Exact-mode beta by bisection at 60 digits of the exact system itself:
    beta = 1 - (a/beta) ln(1 + beta/alpha), a = 1+m-b, alpha = m - (b-1) beta
    (which the first equation gives once the second holds). The residual
    beta - 1 + (a/beta) ln(1 + beta/alpha) rises from -(b-1)/m at 0+ to
    a ln(1 + 1/a) > 0 at 1."""
    with localcontext() as ctx:
        ctx.prec = 60
        b, m = Decimal(b), Decimal(m)
        a = 1 + m - b

        def residual(beta):
            return beta - 1 + a / beta * (1 + beta / (m - (b - 1) * beta)).ln()

        lo, hi = Decimal("1e-30"), Decimal(1)
        for _ in range(160):
            mid = (lo + hi) / 2
            if residual(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def inverse_cutoff_oracle(pi: float, b: float, ab) -> Decimal:
    """The loss at which the uniform-case cutoff ((b-1)(1-beta) + beta l)/(alpha + beta l)
    equals pi, clipped to [0, 1], exactly in decimal at the float inputs:
    (pi alpha - (b-1)(1-beta))/((1-pi) beta). 200 digits hold every product
    and difference of these floats exactly."""
    with localcontext() as ctx:
        ctx.prec = 200
        pi, alpha, beta = Decimal(pi), Decimal(ab.alpha), Decimal(ab.beta)
        loss = (pi * alpha - (Decimal(b) - 1) * (1 - beta)) / ((1 - pi) * beta)
        return min(max(loss, Decimal(0)), Decimal(1))


@given(b=st.floats(2.0, 8.0), log_gap=st.floats(-1.0, 17.0), loss=st.floats(0.0, 1.0),
       mode=st.sampled_from(["exact", "approximate"]))
@settings(max_examples=200, deadline=None)
def test_closed_form_inverse_matches_the_decimal_oracle(b, log_gap, loss, mode):
    # pi is the float cutoff at `loss`. A one-ulp change of pi moves the
    # exact inverse by about eps (pi alpha + (b-1)(1-beta))/((1-pi) beta),
    # about eps m, the most a float evaluation can be held to; subtracting
    # (1+m-b)/(1-pi) and alpha would be off by about eps m^2/(b-1)
    params = tp.validate_params(b, b - 1.0 + 10.0**log_gap)
    ab = tp.solve_alpha_beta(params, mode)
    pi = diverse_eq._cutoff_at(params, ab, loss)
    got = tp.closed_form_diverse_uniform(pi, params, ab)
    scale = (pi * ab.alpha + (b - 1.0) * (1.0 - ab.beta)) / ((1.0 - pi) * ab.beta)
    assert 0.0 <= got <= 1.0
    assert abs(Decimal(got) - inverse_cutoff_oracle(pi, b, ab)) <= Decimal(8e-16 * (1.0 + scale))
    assert tp.closed_form_diverse_uniform(0.0, params, ab) == 0.0
    assert tp.closed_form_diverse_uniform(diverse_eq._cutoff_at(params, ab, 1.0), params, ab) == 1.0


class TestClosedFormDiverseUniform:
    def test_zero_below_beta(self, p28):
        ab = tp.solve_alpha_beta(p28, "approximate")
        assert tp.closed_form_diverse_uniform(ab.beta / 2, p28, ab) == 0.0

    def test_continuous_at_beta_with_approximate_pair(self, p28):
        # (1+m-b)/(1-beta) = alpha holds exactly for the approximate pair
        ab = tp.solve_alpha_beta(p28, "approximate")
        just_above = tp.closed_form_diverse_uniform(ab.beta + 1e-12, p28, ab)
        assert just_above == pytest.approx(0.0, abs=1e-9)

    def test_one_at_upper_kink(self, p28):
        # the cutoff at l = 1, 1 - (1+m-b)/(alpha + beta), in the form that
        # does not cancel at large m
        ab = tp.solve_alpha_beta(p28, "approximate")
        upper = diverse_eq._cutoff_at(p28, ab, 1.0)
        assert tp.closed_form_diverse_uniform(upper, p28, ab) == 1.0
        just_below = tp.closed_form_diverse_uniform(upper - 1e-12, p28, ab)
        assert just_below == pytest.approx(1.0, abs=1e-9)

    def test_middle_branch_against_converged_curve(self, p28, diverse_28):
        # the approximate inverse tracks the true cutoff up to the m >> b gap
        ab = tp.solve_alpha_beta(p28, "approximate")
        s = diverse_28.threshold
        pi = 0.118
        assert s.values[0] < pi < s.values[-1]
        assert tp.closed_form_diverse_uniform(pi, p28, ab) == pytest.approx(
            s.invert(pi), abs=5e-2
        )
