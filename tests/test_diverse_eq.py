import hashlib
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
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
# 12 steps and the curve do not depend on the handover step. Re-recorded when
# root refinement took the midpoint in place of the truncated regula falsi
# point (curves at most 3.3e-11 apart), and the two-cycle's last residual
# when residuals were read at the two end knots: 0x1.6p-48 was the rounding
# of an interior knot's cutoff, beyond that at the ends.
DAMPED_GAMES = {
    "steep-G": ((3.0, 20.0), tp.tabulated_belief([0.0, 0.075, 0.085, 1.0],
                                                 [0.0, 1e-6, 1 - 1e-6, 1.0])),
    "two-cycle": ((4.0, 3.0625), steep_belief(0.5, 0.0078125, 0.9)),
}
PINNED_DAMPED = {
    "steep-G": (
        9,
        ["0x1.99997c434686ep-4", "0x1.999990f8679f0p-4", "0x1.7e4901778aeaap-5",
         "0x1.815777e443d06p-5", "0x1.d2e7a54701350p-6", "0x1.3700b264b1900p-12",
         "0x1.456470b257800p-15", "0x1.58aba6ae00000p-25", "0x1.959bc00000000p-37"],
        "0x1.585f16a0479bep-1",
        ["0x1.1cd27cd5f95dbp-4", "0x1.2ce122e636532p-4", "0x1.3ccd4add05e5dp-4",
         "0x1.4c9763677cba9p-4", "0x1.5c3fd95b27927p-4"],
    ),
    "two-cycle": (
        17,
        ["0x1.c78b196c52e5bp-1", "0x1.5b3341e082ee7p-1", "0x1.c3d82b118741ap-2",
         "0x1.71073021cf79cp-2", "0x1.51ce0a316dc0cp-2", "0x1.c78b196c52e5bp-1",
         "0x1.909ef59015cb6p-1", "0x1.a1eacd32ac0d2p-1", "0x1.a463ab1ff5859p-2",
         "0x1.e5aee2572ff30p-3", "0x1.ef7da6eb43208p-4", "0x1.bb60abab6018cp-4",
         "0x1.5529ac19e35a0p-7", "0x1.dd2c602bfbe00p-11", "0x1.560bb8da20000p-19",
         "0x1.08870b8000000p-29", "0x1.1400000000000p-48"],
        "0x1.3c5c26add6c41p-6",
        ["0x1.ec8f0bc518662p-2", "0x1.a878fef711dc4p-1", "0x1.cb9b7b520fbd8p-1",
         "0x1.da9d4be15a539p-1", "0x1.e2f04a30a0f72p-1"],
    ),
}


@pytest.mark.parametrize("game", sorted(PINNED_DAMPED))
def test_damped_pinned_bits(game, unit_loss):
    (b, m), G = DAMPED_GAMES[game]
    sol = tp.solve_diverse_threshold(tp.validate_params(b, m), unit_loss, G)
    assert sol.damped
    assert pinned_digest(sol) == PINNED_DAMPED[game]


def solve_digest(sol):
    """The first 16 hex digits of the sha256 of a solve's residual_history,
    coop_prob, contraction_gamma and damped flag, as float.hex text, and its
    curve's value bytes."""
    text = " ".join([*(r.hex() for r in sol.residual_history), sol.coop_prob.hex(),
                     sol.contraction_gamma.hex(), str(sol.damped)])
    return hashlib.sha256(text.encode() + sol.threshold.values.tobytes()).hexdigest()[:16]


# solve_digest of 64 games drawn as perfbench's dispersed_group draws its
# diverse solves (b uniform on [1.5, 4], m on [b + 3, 40], uniform F and G on
# [0, 1], a fresh G each time) from random.Random(38), and of two steep-G and
# two tabulated-G games, one of each on either side of gamma = 1. The last is
# damped, and F's Simpson mass is 1.00108: re-recorded when the cutoff came
# to take I at most 1 and the root on I to be bracketed on [0, 1], not
# [0, M]. Its cutoffs at I > 1 had been clipped to 0 below
# l = (b-1)(1 - 1/I); the 7 steps are kept, and coop_prob moved by 4.7e-15
PINNED_BENCHMARK_DRAWS = [
    "d09fe4b02cda58ea", "1b4e2aca080e91a1", "1ac751c9d1bb30d4", "7003ab17ef7821af",
    "4f33da8f504ed47e", "4167d66d3907f096", "c3851071d7198291", "5cec69621e09ba46",
    "6881be486e7d286e", "6c802952a5f53ac7", "358829df80d56ff0", "8a080d8f90ccffbe",
    "97dae9c931511aca", "30410724e0bea5e3", "66e8cac2ca3add82", "5972fc842ae89cc9",
    "71244b43f9aef927", "695c539c3b022521", "36f708f17347955f", "3c5c311d3eb466fa",
    "5ff06899659481f8", "2ae9ca8ddbc93efa", "350eec1ed32fa1cb", "e78ef4f249501c61",
    "8623bae2e88a9ca4", "4afd1c66d30a5af1", "61f2900f2579142a", "121baeebfa7abc6a",
    "57f033dd678229ef", "685a2c42bcaaafdd", "93f4d38a8f3c2f9b", "2e793bc0f03649d9",
    "ee9363851c38da57", "f7b3bb43c38707e2", "dee0218452a9580d", "473d8f215105346e",
    "5c05f39860c5cc3f", "27faee42a3d25b5b", "21b088cd31363ae6", "2ca81f726aa227db",
    "8126244b97b9f841", "8f10810a4a8ffb97", "0575448318674aea", "edb826b9848a57cd",
    "1115e54a7b367494", "b754e3f7eefba3b4", "c34f3351076e05b0", "dca887d1fcd86826",
    "dc2d82301cacc749", "1fdec622dde94588", "a956104022af10a8", "fa904b0028398edf",
    "2061a65057092c2a", "b35b62e8acae7a81", "c05e16c335c7e3d6", "5945360ea8594a86",
    "6eb3559e7e2dbc1b", "81a4f9307ebcb413", "a8548cfa28427eee", "0814d32127248988",
    "1abf6e0fae5b5766", "251d3304d90ef2a6", "6623dbc781d24e5c", "7a191ca8a075ba2e",
]
PINNED_BELIEF_GAMES = {
    "steep-G, gamma < 1": ((2.0, 40.0, tp.uniform_loss(1.0), steep_belief(0.05, 0.05, 0.9)),
                           "67146e4c381d7860"),
    "steep-G, gamma > 1": ((3.0, 20.0, tp.uniform_loss(1.0), steep_belief(0.08, 0.01, 0.99)),
                           "437f9912ebc931db"),
    "tabulated-G, gamma < 1": ((2.0, 8.0, tp.uniform_loss(2.5),
                                tp.tabulated_belief(*TABULATED_G)),
                               "3dc571645a86bf65"),
    "tabulated-G, gamma > 1": ((1.5, 0.55, tp.tabulated_loss([0.0, 0.375, 0.5], [0.0, 0.14, 1.0]),
                                tp.tabulated_belief([0.0, 0.5, 0.6, 1.0], [0.0, 0.1, 0.9, 1.0])),
                               "ff10815604fa2d17"),
}


def test_benchmark_draws_pinned_bits(unit_loss):
    rng, got = random.Random(38), []
    for _ in PINNED_BENCHMARK_DRAWS:
        b = rng.uniform(1.5, 4.0)
        params = tp.validate_params(b, rng.uniform(b + 3.0, 40.0))
        sol = tp.solve_diverse_threshold(params, unit_loss, tp.uniform_belief())
        got.append(solve_digest(sol))
    assert got == PINNED_BENCHMARK_DRAWS
    for name, ((b, m, F, G), want) in PINNED_BELIEF_GAMES.items():
        sol = tp.solve_diverse_threshold(tp.validate_params(b, m), F, G)
        assert (sol.contraction_gamma > 1.0) == name.endswith("> 1") == sol.damped
        assert solve_digest(sol) == want, name


def assert_fixed_point(sol, params, F, G):
    s = sol.threshold
    assert np.max(np.abs(tp.apply_T(s, params, F, G).values - s.values)) <= 1e-9
    assert np.all(np.diff(s.values) > 0)


def solve_with_steps(params, F, G):
    """A solve and its steps, each as ((J, s_J), (I, s_I)): the cutoff it
    starts from and its image. The starts are the curves the solver passes
    to G's cdf, and J is the I that `_cutoff` built each at (0 for the
    constant start (b-1)/m). The image is rebuilt at I = the sum of G(s_J)
    times the solver's weights, as the solver sums it."""
    cutoff, built, starts = diverse_eq._cutoff, {}, []

    def recorded(big_i, shift, *args):
        out = cutoff(big_i, shift, *args)
        built[id(out)] = big_i, out
        return out

    def cdf(x):
        starts.append(x)
        return G.cdf(x)

    traced = tp.BeliefDistribution(cdf=cdf, pdf=G.pdf, ppf=G.ppf, knots=G.knots)
    with mock.patch.object(diverse_eq, "_cutoff", recorded):
        sol = tp.solve_diverse_threshold(params, F, traced)
    # one cdf call a step, and one more for coop_prob
    assert len(starts) == sol.iterations + 1
    knots, simpson = diverse_eq._simpson_grid(F.ell_bar, diverse_eq.DEFAULT_GRID_SIZE)
    w, shift = simpson * F.pdf(knots), knots - (params.b - 1.0)
    steps = []
    for vals in starts[:-1]:
        if id(vals) in built:
            cur_i = built[id(vals)][0]
        else:  # the constant start, the cutoff at I = 0
            assert not steps and vals.size == 1
            cur_i = 0.0
        big_i = float(np.add.reduce(np.asarray(G.cdf(vals)) * w))
        steps.append(((cur_i, vals), (big_i, cutoff(big_i, shift, params))))
    return sol, steps


class TestDampedBisection:
    def test_fixed_point_at_the_lower_end_of_the_bracket(self, unit_loss):
        # G puts mass 1e-15 below (b-1)/m = 0.5, so the cutoff at I = 0, the
        # constant 0.5, is a fixed point to rounding: the root solve ends at
        # its first evaluation, which is the last one its history records
        G = tp.tabulated_belief([0.0, 0.9, 1.0], [0.0, 1e-15, 1.0])
        params = tp.validate_params(2, 2)
        sol = tp.solve_diverse_threshold(params, unit_loss, G)
        assert sol.damped and sol.contraction_gamma >= 1.0
        assert sol.residual_history == (sol.residual,) and sol.residual <= 1e-15
        assert np.all(sol.threshold.values == 0.5)
        s = sol.threshold
        assert np.max(np.abs(tp.apply_T(s, params, unit_loss, G).values - s.values)) <= 1e-15

    def test_loss_mass_above_one_takes_the_cutoff_at_one(self):
        # F's density jumps at 0.5007, between two knots, so its Simpson mass
        # M is 1.00044. I is a probability: the cutoff at I = M is the one at
        # I = 1, whose numerator (b-1)(1 - I) at l = 0 is 0, and no value is
        # below 0
        F = tp.tabulated_loss([0.0, 0.5007, 1.0], [0.0, 0.2, 1.0])
        G = tp.tabulated_belief([0.0, 0.5, 0.6, 1.0], [0.0, 0.1, 0.9, 1.0])
        params = tp.validate_params(2, 2)
        knots, simpson = diverse_eq._simpson_grid(F.ell_bar, diverse_eq.DEFAULT_GRID_SIZE)
        big_m = float((simpson * F.pdf(knots)).sum())
        shift = knots - 1.0
        at_m = diverse_eq._cutoff(big_m, shift, params)
        assert big_m > 1.0
        assert at_m.tobytes() == diverse_eq._cutoff(1.0, shift, params).tobytes()
        assert at_m[0] == 0.0 and at_m.min() >= 0.0
        sol = tp.solve_diverse_threshold(params, F, G)
        assert sol.damped and sol.contraction_gamma >= 1.0
        assert_fixed_point(sol, params, F, G)

    def test_loss_mass_above_m_over_b_minus_one_cooperates_at_every_belief(self, unit_belief):
        # F's Simpson mass M = 1.00044 exceeds m/(b-1) = 1.00025, so at I = M
        # the cutoff's denominator m + (l-(b-1)) I would be negative at
        # l = 0. The cutoff takes I at most 1, where the numerator at l = 0,
        # (b-1)(1 - I), is 0: every belief cooperates, and the cutoff is 0
        F = tp.tabulated_loss([0.0, 0.5007, 1.0], [0.0, 0.2, 1.0])
        params = tp.validate_params(21.0, 20.005)
        knots, simpson = diverse_eq._simpson_grid(F.ell_bar, diverse_eq.DEFAULT_GRID_SIZE)
        big_m = float((simpson * F.pdf(knots)).sum())
        shift = knots - 20.0
        assert params.m + shift[0] * big_m < 0.0
        at_m = diverse_eq._cutoff(big_m, shift, params)
        assert at_m[0] == 0.0 and np.all((at_m >= 0.0) & (at_m < 1.0))
        sol = tp.solve_diverse_threshold(params, F, unit_belief)
        assert sol.damped
        assert_fixed_point(sol, params, F, unit_belief)

    @pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-8])
    def test_loss_mass_above_one_next_to_a_vanishing_denominator_solves(self, tol):
        # m - (b-1) is about 1e-11 and F's Simpson mass exceeds 1: where the
        # cutoff took I > 1, its value at l = 0 moved by about
        # (b-1)/(m - (b-1)) per unit of I, and the root on I reported a jump
        # of 1.5e-7 between two adjacent floats above 1, for a G without
        # atoms. With I at most 1 both steps build the cutoff at 1
        params = tp.validate_params(11.664361441486951, 10.664361441492975)
        F = tp.tabulated_loss([0.0, 0.44033198618309916, 0.7209397065187164],
                              [0.0, 0.2809321357353736, 1.0])
        G = tp.uniform_belief()
        sol = tp.solve_diverse_threshold(params, F, G, tol=tol)
        s = sol.threshold
        assert sol.iterations == 2 and sol.residual == 0.0
        assert np.max(np.abs(tp.apply_T(s, params, F, G).values - s.values)) == 0.0
        assert s.monotone

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
        # steps on these games, ITP 10, 10 and 9, with inverse-quadratic
        # steps 10, 10 and 7, and with the midpoint in place of the truncated
        # regula falsi point 9, 9 and 8
        params = tp.validate_params(b, m)
        sol = tp.solve_diverse_threshold(params, unit_loss, G, tol=tol)
        assert sol.damped and sol.contraction_gamma >= 1.0
        assert sol.iterations == len(sol.residual_history) <= 10
        assert sol.residual <= tol
        assert_fixed_point(sol, params, unit_loss, G)

    def test_collapsed_bracket_above_tol_raises(self, unit_loss):
        # no double reaches a residual of 1e-300: the bracket on I shrinks to
        # adjacent floats, and that is reported, not returned as converged.
        # Phi is continuous here, and the game has an equilibrium
        G = tp.tabulated_belief([0.0, 0.12021, 0.12031, 1.0], [0.0, 0.25, 0.75, 1.0])
        with pytest.raises(tp.ConvergenceError, match="collapsed") as info:
            tp.solve_diverse_threshold(tp.validate_params(2, 8), unit_loss, G, tol=1e-300)
        assert not isinstance(info.value, tp.NoThresholdEquilibrium)

    def test_atom_of_G_has_no_threshold_equilibrium(self):
        # G puts a third of its mass on one float spacing at 0.01: Phi jumps
        # over the diagonal between two adjacent floats, by 4.4e-4
        G = tp.tabulated_belief([0.0, 0.01, math.nextafter(0.01, 1.0), 1.0],
                                [0.0, 1 / 3, 2 / 3, 1.0])
        with pytest.raises(tp.NoThresholdEquilibrium,
                           match=r"jumps by 4\.44\de-04 between the adjacent floats I = 0\.57753"):
            tp.solve_diverse_threshold(tp.validate_params(2, 50), tp.uniform_loss(0.5), G)

    def test_spike_positions_all_converge(self, unit_loss):
        # spikes across the range of the (2, 8) cutoff curve, most of them
        # missed by a 2001-point sample of g
        params = tp.validate_params(2, 8)
        for lo in np.linspace(0.105, 0.126, 43):
            G = steep_belief(lo, 1e-4, 0.96)
            assert_fixed_point(tp.solve_diverse_threshold(params, unit_loss, G),
                               params, unit_loss, G)


@st.composite
def steep_beliefs(draw):
    width = draw(st.floats(1e-4, 1e-2))
    lo = draw(st.floats(0.01, 0.99 - width))
    return steep_belief(lo, width, draw(st.floats(0.5, 0.999)))


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
    return draw(steep_beliefs())


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
    try:
        sol = tp.solve_diverse_threshold(params, F, G, tol=tol)
    except tp.NoThresholdEquilibrium:
        # only an atom of G lets Phi jump over the diagonal between two
        # adjacent floats: two cuts of a tabulated G within 1e-6, where its
        # density exceeds 1e4
        assert np.diff(G.knots).min() <= 1e-6
        return
    s = sol.threshold
    assert np.max(np.abs(tp.apply_T(s, params, F, G).values - s.values)) <= tol
    assert np.all(np.diff(s.values) > 0)
    assert sol.iterations == len(sol.residual_history)
    defect_mass = composite_simpson(np.asarray(G.cdf(s.values)) * np.asarray(F.pdf(s.knots)),
                                    s.knots)
    assert abs(sol.coop_prob + defect_mass - 1.0) <= 1e-12


def cutoff_rounding(big_i, shift, params):
    """A bound on the rounding of each cutoff value ((b-1) + x I)/(m + x I),
    I taken at most 1 as `_cutoff` takes it, from its terms: x I, the
    numerator and the denominator each round once, and so does the quotient.
    eps is twice the unit roundoff, a margin for the second-order terms."""
    xi = shift * min(big_i, 1.0)
    eps = np.finfo(float).eps
    return eps * (2.0 * np.abs(xi) + 3.0 * np.abs((params.b - 1.0) + xi)) / (params.m + xi)


@st.composite
def loss_tables(draw, ell_bar):
    """A tabulated loss cdf on [0, ell_bar] with 1 to 3 interior knots at
    least a fiftieth of the support apart."""
    gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=4)))
    masses = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=gaps.size,
                                    max_size=gaps.size)))
    knots = np.cumsum([0.0, *gaps]) / gaps.sum() * ell_bar
    knots[-1] = ell_bar
    return tp.tabulated_loss(knots, np.cumsum([0.0, *masses]) / masses.sum())


@given(log_b1=st.floats(-2.0, math.log10(20.0)), log_a=st.floats(-2.0, 4.0),
       side=st.sampled_from(["below b-1", "between", "above m+(b-1)"]),
       frac=st.floats(0.05, 0.95), tabulated_F=st.booleans(),
       G=st.one_of(st.just(tp.uniform_belief()), steep_beliefs()), data=st.data())
@settings(max_examples=150, deadline=None)
def test_end_knot_residual_matches_the_all_knot_max(log_b1, log_a, side, frac, tabulated_F, G,
                                                    data):
    # a loss support below b - 1, between b - 1 and m + (b-1), and past it,
    # where the gap between two cutoffs may peak inside the knots; a uniform
    # or a steep G, so that gamma falls on both sides of 1, and a
    # tabulated F whose Simpson mass may exceed 1, so that a step's sum I
    # may too. Each recorded residual is at most the all-knot max
    # between the step's two cutoffs and below it by no more than their
    # rounding at an end knot and at the max's knot
    b = 1.0 + 10.0**log_b1
    params = tp.validate_params(b, b - 1.0 + 10.0**log_a)
    b1 = params.b - 1.0
    ell_bar = {"below b-1": frac * b1, "between": b1 + frac * params.m,
               "above m+(b-1)": (params.m + b1) / frac}[side]
    F = data.draw(loss_tables(ell_bar)) if tabulated_F else tp.uniform_loss(ell_bar)
    sol, steps = solve_with_steps(params, F, G)
    eps = np.finfo(float).eps
    knots, simpson = diverse_eq._simpson_grid(F.ell_bar, diverse_eq.DEFAULT_GRID_SIZE)
    shift = knots - b1
    for ((cur_i, vals), (big_i, out)), got in zip(steps, sol.residual_history, strict=True):
        full = float(np.abs(out - vals).max())
        bound = 2.0 * (cutoff_rounding(big_i, shift, params)
                       + cutoff_rounding(cur_i, shift, params)).max()
        assert got <= full <= got + bound + eps * full
    if sol.damped:
        # the root on I may stop at its first evaluation, I = 0, a constant
        # curve within tol of a fixed point whose slope is near rounding
        # (b - 1 = 0.01, m = 1000, ell_bar = 0.005, a steep G), so the curve
        # is checked nondecreasing where assert_fixed_point asks for increasing
        s = sol.threshold
        assert np.max(np.abs(tp.apply_T(s, params, F, G).values - s.values)) <= 1e-9
        assert s.monotone
        return

    # an undamped solve replayed with the all-knot max as the residual keeps
    # its steps, its curve's bits and coop_prob's bits
    w = simpson * F.pdf(knots)
    vals, history = params.pi_low, []
    while not history or history[-1] > 1e-10:
        assert len(history) < 2 or history[-1] < 0.9 * history[-2]
        out = diverse_eq._cutoff(float(np.add.reduce(G.cdf(vals) * w)), shift, params)
        history.append(float(np.abs(out - vals).max()))
        vals = out
    assert sol.iterations == len(history)
    assert sol.threshold.values.tobytes() == vals.tobytes()
    assert sol.coop_prob == float(np.add.reduce((1.0 - np.asarray(G.cdf(vals))) * w))


@given(log_b1=st.floats(-3.0, 3.0), log_a=st.floats(-13.0, 14.0),
       log_ell=st.floats(-3.0, 16.0), frac_i=st.floats(0.0, 1.0),
       n_knots=st.sampled_from([3, 5, 101]))
@example(log_b1=0.0, log_a=-12.0, log_ell=0.5, frac_i=0.75, n_knots=5)
@settings(max_examples=300, deadline=None)
def test_cutoff_takes_I_at_most_one(log_b1, log_a, log_ell, frac_i, n_knots):
    # I over [0, 2m/(b-1)], past m/(b-1), where m + (l-(b-1)) I changes sign
    # at l = 0; a loss support from far below b - 1 to far past m + (b-1).
    # Every value lies in [0, 1], every denominator is at least m - (b-1),
    # and every I >= 1 gives the cutoff at 1, bit for bit
    b = 1.0 + 10.0**log_b1
    m = (b - 1.0) + 10.0**log_a
    assume(m > b - 1.0)
    params = tp.validate_params(b, m)
    b1 = params.b - 1.0
    big_i = frac_i * 2.0 * params.m / b1
    knots, _ = diverse_eq._simpson_grid(10.0**log_ell, n_knots)
    shift = knots - b1
    den = np.empty(n_knots)
    out = diverse_eq._cutoff(big_i, shift, params, den=den)
    assert np.all((out >= 0.0) & (out <= 1.0))
    assert np.all(den >= params.m - b1) and np.all(den > 0.0)
    if big_i >= 1.0:
        assert out.tobytes() == diverse_eq._cutoff(1.0, shift, params).tobytes()


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


@pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-8])
def test_curve_that_dips_by_rounding_is_lifted(tol):
    # m - (b-1) is about 1e-13, so from knot 670 to ell_bar the cutoff is
    # within 1e-13 of 1, and the converged values dip by 2^-52 at 33 to 38
    # knots there. The cutoff increases in l, so the curve is lifted to its
    # running max, not refused, and the residual reported is the lifted
    # curve's all-knot max|T(s) - s| with the solver's weights
    params = tp.validate_params(1.82942081724959, 0.8294208172497276)
    F, G = tp.uniform_loss(2.2715243992822787), tp.uniform_belief()
    sol = tp.solve_diverse_threshold(params, F, G, tol=tol)
    s = sol.threshold
    assert s.monotone and sol.residual <= tol
    assert np.max(np.abs(tp.apply_T(s, params, F, G).values - s.values)) <= tol
    knots, simpson = diverse_eq._simpson_grid(F.ell_bar, diverse_eq.DEFAULT_GRID_SIZE)
    big_i = float(np.add.reduce(np.asarray(G.cdf(s.values)) * (simpson * F.pdf(knots))))
    image = diverse_eq._cutoff(big_i, knots - (params.b - 1.0), params)
    assert sol.residual == float(np.abs(image - s.values).max())


def test_nan_residual_counts_as_unmet():
    """A belief cdf that returns NaN makes every residual NaN, which compares
    above no tol: max_iter must still end the solve, with ConvergenceError.
    The solve runs in a child process with a timeout, so that a loop that
    never ends fails the test instead of hanging the suite."""
    src = Path(tp.__file__).resolve().parents[1]
    code = (
        "import numpy as np, trustpd as tp\n"
        "G = tp.BeliefDistribution(cdf=lambda x: np.full(np.shape(x), np.nan),\n"
        "                          pdf=lambda x: np.ones(np.shape(x)), ppf=lambda u: u)\n"
        "try:\n"
        "    tp.solve_diverse_threshold(tp.validate_params(2, 8), tp.uniform_loss(1.0), G,\n"
        "                               max_iter=50)\n"
        "except tp.ConvergenceError as exc:\n"
        "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "no fixed point after 50 iterations (last residual nan)"


@pytest.mark.parametrize("b, m, ell_bar", [(2.0, 1e200, 1.0), (2.0, 8.0, 1e160),
                                           (2.0, 1e300, 1e160)])
def test_squares_that_overflow(b, m, ell_bar):
    """m^2 or x_N^2, x_N = ell_bar - (b-1), past the float maximum, where the
    float power raises OverflowError: the solve reaches tol, and its curve
    is a fixed point of `apply_T`. gamma is (1+m-b)/m^2 divided by m twice
    where m^2 overflows, 1e-200 and 1e-300 and not 0, and the cutoff is then
    (b-1)/m at every knot, to rounding."""
    params, F, G = tp.validate_params(b, m), tp.uniform_loss(ell_bar), tp.uniform_belief()
    sol = tp.solve_diverse_threshold(params, F, G)
    s = sol.threshold
    assert sol.residual <= 1e-10
    assert np.max(np.abs(tp.apply_T(s, params, F, G).values - s.values)) <= 1e-10
    assert sol.contraction_gamma == pytest.approx((1.0 + m - b) / m / m, rel=1e-15)
    if m > 1e154:
        assert np.allclose(s.values, (b - 1.0) / m, rtol=1e-12, atol=0.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 3 and 4: the discrete map on I cannot "
                                       "reach tol, and the solver names the game as having no "
                                       "threshold equilibrium")
def test_tabulated_F_game_with_a_group_fixed_point_solves():
    """At (4.245527995564236, 3.245527995569218), tabulated F with knots
    [0, 0.6958320947429358, 1] and cdf [0, 0.6251002868195458, 1] and uniform
    G, the n = 1 `consistent` group solver finds q = 3.85e-11 with
    |Phi(q) - q| = 9.1e-16, so the game has an equilibrium. The dispersed
    solver raises NoThresholdEquilibrium: its Phi(I) jumps by 9.1e-10 between
    two adjacent floats next to I = 1."""
    from trustpd.extensions import _group_fixed_point, _q_update

    params = tp.validate_params(4.245527995564236, 3.245527995569218)
    F = tp.tabulated_loss([0.0, 0.6958320947429358, 1.0], [0.0, 0.6251002868195458, 1.0])
    G = tp.uniform_belief()
    q = _group_fixed_point(1, params, "consistent", F, G)
    assert abs(_q_update(1, q, params, "consistent", F, G) - q) <= 1e-15
    try:
        tp.solve_diverse_threshold(params, F, G)
    except tp.NoThresholdEquilibrium as exc:
        pytest.fail(f"NoThresholdEquilibrium raised for a game with an equilibrium: {exc}")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the absolute stop rule accepts a flat "
                                       "curve 5e-6 relative off the fixed point")
def test_flat_curve_meets_a_tol_relative_to_its_values():
    """At (1.01, 1000.01), uniform F on [0, 0.005] and G with half its mass on
    [0.49995, 0.49995 + 1e-4], the cutoff is about 1e-5 at every knot. The
    solver stops after one image, at a residual of 5.0e-11 under the absolute
    tol of 1e-10, 5e-6 relative to the curve: a stop rule never looser than
    the absolute one, tol * min(1, max s), would not."""
    params, F = tp.validate_params(1.01, 1000.01), tp.uniform_loss(0.005)
    G = tp.tabulated_belief([0.0, 0.49995, 0.49995 + 1e-4, 1.0], [0.0, 0.25, 0.75, 1.0])
    tol = 1e-10
    s = tp.solve_diverse_threshold(params, F, G, tol=tol).threshold
    gap = np.max(np.abs(tp.apply_T(s, params, F, G).values - s.values))
    assert gap <= tol * min(1.0, float(s.values.max()))


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


def uncached_density_sup(G):
    """The sup of G's density on a 2001-point grid and the midpoints of its
    knots' segments, with the probes built afresh."""
    knots = G.knots
    mids = [0.5 * (lo + hi) for lo, hi in zip(knots, knots[1:])]
    return float(np.asarray(G.pdf(np.concatenate((np.linspace(0.0, 1.0, 2001), mids)))).max())


def test_density_probes_are_built_once_per_belief_knots(p28, unit_loss):
    # a 1-ulp segment at 0.01 holds a third of G's mass: no grid point falls
    # inside it, and its midpoint rounds to one of its ends
    one_ulp = tp.tabulated_belief([0.0, 0.01, math.nextafter(0.01, 1.0), 1.0],
                                  [0.0, 1 / 3, 2 / 3, 1.0])
    beliefs = [tp.uniform_belief(), steep_belief(0.12021, 1e-4, 0.5), one_ulp]
    diverse_eq._density_probes.cache_clear()
    for G in beliefs:
        assert diverse_eq._density_sup(G) == uncached_density_sup(G)
    assert uncached_density_sup(one_ulp) > 1e16
    assert diverse_eq._density_probes.cache_info().misses == 3
    # every solve draws a fresh G, as perfbench's dispersed_group does; equal
    # knots tuples share one read-only probe array
    for G in [tp.uniform_belief(), tp.uniform_belief(), steep_belief(0.12021, 1e-4, 0.5)]:
        tp.solve_diverse_threshold(p28, unit_loss, G)
    assert diverse_eq._density_probes.cache_info().misses == 3
    probes = diverse_eq._density_probes(tp.uniform_belief().knots)
    assert not probes.flags.writeable and probes.size == 2002


@pytest.mark.parametrize("name, value", [
    ("n_knots", 1001.0), ("n_knots", True), ("n_knots", math.nan),
    ("max_iter", None), ("max_iter", math.nan), ("max_iter", True), ("max_iter", 2.5),
])
def test_counts_that_are_no_integers_rejected(name, value, p28, unit_loss, unit_belief):
    # a count is an integer: a float, even an integral one, NaN and None are
    # none, and a bool is an int but no count
    with pytest.raises(tp.ParameterError, match=f"{name} must be an integer >= "):
        tp.solve_diverse_threshold(p28, unit_loss, unit_belief, **{name: value})


def test_numpy_integer_counts_solve_as_their_ints(p28, unit_loss, unit_belief):
    want = tp.solve_diverse_threshold(p28, unit_loss, unit_belief, max_iter=50, n_knots=501)
    got = tp.solve_diverse_threshold(p28, unit_loss, unit_belief, max_iter=np.int64(50),
                                     n_knots=np.int32(501))
    assert solve_digest(got) == solve_digest(want)


def test_solver_curves_share_the_grid_and_check_knots_and_values(p28, unit_loss, unit_belief):
    diverse_eq._simpson_grid.cache_clear()
    first = tp.solve_diverse_threshold(p28, unit_loss, unit_belief).threshold
    second = tp.solve_diverse_threshold(p28, unit_loss, unit_belief).threshold
    assert second.knots is first.knots
    with pytest.raises(tp.ParameterError, match="codomain"):
        tp.ThresholdCurve(first.knots, np.full(first.knots.size, np.nan))
    assert first.monotone and not tp.ThresholdCurve(first.knots, first.values[::-1]).monotone
    knots = first.knots.copy()
    knots[5] = knots[4]
    with pytest.raises(tp.ParameterError, match="strictly increasing"):
        tp.ThresholdCurve(knots, first.values)


def reference_curve_checks(knots, values, codomain):
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
    vmin, vmax = float(vmin), float(vmax)
    pad = 1e-12 * max(1.0, -vmin, vmax)
    return (vmin - pad).hex(), (vmax + pad).hex()


_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.25, 0.5, 1.0])
_entries = st.one_of(_SPECIAL, st.floats(0.0, 1.0), st.floats(-0.5, 1.5), st.floats())


@st.composite
def curve_inputs(draw):
    """(knots, values, codomain): mostly a valid grid and values
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
    return knots, np.array(values, dtype=float), codomain


@given(curve_inputs())
# signed zeros at the ends of a nondecreasing curve: numpy's min and max of
# [0.0, -0.0] are -0.0, -0.0
@example((np.array([0.0, 1.0]), np.array([0.0, -0.0]), (1.0, 2.0)))
@example((np.array([0.0, 1.0]), np.array([0.0, -0.0]), (0.0, 1.0)))
# a value near the float maximum: the ceiling overflows to inf, without a warning
@example((np.array([0.0, 1.0]), np.array([0.0, 1.7976931348623157e308]), (-np.inf, np.inf)))
@settings(max_examples=600, deadline=None)
def test_curve_checks_match_the_reference(inputs):
    knots, values, codomain = inputs
    # infinite values make inf - inf in the pad: a NaN floor on both sides
    expected = reference_curve_checks(knots.copy(), values.copy(), codomain)
    rising = bool((values[1:] >= values[:-1]).all())
    try:
        curve = tp.ThresholdCurve(knots, values, codomain)
    except tp.ParameterError as exc:
        assert str(exc) == expected
    else:
        assert tuple(float(v).hex() for v in curve._floor_ceiling) == expected
        assert curve.monotone == rising


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
        want = reference.alpha_beta(params.b, params.m)[1]
        assert abs(Decimal(beta) - want) <= Decimal(1e-13) * want

    @pytest.mark.parametrize("b, m", [(1.0 + 1e-13, 1.0), (1.5, 1e12), (2.0, 1e13)])
    def test_exact_beta_below_1e_12(self, b, m):
        # beta is about (b-1)/m; the bracket used to start at 1e-12
        params = tp.validate_params(b, m)
        beta = tp.solve_alpha_beta(params, "exact").beta
        want = reference.alpha_beta(params.b, params.m)[1]
        assert abs(Decimal(beta) - want) <= Decimal(1e-13) * want

    @pytest.mark.parametrize("b1, a", [(6.6e-5, 4e-12), (2.0, 1e-12), (1.0, 1e-9)])
    def test_exact_coefficients_at_small_a(self, b1, a):
        # a = m - (b-1) small: beta -> 1 and alpha = m - (b-1) beta cancels,
        # so the solve runs in c = 1 - beta; it raised ConvergenceError here
        params = tp.validate_params(1.0 + b1, b1 + a)
        ab = tp.solve_alpha_beta(params, "exact")
        alpha, beta = reference.alpha_beta(params.b, params.m)
        assert abs(Decimal(ab.alpha) - alpha) <= Decimal(1e-14) * alpha
        assert abs(Decimal(ab.beta) - beta) <= Decimal(2.0**-52)


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
