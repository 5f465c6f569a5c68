import numpy as np
import pytest

import trustpd as tp


class TestSimConfig:
    def test_rejects_bad_scenario(self):
        with pytest.raises(tp.ParameterError):
            tp.SimConfig(n_samples=10, seed=1, scenario="unknown")

    def test_common_needs_pi(self):
        with pytest.raises(tp.ParameterError):
            tp.SimConfig(n_samples=10, seed=1, scenario="common")

    def test_asymmetric_needs_both_beliefs(self):
        with pytest.raises(tp.ParameterError):
            tp.SimConfig(n_samples=10, seed=1, scenario="asymmetric", pi1=0.1)


class TestSimulate:
    def test_reproducible_bit_identical(self, fig_params, fig_dist):
        cfg = tp.SimConfig(n_samples=20_000, seed=123, scenario="common", pi=0.03)
        a = tp.simulate(cfg, fig_params, fig_dist)
        b = tp.simulate(cfg, fig_params, fig_dist)
        assert a == b

    def test_different_seeds_differ(self, fig_params, fig_dist):
        base = dict(n_samples=20_000, scenario="common", pi=0.03)
        a = tp.simulate(tp.SimConfig(seed=1, **base), fig_params, fig_dist)
        b = tp.simulate(tp.SimConfig(seed=2, **base), fig_params, fig_dist)
        assert a.coop_rate_strategic != b.coop_rate_strategic

    def test_common_rate_matches_threshold_mass(self, fig_params, fig_dist):
        cfg = tp.SimConfig(n_samples=200_000, seed=7, scenario="common", pi=0.03)
        rep = tp.simulate(cfg, fig_params, fig_dist)
        assert rep.analytic_prediction == pytest.approx(1.3773336697666752 / 8, abs=1e-8)
        assert abs(rep.coop_rate_strategic - rep.analytic_prediction) <= 3 * rep.half_width_95

    def test_zero_belief_never_cooperates(self, fig_params, fig_dist):
        cfg = tp.SimConfig(n_samples=50_000, seed=11, scenario="common", pi=0.0)
        rep = tp.simulate(cfg, fig_params, fig_dist)
        assert rep.coop_rate_strategic == 0.0

    def test_diverse_rate_matches_curve_mass(self, p28, unit_loss, unit_belief, diverse_28):
        cfg = tp.SimConfig(n_samples=200_000, seed=5, scenario="diverse",
                           strategy=diverse_28.threshold)
        rep = tp.simulate(cfg, p28, unit_loss, unit_belief)
        assert rep.analytic_prediction == pytest.approx(diverse_28.coop_prob, abs=1e-12)
        assert abs(rep.coop_rate_strategic - rep.analytic_prediction) <= 3 * rep.half_width_95

    def test_asymmetric_rate_matches_weighted_mass(self, fig_params, fig_dist):
        cfg = tp.SimConfig(n_samples=200_000, seed=9, scenario="asymmetric",
                           pi1=0.03, pi2=0.08)
        rep = tp.simulate(cfg, fig_params, fig_dist)
        sol = tp.solve_asymmetric(0.03, 0.08, fig_params, fig_dist)
        w1, w2 = 1 - 0.08, 1 - 0.03
        expected = (w1 * float(fig_dist.cdf(sol.ell1_hat))
                    + w2 * float(fig_dist.cdf(sol.ell2_hat))) / (w1 + w2)
        assert rep.analytic_prediction == pytest.approx(expected, abs=1e-9)
        assert abs(rep.coop_rate_strategic - expected) <= 3 * rep.half_width_95

    def test_half_width_formula(self, fig_params, fig_dist):
        cfg = tp.SimConfig(n_samples=50_000, seed=3, scenario="common", pi=0.05)
        rep = tp.simulate(cfg, fig_params, fig_dist)
        p = rep.coop_rate_strategic
        assert rep.half_width_95 == pytest.approx(
            1.96 * np.sqrt(p * (1 - p) / rep.n_strategic), abs=1e-15
        )

    def test_half_width_scales_like_inverse_sqrt_n(self, fig_params, fig_dist):
        halves = []
        for n in (10_000, 100_000, 1_000_000):
            cfg = tp.SimConfig(n_samples=n, seed=31, scenario="common", pi=0.03)
            halves.append(tp.simulate(cfg, fig_params, fig_dist).half_width_95)
        for h_small, h_large in zip(halves, halves[1:]):
            assert h_small / h_large == pytest.approx(np.sqrt(10), rel=0.2)

    def test_payoff_cells(self, p28, unit_loss):
        # interior-threshold belief so every outcome cell is populated
        cfg = tp.SimConfig(n_samples=100_000, seed=17, scenario="common", pi=0.05)
        rep = tp.simulate(cfg, p28, unit_loss)
        assert rep.payoff_means["CC"] == pytest.approx(1.0)
        assert rep.payoff_means["DD"] == pytest.approx(0.0)
        assert rep.payoff_means["CD"] < 0  # cooperating against a defector costs
        # defecting on a cooperator mixes b with b - m on honest partners
        assert p28.b - p28.m < rep.payoff_means["DC"] < p28.b


class TestDeviationCheck:
    def test_equilibrium_has_no_profitable_deviation(self, fig_params, fig_dist):
        for pi in (0.02, 0.05, 0.08):
            cfg = tp.SimConfig(n_samples=1, seed=0, scenario="common", pi=pi)
            gain = tp.deviation_check(cfg, None, fig_params, fig_dist)
            assert gain <= 1e-6

    def test_perturbed_threshold_is_exploitable(self, fig_params, fig_dist):
        eqs = tp.solve_common_equilibria(0.03, fig_params, fig_dist)
        cfg = tp.SimConfig(n_samples=1, seed=0, scenario="common", pi=0.03)
        gain = tp.deviation_check(cfg, eqs.lowest + 0.5, fig_params, fig_dist)
        assert gain > 1e-3

    def test_diverse_equilibrium_clean(self, p28, unit_loss, unit_belief, diverse_28):
        cfg = tp.SimConfig(n_samples=1, seed=0, scenario="diverse")
        gain = tp.deviation_check(cfg, diverse_28.threshold, p28, unit_loss, unit_belief)
        assert gain <= 1e-6

    def test_diverse_perturbed_curve_exploitable(self, p28, unit_loss, unit_belief, diverse_28):
        s = diverse_28.threshold
        shifted = tp.ThresholdCurve(s.knots, np.clip(s.values + 0.1, 0, 1), monotone=True)
        cfg = tp.SimConfig(n_samples=1, seed=0, scenario="diverse")
        gain = tp.deviation_check(cfg, shifted, p28, unit_loss, unit_belief)
        assert gain > 1e-3

    def test_certain_honest_partner_row(self, fig_params):
        # at pi = 1 cooperation dominates whatever the strategy prescribes
        gain_from_defect = (tp.payoff_defect(1.0, 0.5, fig_params)
                            - tp.payoff_cooperate(3.0, 1.0, 0.5, fig_params))
        assert gain_from_defect == pytest.approx(fig_params.b - fig_params.m - 1)
        assert gain_from_defect < 0

    def test_asymmetric_equilibrium_clean(self, fig_params, fig_dist):
        cfg = tp.SimConfig(n_samples=1, seed=0, scenario="asymmetric", pi1=0.03, pi2=0.08)
        gain = tp.deviation_check(cfg, None, fig_params, fig_dist)
        assert gain <= 1e-6


def deviation_gain_reference(config, strategy, params, F, G=None, grid=200):
    """Point-by-point loops over losses (and beliefs): the definition of the
    maximum deviation gain that deviation_check evaluates on arrays."""

    def one_sided(pi, p, threshold, losses):
        worst = 0.0
        for ell in losses:
            uc = tp.payoff_cooperate(float(ell), pi, p)
            ud = tp.payoff_defect(pi, p, params)
            gain = (ud - uc) if ell <= threshold else (uc - ud)
            worst = max(worst, gain)
        return worst

    losses = np.linspace(0.0, F.ell_bar, grid)
    if config.scenario == "common":
        return one_sided(config.pi, float(F.cdf(strategy)), strategy, losses)
    if config.scenario == "asymmetric":
        t1, t2 = strategy
        return max(one_sided(config.pi1, float(F.cdf(t2)), t1, losses),
                   one_sided(config.pi2, float(F.cdf(t1)), t2, losses))
    p = tp.cooperation_prob_given_strategy(strategy, F, G)
    worst = 0.0
    for ell in losses:
        cutoff = float(strategy(float(ell)))
        for pi in np.linspace(0.0, 1.0 - 1e-9, grid):
            uc = tp.payoff_cooperate(float(ell), float(pi), p)
            ud = tp.payoff_defect(float(pi), p, params)
            gain = (ud - uc) if pi >= cutoff else (uc - ud)
            worst = max(worst, gain)
    return worst


class TestDeviationCheckMatchesLoops:
    @pytest.mark.parametrize("pi, shift", [(0.02, 0.0), (0.05, 0.0), (0.03, 0.5)])
    def test_common(self, pi, shift, fig_params, fig_dist):
        cfg = tp.SimConfig(n_samples=1, seed=0, scenario="common", pi=pi)
        thr = tp.solve_common_equilibria(pi, fig_params, fig_dist).lowest + shift
        assert tp.deviation_check(cfg, thr, fig_params, fig_dist) == deviation_gain_reference(
            cfg, thr, fig_params, fig_dist
        )

    @pytest.mark.parametrize("shift", [0.0, 0.3])
    def test_asymmetric(self, shift, fig_params, fig_dist):
        cfg = tp.SimConfig(n_samples=1, seed=0, scenario="asymmetric", pi1=0.03, pi2=0.08)
        sol = tp.solve_asymmetric(0.03, 0.08, fig_params, fig_dist)
        pair = (sol.ell1_hat + shift, sol.ell2_hat)
        assert tp.deviation_check(cfg, pair, fig_params, fig_dist) == deviation_gain_reference(
            cfg, pair, fig_params, fig_dist
        )

    @pytest.mark.parametrize("shift", [0.0, 0.1])
    def test_diverse(self, shift, p28, unit_loss, unit_belief, diverse_28):
        s = diverse_28.threshold
        curve = tp.ThresholdCurve(s.knots, np.clip(s.values + shift, 0, 1), monotone=True)
        cfg = tp.SimConfig(n_samples=1, seed=0, scenario="diverse")
        got = tp.deviation_check(cfg, curve, p28, unit_loss, unit_belief)
        assert got == deviation_gain_reference(cfg, curve, p28, unit_loss, unit_belief)
