import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

import trustpd as tp
from trustpd import montecarlo


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

    @pytest.mark.parametrize("config", [
        dict(scenario="common", pi=0.03, equilibrium="highestt", strategy=0.5),
        dict(scenario="diverse", equilibrium=None),
    ])
    def test_rejects_an_unknown_equilibrium_selector(self, config):
        # refused in every scenario, also where a given strategy or the
        # scenario leaves the selector unused
        with pytest.raises(tp.ParameterError, match="equilibrium"):
            tp.SimConfig(n_samples=10, seed=1, **config)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.0, "3", None, True])
    def test_rejects_a_seed_philox_cannot_key(self, seed):
        with pytest.raises(tp.ParameterError, match="seed"):
            tp.SimConfig(n_samples=10, seed=seed, scenario="common", pi=0.1)

    @pytest.mark.parametrize("seed", [0, 2 ** 128 - 1, np.uint64(2 ** 63)])
    def test_accepts_every_philox_key(self, seed):
        tp.SimConfig(n_samples=10, seed=seed, scenario="common", pi=0.1)

    @pytest.mark.parametrize("n_samples", [2.5, True, 1e3])
    def test_rejects_a_sample_count_that_is_no_integer(self, n_samples):
        with pytest.raises(tp.ParameterError, match="n_samples"):
            tp.SimConfig(n_samples=n_samples, seed=1, scenario="common", pi=0.1)

    def test_numpy_integers_are_stored_as_int_and_the_report_is_json(self, fig_params,
                                                                      fig_dist):
        cfg = tp.SimConfig(n_samples=np.uint8(200), seed=np.int64(4), scenario="common",
                           pi=0.05)
        assert type(cfg.n_samples) is int and type(cfg.seed) is int
        report = tp.simulate(cfg, fig_params, fig_dist).to_dict()
        assert json.loads(json.dumps(report)) == report

    def test_a_numpy_integer_sample_count_plays_as_its_int(self, fig_params, fig_dist):
        # 5 * 200 wraps in uint8, so the stream offsets must be taken as int
        base = dict(seed=1, scenario="common", pi=0.05)
        got = tp.simulate(tp.SimConfig(n_samples=np.uint8(200), **base), fig_params, fig_dist)
        want = tp.simulate(tp.SimConfig(n_samples=200, **base), fig_params, fig_dist)
        assert got == want


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

    def test_common_strategy_given(self, fig_params, fig_dist):
        # a given threshold replaces the equilibrium: the prediction is its
        # mass F(t), and t = 4 at pi = 0.03, where the equilibrium is 1.377,
        # leaves a profitable deviation
        cfg = tp.SimConfig(n_samples=20_000, seed=7, scenario="common", pi=0.03, strategy=4.0)
        rep = tp.simulate(cfg, fig_params, fig_dist)
        assert rep.analytic_prediction == float(fig_dist.cdf(4.0)) == 0.5
        assert abs(rep.coop_rate_strategic - 0.5) <= 3 * rep.half_width_95
        assert rep.max_deviation_gain > 1e-3

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
        shifted = tp.ThresholdCurve(s.knots, np.clip(s.values + 0.1, 0, 1))
        cfg = tp.SimConfig(n_samples=1, seed=0, scenario="diverse")
        gain = tp.deviation_check(cfg, shifted, p28, unit_loss, unit_belief)
        assert gain > 1e-3

    def test_certain_honest_partner_row(self, fig_params):
        # at pi = 1 cooperation dominates whatever the strategy prescribes
        gain_from_defect = (tp.payoff_defect(1.0, 0.5, fig_params)
                            - tp.payoff_cooperate(3.0, 1.0, 0.5))
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
        curve = tp.ThresholdCurve(s.knots, np.clip(s.values + shift, 0, 1))
        cfg = tp.SimConfig(n_samples=1, seed=0, scenario="diverse")
        got = tp.deviation_check(cfg, curve, p28, unit_loss, unit_belief)
        assert got == deviation_gain_reference(cfg, curve, p28, unit_loss, unit_belief)


# SimReport.to_dict() with every float as float.hex, recorded with one serial
# pass over the draws: the 50 000-match cases before simulate tallied the two
# halves of the draws separately, the case@n ones before each player's half
# ran on its own thread; analytic_prediction of the common and asymmetric
# cases re-recorded when root refinement became ITP, of the common cases when
# the shared solver took its brackets from the shape of phi, of
# diverse-tabulated when the cutoff lost its cancellation, and of the
# asymmetric cases (0x1.57b055c12472dp-2 -> 0x1.57b055c1247b3p-2) when beliefs
# on opposite sides of (b-1)/m became one bisect_root on [0, ell_bar], and of
# the common (0x1.67dfaba28642ep-2 -> 0x1.67dfaba2857e0p-2) and asymmetric
# (-> 0x1.57b055c1247c2p-2) cases when root refinement took inverse-quadratic
# steps, and of the common cases (-> 0x1.67dfaba2857e1p-2) when the shared
# solver started each root from its uniform-loss model; the CD mean of the
# diverse case (-0x1.f6fadc69d83dfp-2 -> ...e1p-2) re-recorded when each
# block kept one sum of its CD losses in place of the losses, and the
# asymmetric prediction (back to 0x1.57b055c1247b3p-2) when root refinement
# took the midpoint in place of the truncated regula falsi point; the CD
# mean of asymmetric@50001 (-0x1.08a6156b979ebp+1 -> ...ecp+1, 1 ulp) when
# BLOCK was halved, so that each thread's 25000 matches take two blocks
PINNED_SIM = {
    "common": {
        "scenario": "common", "seed": 17, "n_samples": 50000, "n_strategic": 94899,
        "coop_rate_strategic": "0x1.67e7554623f2cp-2",
        "half_width_95": "0x1.8e25bc978cb45p-9",
        "analytic_prediction": "0x1.67dfaba2857e1p-2",
        "max_deviation_gain": "0x0.0p+0",
        "payoff_means": {"CC": "0x1.0000000000000p+0", "CD": "-0x1.687056f3d36b1p+0",
                         "DC": "-0x1.c192472a236b8p+1", "DD": "0x0.0p+0"},
    },
    "diverse": {
        "scenario": "diverse", "seed": 5, "n_samples": 50000, "n_strategic": 49915,
        "coop_rate_strategic": "0x1.c3e974434f2ebp-1",
        "half_width_95": "0x1.7215c51d79ca4p-9",
        "analytic_prediction": "0x1.c35993c92cf98p-1",
        "max_deviation_gain": "0x0.0p+0",
        "payoff_means": {"CC": "0x1.0000000000000p+0", "CD": "-0x1.f6fadc69d83e1p-2",
                         "DC": "0x1.74dcc6d4a81b3p+0", "DD": "0x0.0p+0"},
    },
    "asymmetric": {
        "scenario": "asymmetric", "seed": 9, "n_samples": 50000, "n_strategic": 94597,
        "coop_rate_strategic": "0x1.5789ba3d38547p-2",
        "half_width_95": "0x1.8a61b329a21d3p-9",
        "analytic_prediction": "0x1.57b055c1247b3p-2",
        "max_deviation_gain": "0x0.0p+0",
        "payoff_means": {"CC": "0x1.0000000000000p+0", "CD": "-0x1.0863c3e37b264p+1",
                         "DC": "-0x1.21d87861bd4cap+1", "DD": "0x0.0p+0"},
    },
    "diverse-tabulated": {
        "scenario": "diverse", "seed": 21, "n_samples": 50000, "n_strategic": 49733,
        "coop_rate_strategic": "0x1.d7c70c56a9c10p-1",
        "half_width_95": "0x1.35f0780aca5b5p-9",
        "analytic_prediction": "0x1.d6d80c963bf4dp-1",
        "max_deviation_gain": "0x0.0p+0",
        "payoff_means": {"CC": "0x1.0000000000000p+0", "CD": "-0x1.fbcf85f89b649p-2",
                         "DC": "0x1.7d06df7d06df8p+0", "DD": "0x0.0p+0"},
    },
    # n_samples not a multiple of 4: a draw starts inside a Philox counter block
    "common@50001": {
        "scenario": "common", "seed": 17, "n_samples": 50001, "n_strategic": 94901,
        "coop_rate_strategic": "0x1.67edada210e46p-2",
        "half_width_95": "0x1.8e26452787278p-9",
        "analytic_prediction": "0x1.67dfaba2857e1p-2",
        "max_deviation_gain": "0x0.0p+0",
        "payoff_means": {"CC": "0x1.0000000000000p+0", "CD": "-0x1.68811cb1f360ep+0",
                         "DC": "-0x1.de8a4f719be46p+1", "DD": "0x0.0p+0"},
    },
    "common@37": {
        "scenario": "common", "seed": 3, "n_samples": 37, "n_strategic": 69,
        "coop_rate_strategic": "0x1.28cfc4a33f129p-2",
        "half_width_95": "0x1.b67c55f03a862p-4",
        "analytic_prediction": "0x1.67dfaba2857e1p-2",
        "max_deviation_gain": "0x0.0p+0",
        "payoff_means": {"CC": "0x1.0000000000000p+0", "CD": "-0x1.a7ac674db886ep+0",
                         "DC": "0x1.e1e1e1e1e1e1ep-5", "DD": "0x0.0p+0"},
    },
    "diverse@50001": {
        "scenario": "diverse", "seed": 5, "n_samples": 50001, "n_strategic": 49827,
        "coop_rate_strategic": "0x1.c27d93d98c835p-1",
        "half_width_95": "0x1.762d6567b9c5fp-9",
        "analytic_prediction": "0x1.c35993c92cf98p-1",
        "max_deviation_gain": "0x0.0p+0",
        "payoff_means": {"CC": "0x1.0000000000000p+0", "CD": "-0x1.f8a151f32857fp-2",
                         "DC": "0x1.6ff06d04ddee8p+0", "DD": "0x0.0p+0"},
    },
    "diverse@37": {
        "scenario": "diverse", "seed": 3, "n_samples": 37, "n_strategic": 38,
        "coop_rate_strategic": "0x1.a1af286bca1afp-1",
        "half_width_95": "0x1.f8dc05076525ap-4",
        "analytic_prediction": "0x1.c35993c92cf98p-1",
        "max_deviation_gain": "0x0.0p+0",
        "payoff_means": {"CC": "0x1.0000000000000p+0", "CD": "-0x1.29e6ac03f8435p-2",
                         "DC": "0x1.0000000000000p+1", "DD": "0x0.0p+0"},
    },
    "asymmetric@50001": {
        "scenario": "asymmetric", "seed": 9, "n_samples": 50001, "n_strategic": 94599,
        "coop_rate_strategic": "0x1.57cfeabd8b7a7p-2",
        "half_width_95": "0x1.8a749010885ecp-9",
        "analytic_prediction": "0x1.57b055c1247b3p-2",
        "max_deviation_gain": "0x0.0p+0",
        "payoff_means": {"CC": "0x1.0000000000000p+0", "CD": "-0x1.08a6156b979ecp+1",
                         "DC": "-0x1.398c5ec56b08ap+1", "DD": "0x0.0p+0"},
    },
    "asymmetric@37": {
        "scenario": "asymmetric", "seed": 3, "n_samples": 37, "n_strategic": 67,
        "coop_rate_strategic": "0x1.31abf0b7672a0p-2",
        "half_width_95": "0x1.c0d0bd801445cp-4",
        "analytic_prediction": "0x1.57b055c1247b3p-2",
        "max_deviation_gain": "0x0.0p+0",
        "payoff_means": {"CC": "0x1.0000000000000p+0", "CD": "-0x1.40b25b9a67c52p+1",
                         "DC": "0x1.e1e1e1e1e1e1ep-5", "DD": "0x0.0p+0"},
    },
}


def hexed(report: dict) -> dict:
    return {k: hexed(v) if isinstance(v, dict) else v.hex() if isinstance(v, float) else v
            for k, v in report.items()}


TABULATED_G = ([0.0, 0.3, 0.7, 1.0], [0.0, 0.2, 0.8, 1.0])
SIM_CASES = {  # scenario beliefs, (b, m), ell_bar, belief distribution
    "common": ({"pi": 0.05}, (3.0, 50.0), 8.0, None),
    "diverse": ({}, (2.0, 8.0), 1.0, "uniform"),
    "asymmetric": ({"pi1": 0.03, "pi2": 0.08}, (3.0, 50.0), 8.0, None),
    "diverse-tabulated": ({}, (2.0, 8.0), 1.0, "tabulated"),
}


def sim_distributions(belief):
    """The belief distribution of a SIM_CASES entry: None, uniform or tabulated."""
    return {None: None, "uniform": tp.uniform_belief(),
            "tabulated": tp.tabulated_belief(*TABULATED_G)}[belief]


@pytest.mark.parametrize("case", sorted(PINNED_SIM))
def test_simulate_pinned_bits(case):
    pin = PINNED_SIM[case]
    beliefs, (b, m), ell_bar, belief = SIM_CASES[case.split("@")[0]]
    G = sim_distributions(belief)
    cfg = tp.SimConfig(n_samples=pin["n_samples"], seed=pin["seed"],
                       scenario=pin["scenario"], **beliefs)
    report = tp.simulate(cfg, tp.validate_params(b, m), tp.uniform_loss(ell_bar), G)
    assert type(report.coop_rate_strategic) is float and type(report.n_strategic) is int
    assert hexed(report.to_dict()) == pin


@pytest.mark.parametrize("case", sorted(SIM_CASES))
def test_simulate_blocks_of_any_size_give_the_same_bits(case, monkeypatch):
    # at the real size each thread's matches are one block. In blocks of 7:
    # at n = 1 the caller's range [0, 0) is empty; at n = 8 the split at 4
    # falls inside the first block of a serial pass; at n = 1003 each thread
    # ends on a ragged block (501 = 71 * 7 + 4 and 502 = 71 * 7 + 5)
    beliefs, (b, m), ell_bar, belief = SIM_CASES[case]
    G = sim_distributions(belief)
    scenario = "diverse" if belief else case
    sizes = (1, 8, 1003)

    def reports():
        return [tp.simulate(tp.SimConfig(n_samples=n, seed=8, scenario=scenario, **beliefs),
                            tp.validate_params(b, m), tp.uniform_loss(ell_bar), G).to_dict()
                for n in sizes]

    one_block = reports()
    monkeypatch.setattr(montecarlo, "BLOCK", 7)
    for n, got, want in zip(sizes, reports(), one_block):
        got_cd, want_cd = got["payoff_means"].pop("CD"), want["payoff_means"].pop("CD")
        assert hexed(got) == hexed(want)
        # the CD mean is a sum of the CD losses, at most 2n nonnegative
        # floats, over their count, and the blocks decide the order of the
        # additions. A sum of k + 1 such floats in any order errs by at most
        # gamma_k = k u/(1 - k u) of itself (Higham 2002, section 4.2), and
        # each division adds u, so the two means lie within 2 gamma_{2n} of
        # each other (to first order in u)
        assert (got_cd is None) == (want_cd is None)
        if want_cd is not None:
            u = 2.0 ** -53
            gamma = 2 * n * u / (1 - 2 * n * u)
            assert abs(got_cd - want_cd) <= 2 * gamma * abs(want_cd)


def replay_matches(cfg, params, F, G):
    """Each player's honesty flags, losses and cooperation rule's answers
    over all n matches, drawn slot by slot from the serial stream with plain
    numpy: the rule is `loss <= threshold`, or `belief >= curve(loss)` under
    dispersed beliefs."""
    strategy, _ = montecarlo._resolve_strategy(cfg, params, F, G)
    n = cfg.n_samples
    honest, loss, strat = [None, None], [None, None], [None, None]
    for p, (belief, _, slots) in enumerate(montecarlo._players(cfg, strategy, G)):
        beliefs_u, honesty_u, loss_u = (None if k is None else
                                        montecarlo._stream(cfg.seed, k * n).random(n)
                                        for k in slots)
        own = belief if beliefs_u is None else belief.ppf(beliefs_u)
        honest[1 - p] = honesty_u < own
        loss[p] = F.ppf(loss_u)
        if cfg.scenario == "diverse":
            strat[p] = own >= strategy(loss[p])
        else:
            strat[p] = loss[p] <= (strategy if cfg.scenario == "common" else strategy[p])
    return honest, loss, strat


@pytest.mark.parametrize("case", sorted(SIM_CASES))
def test_simulate_payoff_means_match_a_replay_of_the_matches(case):
    beliefs, (b, m), ell_bar, belief = SIM_CASES[case]
    params, F, G = tp.validate_params(b, m), tp.uniform_loss(ell_bar), sim_distributions(belief)
    cfg = tp.SimConfig(n_samples=1003, seed=8, scenario="diverse" if belief else case,
                       **beliefs)
    honest, loss, strat = replay_matches(cfg, params, F, G)
    coop = [honest[p] | strat[p] for p in (0, 1)]
    strategic = [~h for h in honest]
    cells = {"CC": [], "CD": [], "DC": [], "DD": []}  # per-match payoffs
    for p, q in ((0, 1), (1, 0)):
        s = strategic[p]
        cells["CC"].append(np.ones(np.count_nonzero(s & coop[p] & coop[q])))
        cells["CD"].append(-loss[p][s & coop[p] & ~coop[q]])
        cells["DC"].append(np.where(honest[q], b - m, b)[s & ~coop[p] & coop[q]])
        cells["DD"].append(np.zeros(np.count_nonzero(s & ~coop[p] & ~coop[q])))
    cells = {cell: np.concatenate(payoffs) for cell, payoffs in cells.items()}
    report = tp.simulate(cfg, params, F, G)
    n_strategic = sum(np.count_nonzero(s) for s in strategic)
    assert report.n_strategic == n_strategic
    assert report.coop_rate_strategic == sum(
        np.count_nonzero(s & c) for s, c in zip(strategic, strat)) / n_strategic
    assert sum(cells[cell].size for cell in cells) == n_strategic
    assert all(cells[cell].size for cell in cells)
    assert report.payoff_means["CC"] == 1.0 and report.payoff_means["DD"] == 0.0
    # np.mean adds the payoffs pairwise; simulate adds a pairwise sum per
    # thread and player, or counts the b and b - m payoffs. The two differ
    # by a few ulps at these sizes (at most 4 over 30 seeds of these cases),
    # while one payoff put in the wrong cell moves a mean by about its
    # cell's spread over the cell's size, 1e-4 or more here
    for cell in ("CD", "DC"):
        want = cells[cell].mean()
        assert abs(report.payoff_means[cell] - want) <= 8 * np.spacing(abs(want))


# Calibration over many seeds: z = (rate - prediction) / (half_width_95 / 1.96)
# is about standard normal when the reported half-width is honest. Each bound
# is 4.5 standard errors of its statistic at n seeds, derived from n and not
# from the present draws, so a change to the draws keeps passing it while a
# biased rate or a wrong half-width does not. The scenarios: common (3, 50)
# on [0, 8] at pi 0.03, diverse (2.5, 20) on [0, 1], and asymmetric
# (0.03, 0.06) on (3, 50, 8).
CALIBRATION = {
    "common": ({"pi": 0.03}, (3.0, 50.0), 8.0),
    "diverse": ({}, (2.5, 20.0), 1.0),
    "asymmetric": ({"pi1": 0.03, "pi2": 0.06}, (3.0, 50.0), 8.0),
}


@pytest.mark.parametrize("scenario", sorted(CALIBRATION))
def test_simulate_half_width_is_calibrated(scenario):
    beliefs, (b, m), ell_bar = CALIBRATION[scenario]
    params, F, G = tp.validate_params(b, m), tp.uniform_loss(ell_bar), tp.uniform_belief()
    z = []
    for seed in range(300):
        cfg = tp.SimConfig(n_samples=20_000, seed=seed, scenario=scenario, **beliefs)
        report = tp.simulate(cfg, params, F, G)
        z.append((report.coop_rate_strategic - report.analytic_prediction)
                 / (report.half_width_95 / 1.96))
    z = np.array(z)
    n = len(z)
    # the mean of n standard normals has standard error 1/sqrt(n)
    assert abs(z.mean()) <= 4.5 / math.sqrt(n)
    # their sample sd has standard error about 1/sqrt(2(n-1))
    assert abs(z.std(ddof=1) - 1.0) <= 4.5 / math.sqrt(2 * (n - 1))
    # coverage is a binomial proportion with p = 0.95
    coverage = np.mean(np.abs(z) <= 1.96)
    assert abs(coverage - 0.95) <= 4.5 * math.sqrt(0.95 * 0.05 / n)


@pytest.mark.parametrize("equilibrium", ["corner", "highest"])
@pytest.mark.parametrize("pi", [0.04, 0.05, 0.5])
def test_simulate_at_the_support_end_has_no_spread(equilibrium, pi):
    # from (b-1)/m = 0.04 on, both selectors put the threshold at ell_bar:
    # every strategic player cooperates, the half-width is 0 and a z-score
    # would be 0/0, so these are checked exactly instead
    params, F = tp.validate_params(3.0, 50.0), tp.uniform_loss(8.0)
    for seed in range(10):
        cfg = tp.SimConfig(n_samples=2000, seed=seed, scenario="common", pi=pi,
                           equilibrium=equilibrium)
        report = tp.simulate(cfg, params, F)
        assert report.coop_rate_strategic == report.analytic_prediction == 1.0
        assert report.half_width_95 == 0.0


def test_simulate_memory_does_not_grow_with_n(unit_loss, unit_belief):
    # per-match arrays took 29.6 MB at 10^6 matches and 118 MB at 4 * 10^6;
    # each thread's workspace takes 0.5 MB, and a block keeps only counts and
    # one sum: 1.6 MB at both sizes (3.2 MB at twice the block). An untraced
    # call first, so that neither traced one loads numpy.random
    params = tp.validate_params(2.5, 20.0)
    curve = tp.solve_diverse_threshold(params, unit_loss, unit_belief).threshold
    tp.simulate(tp.SimConfig(n_samples=1000, seed=3, scenario="diverse", strategy=curve),
                params, unit_loss, unit_belief)
    peaks = []
    for n in (10 ** 6, 4 * 10 ** 6):
        cfg = tp.SimConfig(n_samples=n, seed=3, scenario="diverse", strategy=curve)
        tracemalloc.start()
        try:
            tp.simulate(cfg, params, unit_loss, unit_belief)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 8e6
    assert peaks[1] - peaks[0] < 3e6


def test_simulate_memory_is_flat_in_n(fig_params, fig_dist):
    # common (3, 50) on [0, 8] at pi 0.03: keeping each block's CD losses
    # and DC partners' honesty took about 4.4 B a match, a traced peak of
    # 3.6 MB at 2.5 * 10^5 matches and 20.0 MB at 4 * 10^6. Each size's
    # peak is held to a bound that does not depend on n: per thread, its
    # workspace (32 B a match of a block), the two players' losses (8 B
    # each) and one CD gather (8 B at most), for both threads whether or not
    # their blocks overlap in time, plus what a 1000-match call holds (the
    # streams, the thread, the solve and the report): 1.9 MB, against peaks of
    # 1.4-1.7 MB, where twice the block peaked at 2.7-3.3 MB
    def traced_peak(n):
        cfg = tp.SimConfig(n_samples=n, seed=3, scenario="common", pi=0.03)
        tracemalloc.start()
        try:
            tp.simulate(cfg, fig_params, fig_dist)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tp.simulate(tp.SimConfig(n_samples=1000, seed=3, scenario="common", pi=0.03),
                fig_params, fig_dist)  # warm: numpy.random is loaded untraced
    bound = 2 * (32 + 2 * 8 + 8) * montecarlo.BLOCK + traced_peak(1000)
    for n in (250_000, 4 * 10 ** 6):
        assert traced_peak(n) <= bound, n


def test_diverse_simulate_interpolates_only_beliefs_near_the_cutoff(monkeypatch, p28, unit_loss,
                                                                    unit_belief):
    # np.interp sees deviation_check's 200-point grid and only the beliefs
    # between the cutoff curve's floor and ceiling: at (2, 8) its values
    # span [0.1118, 0.125], 1.3% of uniform beliefs, so under 2% of the 2n
    interp_sizes = []
    interp = np.interp

    def sized_interp(x, *args, **kwargs):
        interp_sizes.append(np.size(x))
        return interp(x, *args, **kwargs)

    monkeypatch.setattr(np, "interp", sized_interp)
    n = 10_000
    cfg = tp.SimConfig(n_samples=n, seed=4, scenario="diverse")
    tp.simulate(cfg, p28, unit_loss, unit_belief)
    interp_sizes.remove(200)
    assert sum(interp_sizes) < 0.02 * 2 * n


def simulate_threads():
    return [t for t in threading.enumerate() if t.name.startswith("trustpd-simulate")]


def test_error_in_the_workers_matches_reaches_the_caller(monkeypatch, p28, unit_loss,
                                                          unit_belief):
    play_matches = montecarlo._play_matches

    def failing_on_the_worker(*args):
        if threading.current_thread().name.startswith("trustpd-simulate"):
            raise RuntimeError("the worker's matches failed")
        return play_matches(*args)

    monkeypatch.setattr(montecarlo, "_play_matches", failing_on_the_worker)
    cfg = tp.SimConfig(n_samples=1000, seed=4, scenario="diverse")
    with pytest.raises(RuntimeError, match="the worker's matches failed"):
        tp.simulate(cfg, p28, unit_loss, unit_belief)
    assert simulate_threads() == []


def test_losses_past_the_curve_domain_raise_and_leave_no_thread(p28, unit_belief, diverse_28):
    # quantiles that overshoot the stated support [0, 1]: both threads query
    # the cutoff curve past its domain
    F = tp.LossDistribution(cdf=lambda x: np.clip(x, 0.0, 1.0), pdf=lambda x: 1.0 + 0 * x,
                            ppf=lambda u: 2.0 * np.asarray(u), ell_bar=1.0)
    cfg = tp.SimConfig(n_samples=1000, seed=4, scenario="diverse", strategy=diverse_28.threshold)
    with pytest.raises(tp.ParameterError, match="outside curve domain"):
        tp.simulate(cfg, p28, F, unit_belief)
    assert simulate_threads() == []
