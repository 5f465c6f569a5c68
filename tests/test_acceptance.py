"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line per criterion (run with -s to see them inline).
"""

import functools
import math
import time

import numpy as np
import pytest

import trustpd as tp
from trustpd.common_eq import psi, psi_dl
from trustpd.numerics import composite_simpson

# matrix for criteria 5 and 6: all pairs keep the derivative-ordering margin
# b^2 + 4(1+m-b) - 4a - 4c - c^2 > 0 (a, c the approximate coefficients), so
# the ordering holds on the entire scan interval including its upper end
PAIRS_B_ABOVE_2 = [
    (2.5, 12), (2.8, 15), (3, 20), (3, 50), (3.2, 18),
    (3.5, 25), (4, 30), (4.5, 45), (5, 40), (6, 55),
]
PAIRS_B_EQUAL_2 = [(2, 8), (2, 20), (2, 35)]


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL - {desc}", flush=True)
                raise
            print(f"[criterion {num:2d}] PASS - {desc}", flush=True)

        return wrapper

    return deco


@criterion(1, "regime structure and tangency point at (b=3, m=50, ell_bar=8)")
def test_criterion_1_regime_structure(fig_params, fig_dist):
    assert tp.solve_common_equilibria(0.03, fig_params, fig_dist).regime == "unique-interior"
    assert tp.solve_common_equilibria(0.05, fig_params, fig_dist).regime == "triple"
    assert tp.solve_common_equilibria(0.08, fig_params, fig_dist).regime == "unique-corner"

    crit = tp.critical_pair(fig_params, fig_dist)
    assert crit.pi_low == pytest.approx(0.04, abs=1e-15)
    assert crit.ell_prime == pytest.approx((8 + 3 - 1) / 2, abs=1e-9)
    assert crit.pi_prime == pytest.approx(3.125 / 51.125, abs=1e-9)
    assert abs(psi(crit.ell_prime, crit.pi_prime, fig_params, fig_dist) - crit.ell_prime) <= 1e-6
    assert abs(psi_dl(crit.ell_prime, crit.pi_prime, fig_params, fig_dist) - 1.0) <= 1e-4


@criterion(2, "closed-form threshold equals the fixed-point solver to 1e-8")
def test_criterion_2_closed_form_equivalence():
    dist = tp.uniform_loss(1.0)
    worst = 0.0
    for b, m in ((2, 8), (3, 20), (4, 30)):
        params = tp.validate_params(b, m)
        for pi in np.linspace(0.0, 1.0, 200, endpoint=False):
            eqs = tp.solve_common_equilibria(float(pi), params, dist, tol=1e-12)
            root = eqs.lowest if eqs.regime == "unique-interior" else eqs.ell_corner
            worst = max(worst, abs(tp.closed_form_common_uniform(float(pi), params) - root))
    assert worst <= 1e-8


@criterion(3, "contraction iteration: factor <= 7/64 + 1e-9, residual <= 1e-10, strictly increasing")
def test_criterion_3_contraction(diverse_28):
    sol = diverse_28
    assert sol.contraction_gamma == pytest.approx(7 / 64, abs=1e-15)
    hist = sol.residual_history
    assert len(hist) >= 3
    for k in range(len(hist) - 1):
        assert hist[k + 1] <= (7 / 64 + 1e-9) * hist[k]
    assert sol.residual <= 1e-10
    assert sol.threshold.knots.size == 1001
    assert np.all(np.diff(sol.threshold.values) > 0)


@criterion(4, "coefficient pair: approximate system 1e-9, exact matches curve mass 2e-3, gap shrinks in m")
def test_criterion_4_alpha_beta(p28, diverse_28):
    ab = tp.solve_alpha_beta(p28, "approximate")
    a = p28.coop_premium
    assert abs(ab.alpha - a * (1 + (p28.b - 1) / ab.alpha)) <= 1e-9
    assert abs(ab.beta - (1 - a / ab.alpha)) <= 1e-9

    exact = tp.solve_alpha_beta(p28, "exact")
    curve_mass = composite_simpson(diverse_28.threshold.values, diverse_28.threshold.knots)
    assert abs(exact.beta - curve_mass) <= 2e-3

    gaps = []
    for m in (10, 100, 1000):
        params = tp.validate_params(2, m)
        gaps.append(abs(tp.solve_alpha_beta(params, "exact").beta
                        - tp.solve_alpha_beta(params, "approximate").beta))
    assert gaps[0] > gaps[1] > gaps[2]


@criterion(5, "single crossing, derivative ordering at all scan points, kink-belief ordering")
def test_criterion_5_single_crossing():
    for b, m in PAIRS_B_ABOVE_2:
        params = tp.validate_params(b, m)
        ab = tp.solve_alpha_beta(params, "approximate")
        a = params.coop_premium
        upper = 1 - a / (ab.alpha + ab.beta)
        grid = np.linspace(ab.beta, upper, 502)[1:-1]
        assert grid.size == 500
        gaps = np.array([
            tp.closed_form_common_uniform(float(x), params)
            - tp.closed_form_diverse_uniform(float(x), params, ab)
            for x in grid
        ])
        signs = np.sign(gaps)
        assert int(np.sum(signs[:-1] * signs[1:] < 0)) == 1
        for pi in grid:
            disc = params.b**2 / 4 - a * pi / (1 - pi)
            d_common = a / (2 * (1 - pi) ** 2 * math.sqrt(disc))
            d_diverse = a / (ab.beta * (1 - pi) ** 2)
            assert d_common < d_diverse
        # strict kink ordering for b > 2
        assert params.pi_low - upper > 1e-9
    # equality exactly at b = 2
    for b, m in PAIRS_B_EQUAL_2:
        params = tp.validate_params(b, m)
        ab = tp.solve_alpha_beta(params, "approximate")
        upper = 1 - params.coop_premium / (ab.alpha + ab.beta)
        assert abs(upper - params.pi_low) <= 1e-9


@criterion(6, "ex-ante probabilities: quadrature agreement 1e-8; region grid contiguous, common wins at high m")
def test_criterion_6_ex_ante():
    for b, m in PAIRS_B_ABOVE_2:
        params = tp.validate_params(b, m)
        assert abs(tp.ex_ante_p_common(params, "closed_form")
                   - tp.ex_ante_p_common(params, "quadrature")) <= 1e-8
        assert abs(tp.ex_ante_p_diverse(params, "closed_form")
                   - tp.ex_ante_p_diverse(params, "quadrature")) <= 1e-8
        assert 0 < tp.ex_ante_p_common(params) < 1
        assert 0 < tp.ex_ante_p_diverse(params) < 1

    start = time.monotonic()
    region = tp.diversity_region(np.linspace(2, 6, 100), np.linspace(1.2, 60, 100))
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    for i in range(region.b_grid.size):
        idx = np.nonzero(region.diverse_wins[i])[0]
        if idx.size:
            assert np.all(np.diff(idx) == 1)
    cells = region.diverse_wins[np.ix_(region.b_grid <= 3, region.m_grid >= 50)]
    assert not cells.any()


@criterion(7, "crossing belief rises in b, falls in m; optimism backfires in 20 asymmetric configurations")
def test_criterion_7_sensitivities(fig_params, fig_dist):
    d_db, d_dm = tp.pi_dagger_sensitivity(tp.validate_params(3, 20))
    assert d_db > 0
    assert d_dm < 0

    configs = [(pi1, pi2)
               for pi1 in (0.02, 0.025, 0.03, 0.035)
               for pi2 in (0.045, 0.05, 0.055, 0.06, 0.065)]
    assert len(configs) == 20
    for pi1, pi2 in configs:
        assert pi1 < fig_params.pi_low < pi2
        assert tp.asymmetric_sensitivity(pi1, pi2, fig_params, fig_dist) < 0


@criterion(8, "no profitable deviation (<= 1e-6) for any solver output in the matrix")
def test_criterion_8_deviation_checks(fig_params, fig_dist, p28, unit_loss, unit_belief, diverse_28):
    for pi in (0.02, 0.05, 0.08):
        cfg = tp.SimConfig(n_samples=1, seed=0, scenario="common", pi=pi)
        assert tp.deviation_check(cfg, None, fig_params, fig_dist) <= 1e-6

    cfg = tp.SimConfig(n_samples=1, seed=0, scenario="diverse")
    assert tp.deviation_check(cfg, diverse_28.threshold, p28, unit_loss, unit_belief) <= 1e-6

    cfg = tp.SimConfig(n_samples=1, seed=0, scenario="asymmetric", pi1=0.03, pi2=0.08)
    assert tp.deviation_check(cfg, None, fig_params, fig_dist) <= 1e-6

    group = tp.solve_group_common(1, 0.03, fig_params, fig_dist, variant="consistent")
    cfg = tp.SimConfig(n_samples=1, seed=0, scenario="common", pi=0.03)
    assert tp.deviation_check(cfg, group.value, fig_params, fig_dist) <= 1e-6


@criterion(9, "million-draw cooperation rates within 3 half-widths; bit-identical reruns")
def test_criterion_9_monte_carlo(fig_params, fig_dist, p28, unit_loss, unit_belief, diverse_28):
    start = time.monotonic()
    for pi, seed in ((0.02, 101), (0.035, 202), (0.08, 303)):
        cfg = tp.SimConfig(n_samples=10**6, seed=seed, scenario="common", pi=pi)
        rep = tp.simulate(cfg, fig_params, fig_dist)
        assert abs(rep.coop_rate_strategic - rep.analytic_prediction) <= 3 * rep.half_width_95

    cfg = tp.SimConfig(n_samples=10**6, seed=404, scenario="diverse",
                       strategy=diverse_28.threshold)
    rep = tp.simulate(cfg, p28, unit_loss, unit_belief)
    assert abs(rep.coop_rate_strategic - rep.analytic_prediction) <= 3 * rep.half_width_95
    assert rep == tp.simulate(cfg, p28, unit_loss, unit_belief)
    assert time.monotonic() - start <= 30.0


@criterion(10, "group game: n=1 consistent equals two-player to 1e-6; printed variant residual <= 1e-8")
def test_criterion_10_group_consistency(fig_params, fig_dist, p28, unit_loss, unit_belief, diverse_28):
    for pi in (0.03, 0.05, 0.08):
        group = tp.solve_group_common(1, pi, fig_params, fig_dist, variant="consistent")
        eqs = tp.solve_common_equilibria(pi, fig_params, fig_dist, tol=1e-12)
        two = eqs.lowest if eqs.regime != "unique-corner" else eqs.ell_corner
        assert abs(group.value - two) <= 1e-6

    curve = tp.solve_group_diverse(1, p28, unit_loss, unit_belief, variant="consistent")
    s = diverse_28.threshold
    worst = 0.0
    for pi in np.linspace(0.005, 0.995, 199):
        if pi <= s.values[0]:
            two = 0.0
        elif pi >= s.values[-1]:
            two = 1.0
        else:
            two = s.invert(float(pi))
        worst = max(worst, abs(float(curve(float(pi))) - two))
    assert worst <= 1e-6

    for n, pi in ((1, 0.3), (3, 0.7)):
        root = tp.solve_group_common(n, pi, p28, unit_loss, variant="as_printed")
        assert not root.corner
        assert root.residual <= 1e-8
