import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trustpd as tp
from trustpd.numerics import adaptive_simpson


def threshold_gap(pi, params, ab):
    return tp.closed_form_common_uniform(pi, params) - tp.closed_form_diverse_uniform(pi, params, ab)


@given(st.floats(2.0, 8.0), st.floats(-3.0, math.log10(300.0)))
@example(2.0000000000000004, 0.0)  # the approximate-mode crossing is a grid point
@settings(max_examples=40, deadline=None)
def test_dispersed_threshold_kinks_in_both_modes(b, log_gap):
    # the dispersed threshold leaves 0 at the cutoff at l = 0, 1 - (1+m-b)/alpha,
    # which in exact mode is not beta (the mean cutoff)
    params = tp.validate_params(b, b - 1.0 + 10.0 ** log_gap)
    for mode in ("exact", "approximate"):
        report = tp.cooperation_report(params, mode=mode)
        lower, upper, pi_low = report.regime_bounds
        assert lower < report.pi_dagger < upper <= pi_low + 1e-12
        ab = tp.solve_alpha_beta(params, mode)
        assert tp.closed_form_diverse_uniform(lower * (1.0 - 1e-9), params, ab) == 0.0
        assert tp.closed_form_diverse_uniform(lower + 1e-6 * (upper - lower), params, ab) > 0.0
    if log_gap < -2.0:
        # the cutoff flattens as m - (b-1) -> 0, and inverting it magnifies the
        # curve's discretization error: at 2e-3 it reaches 1.7e-5 in the loss,
        # while the cutoff values still agree to 2e-8
        return
    # oracle: the numerical fixed point, inverted at each belief
    curve = tp.solve_diverse_threshold(params, tp.uniform_loss(1.0), tp.uniform_belief()).threshold
    v0, v1 = curve.values[0], curve.values[-1]
    pis = np.linspace(0.0, 0.999, 200)
    want = np.array([curve.invert(min(max(pi, v0), v1)) for pi in pis])
    got = tp.closed_form_diverse_uniform(pis, params, tp.solve_alpha_beta(params, "exact"))
    assert np.max(np.abs(got - want)) <= 1e-5


class TestPiDagger:
    def test_positive_gap_at_lower_end(self, p28):
        # dispersed threshold is still zero just above beta, shared one is not
        ab = tp.solve_alpha_beta(p28, "approximate")
        assert threshold_gap(ab.beta + 1e-9, p28, ab) > 0

    def test_negative_gap_at_upper_end(self):
        params = tp.validate_params(3, 20)
        ab = tp.solve_alpha_beta(params, "approximate")
        upper = 1 - params.coop_premium / (ab.alpha + ab.beta)
        assert threshold_gap(upper - 1e-9, params, ab) < 0

    def test_bisection_matches_dense_scan(self, p28):
        # oracle: independent dense scan of the gap
        ab = tp.solve_alpha_beta(p28, "approximate")
        pid = tp.solve_pi_dagger(p28, ab, tol=1e-10)
        upper = 1 - p28.coop_premium / (ab.alpha + ab.beta)
        grid = np.linspace(ab.beta + 1e-9, upper - 1e-9, 20001)
        vals = np.array([threshold_gap(float(x), p28, ab) for x in grid])
        crossings = np.nonzero(vals[:-1] * vals[1:] < 0)[0]
        assert crossings.size == 1
        lo, hi = grid[crossings[0]], grid[crossings[0] + 1]
        assert lo <= pid <= hi
        assert abs(threshold_gap(pid, p28, ab)) <= 1e-10

    def test_curves_coincide_at_one_beyond_pi_low(self):
        params = tp.validate_params(3, 20)
        ab = tp.solve_alpha_beta(params, "approximate")
        for pi in (params.pi_low, 0.3, 0.9):
            assert tp.closed_form_common_uniform(pi, params) == 1.0
            assert tp.closed_form_diverse_uniform(pi, params, ab) == 1.0

    def test_single_crossing_also_at_b_equal_two(self, p28):
        # the gap returns to zero at the upper kink when b = 2, but stays
        # negative inside; exactly one interior sign change
        ab = tp.solve_alpha_beta(p28, "approximate")
        assert 1 - p28.coop_premium / (ab.alpha + ab.beta) == pytest.approx(
            p28.pi_low, abs=1e-12
        )
        tp.solve_pi_dagger(p28, ab)  # must not raise


def crossing_oracle(b: float, m: float, mode: str, beta: float) -> Decimal:
    """The crossing belief by bisection at 50 digits between the kinks of the
    dispersed threshold, on the two threshold formulas. Exact mode takes beta
    as solved and alpha = m - (b-1) beta; approximate mode takes both from
    r = sqrt(1 + 4(b-1)/a)."""
    with localcontext() as ctx:
        ctx.prec = 50
        b, m = Decimal(b), Decimal(m)
        a = 1 + m - b
        if mode == "exact":
            beta = Decimal(beta)
            alpha = m - (b - 1) * beta
        else:
            r = (1 + 4 * (b - 1) / a).sqrt()
            alpha, beta = a / 2 * (1 + r), (r - 1) / (r + 1)

        def gap(pi):
            disc = b * b / 4 - a * pi / (1 - pi)
            return b / 2 - max(disc, Decimal(0)).sqrt() - (a / (1 - pi) - alpha) / beta

        lo, hi = 1 - a / alpha, 1 - a / (alpha + beta)  # gap > 0 above lo, < 0 below hi
        for _ in range(120):
            mid = (lo + hi) / 2
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


@st.composite
def games_up_to_large_m(draw):
    b = draw(st.one_of(st.just(2.0 + 1e-12), st.floats(2.0, 8.0)))
    return b, b - 1.0 + 10.0 ** draw(st.floats(-3.0, 6.0))


@given(games_up_to_large_m())
@example((2.0, 600.0))  # in the last cell of a 500-point scan between the kinks
@example((3.0, 3000.0))
@example((2.0 + 1e-12, 1e5 + 1.0))  # an absolute ftol on exact beta admits 1e-5 relative
@settings(max_examples=60, deadline=None)
def test_crossing_belief_matches_the_decimal_oracle(game):
    params = tp.validate_params(*game)
    for mode in ("exact", "approximate"):
        report = tp.cooperation_report(params, mode=mode)
        lower, upper, pi_low = report.regime_bounds
        assert lower < report.pi_dagger < upper <= pi_low + 1e-12
        want = crossing_oracle(*game, mode, tp.solve_alpha_beta(params, mode).beta)
        assert abs(Decimal(report.pi_dagger) - want) <= Decimal(1e-12) * want


def closed_forms_oracle(b: float, a: float) -> tuple[Decimal, Decimal]:
    """The approximate beta and p_diverse from their textbook formulas in
    decimal, at the library's float a = 1+m-b: beta = (r-1)/(r+1) and
    p_diverse = a (r+1)/(r-1) log(1 + 2(r-1)/(a (r+1)^2)), with
    r = sqrt(1 + 4(b-1)/a). Both cancel up to twice as many digits as a has
    orders of magnitude above 1, so they are evaluated with that many digits
    on top of 60."""
    with localcontext() as ctx:
        a = Decimal(a)
        ctx.prec = 60 + 2 * abs(a.adjusted())
        b = Decimal(b)
        r = (1 + 4 * (b - 1) / a).sqrt()
        p_diverse = a * (r + 1) / (r - 1) * (1 + 2 * (r - 1) / (a * (r + 1) ** 2)).ln()
        return (r - 1) / (r + 1), p_diverse


@given(st.floats(2.0, 8.0), st.floats(-12.0, 300.0))
@example(2.0, 8.0)  # beta = (r-1)/(r+1) was 5e-9 relative off
@example(2.0, 17.0)  # r rounds to 1: beta was 0, and p_diverse NaN
@example(8.0, 300.0)
@settings(max_examples=100, deadline=None)
def test_closed_forms_match_the_decimal_oracle(b, log_gap):
    params = tp.validate_params(b, b - 1.0 + 10.0 ** log_gap)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        beta = tp.solve_alpha_beta(params, "approximate").beta
        p_diverse = tp.ex_ante_p_diverse(params)
        # finite, but not yet accurate as m - (b-1) -> 0: its log denominator
        # phi(phi-1) - (b/2)(b/2-1) cancels (ROADMAP item 4)
        assert math.isfinite(tp.ex_ante_p_common(params))
    for value, want in zip((beta, p_diverse), closed_forms_oracle(params.b, params.coop_premium)):
        assert math.isfinite(value)
        assert abs(Decimal(value) - want) <= Decimal(1e-13) * want


class TestExAnteCommon:
    @pytest.mark.parametrize("b,m", [(2, 8), (3, 20), (2.5, 12)])
    def test_methods_agree(self, b, m):
        params = tp.validate_params(b, m)
        closed = tp.ex_ante_p_common(params, "closed_form")
        quad = tp.ex_ante_p_common(params, "quadrature")
        assert closed == pytest.approx(quad, abs=1e-8)

    def test_limit_full_cooperation(self):
        params = tp.validate_params(2, 10_000)
        assert tp.ex_ante_p_common(params) == pytest.approx(1.0, abs=1e-3)
        assert tp.ex_ante_p_common(params, "quadrature") == pytest.approx(1.0, abs=1e-3)

    def test_b_two_denominator_simplifies(self):
        params = tp.validate_params(2, 8)
        phi = math.sqrt(params.coop_premium + 1)
        expected = params.coop_premium / (2 * phi) * math.log1p(2 * phi / (phi * (phi - 1)))
        assert tp.ex_ante_p_common(params) == pytest.approx(expected, abs=1e-14)

    def test_probability_range(self):
        for b, m in ((2, 3), (4, 30), (5.5, 10)):
            p = tp.ex_ante_p_common(tp.validate_params(b, m))
            assert 0 < p < 1

    def test_a_probability_up_to_m_1e300(self):
        # p_common is about 1 - (b/2 - 1/3)/a, a = 1+m-b; the closed form's
        # rounding put it above 1, by up to 4.4e-16, in 40955 of these cells,
        # the first near (2, 2.75e15)
        b_grid = np.linspace(2.0, 8.0, 61)
        m_grid = np.logspace(1.0, 300.0, 3000)
        region = tp.diversity_region(b_grid, m_grid)
        assert region.valid.all()
        p_c = region.p_common
        assert np.all((0.0 < p_c) & (p_c <= 1.0))
        a = 1.0 + m_grid[None, :] - b_grid[:, None]
        assert np.all(1.0 - p_c <= b_grid[:, None] / a + 2.0**-51)
        for b, m in ((2.0, 2.75e15), (2.0, 1.1963528442352842e17), (8.0, 1e300)):
            assert tp.ex_ante_p_common(tp.validate_params(b, m)) <= 1.0


class TestExAnteDiverse:
    @pytest.mark.parametrize("b,m", [(2, 8), (3, 20), (2.5, 12)])
    def test_closed_form_is_integral_of_approximate_cutoff(self, b, m):
        params = tp.validate_params(b, m)
        closed = tp.ex_ante_p_diverse(params, "closed_form")
        quad = tp.ex_ante_p_diverse(params, "quadrature")
        assert closed == pytest.approx(quad, abs=1e-8)

    def test_converged_curve_approaches_closed_form_at_large_m(self, unit_loss, unit_belief):
        params = tp.validate_params(2, 100)
        sol = tp.solve_diverse_threshold(params, unit_loss, unit_belief)
        assert sol.coop_prob == pytest.approx(tp.ex_ante_p_diverse(params), abs=1e-2)

    def test_strictly_below_one(self):
        for b, m in ((2, 8), (3, 50), (4, 5)):
            assert tp.ex_ante_p_diverse(tp.validate_params(b, m)) < 1.0

    def test_near_degenerate_gamma(self):
        # b near 1 sends gamma to 1; log1p keeps the value finite and sane
        params = tp.validate_params(1.001, 5)
        p = tp.ex_ante_p_diverse(params)
        assert 0 < p < 1


class TestDiversityRegion:
    def test_rows_are_contiguous_and_large_m_false(self):
        region = tp.diversity_region(np.linspace(2, 6, 12), np.linspace(1.2, 60, 60))
        assert region.valid.any()
        for i in range(region.b_grid.size):
            idx = np.nonzero(region.diverse_wins[i])[0]
            if idx.size:
                assert np.all(np.diff(idx) == 1)
        big_m = region.m_grid >= 50
        small_b = region.b_grid <= 3
        assert not region.diverse_wins[np.ix_(small_b, big_m)].any()
        # both quantities are genuine probabilities on every valid cell
        assert np.all(region.p_common[region.valid] > 0)
        assert np.all(region.p_common[region.valid] < 1)
        assert np.all(region.p_diverse[region.valid] > 0)
        assert np.all(region.p_diverse[region.valid] < 1)

    def test_invalid_cells_flagged_not_raised(self):
        region = tp.diversity_region([2.0, 4.0], [1.0, 2.5, 10.0])
        # m=1.0 violates m > b-1 for b=2 boundary? 1.0 <= 1.0 -> invalid;
        # m=2.5 invalid for b=4 (2.5 <= 3)
        assert not region.valid[0, 0]
        assert region.valid[0, 1]
        assert not region.valid[1, 1]
        assert np.isnan(region.p_common[1, 1])

    def test_mesh_matches_scalar_closed_forms_bit_for_bit(self):
        # reproduce-all's grid, where numpy's x ** 2 (x*x) and, on AVX-512, its
        # np.log1p move values, plus cells below b = 2 and, at (3, 2) and (4, 3), on m = b - 1
        b_grid = np.concatenate([[1.5, 1.9, 3.0, 4.0], np.linspace(2, 6, 100)])
        m_grid = np.concatenate([[0.4, 2.0, 3.0, 250.0], np.linspace(1.2, 60, 100)])
        region = tp.diversity_region(b_grid, m_grid)

        def reference(b, m):
            # the closed forms in plain floats: Python's ** and math.log1p
            a = 1.0 + m - b
            phi = math.sqrt(a + b ** 2 / 4.0)
            den = phi * (phi - 1.0) - b / 2.0 * (b / 2.0 - 1.0)
            g = math.sqrt(1.0 + 4.0 * (b - 1.0) / a)
            return (a / (2.0 * phi) * math.log1p(2.0 * phi / den),
                    a * (g + 1.0) / (g - 1.0) * math.log1p(2.0 * (g - 1.0) / (a * (g + 1.0) ** 2)))

        for i, b in enumerate(b_grid.tolist()):
            for j, m in enumerate(m_grid.tolist()):
                if b >= 2.0 and m > b - 1.0:
                    params = tp.validate_params(b, m)
                    assert region.valid[i, j]
                    assert region.p_common[i, j] == tp.ex_ante_p_common(params)
                    assert region.p_diverse[i, j] == tp.ex_ante_p_diverse(params)
                    assert (region.p_common[i, j], region.p_diverse[i, j]) == reference(b, m)
                    assert region.diverse_wins[i, j] == (region.p_diverse[i, j] > region.p_common[i, j])
                else:
                    assert not region.valid[i, j]
                    assert np.isnan(region.p_common[i, j]) and np.isnan(region.p_diverse[i, j])
                    assert not region.diverse_wins[i, j]
        assert region.valid.any() and not region.valid.all()

    def test_non_finite_grid_rejected(self):
        with pytest.raises(tp.ParameterError):
            tp.diversity_region([2.0, np.nan], [5.0])
        with pytest.raises(tp.ParameterError):
            tp.diversity_region([3.0], [5.0, np.inf])

    def test_known_thin_sliver_cell(self):
        # (b=4, m=3.1) sits inside the dispersion-wins sliver, (4, 8) outside
        region = tp.diversity_region([4.0], [3.1, 8.0])
        assert bool(region.diverse_wins[0, 0])
        assert not region.diverse_wins[0, 1]


class TestSensitivity:
    def test_signs_at_reference_point(self):
        d_db, d_dm = tp.pi_dagger_sensitivity(tp.validate_params(3, 20))
        assert d_db > 0
        assert d_dm < 0

    @staticmethod
    def crossing(b, m):
        params = tp.validate_params(b, m)
        return tp.solve_pi_dagger(params, tp.solve_alpha_beta(params, mode="approximate"))

    @pytest.mark.parametrize("b, m", [(3.0, 20.0), (5.0, 40.0), (2.5, 1.6), (8.0, 1e6)])
    def test_matches_central_differences(self, b, m):
        # oracle: central differences of the crossing belief, steps 1e-5 relative
        db, dm = 1e-5 * b, 1e-5 * m
        want = ((self.crossing(b + db, m) - self.crossing(b - db, m)) / (2 * db),
                (self.crossing(b, m + dm) - self.crossing(b, m - dm)) / (2 * dm))
        got = tp.pi_dagger_sensitivity(tp.validate_params(b, m))
        assert got == pytest.approx(want, rel=1e-7)

    def test_defined_at_b_two(self):
        # the paper's (2, 8): a central difference in b would step below 2, so
        # the oracle for d/db is the second-order one-sided difference
        h = 1e-5
        f0, f1, f2 = (self.crossing(2.0 + k * h, 8.0) for k in range(3))
        d_db, d_dm = tp.pi_dagger_sensitivity(tp.validate_params(2.0, 8.0))
        assert d_db == pytest.approx((-3 * f0 + 4 * f1 - f2) / (2 * h), rel=1e-7)
        assert (d_db, d_dm) == pytest.approx((0.110320, -0.015160), abs=1e-6)

    def test_b_below_two_rejected(self):
        with pytest.raises(tp.ParameterError):
            tp.pi_dagger_sensitivity(tp.validate_params(1.9, 8))


class TestCooperationReport:
    def test_assembles_and_validates(self):
        report = tp.cooperation_report(tp.validate_params(3, 20))
        beta, upper, pi_low = report.regime_bounds
        assert beta < upper <= pi_low
        assert 0 < report.pi_dagger < upper
        assert 0 < report.p_common < 1
        assert 0 < report.p_diverse < 1
        assert report.phi == pytest.approx(math.sqrt(18 + 9 / 4))
        assert report.gamma_aux == pytest.approx(math.sqrt(1 + 8 / 18))

    @pytest.mark.parametrize("b, m", [(3.0, 3e8), (3.0, 1e12), (5.0, 1e15)])
    def test_crossing_belief_may_tie_its_upper_bound_at_large_m(self, b, m):
        # the cutoffs at l = 1 - beta and l = 1 differ by less than their
        # rounding here, and the strict check raised InvariantViolation.
        # pi_dagger is (b-1)/m to about (b-2)/m relative (3.3e-9 at 3e8), so
        # the oracle is the 50-digit crossing, not (b-1)/m
        params = tp.validate_params(b, m)
        for mode in ("exact", "approximate"):
            report = tp.cooperation_report(params, mode=mode)
            assert 0.0 < report.pi_dagger <= report.regime_bounds[1]
            want = crossing_oracle(b, m, mode, tp.solve_alpha_beta(params, mode).beta)
            assert abs(Decimal(report.pi_dagger) - want) <= Decimal(1e-12) * want

    @pytest.mark.parametrize("b, m", [(3.0, 1e17), (2.0, 1e200)])
    def test_regime_bounds_may_tie_at_large_m(self, b, m):
        # the cutoffs at l = 0 and l = 1 round to one float here, 2e-17 at
        # (3, 1e17), and the strict check raised InvariantViolation. At
        # (3, 1e17) the oracle is the 50-digit crossing
        params = tp.validate_params(b, m)
        for mode in ("exact", "approximate"):
            report = tp.cooperation_report(params, mode=mode)
            lower, upper, pi_low = report.regime_bounds
            assert lower == upper == pytest.approx((b - 1.0) / m, rel=1e-15)
            assert 0.0 < report.pi_dagger <= upper <= pi_low + 1e-12
            if m < 1e20:
                want = crossing_oracle(b, m, mode, tp.solve_alpha_beta(params, mode).beta)
                assert abs(Decimal(report.pi_dagger) - want) <= Decimal(1e-12) * want

    def test_derivative_ordering_on_scan_interval(self):
        # shared-belief threshold rises more slowly than the dispersed one
        # wherever the dispersed middle branch is interior (b away from 2)
        params = tp.validate_params(3, 20)
        ab = tp.solve_alpha_beta(params, "approximate")
        a = params.coop_premium
        upper = 1 - a / (ab.alpha + ab.beta)
        grid = np.linspace(ab.beta, upper, 502)[1:-1]
        h = 1e-8
        for pi in grid[:: 25]:
            disc = params.b**2 / 4 - a * pi / (1 - pi)
            d_common = a / (2 * (1 - pi) ** 2 * math.sqrt(disc))
            d_diverse = a / (ab.beta * (1 - pi) ** 2)
            assert d_common < d_diverse
            # closed-form derivatives agree with central differences
            num_c = (tp.closed_form_common_uniform(pi + h, params)
                     - tp.closed_form_common_uniform(pi - h, params)) / (2 * h)
            num_d = (tp.closed_form_diverse_uniform(pi + h, params, ab)
                     - tp.closed_form_diverse_uniform(pi - h, params, ab)) / (2 * h)
            assert num_c == pytest.approx(d_common, rel=1e-6)
            assert num_d == pytest.approx(d_diverse, rel=1e-6)

    def test_quadrature_kernel_sanity(self):
        # adaptive Simpson against an analytic integral
        val = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
        assert val == pytest.approx(math.e - 1, abs=1e-11)
