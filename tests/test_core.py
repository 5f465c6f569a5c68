import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trustpd as tp
from trustpd import extensions
from trustpd.common_eq import TANGENCY_TOL
from trustpd.numerics import adaptive_simpson


class TestValidateParams:
    def test_paper_figure_values_accepted(self):
        params = tp.validate_params(3, 50)
        assert params.b == 3 and params.m == 50

    def test_boundary_m_equals_b_minus_one_rejected(self):
        with pytest.raises(tp.ParameterError, match="m > b - 1"):
            tp.validate_params(2, 1)

    def test_b_below_one_rejected(self):
        with pytest.raises(tp.ParameterError, match="b > 1"):
            tp.validate_params(0.5, 10)

    def test_pi_low_and_premium(self):
        params = tp.validate_params(3, 50)
        assert params.pi_low == pytest.approx(0.04, abs=1e-15)
        assert params.coop_premium == 48


class TestHazard:
    def test_uniform_at_zero(self):
        dist = tp.uniform_loss(8.0)
        assert tp.hazard(dist, 0.0) == pytest.approx(1 / 8)

    def test_uniform_midpoint(self):
        dist = tp.uniform_loss(8.0)
        assert tp.hazard(dist, 4.0) == pytest.approx(0.25)

    def test_uniform_closed_form_on_grid(self):
        # oracle: evaluate f and F directly, h = f/(1-F) = 1/(ell_bar - l)
        dist = tp.uniform_loss(5.0)
        for ell in np.linspace(0.0, 4.9, 20):
            f = float(dist.pdf(ell))
            big_f = float(dist.cdf(ell))
            assert tp.hazard(dist, float(ell)) == pytest.approx(f / (1 - big_f))
            assert tp.hazard(dist, float(ell)) == pytest.approx(1.0 / (5.0 - ell))

    def test_upper_support_rejected(self):
        dist = tp.uniform_loss(8.0)
        with pytest.raises(tp.ParameterError):
            tp.hazard(dist, 8.0)

    def test_uniform_support_whose_density_overflows_is_rejected(self):
        # the density 1/1e-310 is inf, which made a dispersed solve's weights
        # inf or NaN and its loop run without end; below about 5.6e-309 the
        # density overflows
        for ell_bar in (1e-310, 5e-324):
            with pytest.raises(tp.ParameterError, match="finite density"):
                tp.uniform_loss(ell_bar)
        assert tp.uniform_loss(6e-309).pdf(0.0) < math.inf

    def test_monotone_flag_means_nondecreasing_hazard(self):
        grid = np.linspace(0.0, 8.0 * (1 - 1e-6), 1000)
        for dist in (tp.uniform_loss(8.0), _convex_tabulated_loss()):
            if not dist.monotone_hazard:
                continue
            haz = np.array([tp.hazard(dist, float(x)) for x in grid * dist.ell_bar / 8.0])
            assert np.all(np.diff(haz) >= -1e-9)


    def test_falling_tabulated_density_is_not_monotone(self):
        # cdf 1 - (1 - x)^3: the hazard rises inside each segment and at the
        # segment midpoints, but drops at every knot with the density
        knots = np.linspace(0.0, 1.0, 41)
        dist = tp.tabulated_loss(knots, 1.0 - (1.0 - knots) ** 3)
        assert not dist.monotone_hazard
        knot = float(knots[20])
        assert tp.hazard(dist, knot + 1e-9) < tp.hazard(dist, knot - 1e-9)


def _convex_tabulated_loss():
    # cdf x^2 on [0, 1], sampled: increasing density, increasing hazard
    knots = np.linspace(0.0, 1.0, 201)
    return tp.tabulated_loss(knots, knots**2 * (1 - 1e-12) + knots * 1e-12)


class TestDistributions:
    def test_density_integrates_to_one(self):
        # midpoint rule on a fine grid stays robust for piecewise densities
        for dist in (tp.uniform_loss(3.0), _convex_tabulated_loss()):
            n = 4_000_000
            h = dist.ell_bar / n
            mids = (np.arange(n) + 0.5) * h
            mass = float(np.sum(dist.pdf(mids)) * h)
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_smooth_density_integrates_by_adaptive_quadrature(self):
        dist = tp.uniform_loss(3.0)
        mass = adaptive_simpson(lambda x: float(dist.pdf(x)), 0.0, dist.ell_bar, tol=1e-9)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_ppf_inverts_cdf_on_grid(self):
        for dist in (tp.uniform_loss(3.0), _convex_tabulated_loss()):
            for x in np.linspace(0.0, dist.ell_bar, 17):
                assert float(dist.ppf(dist.cdf(x))) == pytest.approx(float(x), abs=1e-9)

    def test_tabulated_rejects_decreasing_cdf(self):
        with pytest.raises(tp.ParameterError):
            tp.tabulated_loss([0.0, 0.5, 1.0], [0.0, 0.8, 0.7])

    def test_tabulated_rejects_bad_endpoints(self):
        with pytest.raises(tp.ParameterError):
            tp.tabulated_loss([0.0, 1.0], [0.1, 1.0])

    def test_density_knots(self):
        assert tp.uniform_loss(3.0).knots == (0.0, 3.0)
        assert tp.uniform_belief().knots == (0.0, 1.0)
        assert tp.tabulated_loss([0.0, 0.5, 2.0], [0.0, 0.5, 1.0]).knots == (0.0, 0.5, 2.0)
        assert tp.tabulated_belief([0.0, 0.4, 1.0], [0.0, 0.5, 1.0]).knots == (0.0, 0.4, 1.0)

    def test_knots_must_span_the_support(self):
        f = tp.uniform_loss(1.0)
        for knots in ((0.0, 0.5), (0.1, 1.0), (0.0, 0.6, 0.6, 1.0)):
            with pytest.raises(tp.ParameterError, match="knots"):
                tp.LossDistribution(f.cdf, f.pdf, f.ppf, 1.0, knots=knots)
        g = tp.uniform_belief()
        with pytest.raises(tp.ParameterError, match="knots"):
            tp.BeliefDistribution(g.cdf, g.pdf, g.ppf, knots=(0.0, 2.0))

    def test_tabulated_cdf_ends_are_exact(self):
        dist = tp.tabulated_loss([0.0, 1.0, 2.0], [1e-13, 0.5, 1.0 - 1e-13])
        assert float(dist.cdf(0.0)) == 0.0
        assert float(dist.cdf(2.0)) == 1.0

    @pytest.mark.parametrize("x", [math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324, -5e-324,
                                   1e-310, 0.3, 1.0, 2.5, 3.0, 3.5, -1.0])
    def test_uniform_scalar_cdf_and_pdf_bits(self, x):
        # a scalar is clamped by comparisons: the float min(max(x/L, 0), 1)
        # gives, NaN, signed zeros, infinities and subnormals included, for a
        # Python float, a numpy float or a 0-d array
        for dist, scale in ((tp.uniform_loss(3.0), 3.0), (tp.uniform_belief(), 1.0)):
            want = min(max(x / scale, 0.0), 1.0)
            for arg in (x, np.float64(x), np.array(x)):
                got, density = dist.cdf(arg), dist.pdf(arg)
                assert type(got) is float and got.hex() == want.hex()
                assert type(density) is float and density == 1.0 / scale

    def test_belief_distribution_bounds(self):
        g = tp.uniform_belief()
        assert float(g.cdf(0.0)) == 0.0
        assert float(g.cdf(1.0)) == 1.0
        assert float(g.pdf(0.5)) > 0


class TestPayoffs:
    def test_certain_honest_partner(self):
        # cooperation pays 1, defection b - m, for any loss
        params = tp.validate_params(3, 50)
        for ell in (0.0, 1.0, 7.5):
            assert tp.payoff_cooperate(ell, 1.0, 0.3) == pytest.approx(1.0)
        assert tp.payoff_defect(1.0, 0.3, params) == pytest.approx(3 - 50)

    def test_classic_dilemma_cell(self):
        params = tp.validate_params(2, 8)
        assert tp.payoff_cooperate(0.0, 0.0, 1.0) == pytest.approx(1.0)
        assert tp.payoff_defect(0.0, 1.0, params) == pytest.approx(2.0)

    def test_formula_matches_outcome_enumeration(self):
        # oracle: weight the four outcome cells directly
        params = tp.validate_params(2, 8)
        ell, pi, p = 0.5, 0.2, 0.4
        coop = pi * 1.0 + (1 - pi) * p * 1.0 + (1 - pi) * (1 - p) * (-ell)
        defect = pi * (params.b - params.m) + (1 - pi) * (p * params.b + (1 - p) * 0.0)
        assert tp.payoff_cooperate(ell, pi, p) == pytest.approx(coop)
        assert tp.payoff_defect(pi, p, params) == pytest.approx(defect)

    @given(
        ell=st.floats(0.01, 7.9),
        pi=st.floats(0.0, 0.99),
        p=st.floats(0.0, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_cooperate_affine_decreasing_defect_constant(self, ell, pi, p):
        h = 1e-4
        up = tp.payoff_cooperate(ell + h, pi, p)
        down = tp.payoff_cooperate(ell - h, pi, p)
        mid = tp.payoff_cooperate(ell, pi, p)
        slope = (up - down) / (2 * h)
        assert slope < 0
        # affine: second difference vanishes
        assert up + down - 2 * mid == pytest.approx(0.0, abs=1e-9)
        # the defect payoff takes no loss argument: constant in ell by construction

    def test_range_checks(self):
        params = tp.validate_params(2, 8)
        with pytest.raises(tp.ParameterError):
            tp.payoff_cooperate(1.0, 1.5, 0.5)
        with pytest.raises(tp.ParameterError):
            tp.payoff_defect(0.5, -0.1, params)


class TestThresholdCurve:
    def test_identity_eval(self):
        curve = tp.ThresholdCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert curve(0.5) == pytest.approx(0.5)

    def test_identity_invert(self):
        curve = tp.ThresholdCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert curve.invert(0.25) == pytest.approx(0.25)

    def test_flat_curve_inverts_to_left_endpoint(self):
        curve = tp.ThresholdCurve(np.array([2.0, 5.0]), np.array([1.0, 1.0]),
                                  codomain=(0.0, 1.0))
        assert curve.invert(1.0) == pytest.approx(2.0)

    def test_out_of_domain_query(self):
        curve = tp.constant_curve(np.linspace(0, 1, 5), 0.3)
        with pytest.raises(tp.ParameterError):
            curve(1.5)

    @pytest.mark.parametrize("query", [np.nan, np.array(np.nan), np.array([0.2, np.nan, 0.7])])
    def test_nan_query_raises(self, query):
        curve = tp.constant_curve(np.linspace(0, 1, 5), 0.3)
        with pytest.raises(tp.ParameterError):
            curve(query)

    def test_query_below_two_knots_at_a_bucket_edge(self):
        # on this domain a query two ulps below the left edge of equal-width
        # cell 86 rounds into that cell; with knots on the edge and one ulp
        # below it, the query lies in segment 84, and both answers are
        # np.interp's there
        knots = np.linspace(-28.329282336421898, 188.90432101312211, 1128)
        knots[85] = np.nextafter(knots[86], -np.inf)
        x = np.nextafter(knots[85], -np.inf)
        values = np.linspace(0.0, 1.0, knots.size) ** 2
        curve = tp.ThresholdCurve(knots, values)
        assert curve(x) == float(np.interp(x, knots, values))
        assert curve.at_or_above(x, curve(x))

    def test_invert_requires_monotone_flag(self):
        curve = tp.ThresholdCurve(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.2]))
        with pytest.raises(tp.ParameterError):
            curve.invert(0.5)

    def test_knots_must_increase(self):
        with pytest.raises(tp.ParameterError):
            tp.ThresholdCurve(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.5, 1.0]))

    @pytest.mark.parametrize("knots, values", [([0.0, 1.0, np.inf], [0.0, 0.5, 1.0]),
                                               ([0.0, 0.5, 1.0], [0.0, np.nan, 1.0])])
    def test_knots_and_values_must_be_finite(self, knots, values):
        # an infinite knot leaves the domain no finite width; a NaN value
        # lies in no codomain
        with pytest.raises(tp.ParameterError):
            tp.ThresholdCurve(np.array(knots), np.array(values))

    def test_values_must_fit_codomain(self):
        with pytest.raises(tp.ParameterError):
            tp.ThresholdCurve(np.array([0.0, 1.0]), np.array([0.0, 1.5]))

    @given(st.lists(st.floats(0.001, 0.999), min_size=3, max_size=12, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_invert_undoes_eval_on_strictly_increasing_curves(self, raw):
        knots = np.sort(np.unique(np.array([0.0, 1.0] + raw)))
        values = np.cumsum(np.linspace(0.1, 1.0, knots.size))
        values = (values - values[0]) / (values[-1] - values[0])
        curve = tp.ThresholdCurve(knots, values)
        for x in np.linspace(0.0, 1.0, 13):
            assert curve.invert(curve(float(x))) == pytest.approx(float(x), abs=1e-9)


@st.composite
def curves_and_queries(draw):
    """A curve on linspace, random, clustered (u**3) or one-spike knots,
    with queries at every knot and one ulp either side of it, at both ends,
    inside the pad outside the domain and at random points; values may
    hold -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 400))
    kind = draw(st.sampled_from(["linspace", "random", "clustered", "spike"]))
    if kind == "linspace":
        u = np.linspace(0.0, 1.0, n)
    elif kind == "random":
        u = np.r_[0.0, rng.random(n), 1.0]
    elif kind == "clustered":
        u = np.linspace(0.0, 1.0, n) ** 3
    else:
        spike = rng.random() * (1.0 - 1e-6)
        u = np.r_[np.linspace(0.0, 1.0, n), spike + np.linspace(0.0, 1e-6, 12)]
    lo = draw(st.floats(-10.0, 10.0))
    span = draw(st.floats(1e-3, 1e3))
    knots = np.unique(lo + span * np.unique(u))
    values = rng.normal(size=knots.size) * draw(st.sampled_from([1e-6, 1.0, 1e6]))
    values[rng.random(knots.size) < 0.1] = -0.0
    lo, hi = knots[0], knots[-1]
    pad = 1e-12 * max(1.0, hi - lo)
    inner = knots[1:-1]
    queries = np.r_[knots, np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf),
                    lo, hi, lo - pad * rng.random(3), hi + pad * rng.random(3),
                    lo + (hi - lo) * rng.random(200)]
    return knots, values, rng.permutation(queries)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@given(curves_and_queries())
@settings(max_examples=150, deadline=None)
def test_curve_matches_np_interp_bit_for_bit(case):
    knots, values, queries = case
    curve = tp.ThresholdCurve(knots, values, codomain=(values.min(), values.max()))
    want = np.interp(queries, knots, values)
    assert np.array_equal(bits(curve(queries)), bits(want))
    got = curve(float(queries[0]))
    assert type(got) is float and got.hex() == float(want[0]).hex()
    assert curve(np.array(queries[1])).hex() == float(want[1]).hex()
    assert curve(np.array([])).shape == (0,)
    grid = queries[:12].reshape(3, 4)
    assert np.array_equal(bits(curve(grid)), bits(np.interp(grid, knots, values)))


@st.composite
def curves_and_comparisons(draw):
    """A curve (nondecreasing or not) on random, clustered or linspace
    knots, or on linspace knots with some moved one ulp below the next knot,
    at an edge of N-1 equal-width cells; with queries at every knot, one ulp
    either side of it, at each cell edge, at both ends and inside the pad
    outside the domain,
    and levels y at, one ulp off and away from the curve, plus NaN and
    infinite levels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(["linspace", "random", "clustered", "edges"]))
    lo = draw(st.floats(-10.0, 10.0))
    span = draw(st.floats(1e-3, 1e3))
    if kind == "random":
        knots = lo + span * np.r_[0.0, np.sort(rng.random(n)), 1.0]
    elif kind == "clustered":
        knots = lo + span * np.linspace(0.0, 1.0, n) ** 3
    else:
        knots = np.linspace(lo, lo + span, n)
        if kind == "edges":
            moved = np.arange(2, n - 1, 3)
            moved = moved[rng.random(moved.size) < 0.5]
            knots[moved - 1] = np.nextafter(knots[moved], -np.inf)
    knots = np.unique(knots)
    values = rng.normal(size=knots.size) * draw(st.sampled_from([1e-6, 1.0, 1e6]))
    if draw(st.booleans()):
        values = np.sort(values)
    first, last = knots[0], knots[-1]
    edges = first + np.arange(knots.size) * ((last - first) / (knots.size - 1))
    edges = edges[(edges >= first) & (edges <= last)]
    pad = 1e-12 * max(1.0, last - first)
    x = np.r_[knots, np.nextafter(knots[1:], -np.inf), np.nextafter(knots[:-1], np.inf),
              edges, np.nextafter(edges[1:], -np.inf), np.nextafter(edges[:-1], np.inf),
              first, last, first - pad * rng.random(3), last + pad * rng.random(3),
              first + (last - first) * rng.random(200)]
    x = rng.permutation(x)
    at = np.interp(x, knots, values)
    y = np.r_[at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf),
              values.min() + (values.max() - values.min()) * rng.random(x.size),
              np.nan, np.inf, -np.inf]
    x = np.r_[x, x, x, x, x[:3]]
    order = rng.permutation(x.size)
    curve = tp.ThresholdCurve(knots, values, codomain=(values.min(), values.max()))
    return curve, x[order], y[order]


@given(curves_and_comparisons())
@settings(max_examples=150, deadline=None)
def test_at_or_above_is_the_comparison_elementwise(case):
    curve, x, y = case
    want = y >= curve(x)
    assert np.array_equal(curve.at_or_above(x, y), want)
    grid = x[:12].reshape(3, 4)
    assert np.array_equal(curve.at_or_above(grid, y[0]), y[0] >= curve(grid))
    assert curve.at_or_above(x[0], y[0]) == want[0]
    assert curve.at_or_above(np.array([]), np.array([])).shape == (0,)


class TestAtOrAbove:
    @pytest.fixture(scope="class")
    def curve(self):
        return tp.ThresholdCurve(np.linspace(0.0, 1.0, 1001),
                                 np.linspace(0.0, 1.0, 1001) ** 0.5)

    def test_many_queries_in_one_pass(self, curve):
        rng = np.random.default_rng(3)
        x = rng.random(2 * (1 << 16) + 5)  # more than two of simulate's blocks
        y = np.where(rng.random(x.size) < 0.5, curve(x), rng.random(x.size))
        assert np.array_equal(curve.at_or_above(x, y), y >= curve(x))

    def test_level_between_a_segment_end_and_the_rounded_value_next_to_it(self):
        # one ulp below the right knot, np.interp rounds 1.5e-16 above the
        # segment's larger end value
        curve = tp.ThresholdCurve(np.array([9.570728520863033, 25.75664159348478]),
                                  np.array([-7.71312790864529, 0.00965797009412291]),
                                  codomain=(-8.0, 1.0))
        x, y = 25.756641593484776, 0.00965797009412291
        assert curve(x) > y
        assert not curve.at_or_above(x, y)

    def test_query_past_a_bucket_edge_that_rounds_into_the_bucket_before(self):
        # on this domain a query two ulps above the left edge of equal-width
        # cell 22 rounds into cell 21; a knot between the edge and the query
        # starts a steep segment, whose value np.interp returns
        knots = np.linspace(-48.34723644714709, -48.34723644714709 + 244.16780152088145, 129)
        edge = knots[0] + 22 * ((knots[-1] - knots[0]) / 128)
        x = np.nextafter(np.nextafter(edge, np.inf), np.inf)
        knots[22] = np.nextafter(edge, np.inf)
        knots[23] = np.nextafter(np.nextafter(x, np.inf), np.inf)
        values = np.zeros(knots.size)
        values[23] = 1e6
        curve = tp.ThresholdCurve(knots, values, codomain=(0.0, 1e6))
        assert curve(x) > 1.0
        assert not curve.at_or_above(x, 1.0)

    @pytest.mark.parametrize("x", [np.nan, np.array([0.2, np.nan, 0.7]), 1.5, -0.1,
                                   np.array([0.5, 1.0 + 1e-9])])
    def test_nan_or_out_of_domain_query_raises(self, curve, x):
        with pytest.raises(tp.ParameterError):
            curve.at_or_above(x, 0.5)


@st.composite
def cutoff_curves_and_queries(draw):
    """A cutoff curve as `simulate` meets one: the diverse solver's, on a
    uniform or a tabulated belief distribution, or a curve that is not
    monotone on random knots; with losses at every knot and one ulp either
    side, at both domain ends, and at and inside the pad past each end, and
    beliefs at, one ulp off and away from the curve there, and NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["solver", "tabulated", "non-monotone"]))
    if kind == "non-monotone":
        lo, span = draw(st.floats(-10.0, 10.0)), draw(st.floats(1e-3, 1e3))
        knots = lo + span * np.r_[0.0, np.sort(rng.random(draw(st.integers(0, 200)))), 1.0]
        curve = tp.ThresholdCurve(np.unique(knots), rng.random(np.unique(knots).size))
    else:
        b = draw(st.floats(1.5, 4.0))
        params = tp.validate_params(b, draw(st.floats(b + 3.0, 40.0)))
        G = tp.uniform_belief()
        if kind == "tabulated":
            k = draw(st.integers(2, 6))
            knots, cdf = (np.r_[0.0, np.cumsum(0.1 + rng.random(k))] for _ in range(2))
            G = tp.tabulated_belief(knots / knots[-1], cdf / cdf[-1])
        F = tp.uniform_loss(draw(st.floats(0.5, 8.0)))
        curve = tp.solve_diverse_threshold(params, F, G).threshold
    knots = curve.knots
    lo, hi = curve.domain
    pad = 1e-12 * max(1.0, hi - lo)
    x = np.r_[knots, np.nextafter(knots[1:], -np.inf), np.nextafter(knots[:-1], np.inf),
              lo, hi, lo - pad, hi + pad, lo - pad * rng.random(3), hi + pad * rng.random(3),
              lo + (hi - lo) * rng.random(300)]
    at = curve(x)
    y = np.r_[at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf), rng.random(x.size),
              np.nan, np.nan]
    x = np.r_[x, x, x, x, lo, hi]
    order = rng.permutation(x.size)
    return curve, x[order], y[order]


@given(cutoff_curves_and_queries())
@settings(max_examples=100, deadline=None)
def test_cutoff_kernel_is_the_comparison_and_checks_the_losses(case):
    curve, x, y = case

    def kernel(x):
        # simulate's workspace: views into longer arrays, holding stale values
        out, flags = np.ones((2, x.size + 3), dtype=bool)[:, :x.size]
        curve._at_or_above_into(x, y, out, flags)
        return out

    want = y >= curve(x)
    assert np.array_equal(curve.at_or_above(x, y), want)
    assert np.array_equal(kernel(x), want)
    lo, hi = curve.domain
    pad = 1e-12 * max(1.0, hi - lo)
    for bad in (np.nan, np.nextafter(lo - pad, -np.inf), np.nextafter(hi + pad, np.inf)):
        x_bad = x.copy()
        x_bad[x.size // 2] = bad
        with pytest.raises(tp.ParameterError, match="outside curve domain"):
            curve.at_or_above(x_bad, y)
        with pytest.raises(tp.ParameterError, match="outside curve domain"):
            kernel(x_bad)


SOLVERS_WITH_TOL = {
    "solve_common_equilibria": lambda p, F, G, tol: tp.solve_common_equilibria(0.05, p, F, tol=tol),
    "solve_diverse_threshold": lambda p, F, G, tol: tp.solve_diverse_threshold(p, F, G, tol=tol),
    "solve_pi_dagger": lambda p, F, G, tol: tp.solve_pi_dagger(p, tp.solve_alpha_beta(p), tol=tol),
    "adaptive_simpson": lambda p, F, G, tol: adaptive_simpson(np.sin, 0.0, 1.0, tol=tol),
}


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
@pytest.mark.parametrize("solver", sorted(SOLVERS_WITH_TOL))
def test_solvers_reject_a_tolerance_that_is_not_positive_and_finite(solver, tol, p28, unit_loss,
                                                                    unit_belief):
    with pytest.raises(tp.ParameterError, match="tolerance"):
        SOLVERS_WITH_TOL[solver](p28, unit_loss, unit_belief, tol)


def _tangency_residual(p, F, G):
    sol = tp.critical_pair(p, F)
    ell = sol.ell_prime
    return (1.0 - float(F.cdf(ell))) - float(F.pdf(ell)) * (ell - (p.b - 1.0))


def _asymmetric_residual(p, F, G):
    # beliefs either side of (b-1)/m: one interior intersection
    sol = tp.solve_asymmetric(0.9 * p.pi_low, 1.1 * p.pi_low, p, F)
    assert sol.unique and 0.0 < sol.ell1_hat < sol.ell2_hat < F.ell_bar
    assert sol.ell2_hat == tp.best_response_threshold(sol.pi2, sol.ell1_hat, p, F)
    return tp.best_response_threshold(sol.pi1, sol.ell2_hat, p, F) - sol.ell1_hat


def _group_common_residual(p, F, G):
    root = tp.solve_group_common(3, p.pi_low, p, F)
    assert not root.corner
    return extensions._payoff_gap(3, p.pi_low, root.value, F.cdf(root.value), p, "consistent")


def _group_diverse_residual(p, F, G):
    q = extensions._group_fixed_point(3, p, "consistent", F, G)
    curve = tp.solve_group_diverse(3, p, F, G)
    want = extensions._group_threshold_given_q(3, curve.knots, q, p, "consistent", F.ell_bar)
    np.testing.assert_array_equal(curve.values, want)
    return extensions._q_update(3, q, p, "consistent", F, G) - q


# Solvers whose tolerance is a module constant rather than an option: the
# residual each documents holds at that constant.
SOLVERS_WITH_FIXED_TOL = {
    "critical_pair": (_tangency_residual, TANGENCY_TOL),
    "solve_asymmetric": (_asymmetric_residual, extensions.SOLVE_TOL),
    "solve_group_common": (_group_common_residual, extensions.SOLVE_TOL),
    "solve_group_diverse": (_group_diverse_residual, extensions.SOLVE_TOL),
}

FIXED_TOL_GAMES = {
    "b3-m50-uniform8": lambda: (tp.validate_params(3.0, 50.0), tp.uniform_loss(8.0)),
    "b2-m8-uniform4": lambda: (tp.validate_params(2.0, 8.0), tp.uniform_loss(4.0)),
    "b1.5-m3-tabulated": lambda: (tp.validate_params(1.5, 3.0),
                                  tp.tabulated_loss([0.0, 1.0, 3.0], [0.0, 0.2, 1.0])),
    "b8-m1e3-uniform10": lambda: (tp.validate_params(8.0, 1e3), tp.uniform_loss(10.0)),
}


@pytest.mark.parametrize("game", sorted(FIXED_TOL_GAMES))
@pytest.mark.parametrize("solver", sorted(SOLVERS_WITH_FIXED_TOL))
def test_solvers_meet_their_fixed_tolerance(solver, game, unit_belief):
    residual, tol = SOLVERS_WITH_FIXED_TOL[solver]
    p, F = FIXED_TOL_GAMES[game]()
    assert abs(residual(p, F, unit_belief)) <= tol


@pytest.mark.parametrize("max_iter", [0, -1])
def test_diverse_solver_rejects_an_iteration_cap_below_one(max_iter, p28, unit_loss,
                                                           unit_belief):
    with pytest.raises(tp.ParameterError, match="max_iter"):
        tp.solve_diverse_threshold(p28, unit_loss, unit_belief, max_iter=max_iter)
