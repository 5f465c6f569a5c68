"""The array form of every scan kernel equals its scalar form element by element.

The root solvers evaluate these kernels once on a whole scan grid and then
bisect with scalar calls, so a grid value that differed from the scalar value
at the same point could move a bracket. Equality here is exact (==).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trustpd as tp
from trustpd.common_eq import psi
from trustpd.extensions import VARIANTS, _group_gap, _payoff_gap


def power_loss(ell_bar, k):
    """Tabulated F(l) = 1 - (1 - l/ell_bar)^k, whose hazard increases in l."""
    knots = np.linspace(0.0, ell_bar, 41)
    dist = tp.tabulated_loss(knots, 1.0 - (1.0 - knots / ell_bar) ** k)
    assert dist.monotone_hazard
    return dist


def make_game(b, excess_m, ell_bar, family):
    params = tp.validate_params(b, b - 1.0 + excess_m)
    dist = tp.uniform_loss(ell_bar) if family == "uniform" else power_loss(ell_bar, family)
    return params, dist


games = st.tuples(
    st.floats(1.05, 6.0),  # b
    st.floats(0.05, 80.0),  # m - (b - 1)
    st.floats(0.2, 12.0),  # ell_bar
    st.sampled_from(["uniform", 1.5, 3.0]),  # uniform or tabulated power-law losses
)
beliefs = st.floats(0.0, 0.999)


def assert_matches_scalar(kernel, points):
    """kernel(points) == [kernel(x) for x in points], or both raise alike."""
    try:
        scalars = [kernel(float(x)) for x in points]
    except (tp.ParameterError, tp.RegimeError) as exc:
        with pytest.raises(type(exc)):
            kernel(points)
        return
    assert all(type(v) is float for v in scalars)
    out = kernel(points)
    assert isinstance(out, np.ndarray) and out.shape == points.shape
    np.testing.assert_array_equal(out, np.array(scalars))


@given(game=games, pi=beliefs)
@settings(max_examples=60, deadline=None)
def test_psi(game, pi):
    params, dist = make_game(*game)
    ells = np.linspace(0.0, dist.ell_bar * (1.0 - 1e-9), 97)
    assert_matches_scalar(lambda x: psi(x, pi, params, dist), ells)


@given(game=games, pi=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_best_response_threshold(game, pi):
    params, dist = make_game(*game)
    opponents = np.linspace(0.0, dist.ell_bar, 97)
    assert_matches_scalar(
        lambda x: tp.best_response_threshold(pi, x, params, dist), opponents
    )


@given(game=games, pi=beliefs, n=st.integers(1, 8), variant=st.sampled_from(VARIANTS))
@settings(max_examples=60, deadline=None)
def test_group_gap(game, pi, n, variant):
    params, dist = make_game(*game)
    gap = _group_gap(n, pi, params, variant, dist.cdf)
    assert_matches_scalar(gap, np.linspace(0.0, dist.ell_bar, 65))


@given(game=games, q=st.floats(0.0, 1.0), n=st.integers(1, 8),
       variant=st.sampled_from(VARIANTS), at_top=st.booleans())
@settings(max_examples=60, deadline=None)
def test_corner_gaps_over_beliefs(game, q, n, variant, at_top):
    params, dist = make_game(*game)
    t = dist.ell_bar if at_top else 0.0
    assert_matches_scalar(
        lambda pi: _payoff_gap(n, pi, t, q, params, variant), np.linspace(0.0, 1.0, 65)
    )


@given(n=st.integers(1, 12), points=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_float_power_is_the_scalar_pow(n, points):
    # the corner gaps rely on this to match pi**n of a Python float
    pis = np.array(points)
    np.testing.assert_array_equal(np.float_power(pis, n), np.array([p ** n for p in points]))


@given(b=st.floats(2.0, 6.0), excess_m=st.floats(0.05, 80.0))
@settings(max_examples=60, deadline=None)
def test_closed_forms(b, excess_m):
    params = tp.validate_params(b, b - 1.0 + excess_m)
    ab = tp.solve_alpha_beta(params, mode="approximate")
    pis = np.linspace(0.0, 1.0 - 1e-12, 97)
    assert_matches_scalar(lambda x: tp.closed_form_common_uniform(x, params), pis)
    assert_matches_scalar(lambda x: tp.closed_form_diverse_uniform(x, params, ab), pis)


class TestDomainErrors:
    @pytest.mark.parametrize("ell", [-1e-3, 8.0, np.array([0.0, 4.0, 8.0]),
                                     np.array([-1e-3, 1.0])])
    def test_psi(self, ell, fig_params, fig_dist):
        with pytest.raises(tp.ParameterError):
            psi(ell, 0.05, fig_params, fig_dist)

    @pytest.mark.parametrize("opp", [8.5, np.array([0.0, 8.5]), np.array([-1.0, 2.0])])
    def test_best_response_threshold(self, opp, fig_params, fig_dist):
        with pytest.raises(tp.ParameterError):
            tp.best_response_threshold(0.03, opp, fig_params, fig_dist)

    @pytest.mark.parametrize("pi", [1.0, -0.1, np.array([0.1, 1.0]), np.array([-0.1, 0.5])])
    def test_closed_forms(self, pi, p28):
        ab = tp.solve_alpha_beta(p28, mode="approximate")
        with pytest.raises(tp.ParameterError):
            tp.closed_form_common_uniform(pi, p28)
        with pytest.raises(tp.ParameterError):
            tp.closed_form_diverse_uniform(pi, p28, ab)

    @pytest.mark.parametrize("bad", [np.array([0.2, 1.5]), np.array([-0.5, 0.2])])
    def test_payoffs(self, bad, fig_params):
        with pytest.raises(tp.ParameterError):
            tp.payoff_cooperate(1.0, bad, 0.5, fig_params)
        with pytest.raises(tp.ParameterError):
            tp.payoff_defect(0.5, bad, fig_params)


def test_scalar_calls_return_float(fig_params, fig_dist, p28):
    ab = tp.solve_alpha_beta(p28, mode="approximate")
    gap = _group_gap(2, 0.05, fig_params, "consistent", fig_dist.cdf)
    values = [
        psi(2.0, 0.05, fig_params, fig_dist),
        tp.best_response_threshold(0.05, 2.0, fig_params, fig_dist),
        tp.best_response_threshold(0.03, 8.0, fig_params, fig_dist),
        tp.best_response_threshold(1.0, 2.0, fig_params, fig_dist),
        gap(2.0),
        _payoff_gap(2, 0.3, 0.0, 0.5, fig_params, "as_printed"),
        tp.closed_form_common_uniform(0.05, p28),
        tp.closed_form_common_uniform(0.5, p28),
        tp.closed_form_diverse_uniform(0.0, p28, ab),
        tp.closed_form_diverse_uniform(0.1, p28, ab),
    ]
    assert [type(v) for v in values] == [float] * len(values)
