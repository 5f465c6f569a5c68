import math

import numpy as np
import pytest

import trustpd as tp
from trustpd.common_eq import psi


def clamp_br(pi, opp, params, dist):
    return tp.best_response_threshold(pi, opp, params, dist)


class TestSolveAsymmetric:
    def test_symmetric_beliefs_reduce_to_common_solver(self, fig_params, fig_dist):
        sol = tp.solve_asymmetric(0.03, 0.03, fig_params, fig_dist)
        common = tp.solve_common_equilibria(0.03, fig_params, fig_dist, tol=1e-12)
        assert sol.unique
        assert sol.ell1_hat == pytest.approx(common.lowest, abs=1e-8)
        assert sol.ell2_hat == pytest.approx(common.lowest, abs=1e-8)

    def test_system_residuals(self, fig_params, fig_dist):
        sol = tp.solve_asymmetric(0.03, 0.10, fig_params, fig_dist)
        assert sol.ell1_hat == pytest.approx(
            clamp_br(0.03, sol.ell2_hat, fig_params, fig_dist), abs=1e-10
        )
        assert sol.ell2_hat == pytest.approx(
            clamp_br(0.10, sol.ell1_hat, fig_params, fig_dist), abs=1e-10
        )

    def test_raising_optimism_backfires(self, fig_params, fig_dist):
        lo = tp.solve_asymmetric(0.03, 0.05, fig_params, fig_dist)
        hi = tp.solve_asymmetric(0.03, 0.10, fig_params, fig_dist)
        assert hi.ell1_hat < lo.ell1_hat
        assert hi.ell2_hat > lo.ell2_hat

    def test_zero_optimist_belief(self, fig_params, fig_dist):
        # pi2 = 0 hard-wires player 2 to defect; player 1 best-responds to p=0
        sol = tp.solve_asymmetric(0.03, 0.0, fig_params, fig_dist)
        assert sol.ell2_hat == pytest.approx(0.0, abs=1e-10)
        expected = fig_params.coop_premium * 0.03 / 0.97
        assert sol.ell1_hat == pytest.approx(expected, abs=1e-10)

    def test_unique_flag_gates_on_pi1(self, fig_params, fig_dist):
        assert tp.solve_asymmetric(0.03, 0.2, fig_params, fig_dist).unique
        assert not tp.solve_asymmetric(0.05, 0.05, fig_params, fig_dist).unique


class TestAsymmetricSensitivity:
    def test_negative_across_sampled_configurations(self, fig_params, fig_dist):
        for pi1 in (0.02, 0.03):
            for pi2 in (0.05, 0.06, 0.065):
                d = tp.asymmetric_sensitivity(pi1, pi2, fig_params, fig_dist)
                assert d < 0

    def test_hypothesis_gate(self, fig_params, fig_dist):
        # both beliefs below (b-1)/m: outside the claim, rejected
        with pytest.raises(tp.ParameterError):
            tp.asymmetric_sensitivity(0.02, 0.03, fig_params, fig_dist)

    def test_corner_reported(self, fig_params, fig_dist):
        # pi2 large enough that player 2 cooperates for every loss
        with pytest.raises(tp.RegimeError):
            tp.asymmetric_sensitivity(0.03, 0.3, fig_params, fig_dist)

    def test_matches_implicit_function_formula(self, fig_params, fig_dist):
        # oracle: Psi_l Psi_pi / (1 - Psi_l Psi_l) from finite differences of psi
        pi1, pi2 = 0.03, 0.08
        sol = tp.solve_asymmetric(pi1, pi2, fig_params, fig_dist)
        h = 1e-6

        def dpsi_dl(ell, pi):
            return (psi(ell + h, pi, fig_params, fig_dist)
                    - psi(ell - h, pi, fig_params, fig_dist)) / (2 * h)

        def dpsi_dpi(ell, pi):
            return (psi(ell, pi + h, fig_params, fig_dist)
                    - psi(ell, pi - h, fig_params, fig_dist)) / (2 * h)

        num = dpsi_dl(sol.ell2_hat, pi1) * dpsi_dpi(sol.ell1_hat, pi2)
        den = 1 - dpsi_dl(sol.ell2_hat, pi1) * dpsi_dl(sol.ell1_hat, pi2)
        expected = num / den
        measured = tp.asymmetric_sensitivity(pi1, pi2, fig_params, fig_dist)
        assert measured == pytest.approx(expected, rel=0.05)


class TestGroupCommon:
    def test_n1_consistent_matches_two_player(self, fig_params, fig_dist):
        for pi in (0.03, 0.05, 0.08):
            group = tp.solve_group_common(1, pi, fig_params, fig_dist, variant="consistent")
            eqs = tp.solve_common_equilibria(pi, fig_params, fig_dist, tol=1e-12)
            two = eqs.lowest if eqs.regime != "unique-corner" else eqs.ell_corner
            assert group.value == pytest.approx(two, abs=1e-6)

    def test_zero_belief_forces_defection_corner(self, fig_params, fig_dist):
        for variant in ("consistent", "as_printed"):
            for n in (1, 4):
                root = tp.solve_group_common(n, 0.0, fig_params, fig_dist, variant=variant)
                assert root.value == 0.0

    def test_strong_moral_cost_forces_cooperation(self, unit_loss):
        # m pi^n > b with the remaining terms bounded: cooperate for all losses
        params = tp.validate_params(2, 40)
        root = tp.solve_group_common(1, 0.9, params, unit_loss, variant="consistent")
        assert root.value == 1.0
        assert root.corner
        # one-sided inequality at the cooperation corner: gap >= 0 everywhere
        for t in np.linspace(0, 1, 50):
            s = 0.9 + 0.1 * float(unit_loss.cdf(t))
            gap = (1 + t - params.b) * s - t + params.m * 0.9
            assert gap >= 0

    def test_as_printed_residual(self, p28, unit_loss):
        for n, pi in ((1, 0.3), (3, 0.7)):
            root = tp.solve_group_common(n, pi, p28, unit_loss, variant="as_printed")
            assert not root.corner
            assert root.residual <= 1e-8
            # oracle: plug the root back into the printed equation
            s = (pi + (1 - pi) * float(unit_loss.cdf(root.value))) ** n
            lhs = (1 - root.value) * s - root.value
            rhs = p28.b - p28.m * pi**n
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_rejects_bad_arguments(self, p28, unit_loss):
        with pytest.raises(tp.ParameterError):
            tp.solve_group_common(0, 0.5, p28, unit_loss)
        with pytest.raises(tp.ParameterError):
            tp.solve_group_common(2, 1.0, p28, unit_loss)
        with pytest.raises(tp.ParameterError):
            tp.solve_group_common(2, 0.5, p28, unit_loss, variant="bogus")


class TestGroupDiverse:
    def test_n1_consistent_matches_two_player_curve(self, p28, unit_loss, unit_belief, diverse_28):
        group = tp.solve_group_diverse(1, p28, unit_loss, unit_belief, variant="consistent")
        s = diverse_28.threshold
        errs = []
        for pi in np.linspace(0.005, 0.995, 199):
            if pi <= s.values[0]:
                two = 0.0
            elif pi >= s.values[-1]:
                two = 1.0
            else:
                two = s.invert(float(pi))
            errs.append(abs(float(group(float(pi))) - two))
        assert max(errs) <= 1e-6

    def test_first_iterate_from_all_defect_is_monotone(self, p28):
        from trustpd.extensions import _group_threshold_given_q

        pis = np.linspace(0, 1, 400)
        for variant in ("consistent", "as_printed"):
            t = _group_threshold_given_q(2, pis, 0.0, p28, variant, 1.0)
            assert np.all(np.diff(t) >= -1e-12)

    def test_converged_curve_monotone(self, p28, unit_loss, unit_belief):
        curve = tp.solve_group_diverse(2, p28, unit_loss, unit_belief)
        assert curve.monotone

    def test_thresholds_fall_toward_pure_dilemma_as_group_grows(self, p28, unit_loss, unit_belief):
        vals = [
            float(tp.solve_group_diverse(n, p28, unit_loss, unit_belief)(0.5))
            for n in (1, 2, 5, 10)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]

    def test_group_common_thresholds_fall_in_n_too(self, p28, unit_loss):
        vals = [
            tp.solve_group_common(n, 0.5, p28, unit_loss).value for n in (1, 2, 5, 10)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
