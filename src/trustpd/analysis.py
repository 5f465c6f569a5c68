"""Cross-regime comparison in the uniform setting: the belief at which the
two threshold rules cross, ex-ante cooperation probabilities under shared and
dispersed beliefs, the (b, m) region where dispersion wins, and parameter
sensitivities of the crossing belief.

Everything here lives on uniform losses and beliefs over [0, 1] with b >= 2,
the regime where the shared-belief threshold is unique and closed-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common_eq import closed_form_common_uniform
from .core import GameParams, InvariantViolation, ParameterError, validate_params
from .diverse_eq import AlphaBeta, closed_form_diverse_uniform, solve_alpha_beta
from .numerics import adaptive_simpson, bracket_roots


@dataclass(frozen=True)
class CooperationReport:
    """Headline comparison numbers for one (b, m) pair."""

    pi_dagger: float
    p_common: float
    p_diverse: float
    phi: float
    gamma_aux: float
    # (beta, upper kink of the dispersed threshold, (b-1)/m), in ascending order
    regime_bounds: tuple[float, float, float]


def _phi(params: GameParams) -> float:
    return math.sqrt(params.coop_premium + params.b ** 2 / 4.0)


def _gamma_aux(params: GameParams) -> float:
    return math.sqrt(1.0 + 4.0 * (params.b - 1.0) / params.coop_premium)


def _upper_kink(params: GameParams, ab: AlphaBeta) -> float:
    return 1.0 - params.coop_premium / (ab.alpha + ab.beta)


def solve_pi_dagger(params: GameParams, ab: AlphaBeta, tol: float = 1e-10,
                    scan_points: int = 500) -> float:
    """Unique belief where the dispersed threshold overtakes the shared one.

    Sweeps the difference of the two closed-form thresholds across the open
    interval (beta, upper kink) with `bracket_roots`, demands exactly one sign
    change, and returns its bisected root. Anything other than one sign
    change contradicts the single-crossing property and raises.
    """
    lo, hi = ab.beta, _upper_kink(params, ab)

    def diff(pi):
        return closed_form_common_uniform(pi, params) - closed_form_diverse_uniform(pi, params, ab)

    grid = np.linspace(lo, hi, scan_points + 2)[1:-1]
    roots = bracket_roots(diff, grid, zero_tol=0.0, ftol=tol).roots
    if len(roots) != 1:
        raise InvariantViolation(
            f"expected exactly one sign change of the threshold gap on ({lo}, {hi}), "
            f"found {len(roots)}"
        )
    return roots[0]


def ex_ante_p_common(params: GameParams, method: str = "closed_form") -> float:
    """Ex-ante cooperation probability under a shared belief drawn uniformly.

    closed_form evaluates the log expression in phi; quadrature integrates
    (1+m-b)/(1+m-b+bl-l^2) over [0, 1] by adaptive Simpson. The two agree to
    quadrature tolerance and serve as mutual oracles.
    """
    if params.b < 2.0:
        raise ParameterError(f"requires b >= 2, got b={params.b}")
    a = params.coop_premium
    if method == "closed_form":
        phi = _phi(params)
        den = phi * (phi - 1.0) - params.b / 2.0 * (params.b / 2.0 - 1.0)
        if den <= 0.0:
            raise ParameterError(f"log argument not positive (denominator {den})")
        return a / (2.0 * phi) * math.log1p(2.0 * phi / den)
    if method == "quadrature":
        return adaptive_simpson(
            lambda l: a / (a + params.b * l - l * l), 0.0, 1.0, tol=1e-12
        )
    raise ParameterError(f"method must be 'closed_form' or 'quadrature', got {method!r}")


def ex_ante_p_diverse(params: GameParams, ab: AlphaBeta | None = None,
                      method: str = "closed_form") -> float:
    """Ex-ante cooperation probability under dispersed beliefs.

    closed_form is the log expression in gamma (the integral of the
    approximate cutoff, exact as m grows); quadrature integrates the cutoff
    1 - (1+m-b)/(alpha + beta*l) for the supplied coefficient pair and
    returns one minus that mass.
    """
    a = params.coop_premium
    if method == "closed_form":
        g = _gamma_aux(params)
        # log1p keeps the g -> 1 (b -> 1) degeneracy exact without a series branch
        return a * (g + 1.0) / (g - 1.0) * math.log1p(
            2.0 * (g - 1.0) / (a * (g + 1.0) ** 2)
        )
    if method == "quadrature":
        if ab is None:
            ab = solve_alpha_beta(params, mode="approximate")
        cutoff_mass = adaptive_simpson(
            lambda l: 1.0 - a / (ab.alpha + ab.beta * l), 0.0, 1.0, tol=1e-12
        )
        return 1.0 - cutoff_mass
    raise ParameterError(f"method must be 'closed_form' or 'quadrature', got {method!r}")


def cooperation_report(params: GameParams, mode: str = "approximate") -> CooperationReport:
    """Assemble the crossing belief, both ex-ante probabilities, and bounds."""
    ab = solve_alpha_beta(params, mode=mode)
    upper = _upper_kink(params, ab)
    report = CooperationReport(
        pi_dagger=solve_pi_dagger(params, ab),
        p_common=ex_ante_p_common(params),
        p_diverse=ex_ante_p_diverse(params, ab),
        phi=_phi(params),
        gamma_aux=_gamma_aux(params),
        regime_bounds=(ab.beta, upper, params.pi_low),
    )
    if not ab.beta < upper <= params.pi_low + 1e-12:
        raise InvariantViolation(f"regime bounds out of order: {report.regime_bounds}")
    if not 0.0 < report.pi_dagger < upper:
        raise InvariantViolation(f"crossing belief {report.pi_dagger} outside (0, {upper})")
    return report


@dataclass(frozen=True)
class RegionGrid:
    """Element-wise comparison of the two ex-ante probabilities on a (b, m) grid."""

    b_grid: np.ndarray
    m_grid: np.ndarray
    p_common: np.ndarray  # NaN on invalid cells
    p_diverse: np.ndarray
    diverse_wins: np.ndarray  # bool, False on invalid cells
    valid: np.ndarray


def diversity_region(b_grid, m_grid) -> RegionGrid:
    """Mask of grid cells where dispersed beliefs yield more cooperation.

    Cells violating b >= 2 or m > b - 1 are skipped and flagged invalid
    rather than raising, so rectangular grids can overlap the excluded zone.
    """
    b_grid = np.asarray(b_grid, dtype=float)
    m_grid = np.asarray(m_grid, dtype=float)
    shape = (b_grid.size, m_grid.size)
    p_c = np.full(shape, np.nan)
    p_d = np.full(shape, np.nan)
    valid = np.zeros(shape, dtype=bool)
    for i, b in enumerate(b_grid):
        for j, m in enumerate(m_grid):
            if b < 2.0 or m <= b - 1.0:
                continue
            params = validate_params(b, m)
            p_c[i, j] = ex_ante_p_common(params)
            p_d[i, j] = ex_ante_p_diverse(params)
            valid[i, j] = True
    wins = np.zeros(shape, dtype=bool)
    wins[valid] = p_d[valid] > p_c[valid]
    return RegionGrid(b_grid=b_grid, m_grid=m_grid, p_common=p_c, p_diverse=p_d,
                      diverse_wins=wins, valid=valid)


def pi_dagger_sensitivity(params: GameParams, step: float = 1e-4) -> tuple[float, float]:
    """Central-difference sensitivities (d pi_dagger / db, d pi_dagger / dm).

    The step is relative to each parameter; steps that push the perturbed
    parameters outside b >= 2 or m > b - 1 raise before any solve runs.
    """
    def pid(b, m):
        p = validate_params(b, m)
        if b < 2.0:
            raise ParameterError(f"step too large: perturbed b={b} < 2")
        return solve_pi_dagger(p, solve_alpha_beta(p, mode="approximate"))

    db = step * params.b
    dm = step * params.m
    d_db = (pid(params.b + db, params.m) - pid(params.b - db, params.m)) / (2.0 * db)
    d_dm = (pid(params.b, params.m + dm) - pid(params.b, params.m - dm)) / (2.0 * dm)
    return d_db, d_dm
