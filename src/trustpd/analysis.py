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

from .core import GameParams, InvariantViolation, ParameterError, check_tol
from .diverse_eq import AlphaBeta, _cutoff_at, solve_alpha_beta
from .numerics import adaptive_simpson


@dataclass(frozen=True)
class CooperationReport:
    """Headline comparison numbers for one (b, m) pair; p_diverse is the
    approximate closed form whatever the mode."""

    pi_dagger: float
    p_common: float
    p_diverse: float
    phi: float
    gamma_aux: float
    # (lower kink, upper kink of the dispersed threshold, (b-1)/m), ascending
    regime_bounds: tuple[float, float, float]


# The closed forms below take arrays of b and a = 1+m-b, and give each cell
# the bits a lone float gets: squares go through libm's pow, as Python's ** does
# (numpy's x ** 2 is x*x), and log1p through math.log1p (numpy's SIMD log1p
# differs in the last bit on some hosts). `_log1p` maps math.log1p over the
# cells' Python floats, about 1.4 times as fast as np.vectorize on the
# region's 9647 cells, with the same libm call per cell.
def _log1p(x):
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.log1p, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _phi(b, a):
    return np.sqrt(a + np.float_power(b, 2) / 4.0)


def _gamma_aux(b, a):
    return np.sqrt(1.0 + 4.0 * (b - 1.0) / a)


def _p_common_closed(b, a):
    phi = _phi(b, a)
    den = phi * (phi - 1.0) - b / 2.0 * (b / 2.0 - 1.0)
    if np.any(den <= 0.0):
        raise ParameterError(f"log argument not positive (denominator {np.min(den)})")
    # the value is 1 - O(1/a); from a of about 3e15 on its rounding can land
    # above 1, so it is capped there, and every value below keeps its bits
    return np.minimum(a / (2.0 * phi) * _log1p(2.0 * phi / den), 1.0)


def _p_diverse_closed(b, a):
    g = _gamma_aux(b, a)
    # log1p keeps the g -> 1 (b -> 1) degeneracy exact without a series branch.
    # The value is 2/(g+1) log1p(y)/y, y = 2(g-1)/(a(g+1)^2), so the rounding of
    # g - 1 cancels; where g itself rounds to 1, from m - (b-1) of about 1e16 on,
    # that is 1 to within 1/m, and the quotient below would be 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = a * (g + 1.0) / (g - 1.0) * _log1p(2.0 * (g - 1.0) / (a * np.float_power(g + 1.0, 2)))
    return np.where(g > 1.0, p, 1.0)


def solve_pi_dagger(params: GameParams, ab: AlphaBeta, tol: float = 1e-10) -> float:
    """Unique belief where the dispersed threshold overtakes the shared one.

    At a crossing pi = s(l) the shared threshold l solves
    l^2 - b l + (1+m-b) pi/(1-pi) = 0, which with alpha = m - (b-1) beta is
    l^2 - (b - beta) l + (alpha - (1+m-b)) = 0, with roots 1 - beta and
    b - 1 >= 1. Both thresholds are 1 - beta there, so the crossing belief is
    the cutoff at l = 1 - beta. `tol` bounds |alpha + (b-1) beta - m| relative
    to m, the identity this rests on; a pair off it by more raises.
    """
    check_tol(tol)
    if params.b < 2.0:
        raise ParameterError(f"crossing belief requires b >= 2, got b={params.b}")
    drift = abs(ab.alpha + (params.b - 1.0) * ab.beta - params.m)
    if drift > tol * params.m:
        raise InvariantViolation(
            f"coefficients off alpha + (b-1) beta = m by {drift:.3e} (m = {params.m})"
        )
    return _cutoff_at(params, ab, 1.0 - ab.beta)


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
        return float(_p_common_closed(params.b, a))
    if method == "quadrature":
        return adaptive_simpson(
            lambda l: a / (a + params.b * l - l * l), 0.0, 1.0, tol=1e-12
        )
    raise ParameterError(f"method must be 'closed_form' or 'quadrature', got {method!r}")


def ex_ante_p_diverse(params: GameParams, method: str = "closed_form") -> float:
    """Ex-ante cooperation probability under dispersed beliefs.

    closed_form is the log expression in gamma (the integral of the
    approximate cutoff, exact as m grows); quadrature integrates that
    cutoff, 1 - (1+m-b)/(alpha + beta*l) for the approximate coefficient
    pair, and returns one minus that mass.
    """
    a = params.coop_premium
    if method == "closed_form":
        return float(_p_diverse_closed(params.b, a))
    if method == "quadrature":
        ab = solve_alpha_beta(params, mode="approximate")
        cutoff_mass = adaptive_simpson(
            lambda l: 1.0 - a / (ab.alpha + ab.beta * l), 0.0, 1.0, tol=1e-12
        )
        return 1.0 - cutoff_mass
    raise ParameterError(f"method must be 'closed_form' or 'quadrature', got {method!r}")


def cooperation_report(params: GameParams, mode: str = "approximate") -> CooperationReport:
    """Assemble the crossing belief, both ex-ante probabilities, and bounds;
    p_diverse is the approximate closed form whatever the mode.

    pi_dagger and the upper bound are the cutoffs at l = 1 - beta and l = 1.
    The cutoff increases in l and 0 < beta < 1, so pi_dagger <= upper by
    construction; at large m the two round to one float (at b = 3 from m of
    about 3e8 on), so the check allows the tie. The regime bounds' lower
    end, the cutoff at l = 0, ties with upper likewise (at b = 3 from m of
    about 1e17 on, and at (2, 1e200)), and the check allows that tie too.
    """
    ab = solve_alpha_beta(params, mode=mode)
    # the dispersed threshold is 0 below the cutoff at l = 0 and 1 from the one at l = 1
    lower, upper = _cutoff_at(params, ab, 0.0), _cutoff_at(params, ab, 1.0)
    report = CooperationReport(
        pi_dagger=solve_pi_dagger(params, ab),
        p_common=ex_ante_p_common(params),
        p_diverse=ex_ante_p_diverse(params),
        phi=float(_phi(params.b, params.coop_premium)),
        gamma_aux=float(_gamma_aux(params.b, params.coop_premium)),
        regime_bounds=(lower, upper, params.pi_low),
    )
    if not lower <= upper <= params.pi_low + 1e-12:
        raise InvariantViolation(f"regime bounds out of order: {report.regime_bounds}")
    if not 0.0 < report.pi_dagger <= upper:
        raise InvariantViolation(f"crossing belief {report.pi_dagger} outside (0, {upper}]")
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

    Both closed forms are evaluated once on the (b, m) mesh, over its valid
    cells. Cells violating b >= 2 or m > b - 1 are flagged invalid, with NaN
    probabilities, rather than raising, so rectangular grids can overlap the
    excluded zone. Each valid cell holds the bits `ex_ante_p_common` and
    `ex_ante_p_diverse` return for its (b, m).
    """
    b_grid = np.asarray(b_grid, dtype=float)
    m_grid = np.asarray(m_grid, dtype=float)
    if not (np.isfinite(b_grid).all() and np.isfinite(m_grid).all()):
        raise ParameterError("diversity_region needs finite b and m grids")
    b, m = np.meshgrid(b_grid, m_grid, indexing="ij")
    valid = (b >= 2.0) & (m > b - 1.0)
    b, a = b[valid], 1.0 + m[valid] - b[valid]
    p_c = np.full(valid.shape, np.nan)
    p_d = np.full(valid.shape, np.nan)
    p_c[valid] = _p_common_closed(b, a)
    p_d[valid] = _p_diverse_closed(b, a)
    wins = np.zeros(valid.shape, dtype=bool)
    wins[valid] = p_d[valid] > p_c[valid]
    return RegionGrid(b_grid=b_grid, m_grid=m_grid, p_common=p_c, p_diverse=p_d,
                      diverse_wins=wins, valid=valid)


def pi_dagger_sensitivity(params: GameParams) -> tuple[float, float]:
    """Closed-form (d pi_dagger / db, d pi_dagger / dm) with approximate
    coefficients: alpha = a(1+r)/2 and beta = (r-1)/(r+1), a = 1+m-b and
    r = sqrt(1 + 4(b-1)/a), give pi_dagger = (1-beta)(b-1+beta)/D with
    D = alpha + beta(1-beta). d/dm is the partial in a, and d/db the partial
    in b less the one in a. Requires b >= 2."""
    ab = solve_alpha_beta(params, mode="approximate")
    pid = solve_pi_dagger(params, ab)
    b1, a, alpha, beta = params.b - 1.0, params.coop_premium, ab.alpha, ab.beta
    r = math.sqrt(1.0 + 4.0 * b1 / a)
    den = alpha + beta * (1.0 - beta)

    def partial(dr, dalpha, db):
        """d pi_dagger from the partials of r, alpha and b."""
        dbeta = 2.0 / (r + 1.0) ** 2 * dr
        dn = (1.0 - beta) * (db + dbeta) - dbeta * (b1 + beta)
        return (dn - pid * (dalpha + dbeta * (1.0 - 2.0 * beta))) / den

    dr_db = 2.0 / (a * r)
    dr_da = -b1 / a * dr_db
    d_da = partial(dr_da, 0.5 * (1.0 + r) + 0.5 * a * dr_da, 0.0)
    return partial(dr_db, 0.5 * a * dr_db, 1.0) - d_da, d_da
