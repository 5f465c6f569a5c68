"""Numerical equilibrium library for a prisoner's dilemma in which partners
may be committed cooperators: threshold strategies under shared or dispersed
trust beliefs, regime boundaries, cooperation probabilities, and simulation
oracles.
"""

__version__ = "0.1.0"

from .core import (
    BELIEF_EPS,
    BeliefDistribution,
    ConvergenceError,
    EquilibriumRoot,
    EquilibriumSet,
    GameParams,
    InvariantViolation,
    LossDistribution,
    NoThresholdEquilibrium,
    ParameterError,
    RegimeError,
    ThresholdCurve,
    constant_curve,
    hazard,
    payoff_cooperate,
    payoff_defect,
    tabulated_belief,
    tabulated_loss,
    uniform_belief,
    uniform_loss,
    validate_params,
)
from .common_eq import (
    CommonCriticals,
    best_response_threshold,
    chi_bound,
    closed_form_common_uniform,
    critical_pair,
    psi,
    solve_common_equilibria,
)
from .diverse_eq import (
    AlphaBeta,
    DiverseSolution,
    apply_T,
    closed_form_diverse_uniform,
    cooperation_prob_given_strategy,
    solve_alpha_beta,
    solve_diverse_threshold,
)
from .analysis import (
    CooperationReport,
    RegionGrid,
    cooperation_report,
    diversity_region,
    ex_ante_p_common,
    ex_ante_p_diverse,
    pi_dagger_sensitivity,
    solve_pi_dagger,
)
from .extensions import (
    AsymmetricEquilibrium,
    GroupRoot,
    asymmetric_sensitivity,
    solve_asymmetric,
    solve_group_common,
    solve_group_diverse,
)
from .montecarlo import SimConfig, SimReport, deviation_check, simulate
