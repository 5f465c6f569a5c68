"""Simulation oracle: play the matching game with sampled types, losses, and
beliefs, and compare cooperation frequencies against the analytic thresholds.

Scenario beliefs are treated as the true population frequencies of committed
types, so in the shared-belief scenario each player is committed with
probability pi, and under dispersed beliefs a player's type is drawn from the
partner's belief. Draws come from a counter-based generator (Philox) keyed by
the seed, in a fixed order per scenario, so identical configurations
reproduce bit-identical reports and parallel tranches could replay the serial
stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .common_eq import solve_common_equilibria
from .core import (
    BeliefDistribution,
    GameParams,
    LossDistribution,
    ParameterError,
    ThresholdCurve,
    payoff_cooperate,
    payoff_defect,
)
from .diverse_eq import cooperation_prob_given_strategy, solve_diverse_threshold
from .extensions import solve_asymmetric

SCENARIOS = ("common", "diverse", "asymmetric")


@dataclass(frozen=True)
class SimConfig:
    """What to simulate: scenario, its belief parameters, and the draw budget.

    `strategy` overrides the analytic equilibrium: a loss threshold for the
    common scenario, a belief-cutoff ThresholdCurve for the diverse one, or a
    pair of thresholds for the asymmetric one. `equilibrium` picks among
    multiple analytic equilibria in the common scenario.
    """

    n_samples: int
    seed: int
    scenario: str
    pi: float | None = None
    pi1: float | None = None
    pi2: float | None = None
    equilibrium: str = "lowest"  # "lowest" | "highest" | "corner"
    strategy: Any = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise ParameterError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.scenario not in SCENARIOS:
            raise ParameterError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.scenario == "common" and not (self.pi is not None and 0.0 <= self.pi < 1.0):
            raise ParameterError("common scenario needs pi in [0, 1)")
        if self.scenario == "asymmetric":
            for name, val in (("pi1", self.pi1), ("pi2", self.pi2)):
                if val is None or not 0.0 <= val < 1.0:
                    raise ParameterError(f"asymmetric scenario needs {name} in [0, 1)")


@dataclass(frozen=True)
class SimReport:
    """Cooperation frequency of strategic players with its sampling error."""

    coop_rate_strategic: float
    half_width_95: float
    analytic_prediction: float
    max_deviation_gain: float
    payoff_means: dict
    n_strategic: int
    scenario: str
    seed: int
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "n_strategic": self.n_strategic,
            "coop_rate_strategic": self.coop_rate_strategic,
            "half_width_95": self.half_width_95,
            "analytic_prediction": self.analytic_prediction,
            "max_deviation_gain": self.max_deviation_gain,
            "payoff_means": dict(self.payoff_means),
        }


def _common_threshold(config: SimConfig, params, F) -> float:
    if config.strategy is not None:
        return float(config.strategy)
    eqs = solve_common_equilibria(config.pi, params, F)
    if config.equilibrium == "lowest":
        return eqs.lowest
    if config.equilibrium == "highest":
        return max(r.value for r in eqs.roots)
    if config.equilibrium == "corner":
        if eqs.ell_corner is None:
            raise ParameterError(f"no full-cooperation corner at pi={config.pi}")
        return eqs.ell_corner
    raise ParameterError(f"unknown equilibrium selector {config.equilibrium!r}")


def _resolve_strategy(config: SimConfig, params, F, G):
    """Strategy object plus the analytic cooperation prediction for the scenario."""
    if config.scenario == "common":
        thr = _common_threshold(config, params, F)
        return thr, float(F.cdf(thr))
    if config.scenario == "diverse":
        curve = config.strategy
        if curve is None:
            curve = solve_diverse_threshold(params, F, G).threshold
        return curve, cooperation_prob_given_strategy(curve, F, G)
    pair = config.strategy
    if pair is None:
        sol = solve_asymmetric(config.pi1, config.pi2, params, F)
        pair = (sol.ell1_hat, sol.ell2_hat)
    t1, t2 = pair
    w1, w2 = 1.0 - config.pi2, 1.0 - config.pi1
    pred = (w1 * float(F.cdf(t1)) + w2 * float(F.cdf(t2))) / (w1 + w2)
    return (t1, t2), pred


def simulate(
    config: SimConfig,
    params: GameParams,
    F: LossDistribution,
    G: BeliefDistribution | None = None,
) -> SimReport:
    """Play n sampled matches under the configured scenario and tally outcomes."""
    if config.scenario == "diverse" and G is None:
        raise ParameterError("diverse scenario requires a belief distribution")
    strategy, prediction = _resolve_strategy(config, params, F, G)

    rng = np.random.Generator(np.random.Philox(key=config.seed))
    n = config.n_samples

    if config.scenario == "diverse":
        beliefs1 = np.asarray(G.ppf(rng.random(n)))
        beliefs2 = np.asarray(G.ppf(rng.random(n)))
        honest1 = rng.random(n) < beliefs2  # partner 2's belief about player 1
        honest2 = rng.random(n) < beliefs1
        loss1 = np.asarray(F.ppf(rng.random(n)))
        loss2 = np.asarray(F.ppf(rng.random(n)))
        coop1 = honest1 | (beliefs1 >= strategy(loss1))
        coop2 = honest2 | (beliefs2 >= strategy(loss2))
    elif config.scenario == "common":
        pi = config.pi
        honest1 = rng.random(n) < pi
        honest2 = rng.random(n) < pi
        loss1 = np.asarray(F.ppf(rng.random(n)))
        loss2 = np.asarray(F.ppf(rng.random(n)))
        coop1 = honest1 | (loss1 <= strategy)
        coop2 = honest2 | (loss2 <= strategy)
    else:
        honest1 = rng.random(n) < config.pi2
        honest2 = rng.random(n) < config.pi1
        loss1 = np.asarray(F.ppf(rng.random(n)))
        loss2 = np.asarray(F.ppf(rng.random(n)))
        t1, t2 = strategy
        coop1 = honest1 | (loss1 <= t1)
        coop2 = honest2 | (loss2 <= t2)

    strategic = np.concatenate([~honest1, ~honest2])
    coop_all = np.concatenate([coop1, coop2])
    n_strat = int(strategic.sum())
    if n_strat == 0:
        raise ParameterError("no strategic players sampled; increase n_samples")
    p_hat = float(coop_all[strategic].mean())
    half = 1.96 * np.sqrt(p_hat * (1.0 - p_hat) / n_strat)

    payoff_means = _strategic_cell_means(
        params, honest1, honest2, coop1, coop2, loss1, loss2
    )
    gain = deviation_check(config, strategy, params, F, G)
    return SimReport(
        coop_rate_strategic=p_hat,
        half_width_95=float(half),
        analytic_prediction=float(prediction),
        max_deviation_gain=float(gain),
        payoff_means=payoff_means,
        n_strategic=n_strat,
        scenario=config.scenario,
        seed=config.seed,
        n_samples=config.n_samples,
    )


def _strategic_cell_means(params, honest1, honest2, coop1, coop2, loss1, loss2) -> dict:
    """Mean strategic payoff per (own action, partner action) cell."""
    own_coop = np.concatenate([coop1, coop2])
    own_honest = np.concatenate([honest1, honest2])
    partner_coop = np.concatenate([coop2, coop1])
    partner_honest = np.concatenate([honest2, honest1])
    own_loss = np.concatenate([loss1, loss2])

    payoff = np.zeros(own_coop.size)
    cc = own_coop & partner_coop
    cd = own_coop & ~partner_coop
    dc = ~own_coop & partner_coop
    payoff[cc] = 1.0
    payoff[cd] = -own_loss[cd]
    payoff[dc] = np.where(partner_honest[dc], params.b - params.m, params.b)

    strategic = ~own_honest
    out = {}
    for label, mask in (("CC", cc), ("CD", cd), ("DC", dc), ("DD", ~own_coop & ~partner_coop)):
        sel = mask & strategic
        out[label] = float(payoff[sel].mean()) if sel.any() else float("nan")
    return out


def deviation_check(
    config: SimConfig,
    strategy,
    params: GameParams,
    F: LossDistribution,
    G: BeliefDistribution | None = None,
    grid: int = 200,
) -> float:
    """Maximum payoff gain from deviating off the prescribed action.

    Expected payoffs against the population strategy are evaluated
    analytically (quadrature, no sampling), so at an equilibrium strategy the
    result sits at numerical-noise level rather than Monte Carlo noise.
    """
    if strategy is None:
        strategy, _ = _resolve_strategy(config, params, F, G)

    def one_sided(pi, p, threshold, losses):
        uc = payoff_cooperate(losses, pi, p)
        ud = payoff_defect(pi, p, params)
        gain = np.where(losses <= threshold, ud - uc, uc - ud)
        return max(0.0, float(gain.max()))

    losses = np.linspace(0.0, F.ell_bar, grid)
    if config.scenario == "common":
        thr = float(strategy)
        p = float(F.cdf(thr))
        return one_sided(config.pi, p, thr, losses)
    if config.scenario == "asymmetric":
        t1, t2 = strategy
        g1 = one_sided(config.pi1, float(F.cdf(t2)), t1, losses)
        g2 = one_sided(config.pi2, float(F.cdf(t1)), t2, losses)
        return max(g1, g2)
    # diverse: the (loss, belief) mesh against the cutoff curve, losses down rows
    curve = strategy
    p = cooperation_prob_given_strategy(curve, F, G)
    beliefs = np.linspace(0.0, 1.0 - 1e-9, grid)
    cutoffs = curve(losses)[:, None]
    uc = payoff_cooperate(losses[:, None], beliefs, p)
    ud = payoff_defect(beliefs, p, params)
    gain = np.where(beliefs >= cutoffs, ud - uc, uc - ud)
    return max(0.0, float(gain.max()))
