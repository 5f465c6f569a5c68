"""Simulation oracle: play the matching game with sampled types, losses, and
beliefs, and compare cooperation frequencies against the analytic thresholds.

Scenario beliefs are treated as the true population frequencies of committed
types, so in the shared-belief scenario each player is committed with
probability pi, and under dispersed beliefs a player's type is drawn from the
partner's belief. Draws come from a counter-based generator (Philox) keyed
by the seed, in a fixed serial order per scenario, so identical
configurations reproduce bit-identical reports.

Each player's half of the n matches (its belief, its partner's honesty, its
loss and its strategic action) replays its own slots of that serial stream,
so player 2's half runs on a worker thread while the caller plays player
1's, and the two halves' payoff cells are gathered the same way; numpy
releases the GIL in the draws, the ufuncs and the gathers. Under dispersed
beliefs the cutoff curve compares each belief with its bucket's bound on the
curve and interpolates only the few beliefs inside it. One (2.5, 20) diverse
run of 10^6 matches takes about 72 ms (best of 9; 79 ms median) on a 2-vCPU
Xeon, most of it the six draws, about 10 ms each.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .common_eq import solve_common_equilibria
from .core import (
    BeliefDistribution,
    GameParams,
    LossDistribution,
    ParameterError,
    payoff_cooperate,
    payoff_defect,
)
from .diverse_eq import cooperation_prob_given_strategy, solve_diverse_threshold
from .extensions import solve_asymmetric

SCENARIOS = ("common", "diverse", "asymmetric")

# Matches per block in `_play_half`, so no temporary grows with n.
BLOCK = 1 << 16
# Losses (and beliefs, under dispersed beliefs) at which `deviation_check` looks.
DEVIATION_GRID = 200


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
        # Philox keys are integers in [0, 2^128); bool is an int, but no seed
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or not 0 <= self.seed < 2 ** 128):
            raise ParameterError(f"seed must be an integer in [0, 2^128), got {self.seed!r}")
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
        out = asdict(self)
        # an empty cell's mean is NaN, which JSON has no token for: null
        out["payoff_means"] = {cell: None if np.isnan(mean) else mean
                               for cell, mean in self.payoff_means.items()}
        return out


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

    # imported here, so that importing trustpd does not load the thread pool
    from concurrent.futures import ThreadPoolExecutor

    n = config.n_samples
    halves = _player_halves(config, strategy, G)
    # player 2's half runs on a worker thread while this one plays player 1's,
    # and again for the payoff cells; numpy releases the GIL in the draws, the
    # ufuncs and the gathers
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="trustpd-simulate") as pool:
        second = pool.submit(_play_half, config.seed, n, *halves[1], F)
        honest2, loss1, strategic_coop1 = _play_half(config.seed, n, *halves[0], F)
        honest1, loss2, strategic_coop2 = second.result()
        coop1, coop2 = honest1 | strategic_coop1, honest2 | strategic_coop2
        second = pool.submit(_cell_payoffs, params, honest2, coop2, coop1, honest1, loss2)
        payoffs1 = _cell_payoffs(params, honest1, coop1, coop2, honest2, loss1)
        payoff_means = _strategic_cell_means(payoffs1, second.result())

    strategic1, strategic2 = ~honest1, ~honest2
    n_strat = int(np.count_nonzero(strategic1)) + int(np.count_nonzero(strategic2))
    if n_strat == 0:
        raise ParameterError("no strategic players sampled; increase n_samples")
    # a count over a count: the mean of the strategic players' cooperation flags
    n_coop = int(np.count_nonzero(coop1 & strategic1)) + int(np.count_nonzero(coop2 & strategic2))
    p_hat = n_coop / n_strat
    half = 1.96 * np.sqrt(p_hat * (1.0 - p_hat) / n_strat)

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


def _player_halves(config: SimConfig, strategy, G):
    """Each player's belief, cooperation rule and draw slots, in player order.

    The belief is a number, or G when beliefs are dispersed; the rule maps
    losses and beliefs to the cooperation of a strategic player. Slot k of
    the serial stream holds its values k*n to (k+1)*n - 1, and the serial
    order of the draws is: the two dispersed beliefs, if any, then whether
    players 1 and 2 are committed, then their losses. A player's own belief
    is how likely its partner is committed, so each half draws its
    partner's honesty, from slots (belief, partner honesty, loss).
    """
    if config.scenario == "diverse":
        strategy._bucket_bounds  # built before the halves start, so both share it
        return (G, strategy.at_or_above, (0, 3, 4)), (G, strategy.at_or_above, (1, 2, 5))
    if config.scenario == "common":
        (pi1, pi2), (t1, t2) = (config.pi, config.pi), (strategy, strategy)
    else:
        (pi1, pi2), (t1, t2) = (config.pi1, config.pi2), strategy
    return ((pi1, lambda loss, _: loss <= t1, (None, 1, 2)),
            (pi2, lambda loss, _: loss <= t2, (None, 0, 3)))


def _stream(seed: int, offset: int) -> np.random.Generator:
    """The serial Philox stream keyed by seed, from its offset-th value on."""
    bits = np.random.Philox(key=seed)
    bits.advance(offset // 4)  # one counter step gives four 64-bit values
    bits.random_raw(offset % 4)
    return np.random.Generator(bits)


def _play_half(seed: int, n: int, belief, cooperates, slots, F: LossDistribution):
    """One player's half of n matches, BLOCK matches at a time: whether its
    partner is committed, its losses, and whether it cooperates if strategic.
    Each draw replays its slot of the serial stream (see `_player_halves`)."""
    belief_slot, honesty_slot, loss_slot = slots
    beliefs = None if belief_slot is None else _stream(seed, belief_slot * n)
    honesty, losses = _stream(seed, honesty_slot * n), _stream(seed, loss_slot * n)
    partner_honest = np.empty(n, dtype=bool)
    loss = np.empty(n)
    coop = np.empty(n, dtype=bool)
    for start in range(0, n, BLOCK):
        block = slice(start, min(start + BLOCK, n))
        size = block.stop - start
        own = belief if beliefs is None else np.asarray(belief.ppf(beliefs.random(size)))
        np.less(honesty.random(size), own, out=partner_honest[block])
        loss[block] = F.ppf(losses.random(size))
        coop[block] = cooperates(loss[block], own)
    return partner_honest, loss, coop


def _cell_payoffs(params, honest, own, partner, partner_honest, loss) -> dict:
    """One player's strategic payoffs per (own action, partner action) cell:
    the CD and DC payoffs in draw order, and for CC and DD, whose every
    outcome pays 1 and 0, the count of outcomes."""
    own_c, own_d = own & ~honest, ~(own | honest)
    dc = own_d & partner
    return {
        "CC": np.count_nonzero(own_c & partner),
        "CD": -loss[own_c & ~partner],
        "DC": np.where(partner_honest[dc], params.b - params.m, params.b),
        "DD": np.count_nonzero(own_d & ~partner),
    }


# the payoff of every outcome in the cells `_cell_payoffs` tallies as counts
_FIXED_CELL_PAYOFFS = {"CC": 1.0, "DD": 0.0}


def _strategic_cell_means(first: dict, second: dict) -> dict:
    """Mean strategic payoff per cell of the two players' `_cell_payoffs`.

    Each varying cell averages its payoffs in draw order, first players
    before second players: the order of one pass over all 2n players. A
    fixed cell's mean is its payoff, NaN when neither player has an outcome
    there.
    """
    out = {}
    for label, payoffs in first.items():
        if label in _FIXED_CELL_PAYOFFS:
            seen = payoffs + second[label] > 0
            out[label] = _FIXED_CELL_PAYOFFS[label] if seen else float("nan")
            continue
        payoffs = np.concatenate([payoffs, second[label]])
        out[label] = float(payoffs.mean()) if payoffs.size else float("nan")
    return out


def deviation_check(
    config: SimConfig,
    strategy,
    params: GameParams,
    F: LossDistribution,
    G: BeliefDistribution | None = None,
) -> float:
    """Maximum payoff gain from deviating off the prescribed action.

    Expected payoffs against the population strategy are evaluated
    analytically (quadrature, no sampling), so at an equilibrium strategy the
    result sits at numerical-noise level rather than Monte Carlo noise. The
    gain is maximised on DEVIATION_GRID losses.
    """
    if strategy is None:
        strategy, _ = _resolve_strategy(config, params, F, G)

    def gain(pi, p, cooperates, losses):
        uc = payoff_cooperate(losses, pi, p)
        ud = payoff_defect(pi, p, params)
        return max(0.0, float(np.where(cooperates, ud - uc, uc - ud).max()))

    losses = np.linspace(0.0, F.ell_bar, DEVIATION_GRID)
    if config.scenario == "common":
        thr = float(strategy)
        return gain(config.pi, float(F.cdf(thr)), losses <= thr, losses)
    if config.scenario == "asymmetric":
        t1, t2 = strategy
        return max(gain(config.pi1, float(F.cdf(t2)), losses <= t1, losses),
                   gain(config.pi2, float(F.cdf(t1)), losses <= t2, losses))
    # diverse: the (loss, belief) mesh against the cutoff curve, losses down rows
    beliefs = np.linspace(0.0, 1.0 - 1e-9, DEVIATION_GRID)
    return gain(beliefs, cooperation_prob_given_strategy(strategy, F, G),
                beliefs >= strategy(losses)[:, None], losses[:, None])
