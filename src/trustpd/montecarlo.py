"""Simulation oracle: play the matching game with sampled types, losses, and
beliefs, and compare cooperation frequencies against the analytic thresholds.

Scenario beliefs are treated as the true population frequencies of committed
types, so in the shared-belief scenario each player is committed with
probability pi, and under dispersed beliefs a player's type is drawn from the
partner's belief. Draws come from a counter-based generator (Philox) keyed
by the seed, in a fixed serial order per scenario, so identical
configurations reproduce bit-identical reports.

Each thread plays a range of the n matches, both players of each match:
the caller matches [0, n//2) and a worker thread [n//2, n), each replaying
its range of every slot of that serial stream, BLOCK matches at a time;
numpy releases the GIL in the draws, the ufuncs and the gathers. Each
thread allocates one workspace per call, 32 bytes a match of a block: the
draws fill it through `Generator.random(out=...)`, and the cooperation rule
and the tallies write into it, so a block allocates only what the loss
quantile function returns, the few beliefs near the cutoff curve and its
CD losses. A block keeps only plain numbers: counts (strategic players,
their cooperations, CC, DD, CD and DC outcomes, DC outcomes with an honest
partner) and one sum of its CD losses, so no array outlives its block and
memory stays flat in n. The sums follow the blocks, so the CD mean may
move in its last bits with BLOCK; every other field is exact in counts or
the same for any partition. Under dispersed beliefs a belief at or above
the cutoff curve's ceiling, or below its floor, is settled by one
comparison, and only the others, a few percent of uniform beliefs at most
on an equilibrium cutoff curve, are compared with the interpolated curve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .common_eq import solve_common_equilibria
from .core import (
    BELIEF_EPS,
    BeliefDistribution,
    GameParams,
    LossDistribution,
    ParameterError,
    check_count,
    payoff_cooperate,
    payoff_defect,
)
from .diverse_eq import cooperation_prob_given_strategy, solve_diverse_threshold
from .extensions import solve_asymmetric

SCENARIOS = ("common", "diverse", "asymmetric")
EQUILIBRIA = ("lowest", "highest", "corner")

# Matches per block in `_play_matches`: no temporary grows with n, and the
# two threads' workspaces, 0.5 MB each, take 1.0 MB together.
BLOCK = 1 << 14
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
    equilibrium: str = "lowest"  # one of EQUILIBRIA
    strategy: Any = None

    def __post_init__(self):
        # Philox keys are integers in [0, 2^128); bool is an int, but no seed
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or not 0 <= self.seed < 2 ** 128):
            raise ParameterError(f"seed must be an integer in [0, 2^128), got {self.seed!r}")
        # stored as int, so that the stream offsets cannot wrap and the
        # report serialises to JSON
        object.__setattr__(self, "n_samples", check_count("n_samples", self.n_samples, 1))
        object.__setattr__(self, "seed", int(self.seed))
        if self.scenario not in SCENARIOS:
            raise ParameterError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.equilibrium not in EQUILIBRIA:
            raise ParameterError(
                f"equilibrium must be one of {EQUILIBRIA}, got {self.equilibrium!r}")
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
    if eqs.ell_corner is None:
        raise ParameterError(f"no full-cooperation corner at pi={config.pi}")
    return eqs.ell_corner


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
    """Play n sampled matches under the configured scenario and tally outcomes.

    Each half of the matches returns counts and one sum of CD losses (see
    `_play_matches`), so memory does not grow with n. A payoff mean is a
    cell's payoff sum over its count: the CD losses' sum, negated, and b for
    each DC outcome less m for each with an honest partner.
    """
    if config.scenario == "diverse" and G is None:
        raise ParameterError("diverse scenario requires a belief distribution")
    strategy, prediction = _resolve_strategy(config, params, F, G)

    # imported here, so that importing trustpd does not load the thread pool
    from concurrent.futures import ThreadPoolExecutor

    n = config.n_samples
    players = _players(config, strategy, G)
    # the worker plays matches [n//2, n) while this thread plays [0, n//2);
    # numpy releases the GIL in the draws, the ufuncs and the gathers
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="trustpd-simulate") as pool:
        second = pool.submit(_play_matches, config.seed, n, n // 2, n, players, F)
        first = _play_matches(config.seed, n, 0, n // 2, players, F)
        second = second.result()

    *counts, cd_loss = (a + b for a, b in zip(first, second))
    n_strat, n_coop, n_cc, n_dd, n_cd, n_dc, n_dc_honest = map(int, counts)
    if n_strat == 0:
        raise ParameterError("no strategic players sampled; increase n_samples")
    payoff_means = {  # every CC outcome pays 1 and every DD outcome 0
        "CC": 1.0 if n_cc else float("nan"),
        "CD": -cd_loss / n_cd if n_cd else float("nan"),  # a CD outcome pays -loss
        # a DC outcome pays b, and b - m where the partner is honest
        "DC": ((params.b * (n_dc - n_dc_honest) + (params.b - params.m) * n_dc_honest) / n_dc
               if n_dc else float("nan")),
        "DD": 0.0 if n_dd else float("nan"),
    }
    # a count over a count: the mean of the strategic players' cooperation flags
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


def _players(config: SimConfig, strategy, G):
    """Each player's belief, cooperation rule and draw slots, in player order.

    The belief is a number, or G when beliefs are dispersed. The rule
    writes into a bool array whether a strategic player with these losses
    and beliefs cooperates, given a bool work array of the same length.
    Slot k of the serial stream holds its values k*n to (k+1)*n - 1, and
    the serial order of the draws is: the two dispersed beliefs, if any,
    then whether players 1 and 2 are committed, then their losses. A
    player's own belief is how likely its partner is committed, so each
    player draws its partner's honesty, from slots (belief, partner
    honesty, loss).
    """
    if config.scenario == "diverse":
        rule = strategy._at_or_above_into
        return (G, rule, (0, 3, 4)), (G, rule, (1, 2, 5))
    if config.scenario == "common":
        (pi1, pi2), (t1, t2) = (config.pi, config.pi), (strategy, strategy)
    else:
        (pi1, pi2), (t1, t2) = (config.pi1, config.pi2), strategy
    return ((pi1, lambda loss, _, out, work: np.less_equal(loss, t1, out=out), (None, 1, 2)),
            (pi2, lambda loss, _, out, work: np.less_equal(loss, t2, out=out), (None, 0, 3)))


def _stream(seed: int, offset: int) -> np.random.Generator:
    """The serial Philox stream keyed by seed, from its offset-th value on."""
    bits = np.random.Philox(key=seed)
    bits.advance(offset // 4)  # one counter step gives four 64-bit values
    bits.random_raw(offset % 4)
    return np.random.Generator(bits)


def _play_matches(seed: int, n: int, start: int, stop: int, players, F: LossDistribution):
    """Matches [start, stop) of n, BLOCK at a time, keeping no per-match array.

    Each draw replays its slot of the serial stream from the match at start
    on (see `_players`). The draws, the cooperation rules and the tallies
    write into one workspace, allocated here and reused by every block.
    Returns plain numbers only: the counts of strategic players, their
    cooperations, CC, DD, CD and DC outcomes and DC outcomes with an honest
    partner, and the sum of the CD losses, a Python float to which each
    block adds each player's `np.add.reduce`. The only gathers, the CD
    losses, are spent within their block.
    """
    streams = [[None if slot is None else _stream(seed, slot * n + start) for slot in slots]
               for _, _, slots in players]
    size = min(BLOCK, stop - start)
    # one allocation: the belief draws, shared by both players (a player's
    # beliefs are spent once its rule has run), each player's honesty draws
    # and then its loss draws, which may be its losses, and eight rows of
    # flags: four kinds, one row per player (honest, strategic cooperation,
    # cooperation, work)
    workspace = np.empty((4, size))
    beliefs_u, *losses_u = workspace[:3]
    flags = workspace[3].view(bool).reshape(4, 2, size)
    # strategic players, their cooperations, CC, DD, CD and DC outcomes, DC
    # outcomes with an honest partner, and the sum of the CD losses
    tally = [0, 0, 0, 0, 0, 0, 0, 0.0]
    for block_start in range(start, stop, BLOCK):
        m = min(BLOCK, stop - block_start)
        honest, strat, coop, work = flags[:, :, :m]
        loss = []
        for p, ((belief, cooperates, _), (beliefs, honesty, losses)) in enumerate(
                zip(players, streams)):
            own = belief if beliefs is None else np.asarray(
                belief.ppf(beliefs.random(out=beliefs_u[:m])), dtype=float)
            # the honesty draws are spent once compared, so the loss draws
            # overwrite them
            np.less(honesty.random(out=losses_u[p][:m]), own, out=honest[1 - p])
            loss.append(np.asarray(F.ppf(losses.random(out=losses_u[p][:m])), dtype=float))
            cooperates(loss[p], own, strat[p], work[0])
        # every honest player cooperates, and a strategic one where its rule
        # says so; strat becomes the strategic players' cooperation
        partner_coop = coop[::-1]
        np.logical_or(honest, strat, out=coop)
        np.greater(strat, honest, out=strat)
        # each count over both rows, so once per player as in a serial pass;
        # a DD outcome is one where neither player cooperates
        tally[0] += honest.size - np.count_nonzero(honest)
        tally[1] += np.count_nonzero(strat)
        tally[2] += np.count_nonzero(np.logical_and(strat, partner_coop, out=work))
        tally[3] += honest.size - np.count_nonzero(np.logical_or(coop, partner_coop, out=work))
        np.greater(strat, partner_coop, out=work)  # CD: cooperates, partner defects
        tally[4] += np.count_nonzero(work)
        # np.compress: on these masks, 3-10% set, boolean indexing takes 1.4
        # to 2.5 times as long
        for p in (0, 1):
            tally[7] += float(np.add.reduce(np.compress(work[p], loss[p])))
        np.greater(partner_coop, coop, out=work)  # DC: defects, partner cooperates
        tally[5] += np.count_nonzero(work)
        tally[6] += np.count_nonzero(np.logical_and(work, honest[::-1], out=work))
    return tally


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
    beliefs = np.linspace(0.0, 1.0 - BELIEF_EPS, DEVIATION_GRID)
    return gain(beliefs, cooperation_prob_given_strategy(strategy, F, G),
                beliefs >= strategy(losses)[:, None], losses[:, None])
