"""Seeded Monte Carlo simulation of CSMA/CA slots under a fixed profile.

Two experiments are provided. ``run_monte_carlo`` repeats the single-slot
experiment independently: every slot restarts from the game's initial ages,
which is what the analytic slot probabilities and one-slot age distribution
describe. ``simulate_age_trajectory`` instead lets ages carry over from slot
to slot, producing sawtooth sample paths; it is an illustrative multi-slot
extension (nodes never adapt their transmit probabilities).

Randomness contract: draws come from ``numpy.random.default_rng(seed)`` and
each node's transmit decision consumes exactly one uniform variate per slot,
in node-index order within the slot. Identical inputs replay bit-identically.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .game import GameInstance, StrategyProfile

_CHUNK_SLOTS = 1 << 16


@dataclass(frozen=True)
class SimStats:
    """Aggregate counts and restart-experiment age means over a simulation run."""

    slots: int
    idle_count: int
    collision_count: int
    success_count_per_node: tuple[int, ...]
    mean_age_after_per_node: tuple[float, ...]

    def __post_init__(self) -> None:
        total = self.idle_count + self.collision_count + sum(self.success_count_per_node)
        if total != self.slots:
            raise ValueError(
                f"slot counts sum to {total}, expected {self.slots}"
            )


def _chunked_slot_draws(taus, num_slots, rng, chunk_slots):
    """Yield (transmit_count, success_node) arrays chunk by chunk.

    ``success_node`` is -1 where the slot is not a success. Chunking only
    bounds memory; the variate stream (slot-major, node order within a
    slot) is independent of the chunk size.
    """
    done = 0
    while done < num_slots:
        m = min(chunk_slots, num_slots - done)
        transmits = rng.random((m, len(taus))) < taus
        counts = transmits.sum(axis=1)
        success_node = np.where(counts == 1, transmits.argmax(axis=1), -1)
        yield counts, success_node
        done += m


def run_monte_carlo(
    game: GameInstance,
    profile: StrategyProfile,
    num_slots: int,
    seed: int,
    chunk_slots: int = _CHUNK_SLOTS,
) -> SimStats:
    """Repeat the one-slot experiment `num_slots` times and aggregate.

    Every slot restarts each node from its initial age, so the per-node mean
    end-of-slot age estimates the analytic conditional expectation: the age
    is sigma_success on the node's own success and initial age plus the
    realized slot length otherwise.
    """
    if len(profile) != game.n:
        raise ValueError(f"profile has {len(profile)} entries for n = {game.n} nodes")
    if num_slots < 1:
        raise ValueError(f"num_slots must be at least 1, got {num_slots}")
    taus = np.asarray(profile.taus)
    rng = np.random.default_rng(seed)
    idle = 0
    collision = 0
    successes = np.zeros(game.n, dtype=np.int64)
    for counts, success_node in _chunked_slot_draws(taus, num_slots, rng, chunk_slots):
        idle += int(np.count_nonzero(counts == 0))
        collision += int(np.count_nonzero(counts >= 2))
        successes += np.bincount(success_node[success_node >= 0], minlength=game.n)
    lengths = game.slot_lengths
    total_duration = (
        idle * lengths.sigma_idle
        + int(successes.sum()) * lengths.sigma_success
        + collision * lengths.sigma_collision
    )
    mean_ages = tuple(
        (total_duration + game.initial_ages[i] * (num_slots - int(successes[i])))
        / num_slots
        for i in range(game.n)
    )
    return SimStats(
        slots=num_slots,
        idle_count=idle,
        collision_count=collision,
        success_count_per_node=tuple(int(s) for s in successes),
        mean_age_after_per_node=mean_ages,
    )


def simulate_age_trajectory(
    game: GameInstance,
    profile: StrategyProfile,
    num_slots: int,
    seed: int,
    chunk_slots: int = _CHUNK_SLOTS,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Sequential multi-slot run where ages carry over between slots.

    Inputs are checked at the call. The result is a generator of
    ``(times, ages)`` blocks of slot boundaries: first the initial boundary
    (time 0, the starting ages), then one block of at most `chunk_slots`
    rows per chunk of slots, with ``ages[t, i]`` node i's age at
    ``times[t]``. Node i's age at a boundary is sigma_success if it just
    succeeded, otherwise its previous age plus the realized slot duration.
    """
    if len(profile) != game.n:
        raise ValueError(f"profile has {len(profile)} entries for n = {game.n} nodes")
    if num_slots < 1:
        raise ValueError(f"num_slots must be at least 1, got {num_slots}")
    return _trajectory_blocks(game, np.asarray(profile.taus), num_slots, seed, chunk_slots)


def _trajectory_blocks(game, taus, num_slots, seed, chunk_slots):
    lengths = game.slot_lengths
    initial = np.asarray(game.initial_ages, dtype=float)
    yield np.zeros(1), initial[np.newaxis, :]
    slot_duration = np.array(
        [lengths.sigma_idle, lengths.sigma_success, lengths.sigma_collision]
    )
    now = 0.0
    reset_at = np.full(game.n, np.nan)  # time of each node's last success, NaN before
    rng = np.random.default_rng(seed)
    for counts, success_node in _chunked_slot_draws(taus, num_slots, rng, chunk_slots):
        # Summing from the carried clock keeps every time bit-identical to
        # one cumulative sum over the whole run, whatever the chunk size.
        times = np.cumsum(np.concatenate(([now], slot_duration[np.minimum(counts, 2)])))[1:]
        slot = np.arange(1, len(times) + 1)
        ages = np.empty((len(times), game.n))
        for i in range(game.n):
            last_win = np.maximum.accumulate(np.where(success_node == i, slot, 0))
            reset = np.where(last_win > 0, times[last_win - 1], reset_at[i])
            ages[:, i] = np.where(
                np.isnan(reset), initial[i] + times, lengths.sigma_success + (times - reset)
            )
            reset_at[i] = reset[-1]
        yield times, ages
        now = times[-1]
