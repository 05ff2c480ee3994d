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
A span of slots starting at slot s reads the same stream from a PCG64
generator advanced by ``s * n`` variates, so splitting a run into spans or
chunks never changes a draw. A chunk holds at most 2**16 slots and at most
2**18 variates.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .game import GameInstance, StrategyProfile, _check_entries

# numpy is imported by each function that uses it, so that importing the
# package (and running the commands that never sample) does not load it.
if TYPE_CHECKING:
    import numpy as np

_CHUNK_SLOTS = 1 << 16
_CHUNK_VARIATES = 1 << 18
# The range of the int64 per-node success counters.
_MAX_SLOTS = (1 << 63) - 1


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


def _check_run(game, profile, num_slots, seed):
    _check_entries("profile", profile, game.n)
    if num_slots < 1:
        raise ValueError(f"num_slots must be at least 1, got {num_slots}")
    if num_slots > _MAX_SLOTS:
        # The value is not echoed: it may run to thousands of digits.
        raise ValueError(f"num_slots must be at most {_MAX_SLOTS}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _chunk_rows(n):
    """Slots per chunk for n nodes: at most _CHUNK_SLOTS slots and at most
    _CHUNK_VARIATES variates, but at least one slot."""
    return max(1, min(_CHUNK_SLOTS, _CHUNK_VARIATES // n))


def _slot_variates(n, seed, start, stop):
    """Yield ``(rows, n)`` blocks of the uniforms drawn for slots `start`..`stop`.

    The generator is advanced past the ``start * n`` variates that earlier
    slots consume, so any span reads exactly its part of the single
    ``default_rng(seed)`` stream (slot-major, node order within a slot),
    whatever the span bounds and chunk size. Each block is a view of one
    reused buffer, valid until the next block is requested.
    """
    import numpy as np

    bit_generator = np.random.PCG64(np.random.SeedSequence(seed))
    bit_generator.advance(start * n)
    rng = np.random.Generator(bit_generator)
    uniforms = np.empty((min(_chunk_rows(n), stop - start), n))
    for lo in range(start, stop, len(uniforms)):
        yield rng.random(out=uniforms[: stop - lo])


def _slot_draws(taus, seed, start, stop):
    """Yield ``(transmits, counts)`` per chunk of slots `start`..`stop`: the
    ``uniform < tau`` block as float32 0/1 values, a view of one reused
    buffer, and each slot's number of transmitters as float32.

    Counting is a float32 ``einsum``, which is exact at every n: each partial
    sum of 0/1 values below 2**24 is an exact integer, so a row sums to 0
    only with no transmitter and to exactly 1 only with one, and a sum of two
    or more ones rounds to a value of at least 2. A chunk's per-node
    successes are at most 2**16 < 2**24, so they are exact too. ``einsum``
    is used rather than a matrix product, which would dispatch to a
    multithreaded BLAS and oversubscribe the span threads.
    """
    import numpy as np

    n = len(taus)
    transmits = np.empty((min(_chunk_rows(n), stop - start), n), dtype=np.float32)
    ones = np.ones(n, dtype=np.float32)
    for uniforms in _slot_variates(n, seed, start, stop):
        block = np.less(uniforms, taus, out=transmits[: len(uniforms)], casting="unsafe")
        yield block, np.einsum("ij,j->i", block, ones)


def _span_counts(taus, seed, start, stop):
    """(idle, collision, per-node successes) over slots `start`..`stop`."""
    import numpy as np

    idle = 0
    successes = np.zeros(len(taus), dtype=np.int64)
    for transmits, counts in _slot_draws(taus, seed, start, stop):
        idle += int(np.count_nonzero(counts == 0))
        lone = (counts == 1).astype(np.float32)
        successes += np.einsum("i,ij->j", lone, transmits).astype(np.int64)
    return idle, stop - start - idle - int(successes.sum()), successes


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not provided on every platform
        return os.cpu_count() or 1


def run_monte_carlo(
    game: GameInstance,
    profile: StrategyProfile,
    num_slots: int,
    seed: int,
) -> SimStats:
    """Repeat the one-slot experiment `num_slots` times and aggregate.

    Every slot restarts each node from its initial age, so the per-node mean
    end-of-slot age estimates the analytic conditional expectation: the age
    is sigma_success on the node's own success and initial age plus the
    realized slot length otherwise.

    The slots are split into one contiguous span per usable CPU (never more
    spans than chunks), each counted on its own thread; numpy releases the
    GIL while it fills, compares and counts. Integer counts add up the same
    in any order, so the result does not depend on the CPU count or chunk
    size.
    """
    import numpy as np

    _check_run(game, profile, num_slots, seed)
    taus = np.asarray(profile.taus)
    num_spans = min(_usable_cpus(), -(-num_slots // _chunk_rows(game.n)))
    bounds = [num_slots * k // num_spans for k in range(num_spans + 1)]
    results = [None] * num_spans

    def count_span(k):
        try:
            results[k] = _span_counts(taus, seed, bounds[k], bounds[k + 1])
        except BaseException as exc:  # re-raised on the calling thread
            results[k] = exc

    threads = [threading.Thread(target=count_span, args=(k,)) for k in range(1, num_spans)]
    for thread in threads:
        thread.start()
    count_span(0)
    for thread in threads:
        thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    idle = sum(r[0] for r in results)
    collision = sum(r[1] for r in results)
    successes = sum(r[2] for r in results)
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
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Sequential multi-slot run where ages carry over between slots.

    Inputs are checked at the call. The result is a generator of
    ``(times, ages)`` blocks of slot boundaries: first the initial boundary
    (time 0, the starting ages), then one block per chunk of slots, with
    ``ages[t, i]`` node i's age at ``times[t]``. Node i's age at a boundary
    is sigma_success if it just succeeded, otherwise its previous age plus
    the realized slot duration.
    A chunk holds at most 2**16 slots and at most 2**18 variates, so a
    block's memory does not grow with `num_slots` or with n.
    """
    import numpy as np

    _check_run(game, profile, num_slots, seed)
    return _trajectory_blocks(game, np.asarray(profile.taus), num_slots, seed)


def _trajectory_blocks(game, taus, num_slots, seed):
    import numpy as np

    lengths = game.slot_lengths
    initial = np.asarray(game.initial_ages, dtype=float)
    yield np.zeros(1), initial[np.newaxis, :]
    slot_duration = np.array(
        [lengths.sigma_idle, lengths.sigma_success, lengths.sigma_collision]
    )
    now = 0.0
    reset_at = np.full(game.n, np.nan)  # time of each node's last success, NaN before
    for transmits, counts in _slot_draws(taus, seed, 0, num_slots):
        lone = counts == 1
        # Summing from the carried clock keeps every time bit-identical to
        # one cumulative sum over the whole run, whatever the chunk size.
        kinds = np.minimum(counts, 2).astype(np.intp)  # idle, success, collision
        times = np.cumsum(np.concatenate(([now], slot_duration[kinds])))[1:]
        slot = np.arange(1, len(times) + 1)
        ages = np.empty((len(times), game.n))
        for i in range(game.n):
            last_win = np.maximum.accumulate(np.where(lone & (transmits[:, i] == 1), slot, 0))
            reset = np.where(last_win > 0, times[last_win - 1], reset_at[i])
            ages[:, i] = np.where(
                np.isnan(reset), initial[i] + times, lengths.sigma_success + (times - reset)
            )
            reset_at[i] = reset[-1]
        yield times, ages
        now = times[-1]
        del times, ages
