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
chunks never changes a draw. ``_CHUNK_VARIATES`` is the one chunk size: a
chunk holds at most 2**15 variates (but at least one slot), so the buffers
of a restart span take at most about 0.75 MB and fit a 1 MB L2 cache.

Both experiments read each slot as one outcome code: 0 for idle, n + j for
a lone success by node j and 2n for a collision. The restart experiment
counts the codes of each span into one vector; the trajectory takes each
slot's duration and each node's resets from them, and counts them into the
same vector as it goes. One helper turns such a vector into `SimStats`, so a
single trajectory pass also yields the restart experiment's statistics:
``simulate --out`` samples each slot once and starts no span threads.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Generator
from typing import TYPE_CHECKING

from .game import GameInstance, StrategyProfile, _check_entries, _record

# numpy is imported by each function that uses it, so that importing the
# package (and running the commands that never sample) does not load it.
if TYPE_CHECKING:
    import numpy as np

# Variates per chunk: the simulator's one chunk size.
_CHUNK_VARIATES = 1 << 15
# The range of the int64 per-node success counters.
_MAX_SLOTS = (1 << 63) - 1


@_record
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
    """Slots per chunk for n nodes: at most _CHUNK_VARIATES variates, but at
    least one slot."""
    return max(1, _CHUNK_VARIATES // n)


def _slot_outcomes(taus, seed, start, stop):
    """Yield the outcome codes of slots `start`..`stop`, one ``intp`` array
    per chunk: 0 for an idle slot, n + j for a lone success by node j, and
    2n for a collision.

    The generator is advanced past the ``start * n`` variates that earlier
    slots consume, so any span reads exactly its part of the single
    ``default_rng(seed)`` stream (slot-major, node order within a slot),
    whatever the span bounds and chunk size.

    A code is the slot's 0/1 transmit row summed by one float64 ``einsum``
    against the weights n + j, capped at 2n. No transmitter sums to 0 and a
    lone transmitter j to exactly n + j, one weight among zeros. Two or more
    sum to at least 2n under any summation order, because each weight is at
    least n and rounding to nearest is monotone. So the code is exact at
    every n whose weights are exact doubles, and every partial sum is an
    exact integer anyway while n * 2n < 2**53. ``einsum`` is used rather
    than a matrix product, which would dispatch to a multithreaded BLAS and
    oversubscribe the span threads.
    """
    import numpy as np

    n = len(taus)
    bit_generator = np.random.PCG64(np.random.SeedSequence(seed))
    bit_generator.advance(start * n)
    rng = np.random.Generator(bit_generator)
    rows = min(_chunk_rows(n), stop - start)
    uniforms = np.empty((rows, n))
    # Each node's tau on every row of a chunk. Compared with a broadcast
    # tau row instead, numpy would run the comparison through a buffer, at
    # about half the speed.
    thresholds = np.tile(taus, (rows, 1))
    weights = np.arange(n, 2 * n, dtype=float)
    for lo in range(start, stop, rows):
        block = rng.random(out=uniforms[: stop - lo])
        transmits = np.less(block, thresholds[: len(block)], out=block)
        # Unnamed, the codes are freed as soon as the caller drops them.
        yield np.minimum(np.einsum("ij,j->i", transmits, weights), 2 * n).astype(np.intp)


def _span_counts(taus, seed, start, stop):
    """The ``int64`` counts of each outcome code over slots `start`..`stop`,
    indexed by code: idle, n - 1 codes that never occur, a lone success by
    each node, collision."""
    import numpy as np

    counts = np.zeros(2 * len(taus) + 1, dtype=np.int64)
    for codes in _slot_outcomes(taus, seed, start, stop):
        counts += np.bincount(codes, minlength=len(counts))
        del codes  # before the next chunk is drawn
    return counts


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
    return _sim_stats(game, sum(results), num_slots)


def _sim_stats(game, counts, num_slots):
    """The restart experiment's `SimStats` from the ``int64`` counts of each
    outcome code over `num_slots` slots."""
    idle, collision, successes = int(counts[0]), int(counts[-1]), counts[game.n : -1]
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
) -> Generator[tuple[np.ndarray, np.ndarray], None, SimStats]:
    """Sequential multi-slot run where ages carry over between slots.

    Inputs are checked at the call. The result is a generator of
    ``(times, ages)`` blocks of slot boundaries: first the initial boundary
    (time 0, the starting ages), then one block per chunk of slots, with
    ``ages[t, i]`` node i's age at ``times[t]``. Node i's age at a boundary
    is sigma_success if it just succeeded, otherwise its previous age plus
    the realized slot duration.
    A chunk holds at most 2**15 variates, so a block's memory does not grow
    with `num_slots` or with n.

    The exhausted generator returns (as ``StopIteration.value``) the counts
    of its slots as `SimStats`: both experiments read the same stream, so
    these equal ``run_monte_carlo(game, profile, num_slots, seed)``.
    """
    import numpy as np

    _check_run(game, profile, num_slots, seed)
    return _trajectory_blocks(game, np.asarray(profile.taus), num_slots, seed)


def _trajectory_blocks(game, taus, num_slots, seed):
    import numpy as np

    n = game.n
    lengths = game.slot_lengths
    initial = np.asarray(game.initial_ages, dtype=float)
    yield np.zeros(1), initial[np.newaxis, :]
    # Indexed by outcome code: idle, (codes 1..n-1 never occur), a lone
    # success by each node, collision. Not game._outcome_ages: the sampler
    # shares no code with the analytic side it checks.
    slot_duration = np.full(2 * n + 1, lengths.sigma_success)
    slot_duration[0], slot_duration[-1] = lengths.sigma_idle, lengths.sigma_collision
    now = 0.0
    reset_at = np.full(n, -np.inf)  # time of each node's last success, -inf before
    # Each slot's time in every column. Filled by assignment, which takes no
    # buffer, it lets the age arithmetic run between same-shape arrays: numpy
    # would buffer a broadcast column, up to 8192 elements a call.
    row_times = np.empty((min(_chunk_rows(n), num_slots), n))
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    for codes in _slot_outcomes(taus, seed, 0, num_slots):
        counts += np.bincount(codes, minlength=len(counts))
        # Summing from the carried clock keeps every time bit-identical to
        # one cumulative sum over the whole run, whatever the chunk size.
        times = np.cumsum(np.concatenate(([now], slot_duration[codes])))[1:]
        # Built in place: each node's last reset time, then its age. Times
        # never decrease, so the running maximum of the success times
        # scattered over the carried ones is the time of the latest success.
        ages = np.empty((len(times), n))
        ages[...] = reset_at
        lone = np.flatnonzero((codes >= n) & (codes < 2 * n))
        ages[lone, codes[lone] - n] = times[lone]
        np.maximum.accumulate(ages, axis=0, out=ages)
        reset_at = ages[-1].copy()
        # A node that has yet to succeed keeps -inf, in a prefix of its column,
        # so the rows to patch are at most as many as the -inf cells.
        never = ages == -np.inf
        unset_rows = min(len(times), int(np.count_nonzero(never)))
        block_times = row_times[: len(times)]
        block_times[...] = times[:, np.newaxis]
        np.subtract(block_times, ages, out=ages)
        ages += lengths.sigma_success
        np.add(block_times[:unset_rows], initial, out=ages[:unset_rows], where=never[:unset_rows])
        yield times, ages
        now = times[-1]
        # Held into the next chunk, these would stay alive while it is built.
        del codes, lone, never, times, ages
    return _sim_stats(game, counts, num_slots)
