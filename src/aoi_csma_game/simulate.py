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
chunk holds at most 2**15 variates (but at least one slot), in whole tiles
of a quarter chunk, and every chunk compares every tile. A span's buffers
depend on n alone, whatever the run's length: one chunk of uniforms, one
tile of thresholds and two arrays of 8 bytes a slot, about 0.37 MiB at
n = 10 and at most 576 KiB (at n = 2, the smallest game), under a 1 MiB L2
cache.

Both experiments read each slot as one outcome code: 0 for idle, j + 1 for a
lone success by node j (its trajectory column) and n + 1 for a collision.
The restart experiment counts each span's codes into one vector, in
`SimStats` order; the trajectory takes each slot's duration and each node's
resets from them, and counts them into the same vector as it goes. One
helper turns such a vector into `SimStats`, so a single trajectory pass also
yields the restart experiment's statistics: ``simulate --out`` samples each
slot once and starts no span threads.
"""

from __future__ import annotations

import math
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
    """Aggregate counts and restart-experiment age means over a simulation run.

    Each mean is the correctly rounded value of a rational in the integer
    counts, and it is finite for every game that `GameInstance` accepts."""

    idle_count: int
    collision_count: int
    success_count_per_node: tuple[int, ...]
    mean_age_after_per_node: tuple[float, ...]

    @property
    def slots(self) -> int:
        """The slot count: every slot is idle, a collision or one node's success."""
        return self.idle_count + self.collision_count + sum(self.success_count_per_node)


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
    """The chunk geometry for n nodes, ``(rows, tile)``: at most _CHUNK_VARIATES
    variates but at least one slot a chunk, in whole threshold tiles of a
    quarter chunk but at least one row."""
    tile = max(1, _CHUNK_VARIATES // n // 4)
    return max(1, _CHUNK_VARIATES // n) // tile * tile, tile


def _slot_outcomes(taus, seed, start, stop):
    """Yield the outcome codes of slots `start`..`stop`, one fresh ``intp``
    array per chunk: 0 for an idle slot, j + 1 for a lone success by node j,
    and n + 1 for a collision.

    The generator is advanced past the ``start * n`` variates that earlier
    slots consume, so any span reads exactly its part of the single
    ``default_rng(seed)`` stream (slot-major, node order within a slot),
    whatever the span bounds and chunk size. The buffers depend on n alone,
    whatever the span's length, and every chunk compares every tile: a short
    chunk's rows past its draws too, which are never summed.

    A code is the slot's 0/1 transmit row summed by one float64 ``einsum``
    against the weights n + j, less n - 1, clipped to [0, n + 1]. No
    transmitter sums to 0 and a lone transmitter j to exactly n + j, one
    weight among zeros. Two or more sum to at least 2n under any summation
    order, because each weight is at least n and rounding to nearest is
    monotone. So the code is exact at every n whose weights are exact
    doubles, and every partial sum is an exact integer anyway while
    n * 2n < 2**53. ``einsum`` is used rather than a matrix product, which
    would dispatch to a multithreaded BLAS and oversubscribe the span threads.
    """
    import numpy as np

    n = len(taus)
    bit_generator = np.random.PCG64(np.random.SeedSequence(seed))
    bit_generator.advance(start * n)
    rng = np.random.Generator(bit_generator)
    rows, tile = _chunk_rows(n)
    uniforms = np.zeros((rows, n))  # so that rows never drawn compare as numbers
    tiles = uniforms.reshape(-1, tile, n)
    # Each node's tau on a tile's rows, broadcast over the tiles of a chunk.
    # Against a broadcast tau row, numpy would run the comparison through a
    # buffer at about half the speed, and against a tile of fewer variates
    # than that 8192-element buffer (an eighth of a chunk) about 1.5 times
    # slower than against a quarter chunk or more.
    thresholds = np.tile(taus, (tile, 1))
    weights = np.arange(n, 2 * n, dtype=float)
    sums = np.empty(rows)
    for lo in range(start, stop, rows):
        block = rng.random(out=uniforms[: stop - lo])
        np.less(tiles, thresholds, out=tiles)
        codes = np.einsum("ij,j->i", block, weights, out=sums[: len(block)])
        np.subtract(codes, n - 1, out=codes)
        np.clip(codes, 0, n + 1, out=codes)
        # A fresh array: the caller may keep every chunk's codes.
        yield codes.astype(np.intp)


def _span_counts(taus, seed, start, stop, failed):
    """The ``int64`` counts of each outcome code over slots `start`..`stop`,
    indexed by code: idle, a lone success by each node, collision. Once the
    `failed` event is set, the counts stop at the next chunk, partial."""
    import numpy as np

    counts = np.zeros(len(taus) + 2, dtype=np.int64)
    for codes in _slot_outcomes(taus, seed, start, stop):
        if failed.is_set():
            break
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
    spans than chunks), each counted on its own thread. numpy releases the
    GIL while it fills a chunk and while its loops compare and sum, but
    ``bincount`` and the Python side of each call, ``np.clip``'s wrapper
    among them, hold it. Integer counts add up the same in any order, so
    the result does not depend on the CPU count or chunk size.
    """
    import numpy as np

    _check_run(game, profile, num_slots, seed)
    taus = np.asarray(profile.taus)
    num_spans = min(_usable_cpus(), -(-num_slots // _chunk_rows(game.n)[0]))
    bounds = [num_slots * k // num_spans for k in range(num_spans + 1)]
    results = [None] * num_spans
    # Set by a span that fails, Ctrl-C included, so that every span stops
    # within a chunk instead of running to its end.
    failed = threading.Event()

    def count_span(k):
        try:
            results[k] = _span_counts(taus, seed, bounds[k], bounds[k + 1], failed)
        except BaseException as exc:  # re-raised on the calling thread
            results[k] = exc
            failed.set()

    threads = [threading.Thread(target=count_span, args=(k,)) for k in range(1, num_spans)]
    for thread in threads:
        thread.start()
    try:
        count_span(0)
        for thread in threads:
            thread.join()
    finally:
        failed.set()  # a Ctrl-C during a join stops the spans still running
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return _sim_stats(game, sum(results))


def _sim_stats(game, counts):
    """The restart experiment's `SimStats` from the ``int64`` counts of each
    outcome code; every slot has one code, so they sum to the slot count."""
    idle, collision, successes = int(counts[0]), int(counts[-1]), counts[1:-1].tolist()
    num_slots = idle + collision + sum(successes)
    lengths = game.slot_lengths
    durations = (lengths.sigma_idle, lengths.sigma_success, lengths.sigma_collision)
    ratios = [value.as_integer_ratio() for value in durations + game.initial_ages]
    # Each double is an int over a power of two, so over the largest of them
    # every length, age and sum below is an exact int, and one int division
    # rounds each mean correctly. It cannot overflow: a mean is at most an age
    # plus the longest slot, which _check_ages keeps finite.
    scale = max(den for _, den in ratios)
    sigma_idle, sigma_success, sigma_collision, *ages = [num * scale // den for num, den in ratios]
    total = idle * sigma_idle + sum(successes) * sigma_success + collision * sigma_collision
    divisor = num_slots * scale
    return SimStats(
        idle_count=idle,
        collision_count=collision,
        success_count_per_node=tuple(successes),
        mean_age_after_per_node=tuple(
            (total + age * (num_slots - won)) / divisor for age, won in zip(ages, successes)
        ),
    )


def simulate_age_trajectory(
    game: GameInstance,
    profile: StrategyProfile,
    num_slots: int,
    seed: int,
) -> Generator[np.ndarray, None, SimStats]:
    """Sequential multi-slot run where ages carry over between slots.

    Inputs are checked at the call. The result is a generator of blocks of
    slot boundaries, each a C-contiguous ``(rows, n + 1)`` float64 table laid
    out as the CSV: a boundary's time, then each node's age there. First comes
    the initial boundary (time 0, the starting ages), then one block per chunk
    of slots. Node i's age at a boundary is sigma_success if it just succeeded,
    otherwise its previous age plus the realized slot duration.
    Whenever n <= 2**15 a chunk holds at most 2**15 variates, so a block's
    memory grows with neither `num_slots` nor n; past that, a chunk is one
    slot of n variates.

    The exhausted generator returns (as ``StopIteration.value``) the counts
    of its slots as `SimStats`: both experiments read the same stream, so
    these equal ``run_monte_carlo(game, profile, num_slots, seed)``.
    """
    import numpy as np

    _check_run(game, profile, num_slots, seed)
    lengths = game.slot_lengths
    longest = max(lengths.sigma_success, lengths.sigma_collision)
    # Every time is a running float sum of at most num_slots slot lengths,
    # each at most `longest`, and every age at most a time plus the largest
    # starting age. A rounded sum is no further from the exact one than the
    # old sum is, so each addition adds at most twice its addend: the factor
    # 2 is the rounding margin. A running sum gains that much only while its
    # addends sit just above half its spacing, so the margin also covers the
    # three roundings of this check.
    if not 2 * (num_slots * longest) + max(game.initial_ages) < math.inf:
        raise ValueError(
            f"{num_slots} slots of up to {longest} could run the trajectory's "
            "clock or ages past the largest float"
        )
    return _trajectory_blocks(game, np.asarray(profile.taus), num_slots, seed)


def _trajectory_blocks(game, taus, num_slots, seed):
    import numpy as np

    n = game.n
    lengths = game.slot_lengths
    initial = np.asarray(game.initial_ages, dtype=float)
    yield np.concatenate(([0.0], initial))[np.newaxis, :]
    # Indexed by outcome code: idle, a lone success by each node, collision.
    # Not game._outcome_ages: the sampler shares no code with the analytic
    # side it checks.
    slot_duration = np.full(n + 2, lengths.sigma_success)
    slot_duration[0], slot_duration[-1] = lengths.sigma_idle, lengths.sigma_collision
    now = 0.0
    # Each node's last reset time: its last success, or minus its initial age
    # before one, so that t - (-a) is exactly the t + a of no reset. Every
    # slot boundary is positive and every -a negative, so a positive reset
    # time says the node has succeeded, and its age gains sigma_success. The
    # time column is reset at +inf, so that the mask of successes has no gap
    # there (a gappy mask makes numpy's masked add about 9x slower), and its
    # values are then overwritten with the times.
    reset_at = np.concatenate(([math.inf], -initial))
    counts = np.zeros(n + 2, dtype=np.int64)
    for codes in _slot_outcomes(taus, seed, 0, num_slots):
        counts += np.bincount(codes, minlength=len(counts))
        # Summing from the carried clock keeps every time bit-identical to
        # one cumulative sum over the whole run, whatever the chunk size.
        times = np.cumsum(np.concatenate(([now], slot_duration[codes])))[1:]
        now = times[-1]
        # The CSV's rows, built in place: each column's reset time, then its
        # value. A lone success's code is its node's column. Times never
        # decrease, so the running maximum of the success times scattered
        # over the carried ones is the time of the latest success.
        table = np.empty((len(times), n + 1))
        table[...] = reset_at
        lone = np.flatnonzero((codes >= 1) & (codes <= n))
        table[lone, codes[lone]] = times[lone]
        np.maximum.accumulate(table, axis=0, out=table)
        reset_at = table[-1].copy()
        succeeded = table > 0
        np.subtract(times[:, np.newaxis], table, out=table)
        np.add(table, lengths.sigma_success, out=table, where=succeeded)
        table[:, 0] = times
        # Dropped before the block is written, as the block is before the next is built.
        del codes, lone, succeeded, times
        yield table
        del table
    return _sim_stats(game, counts)
