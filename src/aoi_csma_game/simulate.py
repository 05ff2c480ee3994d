"""Seeded Monte Carlo simulation of CSMA/CA slots under a fixed profile.

Two experiments are provided. ``run_monte_carlo`` repeats the single-slot
experiment independently: every slot restarts from the game's initial ages,
which is what the analytic slot probabilities and one-slot age distribution
describe. ``simulate_age_trajectory`` instead lets ages carry over from slot
to slot, producing sawtooth sample paths; it is an illustrative multi-slot
extension (nodes never adapt their transmit probabilities).

Randomness contract: each transmit decision reads one 16-bit lane of the
``PCG64(SeedSequence(seed))`` stream, a little-endian quarter of a
``random_raw`` word, so the lanes are the same on any byte order. Lanes are
laid out node-major in blocks of B slots, B * n near ``_BLOCK_LANES`` and a
whole number of words: slot s of node j reads lane
``(s // B) * B * n + j * B + s % B``. With T_j = ceil(tau_j * 2**53), node j
transmits when lane * 2**37 + t < T_j, t being 37 more bits. That is the
law of ``Generator.random() < tau_j``, whose 53 bits are ``raw >> 11``:
the lane is compared with hi_j = min(T_j >> 37, 0xFFFF), and only on a tie
(one lane in 2**16, whatever tau) is t read, as the top 37 bits of word l
of a second stream, ``PCG64(SeedSequence(seed, spawn_key=(0,)))``, l being
the decision's lane index. The draws are a function of (seed, n, slot)
alone: every block draws all of its lanes, so a run, any prefix of it and
any split into spans read the same lanes, and identical inputs replay
bit-identically. Only the bit generators are used, whose streams numpy
keeps stable across releases (NEP 19), not ``Generator`` methods.

A span's buffers depend on n alone, whatever the run's length: the block's
raw words (2 bytes a lane), its transmit matrix (1 byte a lane) and one
mask of the same size while it is drawn or counted, about 256 KiB for
2**16 lanes, under a 1 MiB L2 cache. The trajectory builds its tables in
pieces of at most max(1, 2**15 // n) rows.

Both experiments count slots into one vector in `SimStats` order: idle, a
lone success by each node, collision. The restart experiment counts
straight from each block: its senders per slot, the lone senders of each
node, and the rest. The trajectory reads each slot as one outcome code, 0
for idle, j + 1 for a lone success by node j (its trajectory column) and
n + 1 for a collision, takes each slot's duration and each node's resets
from them, and counts them into the same vector as it goes. One helper
turns such a vector into `SimStats`, so a single trajectory pass also
yields the restart experiment's statistics: ``simulate --out`` samples
each slot once and starts no span threads.
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

# Lanes per block: the simulator's one block size.
_BLOCK_LANES = 1 << 16
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


def _block_slots(n):
    """Slots per block for n nodes: about _BLOCK_LANES lanes, at least one
    slot, and n times as many lanes as slots in whole 64-bit words."""
    step = 4 // math.gcd(n, 4)
    return max(step, _BLOCK_LANES // n // step * step)


def _thresholds(taus):
    """Each node's ``(hi, lo)`` split of T = ceil(tau * 2**53), the count of
    53-bit values below tau * 2**53: ``hi`` the ``uint16`` lane to compare
    with and ``lo`` (Python ints) the bound on the 37 tie bits when the lane
    equals it. ``hi`` is clamped to 0xFFFF, so tau = 1 has lo = 2**37."""
    import numpy as np

    # tau * 2**53 is exact, so its ceiling is T itself.
    limits = np.ceil(np.asarray(taus) * 2.0**53).astype(np.uint64)
    hi = np.minimum(limits >> np.uint64(37), np.uint64(0xFFFF))
    return hi.astype(np.uint16), (limits - (hi << np.uint64(37))).tolist()


def _transmit_blocks(taus, seed, start, stop):
    """Yield the ``(n, slots)`` bool transmit matrix of slots `start`..`stop`,
    one block at a time: a view of one buffer that the next block overwrites.

    Each block draws all of its lanes, from a stream advanced to its first
    word, and compares them with hi. A lane equal to its hi_j is decided by
    the top 37 bits of the tie stream's word at the lane's index, against
    lo_j; the tie stream only moves forward, as the ties come in lane order.
    """
    import numpy as np

    n = len(taus)
    slots = _block_slots(n)
    words = n * slots // 4
    hi, lo = _thresholds(taus)
    hi = hi[:, np.newaxis]
    first = start // slots
    stream = np.random.PCG64(np.random.SeedSequence(seed))
    stream.advance(first * words)
    ties = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,)))
    next_tie = 0  # the tie stream's next word
    block = np.empty((n, slots), dtype=bool)
    for k in range(first, -(-stop // slots)):
        drawn = stream.random_raw(words).astype("<u8", copy=False).view("<u2").reshape(n, slots)
        np.less(drawn, hi, out=block)
        # About one lane in 2**16 ties, whatever tau; each reads one tie word.
        for flat in np.flatnonzero(drawn == hi).tolist():
            lane = k * n * slots + flat
            ties.advance(lane - next_tie)
            next_tie = lane + 1
            block.flat[flat] = ties.random_raw() >> 27 < lo[flat // slots]
        del drawn  # before the next block is drawn
        yield block[:, max(start - k * slots, 0) : stop - k * slots]


def _count(mask, axis):
    """The count of True along `axis` of a bool matrix, summed as bytes into
    the narrowest unsigned type that holds the axis length: a wider sum is
    several times slower, and a narrower one wraps (uint8 turns 256 senders
    into an idle 0)."""
    import numpy as np

    width = np.min_scalar_type(mask.shape[axis])
    return np.add.reduce(mask.view(np.uint8), axis=axis, dtype=width)


def _slot_outcomes(taus, seed, start, stop):
    """Yield the outcome codes of slots `start`..`stop`, in ``intp`` arrays of
    at most max(1, 2**15 // n) slots: 0 for an idle slot, j + 1 for a lone
    success by node j, and n + 1 for a collision. A code is the weighted sum
    of the slot's senders, j + 1 for sender j, wherever fewer than two send."""
    import numpy as np

    n = len(taus)
    weights = np.arange(1, n + 1)
    rows = max(1, _BLOCK_LANES // 2 // n)
    for block in _transmit_blocks(taus, seed, start, stop):
        for lo in range(0, block.shape[1], rows):
            sent = block[:, lo : lo + rows]
            codes = np.einsum("j,js->s", weights, sent)
            codes[_count(sent, 0) > 1] = n + 1
            yield codes


def _span_counts(taus, seed, start, stop, failed):
    """The ``int64`` counts of each outcome code over slots `start`..`stop`,
    indexed by code: idle, a lone success by each node, collision. Once the
    `failed` event is set, the counts stop at the next block, partial."""
    import numpy as np

    n = len(taus)
    counts = np.zeros(n + 2, dtype=np.int64)
    for sent in _transmit_blocks(taus, seed, start, stop):
        if failed.is_set():
            break
        senders = _count(sent, 0)
        wins = _count(sent & (senders == 1), 1)
        idle = senders.size - np.count_nonzero(senders)
        counts[0] += idle
        counts[1:-1] += wins
        counts[-1] += senders.size - idle - int(wins.sum())
        del senders  # before the next block is drawn
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
    spans than blocks), each counted on its own thread. numpy releases the
    GIL while it draws a block and while its loops compare and sum, but the
    Python side of each call holds it. The draws do not depend on the span
    bounds, and integer counts add up the same in any order, so the result
    does not depend on the CPU count.
    """
    import numpy as np

    _check_run(game, profile, num_slots, seed)
    taus = np.asarray(profile.taus)
    num_spans = min(_usable_cpus(), -(-num_slots // _block_slots(game.n)))
    bounds = [num_slots * k // num_spans for k in range(num_spans + 1)]
    results = [None] * num_spans
    # Set by a span that fails, Ctrl-C included, so that every span stops
    # within a block instead of running to its end.
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
    the initial boundary (time 0, the starting ages), then blocks of at most
    max(1, 2**15 // n) slots. Node i's age at a boundary is sigma_success if
    it just succeeded, otherwise its previous age plus the realized slot
    duration. Whenever n <= 2**15 a block holds at most 2**15 ages, so its
    memory grows with neither `num_slots` nor n; past that, a block is one
    slot.

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
        # one cumulative sum over the whole run, whatever the table size.
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
