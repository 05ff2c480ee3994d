"""Monte Carlo slot simulator: determinism, convergence, and trajectories."""

import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoi_csma_game import (
    GameInstance,
    SimStats,
    SlotLengths,
    StrategyProfile,
    age_pmf,
    msne_closed_form,
    outcome_probabilities,
    run_monte_carlo,
    simulate_age_trajectory,
)
from aoi_csma_game import simulate
from aoi_csma_game.reference import REFERENCE_ROWS
from helpers import (
    outcome_probabilities_oracle,
    slot_by_slot_counts,
    slot_outcome_codes,
    support_mean,
)

LENGTHS = SlotLengths(0.01, 1.01, 2.02)
GAME = GameInstance(LENGTHS, (2.02, 3.03, 3.03))
ROW_IV = next(r for r in REFERENCE_ROWS if r.label == "IV")


def three_sigma_freq(p, slots):
    return 3.0 * math.sqrt(p * (1.0 - p) / slots)


# ---------------------------------------------------------------------------
# single-slot sampling


def test_sample_slot_nobody_transmits_is_idle():
    stats = run_monte_carlo(GAME, StrategyProfile((0.0, 0.0, 0.0)), 20, seed=0)
    assert stats.idle_count == 20
    assert stats.collision_count == 0
    assert stats.success_count_per_node == (0, 0, 0)
    for i in range(3):
        assert stats.mean_age_after_per_node[i] == pytest.approx(
            GAME.initial_ages[i] + LENGTHS.sigma_idle, rel=1e-12
        )


def test_sample_slot_everyone_transmits_is_collision():
    game = GameInstance(LENGTHS, (2.02, 3.03))
    stats = run_monte_carlo(game, StrategyProfile((1.0, 1.0)), 20, seed=0)
    assert stats.collision_count == 20
    assert stats.idle_count == 0
    assert stats.success_count_per_node == (0, 0)
    for i in range(2):
        assert stats.mean_age_after_per_node[i] == pytest.approx(
            game.initial_ages[i] + LENGTHS.sigma_collision, rel=1e-12
        )


def test_sample_slot_lone_transmitter_succeeds():
    stats = run_monte_carlo(GAME, StrategyProfile((0.0, 1.0, 0.0)), 20, seed=0)
    assert stats.success_count_per_node == (0, 20, 0)
    assert stats.idle_count == 0
    assert stats.collision_count == 0
    assert stats.mean_age_after_per_node[1] == pytest.approx(LENGTHS.sigma_success, rel=1e-12)
    for i in (0, 2):
        assert stats.mean_age_after_per_node[i] == pytest.approx(
            GAME.initial_ages[i] + LENGTHS.sigma_success, rel=1e-12
        )


# ---------------------------------------------------------------------------
# aggregate statistics


def test_run_monte_carlo_validates_inputs():
    with pytest.raises(ValueError, match="num_slots"):
        run_monte_carlo(GAME, StrategyProfile((0.5, 0.5, 0.5)), 0, seed=1)
    with pytest.raises(ValueError, match="entries for n"):
        run_monte_carlo(GAME, StrategyProfile((0.5, 0.5)), 10, seed=1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        run_monte_carlo(GAME, StrategyProfile((0.5, 0.5, 0.5)), 10, seed=-1)


def test_num_slots_past_the_success_counters_is_refused_at_the_call():
    # In a fresh interpreter with a timeout, so that a run that counts
    # without end fails instead of hanging the suite.
    code = """
        from aoi_csma_game import (
            GameInstance, SlotLengths, StrategyProfile,
            run_monte_carlo, simulate_age_trajectory,
        )
        game = GameInstance(SlotLengths(0.01, 1.01, 2.02), (2.02, 3.03))
        profile = StrategyProfile((0.5, 0.5))
        for num_slots in (2**63, 10**400):
            for run in (run_monte_carlo, simulate_age_trajectory):
                try:
                    run(game, profile, num_slots, 1)
                except ValueError as exc:
                    print(exc)
        # The largest count is accepted; its blocks are never requested.
        simulate_age_trajectory(game, profile, 2**63 - 1, 1)
    """
    package_root = os.path.dirname(os.path.dirname(simulate.__file__))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=package_root), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["num_slots must be at most 9223372036854775807"] * 4


def test_single_idle_slot_stats():
    stats = run_monte_carlo(GAME, StrategyProfile((0.0, 0.0, 0.0)), 1, seed=5)
    assert stats.slots == 1
    assert stats.idle_count == 1
    assert stats.collision_count == 0
    assert stats.success_count_per_node == (0, 0, 0)
    for i in range(3):
        assert stats.mean_age_after_per_node[i] == pytest.approx(
            GAME.initial_ages[i] + LENGTHS.sigma_idle, abs=1e-12
        )


def test_certain_transmitter_wins_every_slot():
    stats = run_monte_carlo(GAME, StrategyProfile((1.0, 0.0, 0.0)), 1000, seed=5)
    assert stats.success_count_per_node == (1000, 0, 0)
    assert stats.idle_count == 0
    assert stats.collision_count == 0
    assert stats.mean_age_after_per_node[0] == pytest.approx(1.01, abs=1e-12)


def test_sim_stats_counts_must_sum():
    stats = run_monte_carlo(GAME, StrategyProfile((0.3, 0.4, 0.2)), 1000, seed=7)
    assert stats.slots == 1000
    assert stats.slots == (
        stats.idle_count + stats.collision_count + sum(stats.success_count_per_node)
    )


def test_sim_stats_takes_no_slot_count():
    with pytest.raises(TypeError, match="takes 4 arguments but 5 were given"):
        SimStats(10, 5, 4, (0, 1), (1.0, 1.0))


@st.composite
def restart_counts(draw):
    """A game and the counts of a restart run on it, any of them near a limit."""
    # Up to 8e307, so that an age lies between sigma_success and the largest
    # float less the longest slot.
    positive = st.floats(min_value=5e-324, max_value=8e307)
    pair = st.lists(positive, min_size=2, max_size=2, unique=True)
    sigma_idle, sigma_success = sorted(draw(pair))
    lengths = SlotLengths(sigma_idle, sigma_success, draw(positive))
    longest = max(sigma_success, lengths.sigma_collision)
    n = draw(st.integers(2, 5))
    age = st.floats(min_value=sigma_success, max_value=sys.float_info.max - longest)
    ages = draw(st.lists(age.filter(lambda a: a + longest < math.inf), min_size=n, max_size=n))
    count = st.integers(0, simulate._MAX_SLOTS // (n + 2))
    counts = draw(st.lists(count, min_size=n + 2, max_size=n + 2).filter(any))
    return GameInstance(lengths, ages), counts


@settings(max_examples=200, deadline=None)
@given(restart_counts())
# The largest age with 2**63 - 1 slots: a power-of-two rescaled sum rounded
# the second node's mean to 3.6637499999999994, not 3.66375.
@example(
    (
        GameInstance(LENGTHS, (sys.float_info.max, 3.03, 1.01)),
        [2**61, 2**61, 2**60, 2**60, 2**61 - 1],
    )
)
# Subnormal slot lengths and ages: every mean is subnormal.
@example(
    (
        GameInstance(SlotLengths(5e-324, 1e-323, 2e-323), (1e-323, 3e-323, 7.4e-322)),
        [2**62, 3, 2**40, 5, 2**61 + 7],
    )
)
# Collisions of 1e308: the slots' total duration is far past the largest
# float, but no mean is.
@example(
    (
        GameInstance(SlotLengths(0.01, 1.01, 1e308), (1.01, 3.03, 7e307)),
        [5, 2**62, 3, 2**40, 2**62 - 2**41],
    )
)
def test_restart_means_are_correctly_rounded(game_counts):
    """Each restart mean is the double nearest (total + age * misses) / slots,
    for counts in `SimStats` order: idle, each node's wins, collisions."""
    game, counts = game_counts
    lengths = game.slot_lengths
    idle, *wins, collision = counts
    slots = sum(counts)
    total = (
        idle * Fraction(lengths.sigma_idle)
        + sum(wins) * Fraction(lengths.sigma_success)
        + collision * Fraction(lengths.sigma_collision)
    )
    stats = simulate._sim_stats(game, np.array(counts, dtype=np.int64))
    assert stats.mean_age_after_per_node == tuple(
        float(Fraction(total + Fraction(age) * (slots - won), slots))
        for age, won in zip(game.initial_ages, wins)
    )


def test_determinism_identical_seeds_identical_stats():
    profile = StrategyProfile((0.3, 0.4, 0.2))
    a = run_monte_carlo(GAME, profile, 5000, seed=123)
    b = run_monte_carlo(GAME, profile, 5000, seed=123)
    assert a == b
    c = run_monte_carlo(GAME, profile, 5000, seed=124)
    assert c != a


def counts_of(stats):
    return stats.idle_count, stats.collision_count, stats.success_count_per_node


def block_slots(monkeypatch, n, slots):
    """Patch the block size to `slots` slots at n nodes; returns it."""
    monkeypatch.setattr(simulate, "_BLOCK_LANES", slots * n)
    assert simulate._block_slots(n) == slots
    return slots


def test_chunking_does_not_change_results(monkeypatch):
    # The block size picks the lanes, so each size has its own counts, but a
    # run at any size counts exactly its slots, and its first 3001 slots are
    # those of the longer run: the last block draws all of its lanes.
    profile = StrategyProfile((0.3, 0.4, 0.2))
    for block in (4, 28, 21844):  # the last is the default
        block_slots(monkeypatch, 3, block)
        codes = slot_outcome_codes(profile.taus, 42, 0, 5000, block)
        for slots in (3001, 5000):
            expected = np.bincount(codes[:slots], minlength=5)
            stats = run_monte_carlo(GAME, profile, slots, seed=42)
            assert counts_of(stats) == (expected[0], expected[-1], tuple(expected[1:-1])), block


def test_run_monte_carlo_matches_slot_by_slot_sampling():
    """The vectorized run must decide every slot as the slot-by-slot oracle does."""
    profile = StrategyProfile((0.3, 0.4, 0.2))
    slots = 3000
    stats = run_monte_carlo(GAME, profile, slots, seed=77)
    assert counts_of(stats) == slot_by_slot_counts(
        profile.taus, 77, slots, simulate._block_slots(3)
    )


@pytest.mark.parametrize(
    "n, slots",
    [(1, 65536), (2, 32768), (3, 21844), (4, 16384), (10, 6552), (12, 5461), (150, 436),
     (4097, 12), (2**14, 4), (2**14 + 1, 4), (10**5, 1)],
)
def test_blocks_fill_whole_words_near_the_block_size(n, slots):
    # The most slots whose n lanes each fill whole 64-bit words within 2**16
    # lanes, or the fewest that fill whole words at all.
    assert simulate._BLOCK_LANES == 1 << 16
    assert simulate._block_slots(n) == slots
    assert n * slots % 4 == 0
    assert n * slots <= 1 << 16 or slots == 4 // math.gcd(n, 4)


# ---------------------------------------------------------------------------
# spans: each span's generator is advanced to its own block in the stream


@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize(
    "start, stop, per_block",
    [(0, 50, 7), (13, 50, 7), (5, 41, 1), (33, 34, 4), (0, 50, 1 << 16)],
)
def test_span_variates_are_the_single_stream_slice(monkeypatch, n, start, stop, per_block):
    # Each block decides its own lanes of the stream, and no block yields
    # more slots than it holds. At these odd n a block fills whole words
    # with a multiple of 4 slots, so 1, 4 and 7 slots a block make 4.
    monkeypatch.setattr(simulate, "_BLOCK_LANES", per_block * n)
    block = simulate._block_slots(n)
    taus = np.linspace(0.2, 0.8, n)
    expected = slot_outcome_codes(taus, 2024, start, stop, block)
    lo = 0
    for sent in simulate._transmit_blocks(taus, 2024, start, stop):
        assert 1 <= sent.shape[1] <= block
        codes = decode(sent)
        assert np.array_equal(codes, expected[lo : lo + len(codes)])
        lo += len(codes)
    assert lo == stop - start


def decode(sent):
    """Outcome codes of an ``(n, slots)`` transmit matrix."""
    n = len(sent)
    count = sent.sum(axis=0)
    return np.where(count == 0, 0, np.where(count == 1, 1 + sent.argmax(axis=0), n + 1))


def outcome_codes(taus, seed, start, stop):
    return np.concatenate(list(simulate._slot_outcomes(np.asarray(taus), seed, start, stop)))


def trajectory_stats(game, profile, slots, seed):
    """The `SimStats` that an exhausted trajectory generator returns."""
    blocks = simulate_age_trajectory(game, profile, slots, seed)
    while True:
        try:
            next(blocks)
        except StopIteration as done:
            return done.value


@pytest.mark.parametrize(
    "taus, code",
    [
        ((0.0,) * 4096 + (1.0,), 4097),  # a lone success by the last of 4097 nodes
        ((1.0,) * 4097, 4098),
        ((1.0,) * 300, 301),
    ],
    ids=["lone-last-of-4097", "all-of-4097", "all-of-300"],
)
def test_outcome_codes_are_exact_in_wide_games(taus, code):
    assert np.array_equal(outcome_codes(taus, 6, 3, 40), np.full(37, code))
    counts = simulate._span_counts(np.array(taus), 6, 3, 40, threading.Event())
    assert np.array_equal(counts, np.bincount(np.full(37, code), minlength=len(taus) + 2))


@pytest.mark.parametrize("n", [256, 300])
def test_256_senders_are_a_collision(n):
    # A uint8 count of senders wraps 256 to 0, which would read as idle.
    game = GameInstance(LENGTHS, (2.02,) * n)
    profile = StrategyProfile((1.0,) * n)
    every_slot_collides = (0, 50, (0,) * n)
    assert counts_of(run_monte_carlo(game, profile, 50, seed=3)) == every_slot_collides
    assert counts_of(trajectory_stats(game, profile, 50, seed=3)) == every_slot_collides


# The edges of the threshold split: T = 0, 1, 2**36 (hi = 0 and lo = 2**36),
# 2**53 - 1 (hi = 0xFFFF, lo = 2**37 - 1) and 2**53 (hi clamped, lo = 2**37).
EDGE_TAUS = [0.0, 2.0**-53, 2.0**-17, 1.0 - 2.0**-53, 1.0]


@settings(max_examples=60, deadline=None)
@given(
    taus=st.lists(
        st.one_of(st.sampled_from(EDGE_TAUS), st.floats(0.0, 1.0)), min_size=1, max_size=400
    ),
    seed=st.integers(0, 2**32),
    bounds=st.tuples(st.integers(0, 30), st.integers(1, 30)),
    per_block=st.integers(1, 40),
)
def test_outcome_codes_match_the_decoded_transmit_matrix(taus, seed, bounds, per_block):
    start, stop = bounds[0], bounds[0] + bounds[1]
    with mock.patch.object(simulate, "_BLOCK_LANES", per_block * len(taus)):
        codes = outcome_codes(taus, seed, start, stop)
        block = simulate._block_slots(len(taus))
    assert np.array_equal(codes, slot_outcome_codes(taus, seed, start, stop, block))


def drawn_lane(seed, n, block, slot, node):
    """The lane that decides `node`'s transmission in `slot`, read from the
    raw words by the addressing the oracle states."""
    lane = (slot // block) * block * n + node * block + slot % block
    stream = np.random.PCG64(np.random.SeedSequence(seed))
    stream.advance(lane // 4)
    return stream.random_raw() >> 16 * (lane % 4) & 0xFFFF


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), seed=st.integers(0, 2**32))
def test_forced_ties_are_decided_by_the_tie_stream(data, n, seed):
    # A node's tau puts its hi on the lane it draws in one slot of the span,
    # with lo anywhere in [0, 2**37): that decision ties, and the tie
    # stream's 37 bits decide it. The other nodes take edge taus.
    block = data.draw(st.sampled_from([4, 12, None]), label="block")
    start = data.draw(st.integers(0, 30), label="start")
    stop = start + data.draw(st.integers(1, 30), label="slots")
    lanes = simulate._BLOCK_LANES if block is None else block * n
    with mock.patch.object(simulate, "_BLOCK_LANES", lanes):
        block = simulate._block_slots(n)
        taus, tied = [], {}
        for j in range(n):
            if data.draw(st.booleans(), label=f"node {j} ties"):
                slot = data.draw(st.integers(start, stop - 1), label=f"node {j} slot")
                tied[j] = drawn_lane(seed, n, block, slot, j)
                low = data.draw(st.integers(0, 2**37 - 1), label=f"node {j} lo")
                taus.append((tied[j] * 2**37 + low) / 2**53)
            else:
                taus.append(data.draw(st.sampled_from(EDGE_TAUS), label=f"node {j} tau"))
        hi, _ = simulate._thresholds(taus)
        codes = outcome_codes(taus, seed, start, stop)
    assert all(hi[j] == lane for j, lane in tied.items())
    assert np.array_equal(codes, slot_outcome_codes(taus, seed, start, stop, block))


@settings(max_examples=500, deadline=None)
@given(
    word=st.integers(0, 2**64 - 1),
    tau=st.one_of(st.sampled_from(EDGE_TAUS), st.floats(0.0, 1.0)),
)
def test_the_lane_rule_is_the_law_of_random_below_tau(word, tau):
    # Generator.random() reads (raw >> 11) * 2**-53. Its top 16 bits are the
    # lane and its low 37 bits the tie bits, so the rule decides exactly
    # where random() < tau does.
    uniform = (word >> 11) * 2.0**-53
    lane, tie = word >> 48, (word >> 11) & (2**37 - 1)
    assert (uniform < tau) == (lane * 2**37 + tie < math.ceil(tau * 2**53))
    (hi,), (lo,) = simulate._thresholds([tau])
    assert (uniform < tau) == (lane < hi or (lane == hi and tie < lo))


def test_random_is_the_top_53_bits_of_the_raw_word():
    # The law the lane rule keeps: numpy's random() over PCG64 is its raw
    # word shifted right by 11, times 2**-53.
    words = np.random.PCG64(np.random.SeedSequence(5)).random_raw(100_000)
    uniforms = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5))).random(100_000)
    assert np.array_equal(uniforms, (words >> np.uint64(11)) * 2.0**-53)


def test_span_counts_add_up_to_one_span(monkeypatch):
    taus = np.array([0.3, 0.4, 0.2])
    for per_block in (1 << 16, 7):
        monkeypatch.setattr(simulate, "_BLOCK_LANES", per_block * 3)
        whole = simulate._span_counts(taus, 8, 0, 5000, threading.Event())
        for bounds in ([0, 1, 777, 778, 3001, 5000], [0, 2500, 5000], [0, 4999, 5000]):
            parts = [
                simulate._span_counts(taus, 8, lo, hi, threading.Event())
                for lo, hi in zip(bounds, bounds[1:])
            ]
            assert np.array_equal(sum(parts), whole)


@pytest.mark.parametrize("cpus", [1, 2, 5])
def test_threaded_spans_match_slot_by_slot_sampling(monkeypatch, cpus):
    block = block_slots(monkeypatch, 3, 8)
    profile = StrategyProfile((0.3, 0.4, 0.2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost count would show
    try:
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        stats = run_monte_carlo(GAME, profile, 5000, seed=77)
    finally:
        sys.setswitchinterval(interval)
    assert counts_of(stats) == slot_by_slot_counts(profile.taus, 77, 5000, block)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
    assert stats == run_monte_carlo(GAME, profile, 5000, seed=77)


def test_usable_cpus_fall_back_to_the_cpu_count_without_affinity(monkeypatch):
    # os.sched_getaffinity is missing on macOS and Windows.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert simulate._usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert simulate._usable_cpus() == 1


def test_a_span_error_is_raised_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    span_counts = simulate._span_counts
    raised = []

    def failing_span_counts(taus, seed, start, stop, failed):
        if start > 0:
            raised.append(RuntimeError(f"span from slot {start} failed"))
            raise raised[-1]
        return span_counts(taus, seed, start, stop, failed)

    monkeypatch.setattr(simulate, "_span_counts", failing_span_counts)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="^span from slot 25000 failed$") as info:
        run_monte_carlo(GAME, StrategyProfile((0.3, 0.4, 0.2)), 50_000, seed=1)
    assert info.value is raised[0]
    assert threading.active_count() == threads_before


def test_a_failing_span_stops_the_others_within_a_chunk(monkeypatch):
    # Span 0 fails after its first block. The other span, 400 default-size
    # blocks long, stops at its next block instead of drawing all of them.
    class SpanFailure(Exception):
        pass

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    transmit_blocks = simulate._transmit_blocks
    drawn = {}

    def blocks(taus, seed, start, stop):
        for k, sent in enumerate(transmit_blocks(taus, seed, start, stop)):
            if start == 0 and k == 1:
                raise SpanFailure
            drawn[start] = k + 1
            yield sent

    monkeypatch.setattr(simulate, "_transmit_blocks", blocks)
    span_blocks = 400
    slots = 2 * span_blocks * simulate._block_slots(2)
    game = GameInstance(LENGTHS, (2.02, 3.03))
    with pytest.raises(SpanFailure):
        run_monte_carlo(game, StrategyProfile((0.5, 0.5)), slots, seed=1)
    assert drawn[0] == 1
    assert drawn.get(slots // 2, 0) < span_blocks // 2


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "taus",
    [
        (1 / 300,) * 300,  # idles, lone successes and collisions
        (1.0,) * 257 + (0.0,) * 43,  # 257 transmitters: a uint8 count would read 1
    ],
)
def test_wide_game_counts_match_slot_by_slot_sampling(monkeypatch, cpus, taus):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    n = len(taus)
    block = block_slots(monkeypatch, n, 100)  # fewer slots than nodes
    game = GameInstance(LENGTHS, (2.02,) * n)
    stats = run_monte_carlo(game, StrategyProfile(taus), 1000, seed=5)
    expected = slot_by_slot_counts(taus, 5, 1000, block)
    assert counts_of(stats) == expected
    if taus[0] < 1.0:
        assert expected[0] > 0 and expected[1] > 0 and sum(expected[2]) > 0


def test_one_row_chunks_match_slot_by_slot_sampling(monkeypatch):
    # The smallest blocks: a whole number of words is 2 slots at n = 10 and
    # one slot at n = 12.
    monkeypatch.setattr(simulate, "_BLOCK_LANES", 8)
    for n, slots in ((10, 2), (12, 1)):
        assert simulate._block_slots(n) == slots
        game = GameInstance(LENGTHS, (2.02,) * n)
        profile = StrategyProfile(tuple(np.linspace(0.02, 0.3, n)))
        stats = run_monte_carlo(game, profile, 300, seed=21)
        assert counts_of(stats) == slot_by_slot_counts(profile.taus, 21, 300, slots)


@pytest.mark.parametrize("cpus", [1, 2])
def test_restart_memory_does_not_grow_with_slots(monkeypatch, cpus):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    for taus in ((0.3, 0.4), (0.3, 0.4, 0.2)):
        n = len(taus)
        game = GameInstance(LENGTHS, GAME.initial_ages[:n])
        profile = StrategyProfile(taus)
        run_monte_carlo(game, profile, 1000, seed=3)  # one-off allocations are not traced
        peaks = []
        for slots in (200_000, 800_000):  # 7 and 25 blocks at n = 2, 10 and 37 at n = 3
            tracemalloc.start()
            try:
                run_monte_carlo(game, profile, slots, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # A span holds a block's raw words (2 bytes a lane), its transmit
        # matrix and one mask of the same size (a byte a lane each): 256 KiB
        # for 2**16 lanes at any n up to 2**14. The runs peak near 262 KiB a
        # span, against 576 KiB for the chunks of uniforms this replaced.
        span = 4 * n * simulate._block_slots(n)
        assert max(peaks) < cpus * (span + 16 * 1024), n
        if cpus == 1:  # how long two spans' buffers coexist depends on the threads
            assert peaks[1] < peaks[0] + 8 * 1024, n


@pytest.mark.parametrize(
    "n, lanes, start, stop, widths",
    [
        # A span shorter than a block: one block of 40 slots, 27 of them yielded.
        (3, 3 * 40, 0, 27, [27]),
        # 43 slots a block round down to 40, a whole number of words at n = 3;
        # the first and last blocks are cut to the span.
        (3, 3 * 43, 5, 142, [35, 40, 40, 22]),
        # Fewer lanes than nodes: blocks of 2 slots, a whole number of words.
        (50, 150, 0, 10, [2, 2, 2, 2, 2]),
    ],
    ids=["short-span", "partial-last-block", "two-slot-blocks"],
)
def test_blocks_cover_every_slot_of_a_span(monkeypatch, n, lanes, start, stop, widths):
    monkeypatch.setattr(simulate, "_BLOCK_LANES", lanes)
    taus = np.linspace(0.05, 0.95, n)
    blocks = [sent.copy() for sent in simulate._transmit_blocks(taus, 31, start, stop)]
    assert [sent.shape[1] for sent in blocks] == widths
    codes = np.concatenate([decode(sent) for sent in blocks])
    block = simulate._block_slots(n)
    assert np.array_equal(codes, slot_outcome_codes(taus, 31, start, stop, block))


def test_certain_transmitter_wins_every_slot_in_a_wide_game():
    n = 300
    game = GameInstance(LENGTHS, (2.02,) * n)
    stats = run_monte_carlo(game, StrategyProfile((0.0,) * 7 + (1.0,) + (0.0,) * 292), 2000, seed=4)
    assert stats.success_count_per_node == (0,) * 7 + (2000,) + (0,) * 292
    assert stats.idle_count == stats.collision_count == 0


def test_symmetric_profile_frequencies_converge():
    game = GameInstance(LENGTHS, (2.02, 2.02))
    profile = StrategyProfile((0.5, 0.5))
    slots = 1_000_000
    stats = run_monte_carlo(game, profile, slots, seed=2718)
    assert abs(stats.idle_count / slots - 0.25) <= three_sigma_freq(0.25, slots)
    assert abs(stats.collision_count / slots - 0.25) <= three_sigma_freq(0.25, slots)
    for i in range(2):
        assert abs(
            stats.success_count_per_node[i] / slots - 0.25
        ) <= three_sigma_freq(0.25, slots)


def test_frequencies_converge_at_reference_profile():
    profile = StrategyProfile((0.6008, 0.3355, 0.3355))
    slots = 1_000_000
    stats = run_monte_carlo(GAME, profile, slots, seed=31415)
    p_idle, _, _, p_coll = outcome_probabilities(0, profile)
    assert abs(stats.idle_count / slots - p_idle) <= three_sigma_freq(p_idle, slots)
    assert abs(stats.collision_count / slots - p_coll) <= three_sigma_freq(p_coll, slots)
    for i in range(3):
        p = outcome_probabilities(i, profile)[1]
        assert abs(
            stats.success_count_per_node[i] / slots - p
        ) <= three_sigma_freq(p, slots)


@pytest.mark.parametrize("case", ["row-iv", "n10-tau0.1"])
def test_pearson_chi2_rejects_at_its_stated_rate(case):
    """Pearson's chi-squared test of the n + 2 outcome counts (idle, each
    node's successes, collision) against the brute-force cell probabilities,
    at alpha = 0.01 over 200 seeds of 20 000 slots. A sampler with the law of
    independent Bernoulli(tau_j) decisions rejects Binomial(200, 0.01)
    times, 2 on average, and more than 8 with probability 2.1e-4."""
    from scipy.stats import binom, chi2

    if case == "row-iv":
        game = ROW_IV.game()
        profile = msne_closed_form(game).profile
    else:
        game = GameInstance(LENGTHS, (3.03,) * 10)
        profile = StrategyProfile((0.1,) * 10)
    p_idle, p_success, p_collision, _ = outcome_probabilities_oracle(profile.taus)
    expected = 20_000 * np.array([p_idle, *p_success, p_collision])
    seeds, alpha = 200, 0.01
    rejections = 0
    for seed in range(seeds):
        stats = run_monte_carlo(game, profile, 20_000, seed)
        idle, collision, wins = counts_of(stats)
        observed = np.array([idle, *wins, collision])
        statistic = ((observed - expected) ** 2 / expected).sum()
        rejections += chi2.sf(statistic, df=game.n + 1) < alpha
    # The fewest rejections exceeded with probability at most 1e-3: 8.
    limit = binom.isf(1e-3, seeds, alpha)
    assert limit == 8
    assert rejections <= limit, rejections


def test_restart_mean_age_converges_to_analytic_expectation():
    profile = StrategyProfile((0.6008, 0.3355, 0.3355))
    slots = 200_000
    stats = run_monte_carlo(GAME, profile, slots, seed=99)
    for i in range(3):
        age = GAME.initial_ages[i]
        pmf = age_pmf(i, age, profile, LENGTHS)
        expected = support_mean(pmf)
        variance = sum(p * v * v for v, p in pmf) - expected**2
        band = 3.0 * math.sqrt(variance / slots)
        assert abs(stats.mean_age_after_per_node[i] - expected) <= band


def test_one_slot_age_histogram_matches_pmf():
    profile = StrategyProfile((0.6008, 0.3355, 0.3355))
    slots = 200_000
    stats = run_monte_carlo(GAME, profile, slots, seed=4242)
    for i in range(3):
        pmf = dict(age_pmf(i, GAME.initial_ages[i], profile, LENGTHS))
        other_successes = sum(stats.success_count_per_node) - stats.success_count_per_node[i]
        empirical = {
            GAME.initial_ages[i] + LENGTHS.sigma_idle: stats.idle_count / slots,
            GAME.initial_ages[i] + LENGTHS.sigma_collision: stats.collision_count / slots,
            GAME.initial_ages[i] + LENGTHS.sigma_success: other_successes / slots,
            LENGTHS.sigma_success: stats.success_count_per_node[i] / slots,
        }
        for value, p in pmf.items():
            assert abs(empirical[value] - p) <= three_sigma_freq(p, slots)


def test_reference_equilibrium_monte_carlo_agreement():
    game = ROW_IV.game()
    profile = msne_closed_form(game).profile
    slots = 200_000
    stats = run_monte_carlo(game, profile, slots, seed=8080)
    for i in range(3):
        p = outcome_probabilities(i, profile)[1]
        assert abs(
            stats.success_count_per_node[i] / slots - p
        ) <= three_sigma_freq(p, slots)


# ---------------------------------------------------------------------------
# sequential age trajectories


def trajectory(game, profile, slots, seed):
    """All blocks of one run joined: (slots + 1, n + 1), times in column 0."""
    return np.concatenate(list(simulate_age_trajectory(game, profile, slots, seed)))


def rebuild_trajectory(game, profile, slots, seed, block=None):
    """Slot-by-slot rebuild from the oracle's codes, at the default block
    size unless `block` is given: each age is the time since the node's
    last success plus sigma_success, or its starting age plus the elapsed
    time."""
    lengths = game.slot_lengths
    block = block or simulate._block_slots(game.n)
    now = 0.0
    reset_at = [None] * game.n
    rows = [[now, *game.initial_ages]]
    for code in slot_outcome_codes(profile.taus, seed, 0, slots, block).tolist():
        if code == 0:
            now += lengths.sigma_idle
        elif code <= game.n:
            now += lengths.sigma_success
            reset_at[code - 1] = now
        else:
            now += lengths.sigma_collision
        rows.append([now] + [
            age + now if reset is None else lengths.sigma_success + (now - reset)
            for age, reset in zip(game.initial_ages, reset_at)
        ])
    return rows


def test_trajectory_all_idle_grows_linearly():
    slots = 50
    table = trajectory(GAME, StrategyProfile((0.0, 0.0, 0.0)), slots, seed=1)
    assert table.shape == (slots + 1, 4)
    times, ages = table[:, 0], table[:, 1:]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(slots * LENGTHS.sigma_idle, rel=1e-12)
    for i in range(3):
        assert ages[0, i] == GAME.initial_ages[i]
        assert ages[-1, i] == pytest.approx(
            GAME.initial_ages[i] + slots * LENGTHS.sigma_idle, rel=1e-12
        )


def test_trajectory_certain_winner_pins_age_to_success_length():
    slots = 40
    ages = trajectory(GAME, StrategyProfile((1.0, 0.0, 0.0)), slots, seed=1)[:, 1:]
    assert np.all(ages[1:, 0] == LENGTHS.sigma_success)
    # The other nodes see busy slots only and age by sigma_success each slot.
    for t in range(1, slots + 1):
        assert ages[t, 1] == pytest.approx(
            GAME.initial_ages[1] + t * LENGTHS.sigma_success, rel=1e-12
        )


def test_trajectory_replay_is_bit_identical():
    profile = StrategyProfile((0.4, 0.3, 0.2))
    table = trajectory(GAME, profile, 2000, seed=55)
    assert np.array_equal(trajectory(GAME, profile, 2000, seed=55), table)
    other = trajectory(GAME, profile, 2000, seed=56)
    assert not np.array_equal(other[:, 1:], table[:, 1:])


def test_trajectory_increments_are_slot_durations_or_resets():
    profile = StrategyProfile((0.4, 0.3, 0.2))
    table = trajectory(GAME, profile, 5000, seed=9)
    times, ages = table[:, 0], table[:, 1:]
    dt = np.diff(times)
    durations = np.array([LENGTHS.sigma_idle, LENGTHS.sigma_success, LENGTHS.sigma_collision])
    assert np.all(np.abs(dt[:, np.newaxis] - durations).min(axis=1) < 1e-9)
    increments = np.diff(ages, axis=0)
    # A reset lands exactly on the success length; every other age grows by dt.
    reset = (ages[1:] == LENGTHS.sigma_success) & (increments <= 0)
    grows = np.abs(increments - dt[:, np.newaxis]) <= 1e-9
    assert np.all(reset | grows)


@pytest.mark.parametrize("taus", [(0.4, 0.3, 0.2), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)])
def test_trajectory_is_chunk_invariant(monkeypatch, taus):
    # A shorter run is a prefix of a longer one at any block size, with
    # tables cut anywhere: the last block draws all of its lanes.
    profile = StrategyProfile(taus)
    for block in (4, 8, 21844):  # the last is the default
        block_slots(monkeypatch, 3, block)
        table = trajectory(GAME, profile, 2000, seed=13)
        for slots in (1, 7, 1999):
            assert np.array_equal(trajectory(GAME, profile, slots, seed=13), table[: slots + 1])


def test_trajectory_matches_slot_by_slot_rebuild():
    profile = StrategyProfile((0.3, 0.4, 0.2))
    table = trajectory(GAME, profile, 3000, seed=77)
    assert table.tolist() == rebuild_trajectory(
        GAME, profile, 3000, seed=77
    )


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32),
)
def test_trajectory_equals_the_slot_by_slot_rebuild(data, n, seed):
    # Ages from sigma_s to 1e12 sigma_s, log-uniform; nodes that never or
    # always transmit; blocks of the fewest slots up to the default size,
    # with half of the runs split into several blocks.
    exponents = data.draw(st.lists(st.floats(0.0, 12.0), min_size=n, max_size=n))
    tau = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    taus = data.draw(st.lists(tau, min_size=n, max_size=n))
    lanes = data.draw(
        st.one_of(st.integers(n, 64 * n), st.integers(n, simulate._BLOCK_LANES))
    )
    game = GameInstance(LENGTHS, tuple(LENGTHS.sigma_success * 10.0**x for x in exponents))
    profile = StrategyProfile(taus)
    with mock.patch.object(simulate, "_BLOCK_LANES", lanes):
        table = trajectory(game, profile, 200, seed)
        block = simulate._block_slots(n)
    assert table.tolist() == rebuild_trajectory(game, profile, 200, seed, block)


@pytest.mark.parametrize("n", [40, 150])
@pytest.mark.parametrize("certain", [True, False], ids=["certain", "no-certain"])
def test_wide_trajectory_matches_slot_by_slot_rebuild(monkeypatch, n, certain):
    # Node 0 never transmits, so its age never resets. With a certain node 1
    # every slot is its success or a collision; without one, idles, lone
    # successes and collisions all occur.
    game = GameInstance(LENGTHS, np.linspace(1.01, 9.0, n))
    tau_1 = 1.0 if certain else 1.0 / n
    profile = StrategyProfile((0.0, tau_1) + tuple(np.linspace(0.1, 1.0, n - 2) / n))
    # The last block size is the default: 1638 or 436 slots a block.
    for lanes in (n, 7 * n, 64 * n, 1 << 16):
        monkeypatch.setattr(simulate, "_BLOCK_LANES", lanes)
        expected = rebuild_trajectory(game, profile, 600, 19, simulate._block_slots(n))
        assert trajectory(game, profile, 600, seed=19).tolist() == expected


def test_trajectory_blocks_hold_at_most_chunk_slots_rows(monkeypatch):
    # Blocks of 16 slots give tables of at most 8 rows: 50 slots are three
    # whole blocks, cut in two, and 2 slots of a fourth.
    block_slots(monkeypatch, 3, 16)
    blocks = list(simulate_age_trajectory(GAME, StrategyProfile((0.4, 0.3, 0.2)), 50, seed=3))
    assert [block.shape for block in blocks] == [(1, 4)] + [(8, 4)] * 6 + [(2, 4)]
    assert all(block.dtype == np.float64 and block.flags.c_contiguous for block in blocks)


def test_trajectory_blocks_are_capped_by_variates_for_wide_games():
    n = 30
    game = GameInstance(LENGTHS, (2.02,) * n)
    blocks = list(simulate_age_trajectory(game, StrategyProfile((0.05,) * n), 40_000, seed=3))
    assert sum(len(block) for block in blocks) == 40_001
    assert max(len(block) for block in blocks) == 2**15 // n


@pytest.mark.parametrize("per_block", [1, 7, None], ids=["1", "7", "default"])
@pytest.mark.parametrize(
    "n, taus",
    [
        (3, (0.3, 0.4, 0.2)),
        (3, (0.0, 0.0, 0.0)),
        (3, (1.0, 0.0, 1.0)),
        (40, (0.0, 1.0 / 40) + tuple(np.linspace(0.01, 0.04, 38))),
    ],
    ids=["n3", "all-idle", "all-collide", "n40"],
)
def test_trajectory_returns_the_restart_stats_of_its_slots(monkeypatch, n, taus, per_block):
    if per_block is not None:
        monkeypatch.setattr(simulate, "_BLOCK_LANES", per_block * n)
    game = GameInstance(LENGTHS, tuple(np.linspace(1.01, 9.0, n)))
    profile = StrategyProfile(taus)
    stats = trajectory_stats(game, profile, 2000, seed=21)
    assert stats == run_monte_carlo(game, profile, 2000, seed=21)
    assert counts_of(stats) == slot_by_slot_counts(taus, 21, 2000, simulate._block_slots(n))


def test_trajectory_validates_inputs():
    # Raised at the call, before any block is requested.
    with pytest.raises(ValueError, match="num_slots"):
        simulate_age_trajectory(GAME, StrategyProfile((0.5, 0.5, 0.5)), 0, seed=1)
    with pytest.raises(ValueError, match="entries for n"):
        simulate_age_trajectory(GAME, StrategyProfile((0.5, 0.5)), 10, seed=1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        simulate_age_trajectory(GAME, StrategyProfile((0.5, 0.5, 0.5)), 10, seed=-1)


def test_trajectory_refuses_a_clock_that_could_overflow():
    # Raised at the call: every time is at most 2 * num_slots * the longest
    # slot, and every age at most that plus the largest starting age. Seven
    # collisions of 2**1020 stay finite; eight would end at 2**1023, but their
    # bound passes the largest float, so the run is refused.
    game = GameInstance(SlotLengths(0.01, 1.01, 2.0**1020), (1.01, 2.02, 3.03))
    profile = StrategyProfile((1.0, 1.0, 1.0))
    table = np.concatenate(list(simulate_age_trajectory(game, profile, 7, seed=1)))
    assert np.isfinite(table).all()
    assert table[-1, 0] == 7 * 2.0**1020
    message = (
        "8 slots of up to 1.1235582092889474e+307 could run the trajectory's "
        "clock or ages past the largest float"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_age_trajectory(game, profile, 8, seed=1)
    # The restart experiment sums its means exactly, and still runs.
    assert run_monte_carlo(game, profile, 8, seed=1).collision_count == 8


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
    st.floats(1.0, 9.0),
    st.integers(0, 2**32),
    st.sampled_from((-20, -8, -3, 3, 8, 20)),
)
def test_rescaling_by_a_power_of_two_scales_both_experiments(taus, age_factor, seed, k):
    """Multiplying every slot length and age by 2**k rounds nothing, away from
    overflow and underflow: the counts stay and every time and age scales
    by exactly 2**k."""
    scale = math.ldexp(1.0, k)
    n = len(taus)
    profile = StrategyProfile(tuple(taus))
    ages = [LENGTHS.sigma_success * (age_factor + i) for i in range(n)]
    game = GameInstance(LENGTHS, ages)
    scaled = GameInstance(
        SlotLengths(
            scale * LENGTHS.sigma_idle,
            scale * LENGTHS.sigma_success,
            scale * LENGTHS.sigma_collision,
        ),
        [scale * age for age in ages],
    )
    stats, big = (run_monte_carlo(g, profile, 300, seed) for g in (game, scaled))
    assert big.idle_count == stats.idle_count
    assert big.collision_count == stats.collision_count
    assert big.success_count_per_node == stats.success_count_per_node
    assert big.mean_age_after_per_node == tuple(
        scale * mean for mean in stats.mean_age_after_per_node
    )
    assert np.array_equal(
        trajectory(scaled, profile, 300, seed), scale * trajectory(game, profile, 300, seed)
    )
