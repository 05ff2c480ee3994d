"""Monte Carlo slot simulator: determinism, convergence, and trajectories."""

import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_csma_game import (
    GameInstance,
    SimStats,
    SlotLengths,
    StrategyProfile,
    age_pmf,
    collision_probability,
    idle_probability,
    msne_closed_form,
    run_monte_carlo,
    simulate_age_trajectory,
    success_probability_of,
)
from aoi_csma_game import simulate
from aoi_csma_game.reference import REFERENCE_ROWS
from helpers import sample_slot, slot_by_slot_counts, slot_outcome_codes

LENGTHS = SlotLengths(0.01, 1.01, 2.02)
GAME = GameInstance(3, LENGTHS, (2.02, 3.03, 3.03))
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
    game = GameInstance(2, LENGTHS, (2.02, 3.03))
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
        game = GameInstance(2, SlotLengths(0.01, 1.01, 2.02), (2.02, 3.03))
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
    with pytest.raises(ValueError, match="sum"):
        SimStats(10, 5, 4, (0, 0), (1.0, 1.0))


def test_determinism_identical_seeds_identical_stats():
    profile = StrategyProfile((0.3, 0.4, 0.2))
    a = run_monte_carlo(GAME, profile, 5000, seed=123)
    b = run_monte_carlo(GAME, profile, 5000, seed=123)
    assert a == b
    c = run_monte_carlo(GAME, profile, 5000, seed=124)
    assert c != a


def test_chunking_does_not_change_results(monkeypatch):
    profile = StrategyProfile((0.3, 0.4, 0.2))
    whole = run_monte_carlo(GAME, profile, 5000, seed=42)
    monkeypatch.setattr(simulate, "_CHUNK_VARIATES", 7 * 3)
    chunked = run_monte_carlo(GAME, profile, 5000, seed=42)
    assert whole == chunked


def test_run_monte_carlo_matches_slot_by_slot_sampling():
    """The vectorized run must replay the same variate stream as the slot-by-slot oracle."""
    profile = StrategyProfile((0.3, 0.4, 0.2))
    slots = 3000
    stats = run_monte_carlo(GAME, profile, slots, seed=77)
    rng = np.random.default_rng(77)
    idle = collision = 0
    successes = [0, 0, 0]
    for _ in range(slots):
        kind, _, winner = sample_slot(profile, LENGTHS, rng)
        if kind == "idle":
            idle += 1
        elif kind == "collision":
            collision += 1
        else:
            successes[winner] += 1
    assert stats.idle_count == idle
    assert stats.collision_count == collision
    assert stats.success_count_per_node == tuple(successes)


# ---------------------------------------------------------------------------
# spans: each span's generator is advanced to its own offset in the stream


@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize(
    "start, stop, chunk_slots",
    [(0, 50, 7), (13, 50, 7), (5, 41, 1), (33, 34, 4), (0, 50, 1 << 16)],
)
def test_span_variates_are_the_single_stream_slice(monkeypatch, n, start, stop, chunk_slots):
    # Each chunk decodes its own rows of default_rng(2024), and no chunk
    # holds more slots than the chunk size allows.
    monkeypatch.setattr(simulate, "_CHUNK_VARIATES", chunk_slots * n)
    taus = np.linspace(0.2, 0.8, n)
    expected = slot_outcome_codes(taus, 2024, start, stop)
    lo = 0
    for codes in simulate._slot_outcomes(taus, 2024, start, stop):
        assert 1 <= len(codes) <= chunk_slots
        assert np.array_equal(codes, expected[lo : lo + len(codes)])
        lo += len(codes)
    assert lo == stop - start


def outcome_codes(taus, seed, start, stop):
    return np.concatenate(list(simulate._slot_outcomes(taus, seed, start, stop)))


@pytest.mark.parametrize(
    "taus, code",
    [
        ((0.0,) * 4096 + (1.0,), 2 * 4097 - 1),  # a lone success by the last of 4097 nodes
        ((1.0,) * 4097, 2 * 4097),
        ((1.0,) * 300, 2 * 300),
    ],
    ids=["lone-last-of-4097", "all-of-4097", "all-of-300"],
)
def test_outcome_codes_are_exact_in_wide_games(taus, code):
    assert np.array_equal(outcome_codes(np.array(taus), 6, 3, 40), np.full(37, code))


@settings(max_examples=60, deadline=None)
@given(
    taus=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=400
    ),
    seed=st.integers(0, 2**32),
    bounds=st.tuples(st.integers(0, 30), st.integers(1, 30)),
    chunk_slots=st.integers(1, 40),
)
def test_outcome_codes_match_the_decoded_transmit_matrix(taus, seed, bounds, chunk_slots):
    start, stop = bounds[0], bounds[0] + bounds[1]
    with mock.patch.object(simulate, "_CHUNK_VARIATES", chunk_slots * len(taus)):
        codes = outcome_codes(np.array(taus), seed, start, stop)
    assert np.array_equal(codes, slot_outcome_codes(taus, seed, start, stop))


def test_span_counts_add_up_to_one_span(monkeypatch):
    taus = np.array([0.3, 0.4, 0.2])
    whole = simulate._span_counts(taus, 8, 0, 5000, threading.Event())
    for bounds in ([0, 1, 777, 778, 3001, 5000], [0, 2500, 5000], [0, 4999, 5000]):
        for chunk_slots in (1 << 16, 7):
            monkeypatch.setattr(simulate, "_CHUNK_VARIATES", chunk_slots * 3)
            parts = [
                simulate._span_counts(taus, 8, lo, hi, threading.Event())
                for lo, hi in zip(bounds, bounds[1:])
            ]
            assert np.array_equal(sum(parts), whole)


@pytest.mark.parametrize("cpus", [1, 2, 5])
def test_threaded_spans_match_slot_by_slot_sampling(monkeypatch, cpus):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(simulate, "_CHUNK_VARIATES", 7 * 3)
    profile = StrategyProfile((0.3, 0.4, 0.2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost count would show
    try:
        stats = run_monte_carlo(GAME, profile, 5000, seed=77)
    finally:
        sys.setswitchinterval(interval)
    assert (
        stats.idle_count, stats.collision_count, stats.success_count_per_node
    ) == slot_by_slot_counts(profile, LENGTHS, 5000, seed=77)
    monkeypatch.undo()
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
    # Span 0 fails after its first chunk. The other span, 400 default-size
    # chunks long, stops at its next chunk instead of drawing all of them.
    class SpanFailure(Exception):
        pass

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    slot_outcomes = simulate._slot_outcomes
    drawn = {}

    def outcomes(taus, seed, start, stop):
        for k, codes in enumerate(slot_outcomes(taus, seed, start, stop)):
            if start == 0 and k == 1:
                raise SpanFailure
            drawn[start] = k + 1
            yield codes

    monkeypatch.setattr(simulate, "_slot_outcomes", outcomes)
    chunks = 400
    slots = 2 * chunks * simulate._chunk_rows(2)
    game = GameInstance(2, LENGTHS, (2.02, 3.03))
    with pytest.raises(SpanFailure):
        run_monte_carlo(game, StrategyProfile((0.5, 0.5)), slots, seed=1)
    assert drawn[0] == 1
    assert drawn.get(slots // 2, 0) < chunks // 2


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
    monkeypatch.setattr(simulate, "_CHUNK_VARIATES", 100 * n)  # fewer rows than nodes
    game = GameInstance(n, LENGTHS, (2.02,) * n)
    profile = StrategyProfile(taus)
    stats = run_monte_carlo(game, profile, 1000, seed=5)
    expected = slot_by_slot_counts(profile, LENGTHS, 1000, seed=5)
    assert (
        stats.idle_count, stats.collision_count, stats.success_count_per_node
    ) == expected
    if taus[0] < 1.0:
        assert expected[0] > 0 and expected[1] > 0 and sum(expected[2]) > 0


def test_one_row_chunks_match_slot_by_slot_sampling(monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK_VARIATES", 8)
    assert simulate._chunk_rows(10) == 1
    game = GameInstance(10, LENGTHS, (2.02,) * 10)
    profile = StrategyProfile(tuple(np.linspace(0.02, 0.3, 10)))
    stats = run_monte_carlo(game, profile, 300, seed=21)
    assert (
        stats.idle_count, stats.collision_count, stats.success_count_per_node
    ) == slot_by_slot_counts(profile, LENGTHS, 300, seed=21)


@pytest.mark.parametrize("cpus", [1, 2])
def test_restart_memory_does_not_grow_with_slots(monkeypatch, cpus):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    profile = StrategyProfile((0.3, 0.4, 0.2))
    run_monte_carlo(GAME, profile, 1000, seed=3)  # one-off allocations are not traced
    peaks = []
    for slots in (200_000, 800_000):  # 19 and 74 chunks of 10922 slots
        tracemalloc.start()
        try:
            run_monte_carlo(GAME, profile, slots, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # A span holds one chunk of uniforms and one of thresholds (8 bytes a
    # variate each) and at most two arrays of 8 bytes a slot: with 3 nodes,
    # below 3 * 8 bytes a variate in all. Both runs peak near 686 KiB a span;
    # the float32 counting kernel with 2**18-variate chunks read 3.1 MiB.
    assert max(peaks) < cpus * 3 * 8 * simulate._CHUNK_VARIATES
    if cpus == 1:  # how long two spans' buffers coexist depends on the threads
        assert peaks[1] < peaks[0] + 8 * 1024


def test_certain_transmitter_wins_every_slot_in_a_wide_game():
    n = 300
    game = GameInstance(n, LENGTHS, (2.02,) * n)
    stats = run_monte_carlo(game, StrategyProfile((0.0,) * 7 + (1.0,) + (0.0,) * 292), 2000, seed=4)
    assert stats.success_count_per_node == (0,) * 7 + (2000,) + (0,) * 292
    assert stats.idle_count == stats.collision_count == 0


def test_symmetric_profile_frequencies_converge():
    game = GameInstance(2, LENGTHS, (2.02, 2.02))
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
    p_idle = idle_probability(profile)
    p_coll = collision_probability(profile)
    assert abs(stats.idle_count / slots - p_idle) <= three_sigma_freq(p_idle, slots)
    assert abs(stats.collision_count / slots - p_coll) <= three_sigma_freq(p_coll, slots)
    for i in range(3):
        p = success_probability_of(i, profile)
        assert abs(
            stats.success_count_per_node[i] / slots - p
        ) <= three_sigma_freq(p, slots)


def test_restart_mean_age_converges_to_analytic_expectation():
    profile = StrategyProfile((0.6008, 0.3355, 0.3355))
    slots = 200_000
    stats = run_monte_carlo(GAME, profile, slots, seed=99)
    for i in range(3):
        age = GAME.initial_ages[i]
        pmf = age_pmf(i, age, profile, LENGTHS)
        expected = pmf.mean()
        variance = sum(p * v * v for v, p in pmf.support) - expected**2
        band = 3.0 * math.sqrt(variance / slots)
        assert abs(stats.mean_age_after_per_node[i] - expected) <= band


def test_one_slot_age_histogram_matches_pmf():
    profile = StrategyProfile((0.6008, 0.3355, 0.3355))
    slots = 200_000
    stats = run_monte_carlo(GAME, profile, slots, seed=4242)
    for i in range(3):
        pmf = dict(age_pmf(i, GAME.initial_ages[i], profile, LENGTHS).support)
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
    profile = msne_closed_form(game).profile()
    slots = 200_000
    stats = run_monte_carlo(game, profile, slots, seed=8080)
    for i in range(3):
        p = success_probability_of(i, profile)
        assert abs(
            stats.success_count_per_node[i] / slots - p
        ) <= three_sigma_freq(p, slots)


# ---------------------------------------------------------------------------
# sequential age trajectories


def trajectory(game, profile, slots, seed):
    """All blocks of one run joined: (slots + 1, n + 1), times in column 0."""
    return np.concatenate(list(simulate_age_trajectory(game, profile, slots, seed)))


def rebuild_trajectory(game, profile, slots, seed):
    """Slot-by-slot rebuild: each age is the time since the node's last
    success plus sigma_success, or its starting age plus the elapsed time."""
    lengths = game.slot_lengths
    rng = np.random.default_rng(seed)
    now = 0.0
    reset_at = [None] * game.n
    rows = [[now, *game.initial_ages]]
    for _ in range(slots):
        _, duration, winner = sample_slot(profile, lengths, rng)
        now += duration
        if winner is not None:
            reset_at[winner] = now
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
    profile = StrategyProfile(taus)
    table = trajectory(GAME, profile, 2000, seed=13)
    for chunk_slots in (1, 7):
        monkeypatch.setattr(simulate, "_CHUNK_VARIATES", chunk_slots * 3)
        assert np.array_equal(trajectory(GAME, profile, 2000, seed=13), table)


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
    # always transmit; chunks of one slot up to the default size, with half
    # of the runs split into several chunks.
    exponents = data.draw(st.lists(st.floats(0.0, 12.0), min_size=n, max_size=n))
    tau = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    taus = data.draw(st.lists(tau, min_size=n, max_size=n))
    chunk_variates = data.draw(
        st.one_of(st.integers(n, 64 * n), st.integers(n, simulate._CHUNK_VARIATES))
    )
    game = GameInstance(n, LENGTHS, tuple(LENGTHS.sigma_success * 10.0**x for x in exponents))
    profile = StrategyProfile(taus)
    with mock.patch.object(simulate, "_CHUNK_VARIATES", chunk_variates):
        table = trajectory(game, profile, 200, seed)
    assert table.tolist() == rebuild_trajectory(game, profile, 200, seed)


@pytest.mark.parametrize("n", [40, 150])
@pytest.mark.parametrize("certain", [True, False], ids=["certain", "no-certain"])
def test_wide_trajectory_matches_slot_by_slot_rebuild(monkeypatch, n, certain):
    # Node 0 never transmits, so its age never resets. With a certain node 1
    # every slot is its success or a collision; without one, idles, lone
    # successes and collisions all occur.
    game = GameInstance(n, LENGTHS, np.linspace(1.01, 9.0, n))
    tau_1 = 1.0 if certain else 1.0 / n
    profile = StrategyProfile((0.0, tau_1) + tuple(np.linspace(0.1, 1.0, n - 2) / n))
    expected = rebuild_trajectory(game, profile, 600, seed=19)
    # The last chunk size is the default: 819 or 218 slots a chunk.
    for chunk_variates in (n, 7 * n, 64 * n, simulate._CHUNK_VARIATES):
        monkeypatch.setattr(simulate, "_CHUNK_VARIATES", chunk_variates)
        assert trajectory(game, profile, 600, seed=19).tolist() == expected


def test_trajectory_blocks_hold_at_most_chunk_slots_rows(monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK_VARIATES", 7 * 3)
    blocks = list(simulate_age_trajectory(GAME, StrategyProfile((0.4, 0.3, 0.2)), 50, seed=3))
    assert [block.shape for block in blocks] == [(1, 4)] + [(7, 4)] * 7 + [(1, 4)]
    assert all(block.dtype == np.float64 and block.flags.c_contiguous for block in blocks)


def test_trajectory_blocks_are_capped_by_variates_for_wide_games():
    n = 30
    game = GameInstance(n, LENGTHS, (2.02,) * n)
    blocks = list(simulate_age_trajectory(game, StrategyProfile((0.05,) * n), 40_000, seed=3))
    assert sum(len(block) for block in blocks) == 40_001
    assert max(len(block) for block in blocks) <= max(1, simulate._CHUNK_VARIATES // n)


def trajectory_stats(game, profile, slots, seed):
    """The `SimStats` that an exhausted trajectory generator returns."""
    blocks = simulate_age_trajectory(game, profile, slots, seed)
    while True:
        try:
            next(blocks)
        except StopIteration as done:
            return done.value


@pytest.mark.parametrize("chunk_slots", [1, 7, None], ids=["1", "7", "default"])
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
def test_trajectory_returns_the_restart_stats_of_its_slots(monkeypatch, n, taus, chunk_slots):
    if chunk_slots is not None:
        monkeypatch.setattr(simulate, "_CHUNK_VARIATES", chunk_slots * n)
    game = GameInstance(n, LENGTHS, tuple(np.linspace(1.01, 9.0, n)))
    profile = StrategyProfile(taus)
    stats = trajectory_stats(game, profile, 2000, seed=21)
    assert stats == run_monte_carlo(game, profile, 2000, seed=21)
    assert (
        stats.idle_count, stats.collision_count, stats.success_count_per_node
    ) == slot_by_slot_counts(profile, LENGTHS, 2000, seed=21)


def test_trajectory_validates_inputs():
    # Raised at the call, before any block is requested.
    with pytest.raises(ValueError, match="num_slots"):
        simulate_age_trajectory(GAME, StrategyProfile((0.5, 0.5, 0.5)), 0, seed=1)
    with pytest.raises(ValueError, match="entries for n"):
        simulate_age_trajectory(GAME, StrategyProfile((0.5, 0.5)), 10, seed=1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        simulate_age_trajectory(GAME, StrategyProfile((0.5, 0.5, 0.5)), 10, seed=-1)


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
    game = GameInstance(n, LENGTHS, ages)
    scaled = GameInstance(
        n,
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
