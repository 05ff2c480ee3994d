"""The numpy trajectory-CSV formatter against the `%` reference, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aoi_csma_game import cli, csv_cells
from aoi_csma_game.csv_cells import format_cells


def percent_rows(table):
    row = ",".join([cli._CELL] * table.shape[1]) + "\n"
    return (row * table.shape[0]) % tuple(table.ravel().tolist())


def assert_same(table):
    table = np.asarray(table, dtype=float)
    got, want = b"".join(format_cells(table)), percent_rows(table).encode("ascii")
    if got != want:  # name the rows that differ: pytest's diff of long texts is slow
        rows = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(rows)} rows differ, the first: {rows[:3]}")


# Any double (NaN, infinities, subnormals, negatives, -0.0), and doubles from
# the fixed-point range that the numpy path formats.
CELLS = st.one_of(st.floats(), st.floats(1e-4, 1e11, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.integers(1, 40), st.integers(1, 5)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=CELLS)
    )
)
def test_matches_percent_on_any_doubles(table):
    assert_same(table)


def test_matches_percent_at_rounding_ties_and_their_neighbours():
    # (m + 0.5) / 10**k sits on a tie of the 12th digit, at every scale of the
    # fixed-point range; the rows hold the tie and the doubles either side.
    rng = np.random.default_rng(20261018)
    m = rng.integers(10**11, 10**12, 3000).astype(float)
    k = rng.integers(0, 16, 3000)
    ties = (m + 0.5) / 10.0**k
    assert_same(np.column_stack((ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf))))
    # j / 2**13 are exact binary ties where they have 13 significant digits.
    assert_same((np.arange(1, 2**13, 2) / 2**13).reshape(-1, 4))


def test_matches_percent_at_the_fixed_point_boundaries():
    edges = [
        1e-4,
        np.nextafter(1e-4, 0),
        np.nextafter(1e-4, 1),
        1e11,
        np.nextafter(1e11, 0),
        99999999999.95,
        np.nextafter(99999999999.95, 0),
        9.9999999999995,
        np.nextafter(9.9999999999995, 0),
        1.0,
        0.0,
        -0.0,
        -1.5,
        np.nan,
        np.inf,
        -np.inf,
        5e-324,
    ]
    assert_same([edges])
    assert_same(np.array(edges)[:, np.newaxis])
    # Doubles within 16 ulps of each power of ten, where log10 can put the
    # scale one off, and values whose 12 digits round up to a power of ten.
    powers = 10.0 ** np.arange(-5, 13)
    assert_same(powers[:, np.newaxis] * (1 + np.arange(-16, 17) * 2.0**-52))
    assert_same([(1e12 - 0.25) / 10.0 ** np.arange(1, 16)])


def test_matches_percent_on_trajectory_like_values():
    rng = np.random.default_rng(7)
    times = np.cumsum(rng.choice([0.01, 1.01, 2.02], size=5000))
    ages = rng.uniform(1.01, 400.0, size=(5000, 3))
    assert_same(np.column_stack((times, ages)))


def test_digit_tables_hold_each_group_as_python_writes_it():
    plain = [f"{j:04d}" for j in range(10000)]
    no_lead = [f"{j:4d}".replace(" ", "\0") for j in range(10000)]
    no_trail = [group.rstrip("0").ljust(4, "\0") for group in plain]
    assert csv_cells._GROUPS.dtype == np.uint32
    assert (csv_cells._NO_LEAD, csv_cells._NO_TRAIL) == (10000, 20000)
    assert csv_cells._GROUPS.tobytes() == "".join(plain + no_lead + no_trail).encode()
