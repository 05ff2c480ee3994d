"""Format a float table as CSV rows in numpy, byte for byte as `%.12g` does.

`format_cells` replaces ``(row * rows) % tuple(table.ravel().tolist())``,
which runs Python's correctly rounded float-to-decimal conversion once per
cell. Only `simulate --out` imports this module (and with it numpy). It
formats `_SLICE_CELLS` = 2**12 cells at a time (but at least one row), so
its temporaries take about 0.37 MB (the largest 128 KiB) for any table.

For 1e-4 <= x < 1e11, `%.12g` prints x in fixed point without trailing
zeros, from its 12 significant digits m = round(v), where v = x * 10**k and
k = 11 - floor(log10 x) put v in [1e11, 1e12). Below 1e11, m = 1e12 still
means a fixed-point result (from 1e11 up, `%.12g` may switch to an exponent).

- 10**k (0 <= k <= 16) is an exact double and v < 2**40, so the computed v
  is within 2**-14 of the exact product. Unless it lies within 2**-12 of a
  rounding tie, `rint` gives the correctly rounded m.
- The integer part m // 10**k and the fraction's digits scaled to 16 places
  are exact in float64 and int64. They are written from 4-digit tables.

Every other cell goes through `%` on its own: zero, negative and non-finite
values, values outside that range, near-ties, and the few values within
some ulps of a power of ten for which log10 puts v outside [1e11, 1e12).
"""

from __future__ import annotations

import numpy as np

from .cli import _CELL

_SLICE_CELLS = 1 << 12
_POW10 = 10.0 ** np.arange(17)  # exact doubles
_LEFT = _POW10[::-1].copy()  # _LEFT[k] = 10**(16 - k): a k-digit fraction to 16 places
_TIE_GUARD = 0.5 - 2.0**-12


def _digit_tables() -> np.ndarray:
    """Three 10000-entry tables of 4-digit groups as native uint32 words.

    Entry j is j's four ASCII digits, NUL where a byte is left out:
    plain (``0042``), no leading zeros (``\\0\\042``, 0 is ``\\0\\0\\00``) and
    no trailing zeros (``42\\0\\0``, 0 is all NUL).
    """
    # Built in uint8 and bool: int64 temporaries would take up to 960 KB, and
    # freeing them raises glibc's mmap threshold for the rest of the run.
    j = np.arange(10000, dtype=np.uint16)
    digits = np.stack([j // 1000, j // 100 % 10, j // 10 % 10, j % 10], axis=1).astype(np.uint8)
    nonzero = digits != 0
    leading = ~np.logical_or.accumulate(nonzero, axis=1)
    leading[:, 3] = False
    trailing = ~np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    ascii_ = digits + np.uint8(ord("0"))
    blank = np.uint8(0)
    tables = [ascii_, np.where(leading, blank, ascii_), np.where(trailing, blank, ascii_)]
    return np.concatenate(tables).view(np.uint32).ravel()


_GROUPS = _digit_tables()
_NO_LEAD = 10000  # offsets of the second and third table in _GROUPS
_NO_TRAIL = 20000


def _word(*chars: int) -> int:
    return int(np.array(chars, np.uint8).view(np.uint32)[0])


_DOT = _word(ord("."), 0, 0, 0)
_COMMA = _word(0, 0, 0, ord(","))
_NEWLINE = _word(0, 0, 0, ord("\n"))


def format_cells(table: np.ndarray):
    """Yield ``(row * rows) % tuple(table.ravel().tolist())`` for a 2-D float64
    table, one slice at a time. ``row`` is the `_CELL` row template for the
    table's column count (at least one column).
    """
    step = max(1, _SLICE_CELLS // table.shape[1])
    for lo in range(0, len(table), step):
        yield _format_slice(table[lo : lo + step])


def _format_slice(table: np.ndarray) -> str:
    rows, cols = table.shape
    x = table.ravel()
    fast = x >= 1e-4
    fast &= x < 1e11
    scaled = np.where(fast, x, 1.0)  # placeholder 1.0 keeps every step finite
    k = np.log10(scaled)
    np.floor(k, out=k)
    k = (11.0 - k).astype(np.intp)
    power = _POW10[k]
    scaled *= power
    # Within a few ulps of a power of ten, log10 can put k one off.
    fast &= scaled >= 1e11
    fast &= scaled < 1e12
    digits = np.rint(scaled)  # 1e12 when v rounds up to it: the split still holds
    scaled -= digits
    np.abs(scaled, out=scaled)
    fast &= scaled < _TIE_GUARD
    # Each stage drops its arrays before the next allocates, which keeps the
    # peak near 90 bytes a cell.
    del scaled

    whole = digits / power
    np.floor(whole, out=whole)
    power *= whole
    digits -= power  # the fraction's k digits
    digits *= _LEFT[k]
    del power, k
    integer = whole.astype(np.int64)
    fraction = digits.astype(np.int64)
    del whole, digits

    # Eight words a cell: the integer part right-aligned in three groups, the
    # point, the fraction left-aligned in four groups, then the separator. A
    # fraction has at most 15 digits, so the last group's last byte is free.
    out = np.empty((rows * cols, 8), np.uint32)
    # Groups before the first digit read the blank no-trailing-zeros entry,
    # and the group holding it drops its leading zeros.
    below_1e4 = (integer < 10**4) * _NO_LEAD
    below_1e8 = (integer < 10**8) * _NO_LEAD
    top = integer // 10**8
    integer -= top * 10**8
    top += below_1e8
    top += _NO_LEAD
    out[:, 0] = _GROUPS[top]
    middle = integer // 10**4
    integer -= middle * 10**4
    middle += below_1e8
    middle += below_1e4
    out[:, 1] = _GROUPS[middle]
    integer += below_1e4
    out[:, 2] = _GROUPS[integer]
    del integer, top, middle, below_1e4, below_1e8

    out[:, 3] = (fraction > 0) * _DOT
    f0 = fraction // 10**12
    fraction -= f0 * 10**12
    f1 = fraction // 10**8
    fraction -= f1 * 10**8
    f2 = fraction // 10**4
    fraction -= f2 * 10**4
    # A group drops its trailing zeros when every later group is zero.
    f2 += (fraction == 0) * _NO_TRAIL
    out[:, 6] = _GROUPS[f2]
    f1 += (f2 == _NO_TRAIL) * _NO_TRAIL
    out[:, 5] = _GROUPS[f1]
    f0 += (f1 == _NO_TRAIL) * _NO_TRAIL
    out[:, 4] = _GROUPS[f0]
    fraction += _NO_TRAIL
    separators = np.full(cols, _COMMA, np.uint32)
    separators[-1] = _NEWLINE
    np.bitwise_or(
        _GROUPS[fraction].reshape(rows, cols), separators, out=out.reshape(rows, cols, 8)[:, :, 7]
    )
    del fraction, f0, f1, f2

    slow = np.flatnonzero(~fast)
    if slow.size:
        # At most 19 characters (as in "-1.23456789012e-308"), NUL-padded to 7 words.
        text = b"".join((_CELL % value).encode().ljust(28, b"\0") for value in x[slow].tolist())
        out[slow, :7] = np.frombuffer(text, np.uint32).reshape(-1, 7)
        out[slow, 7] = separators[slow % cols]
    data = out.tobytes()
    del out
    return data.translate(None, b"\0").decode("ascii")
