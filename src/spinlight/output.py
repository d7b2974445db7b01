"""Exact text output: the one real-number format and the one CSV writer.

Reals carry 17 significant digits, so every printed or written value parses
back to the same float.  Integers go through the same format and print as
plain digits below 1e17.

`write_csv` does not call `_fmt` once per value.  It converts whole blocks of
rows in numpy, in the manner of Ryu printf: each value ``x`` becomes the
17-digit integer ``D`` and the decimal exponent ``k`` of ``"%.17g" % x``, from
``|x| * 10**(16 - k)`` formed as a double-double (Dekker's error-free product)
with a hi + lo table of powers of ten; ``k`` comes from ``log10``.  The
product is good to about 1e-14, so a rounding it cannot certify goes through
`_fmt` instead: a fraction within 1e-9 of one half (an exact decimal tie is
possible there), or within 1e-9 of an integer at either end of
``[1e16, 1e17)``.  So do values whose product falls outside that range (the
``log10`` estimate is one off next to a power of ten), non-finite values and
values outside ``1e-99 <= |x| < 1e99``.  The bytes are those of ``_fmt``
either way.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

_REAL = "%.17g"

#: Rows converted per block.  At 512 rows the kernel's temporaries (a few
#: hundred bytes per value) stay below the Python floats and row strings of
#: the 4096-row blocks that formatting one value at a time held.
CSV_BLOCK_ROWS = 512


def _fmt(value: float) -> str:
    """The one real-number format: stdout values and the values `write_csv` cannot certify."""
    return _REAL % value


_K_MAX = 99  # |k| the kernel prints: two exponent digits
_E16, _E17 = np.int64(10**16), np.int64(10**17)
_SPLITTER = np.float64(2.0**27 + 1.0)


def _ten_table() -> tuple[np.ndarray, np.ndarray]:
    """hi + lo of 10**(16 - k) for k = K_MAX + 1 down to -K_MAX - 1.

    Both come from exact integer ratios; int / int is correctly rounded.
    """
    hi, lo = [], []
    for p in range(15 - _K_MAX, 18 + _K_MAX):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi.append(num / den)
        h_num, h_den = hi[-1].as_integer_ratio()
        lo.append((num * h_den - h_num * den) / (den * h_den))
    return np.array(hi, dtype=np.float64), np.array(lo, dtype=np.float64)


def _words(texts: list[bytes], size: int, dtype) -> np.ndarray:
    """Each text right-justified in `size` bytes, viewed as one machine word."""
    return np.frombuffer(b"".join(t.rjust(size, b"\0") for t in texts), dtype=dtype)


_TEN_HI, _TEN_LO = _ten_table()
#: The digits of 0..9999 as four characters, and their trailing zeros (4 for 0).
_QUADS = (np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T)
          + np.uint8(48)).view(np.uint32).ravel()
_QUAD_ZEROS = np.sum([np.arange(10000) % 10**j == 0 for j in range(1, 5)], axis=0, dtype=np.int8)
#: What precedes the digits: separator, sign, and "0." plus zeros for
#: -4 <= k < 0.  Row 10 * (row start) + 2 * (-k) + (negative).
_LEADS = _words([sep + b"-" * neg + (b"0." + b"0" * (z - 1) if z else b"")
                 for sep in (b",", b"\n") for z in range(5) for neg in (0, 1)], 8, np.uint64)
#: "e-99" .. "e+99" from row 1; row 0 is empty (fixed notation).
_EXPONENTS = _words([b""] + [b"e%+03d" % k for k in range(-_K_MAX, _K_MAX + 1)], 4, np.uint32)
_SLOTS = np.arange(18, dtype=np.int8)[:, None]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = a * _SPLITTER
    high = c - (c - a)
    return high, a - high


def _scaled(v: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v * 10**(16 - k) as an int64 part and a fraction in [0, 1)."""
    row = _K_MAX + 1 - k
    t_hi, t_lo = _TEN_HI[row], _TEN_LO[row]
    prod = v * t_hi
    v_hi, v_lo = _split(v)
    t_hh, t_hl = _split(t_hi)
    err = ((v_hi * t_hh - prod) + v_hi * t_hl + v_lo * t_hh) + v_lo * t_hl  # prod + err is exact
    whole = np.floor(prod)
    frac = (prod - whole) + (err + v * t_lo)
    carry = np.floor(frac)
    return whole.astype(np.int64) + carry.astype(np.int64), frac - carry


def _format_rows(block: np.ndarray) -> bytes:
    """A 2-D float64 block as CSV text, each value preceded by its separator.

    The text starts with a newline and does not end with one.
    """
    x = block.ravel()
    m = x.size
    v = np.abs(x)
    zero = v == 0
    direct = (v >= 1e-99) & (v < 1e99)  # false for nan
    v = np.where(direct, v, np.float64(1.5))  # a stand-in: no warnings from log10 or casts
    k = np.floor(np.log10(v)).astype(np.int64)
    n, f = _scaled(v, k)
    d = n + (f > 0.5)  # to nearest: ties go through _fmt below
    carry = d == _E17
    d[carry] = _E16
    k += carry
    fallback = ~zero & (~direct | (n < _E16) | (n >= _E17) | (np.abs(f - 0.5) < 1e-9)
                        | ((np.minimum(f, 1 - f) < 1e-9) & ((n == _E16) | (n == _E17 - 1)))
                        | (np.abs(k) > _K_MAX))
    unprinted = zero | fallback
    d[unprinted] = 0
    k[unprinted] = 0

    # D = top * 10**16 + four groups of four digits
    top, rest = np.divmod(d, _E16)
    hi, lo = np.divmod(rest, np.int64(10**8))
    q1, q2 = np.divmod(hi, np.int64(10000))
    q3, q4 = np.divmod(lo, np.int64(10000))
    chars = np.empty((m, 5), dtype=np.uint32)
    for col, group in enumerate((q1, q2, q3, q4), start=1):
        chars[:, col] = _QUADS[group]
    chars = chars.view(np.uint8)  # bytes 3..19 are the 17 digits
    chars[:, 3] = top + 48
    zeros = _QUAD_ZEROS[q4] + (q4 == 0) * (_QUAD_ZEROS[q3] + (q3 == 0) * (
        _QUAD_ZEROS[q2] + (q2 == 0) * (_QUAD_ZEROS[q1] + (q1 == 0) * (top == 0))))
    sig = np.maximum(17 - zeros.astype(np.int64), 1)
    fixed = (k >= -4) & (k < 17)
    shown = np.where(fixed, np.maximum(sig, k + 1), sig)  # digits printed
    point = np.where(fixed, k, 0)  # the point follows this digit, if any digit follows it
    point[(point < 0) | (shown <= point + 1)] = 17

    # slot-major: row i + 1 holds digit i, rows 0 and 18 are NUL
    digits = np.zeros((19, m), dtype=np.uint8)
    digits[1:18] = chars[:, 3:].T
    digits[1:18] *= (_SLOTS[:17] < shown.astype(np.int8)).view(np.uint8)
    p = point.astype(np.int8)
    before = (_SLOTS <= p).view(np.uint8)
    at = (_SLOTS == p + 1).view(np.uint8)
    body = digits[1:] * before + digits[:-1] * (1 - before - at) + at * np.uint8(46)

    # one row of 32 slots per value: lead word, body, two NULs, exponent word
    cols = block.shape[1]
    row_start = np.zeros(m, dtype=np.int64)
    row_start[::cols] = 10
    out = np.empty((m, 32), dtype=np.uint8)
    out.view(np.uint64)[:, 0] = _LEADS[row_start + 2 * np.where(fixed & (k < 0), -k, 0)
                                       + np.signbit(x)]
    out[:, 8:26] = body.T
    out[:, 26:28] = 0
    out.view(np.uint32)[:, 7] = _EXPONENTS[np.where(fixed, 0, k + _K_MAX + 1)]
    for i in np.flatnonzero(fallback):
        text = ("\n" if i % cols == 0 else ",") + _fmt(float(x[i]))
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    flat = out.ravel()
    return flat[flat != 0].tobytes()


def _csv_text(header: Sequence[str], blocks: Iterable[Sequence[np.ndarray]]) -> Iterator[bytes]:
    """CSV text of each block's rows, CSV_BLOCK_ROWS at a time; each block is checked first."""
    for columns in blocks:
        columns = [np.asarray(col) for col in columns]
        if len(columns) != len(header):
            raise ValueError(f"{len(columns)} columns under a header of {len(header)} names")
        shapes = {col.shape for col in columns}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise ValueError(f"columns must be 1-D and of one length, got shapes {sorted(shapes)}")
        n_rows = len(columns[0]) if columns else 0
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n_rows)
            block = np.empty((stop - start, len(columns)), dtype=np.float64)
            for j, col in enumerate(columns):
                block[:, j] = col[start:stop]
            yield _format_rows(block)


def write_csv(path: str, header: Sequence[str], blocks: Iterable[Sequence[np.ndarray]]) -> None:
    """Write `header`, then the rows of each block of equal-length 1-D columns.

    Every value is written as ``_fmt(float(value))``; integer columns go
    through float64, as ``"%.17g"`` does.  How the rows are split into
    blocks does not change the bytes.  Raises ValueError when a block's
    columns differ in length or in number from the header; for the first
    block, before the file is opened.
    """
    text = _csv_text(header, blocks)
    first = next(text, b"")
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + first)
        fh.writelines(text)
        fh.write(b"\n")
