"""Exact text output: the one real-number format, the one CSV writer, and
`open_output`, which opens every output file so that a raise leaves it as it was.

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
possible there).  Elsewhere the nearest integer is certain, even at the ends
of ``[1e16, 1e17)``, where a ``k`` one off prints the same digits.  Values
whose product falls outside that range (the ``log10`` estimate is one off
next to a power of ten) go through `_fmt` too, as do non-finite values and
values outside ``1e-99 <= |x| < 1e99``.  The bytes are those of ``_fmt``
either way.

The text is built in 64-bit words, not byte by byte.  A table of four-digit
groups packs the 17 digits into three little-endian words, and the row of
`_layouts` for the value's exponent and count of significant digits masks
them into place around the point and adds the point and the exponent.  A
word of separator and sign leads each value's 32-byte row, and one pass
drops the NUL bytes.
"""

from __future__ import annotations

import contextlib
import os
import stat
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

_REAL = "%.17g"

#: Rows converted per block.  Each call pays about 0.2 ms of numpy call
#: overhead beside its per-value work.  The kernel's heap is about 120 bytes
#: per value, so 1024 rows of 7 columns take under 1 MB; twice that ran slower.
CSV_BLOCK_ROWS = 1024


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


_TEN_HI, _TEN_LO = _ten_table()
#: The text is built in little-endian words: byte i of a word is bits 8i..8i+7.
_WORD = np.dtype("<u8")
#: The digits of 0..9999 as four characters in the low four bytes of a word,
#: and their trailing zeros (4 for 0).
_QUADS = (np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T)
          + np.uint8(48)).view("<u4").ravel().astype(np.uint64)
_QUAD_ZEROS = np.sum([np.arange(10000) % 10**j == 0 for j in range(1, 5)], axis=0, dtype=np.int8)
#: What precedes the digits, right-justified in a word: separator, sign, and
#: "0." plus zeros for -4 <= k < 0.  Row 2 * (k + K_MAX) + (negative), in the
#: second half at a row start.
_LEADS = np.frombuffer(b"".join(
    (sep + b"-" * neg + (b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"")).rjust(8, b"\0")
    for sep in (b",", b"\n") for k in range(-_K_MAX, _K_MAX + 1) for neg in (0, 1)), dtype=_WORD)


def _layouts() -> tuple[np.ndarray, ...]:
    """Tables of the three words after the lead: 18 bytes of text, two NULs, the exponent.

    A value of decimal exponent ``k`` whose 17 digits end in ``z`` zeros (17
    for zero) takes row ``rows[k + K_MAX] - z`` of three tables: a mask that
    keeps the digits up to the point (and the exponent) in place, a mask that
    takes those after it moved up one byte, and the point.
    ``exponents[k + K_MAX]`` is the exponent in bytes 4..7, none in fixed notation.
    """
    keep, move, marks = bytearray(), bytearray(), bytearray()
    for k in range(-5, 18):  # -5 and 17 stand for scientific notation
        fixed = -4 <= k < 17
        for sig in range(18):
            shown = max(sig, 1, k + 1) if fixed else max(sig, 1)  # digits printed
            point = k if fixed else 0  # the point follows this digit, if a digit follows it
            point = point if 0 <= point < shown - 1 else 17
            keep += (b"\xff" * min(point + 1, shown)).ljust(20, b"\0") + b"\xff" * 4
            move += (b"\0" * (point + 2) + b"\xff" * (shown - point - 1)).ljust(24, b"\0")
            marks += (b"\0" * (point + 1) + b"." * (point < 17)).ljust(24, b"\0")
    keep, move, marks = (np.frombuffer(t, dtype=_WORD).reshape(-1, 3).T.copy()
                         for t in (keep, move, marks))
    rows = np.array([18 * (min(max(k, -5), 17) + 5) + 17 for k in range(-_K_MAX, _K_MAX + 1)],
                    dtype=np.int64)
    exponents = np.frombuffer(b"".join((b"" if -4 <= k < 17 else b"e%+03d" % k).rjust(8, b"\0")
                                       for k in range(-_K_MAX, _K_MAX + 1)), dtype=_WORD)
    return keep, move, marks, rows, exponents


_KEEP, _MOVE, _MARKS, _ROWS, _EXPONENTS = _layouts()
#: Shifts by 1, 3, 5 and 7 bytes, and the character "0", all uint64: numpy 1.24
#: turns uint64 mixed with int64 into float64.
_SHIFT = {b: np.uint64(8 * b) for b in (1, 3, 5, 7)}
_ZERO_CHAR = np.uint64(48)


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
    del prod, err, t_lo
    carry = np.floor(frac)
    return whole.astype(np.int64) + carry.astype(np.int64), frac - carry


def _divmod(a: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod for a >= 0, at half its cost."""
    q = a // e
    return q, a - q * e


def _format_rows(block: np.ndarray) -> bytes:
    """A 2-D float64 block as CSV text, each value preceded by its separator.

    The text starts with a newline and does not end with one.
    """
    # each temporary is deleted before the next stage's peak, for less heap per value
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
                        | (np.abs(k) > _K_MAX))
    unprinted = zero | fallback
    d[unprinted] = 0
    k[unprinted] = 0
    del v, n, f, carry, direct, zero, unprinted

    # D = top * 10**16 + four groups of four digits
    top, rest = _divmod(d, 10**16)
    hi, lo = _divmod(rest, 10**8)
    q1, q2 = _divmod(hi, 10**4)
    q3, q4 = _divmod(lo, 10**4)
    k += _K_MAX  # from here on, the row of the exponent
    layout = _ROWS[k] - _QUAD_ZEROS[q4]  # the row in _layouts
    deep = np.flatnonzero(q4 == 0)  # zeros, integers and round numbers
    t, h, l, e = top[deep], q1[deep], q2[deep], q3[deep]
    layout[deep] -= _QUAD_ZEROS[e] + (e == 0) * (_QUAD_ZEROS[l] + (l == 0) * (
        _QUAD_ZEROS[h] + (h == 0) * (t == 0)))
    del rest, hi, lo, deep, t, h, l, e
    # the 17 digits as bytes 0..16 of three little-endian words
    g = _QUADS[q2]
    s0 = top.view(np.uint64) + _ZERO_CHAR | _QUADS[q1] << _SHIFT[1] | g << _SHIFT[5]
    s1 = g >> _SHIFT[3] | _QUADS[q3] << _SHIFT[1]
    g = _QUADS[q4]
    s1 |= g << _SHIFT[5]
    s2 = g >> _SHIFT[3] | _EXPONENTS[k]
    del d, top, q1, q2, q3, q4, g

    # one row of four words per value: the lead, then the three words that the
    # tables of _layouts make from the digits
    cols = block.shape[1]
    lead = 2 * k + np.signbit(x)
    lead[::cols] += _LEADS.size // 2  # a row starts with a newline
    out = np.empty((m, 4), dtype=_WORD)
    out[:, 0] = _LEADS[lead]
    del lead, k
    words = (s0, s1, s2)
    for w, s in enumerate(words):
        moved = s << _SHIFT[1]
        if w:
            moved |= words[w - 1] >> _SHIFT[7]
        moved &= _MOVE[w][layout]
        moved |= _MARKS[w][layout]
        np.bitwise_or(s & _KEEP[w][layout], moved, out=out[:, w + 1])
    del s0, s1, s2, words, s, moved, layout
    out = out.view(np.uint8)
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


@contextlib.contextmanager
def open_output(path: str) -> Iterator[IO[bytes]]:
    """Open `path` for binary writing, so that anything raised leaves it as it was.

    A new path or a regular file is written to a new file beside it, which
    replaces it on success and is removed on anything raised.  An existing
    file must itself be writable, as for ``open``; it keeps its mode.  A new
    file gets the mode that ``open`` gives it.  A symlink, /dev/stdout, a
    FIFO or a device is written in place.
    """
    try:
        target = os.lstat(path)
    except FileNotFoundError:
        target = None
    if target is not None and not stat.S_ISREG(target.st_mode):
        with open(path, "wb") as fh:
            yield fh
        return
    if target is not None:
        os.close(os.open(path, os.O_WRONLY))  # refuse what open(path, "wb") would; no truncation
    head, name = os.path.split(path)
    temp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = path  # name the path that was asked for, not the file beside it
        raise
    try:
        with os.fdopen(fd, "wb") as fh:
            if target is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(target.st_mode))
            yield fh
        try:
            os.replace(temp, path)
        except OSError as exc:  # as above, without the file beside it
            raise OSError(exc.errno, exc.strerror, path) from exc
    except BaseException:
        os.remove(temp)
        raise


def write_csv(path: str, header: Sequence[str], blocks: Iterable[Sequence[np.ndarray]]) -> None:
    """Write `header`, then the rows of each block of equal-length 1-D columns.

    Every value is written as ``_fmt(float(value))``; integer columns go
    through float64, as ``"%.17g"`` does.  How the rows are split into
    blocks does not change the bytes.  Raises ValueError when a block's
    columns differ in length or in number from the header; for the first
    block, before the file is opened.  The file is opened with
    `open_output`, so whatever raises once it is open, a block or its
    producer, leaves `path` as it was, unless `path` is a symlink or a device.
    """
    text = _csv_text(header, blocks)
    first = next(text, b"")
    with open_output(path) as fh:
        fh.write(",".join(header).encode() + first)
        fh.writelines(text)
        fh.write(b"\n")
