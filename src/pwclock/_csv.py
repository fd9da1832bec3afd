"""CSV and JSON writers behind the CLI.

A float cell is exactly repr(float): the shortest decimal that reads back to
the same double, the nearest such when several are shortest, in repr's
layout. _shortest finds those digits for a whole block in numpy; a cell
whose digits it cannot settle exactly is formatted by repr itself.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Most cells _write_csv formats at once, so the block's byte buffers and the
# digit kernel's temporaries (under 120 bytes a cell at their peak) grow
# neither with the number of rows nor with the number of columns.
_CSV_BLOCK_CELLS = 2**13

# Exponents the digit kernel covers: the decimal exponent E of |v| lies in
# [_E_MIN, _E_MAX). Wider than the CSVs of this package need; values outside
# go to repr.
_E_MIN, _E_MAX = -100, 16

_SPLITTER = 2.0**27 + 1.0  # Dekker's split: a double is the sum of two 26-bit halves


def _split(x):
    c = _SPLITTER * x
    high = c - (c - x)
    return high, x - high


# 10**(16 - E) for E in [_E_MIN, _E_MAX] as hi + lo, exact to about 2**-106
# (Python ints are exact), and hi split; indexed by E - _E_MIN.
_P_EXACT = [10 ** (16 - e) for e in range(_E_MIN, _E_MAX + 1)]
_P_HI = np.array([float(p) for p in _P_EXACT])
_P_LO = np.array([float(p - int(float(p))) for p in _P_EXACT])
_P_HH, _P_HL = _split(_P_HI)
# Half the spacing of the doubles in [2**j, 2**(j + 1)) is 2**(j - 53):
# 2**j times this, scaled by 10**(16 - E).
_HALF_ULP = 2.0**-53 * _P_HI
_EXPONENT_BITS = np.int64(0x7FF << 52)
_POW10 = np.array([10**k for k in range(18)], dtype=np.int64)

# Bound on the error of every rounding and interval decision in _shortest, in
# units of the 17th digit. The scaled value w = |v| * 10**(16 - E) < 1e17 is
# off by at most 1e17 * 2**-105 (table) + 1.2e-15 (the a * lo product) +
# 1.8e-15 (adding it), the half-gap by 2**-53 of at most 11.1, and each float
# step after that by half an ulp of a number below 32: under 2e-14 in all. A
# decision within _TOL of its boundary goes to repr.
_TOL = 2.0**-44


def _product_error(a, p, k):
    """a * 10**(16 - E) - p for p = a * hi, k = E - _E_MIN: Dekker's TwoProduct, plus a * lo."""
    ah, al = _split(a)
    bh, bl = np.take(_P_HH, k), np.take(_P_HL, k)
    rest = ah * bh - p  # Dekker: rest becomes a * hi - p exactly
    rest += ah * bl
    rest += al * bh
    rest += al * bl
    rest += a * np.take(_P_LO, k)
    return rest


def _scaled(a, k):
    """The integer M and fraction f of a * 10**(16 - E), k = E - _E_MIN."""
    p = a * np.take(_P_HI, k)
    rest = _product_error(a, p, k)  # its temporaries are freed on return
    whole = np.floor(p)
    p -= whole
    rest += p
    carry = np.floor(rest)
    rest -= carry
    whole = whole.astype(np.int64)
    whole += carry.astype(np.int64)
    return whole, rest


def _gap(m, f, h, q):
    """(distance from w = m + f to its nearest multiple of q, less h; m mod q) for a scalar q."""
    r = m - (m // q) * q  # numpy divides by a scalar faster than it takes a remainder
    return np.minimum(r + f, (q - r) - f) - h, r


def _shortest(a, ok):
    """repr's digits of positive doubles ``a``: (digits, their count n, E - _E_MIN).

    The digits come as one integer, padded with zeros to 17 digits. Every
    ``a`` is a normal double with E in [_E_MIN, _E_MAX). Scaled to
    w = a * 10**(16 - E) = M + f, its rounding interval is w +- h, with h
    half the spacing of the doubles, unless a is a power of two: there the
    gap below is half the gap above, so ``ok`` is cleared. The shortest
    correctly rounded prefix of w that stays strictly inside the interval
    is repr's digits: a shorter decimal in the interval would round to such
    a prefix. Also clears ``ok`` where a decision lies within _TOL of its
    boundary.
    """
    k = np.floor(np.log10(a)).astype(np.int64) - _E_MIN
    m, f = _scaled(a, k)
    above = m >= _POW10[17]
    fix = np.flatnonzero(above | (m < _POW10[16]))  # log10 near a power of ten
    if fix.size:
        k[fix] += 2 * above[fix] - 1
        m[fix], f[fix] = _scaled(a[fix], k[fix])
        ok &= (m >= _POW10[16]) & (m < _POW10[17])
    h = (a.view(np.int64) & _EXPONENT_BITS).view(np.float64)  # 2**floor(log2(a))
    ok &= h != a  # not a power of two
    h *= np.take(_HALF_ULP, k)
    # Dropping d digits keeps the value within h while the distance from w to
    # the nearest multiple of 10**d stays below h. Since h < 11.1 < 50, beyond
    # d = 1 that multiple can only be the nearest multiple of 100, 100 * c:
    # such a "deep" cell's digits are 100 * c, one more digit drops for each
    # trailing zero of c, and w lies more than 38 from any rounding midpoint.
    gap, _ = _gap(m, f, h, 100)
    ok &= np.abs(gap) > _TOL
    deep = gap < 0
    gap, r = _gap(m, f, h, 10)
    ok &= np.abs(gap) > _TOL
    one = gap < 0  # the last digit drops
    del gap, h  # freed for the rounding's temporaries, where a block's memory peaks
    r *= one
    q = np.where(one, 10, 1)
    up = (2 * r - q) + 2 * f  # > 0: round the kept digits up
    ok &= (np.abs(up) > _TOL) | deep
    digits = m - r + (up > 0) * q
    n = 17 - one
    deep = np.flatnonzero(deep)
    c = (m[deep] + 50) // 100  # >= 10**14
    digits[deep] = 100 * c
    zeros = np.zeros_like(c)
    for j in (8, 4, 2, 1):
        high = c // _POW10[j]
        whole = high * _POW10[j] == c
        c = np.where(whole, high, c)
        zeros += j * whole
    n[deep] = np.maximum(15 - zeros, 1)
    carry = digits == _POW10[17]  # 9.99... rounded up to 10**(E + 1)
    digits[carry] = _POW10[16]
    n[carry] = 1
    return digits, n, k + carry


# A float cell is _CELL bytes, six 64-bit words: the sign; "0." and up to 3
# zeros before the digits when E < 0; 17 digits at the even bytes 6..38,
# each followed by a decimal-point slot; "e", sign and 3 exponent digits;
# the separator; padding. Digit k sits at byte 6 + 2k, so digit 0 is the
# last digit slot of word 0 and words 1..4 hold four digits each. Unused
# slots hold _PAD, which _write_csv deletes: no cell's text holds the byte 0xFF.
_CELL = 48
_SEP = 44  # the separator's byte in a float cell
_EXP = 39  # the first byte of the "e+XX" slots
_PAD = b"\xff"


def _quads() -> np.ndarray:
    """0000..9999 as one uint64 each: the 4 digit values at bytes 0, 2, 4 and 6, zeros between.

    ORed into a word of digit slots that hold "0" (0x30), they make the
    ASCII digits; ORed into a slot of any other byte they add nothing where
    a leading digit is 0, and they leave _PAD as _PAD.
    """
    digits = np.arange(10, dtype=np.uint8)
    quads = np.zeros((10, 10, 10, 10, 8), np.uint8)
    quads[..., 0] = digits[:, None, None, None]
    quads[..., 2] = digits[:, None, None]
    quads[..., 4] = digits[:, None]
    quads[..., 6] = digits
    return quads.view(np.uint64).ravel()


def _cell_layouts() -> np.ndarray:
    """Bytes of a float cell for each exponent E and digit count n, "0" where a digit goes.

    Row 17 * (E - _E_MIN) + n holds E in [_E_MIN, _E_MAX] with n = 1..17;
    row 0 is unused. The layouts are repr's: positional for E = -4..15,
    with ".0" on integers, and d.ddde+XX otherwise.
    """
    keep_slots = [(b"0\xff" * keep + b"\xff\xff" * (17 - keep))[:33] for keep in range(18)]
    cells = []
    for e in range(-4, 17):  # E = 16 stands for every E outside -4..15
        positional = 0 <= e < 16
        prefix = (_PAD + b"0." + b"0" * (-1 - e) if e < 0 else b"").ljust(6, _PAD)
        for n in range(1, 18):
            slots = keep_slots[max(n, e + 2) if positional else n]  # padding zeros shown too
            point = e if positional else 0 if e == 16 and n > 1 else None
            if point is not None:
                slots = slots[:2 * point + 1] + b"." + slots[2 * point + 2:]
            cells.append(prefix + slots + _PAD * (_SEP - _EXP) + b"," + _PAD * (_CELL - _SEP - 1))
    layouts = np.frombuffer(b"".join(cells), np.uint8).reshape(21, 17, _CELL)
    table = np.repeat(layouts[20:], _E_MAX - _E_MIN + 1, axis=0)
    table[-4 - _E_MIN:16 - _E_MIN] = layouts[:20]
    for e in [*range(_E_MIN, -4), _E_MAX]:
        exponent = (b"e%+03d" % e).ljust(_SEP - _EXP, _PAD)
        table[e - _E_MIN, :, _EXP:_SEP] = np.frombuffer(exponent, np.uint8)
    return np.concatenate([table[:1, 0], table.reshape(-1, _CELL)])


_QUADS = _quads()
_LAYOUTS = _cell_layouts()


def _format_floats(values):
    """(n, _CELL) uint8: repr of each float64 in ``values``, padded with _PAD, then ","."""
    a = np.abs(values)
    ok = (a >= 10.0 ** (_E_MIN + 1)) & (a < 10.0**_E_MAX)  # so not 0, inf, nan or subnormal
    a = np.where(ok, a, 1.5)
    digits, n, row = _shortest(a, ok)
    row *= 17
    row += n  # 17 * (E - _E_MIN) + n, in place
    cells = np.take(_LAYOUTS, row, axis=0)
    words = cells.view(np.uint64)
    for j in range(4, 0, -1):
        high = digits // 10_000
        words[:, j] |= np.take(_QUADS, digits - high * 10_000)
        digits = high
    words[:, 0] |= np.take(_QUADS, digits)  # digit 0, at byte 6
    cells[:, 0] = np.where(values < 0, ord("-"), _PAD[0])
    rest = np.flatnonzero(~ok)
    texts = b"".join(repr(x).encode().ljust(_SEP, _PAD) for x in values[rest].tolist())
    cells[rest, :_SEP] = np.frombuffer(texts, np.uint8).reshape(rest.size, _SEP)
    return cells


@contextmanager
def _rewritten(path: Path):
    """``path`` open for binary writing from its start, truncated on leaving, also on failure.

    Not truncating on opening saves freeing and reallocating the blocks of
    a file rewritten at its old size, about 1 ms per MB where freed blocks
    are discarded; truncating on leaving drops what is left of the old file.
    """
    with open(path, "wb", opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)) as fh:
        try:
            yield fh
        finally:
            fh.truncate()


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length float columns as CSV rows, one block at a time.

    Each cell is exactly repr(float(value)). A column of any other dtype, str
    included, raises TypeError, and columns of unequal length raise
    ValueError, before the file opens. An existing file is rewritten in place
    and truncated where this write stops, also when it fails part way, so no
    byte of the earlier file remains.
    """
    columns = [np.asarray(column) for column in columns]
    if any(column.dtype.kind != "f" for column in columns):
        raise TypeError(f"CSV columns must be float, got dtypes {[str(c.dtype) for c in columns]}")
    rows = len(columns[0]) if columns else 0
    if any(len(column) != rows for column in columns):
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in columns]}")
    step = max(1, _CSV_BLOCK_CELLS // max(1, len(columns)))
    with _rewritten(path) as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, rows, step):
            values = np.stack([column[start:start + step] for column in columns], 1, dtype=float)
            cells = _format_floats(values.ravel()).reshape(*values.shape, _CELL)
            cells[:, -1, _SEP] = ord("\n")  # each cell carries its separator; the row's last ends it
            fh.write(cells.tobytes().translate(None, _PAD))


def _write_json(path: Path, doc: dict) -> None:
    """Write strict JSON: a NaN or infinity raises ValueError before the file opens.

    An existing file is rewritten in place, as by _write_csv.
    """
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with _rewritten(path) as fh:
        fh.write((text + "\n").encode("utf-8"))
