"""The '%.17g' encoder behind solver.write_csv.

G17Encoder formats an array of doubles into exactly the bytes that
b"%.17g" % v gives for each value v, each followed by ',' or, at the end of
a CSV row, a newline, with numpy array operations instead of one Python
call per value. solver.write_csv imports this module on its first write, so
commands that write no CSV never load it.
"""

from __future__ import annotations

import numpy as np

# A finite double v = ±m·2^(e-1075), with m its 53-bit significand and e
# its biased exponent, has the 17-digit decimal significand
# q = round-half-even(m·5^k / 2^s), k = 16 - floor(log10|v|), s = 1075 - e - k.
# For k in [0, 27] (decimal exponents -11..16) 5^k fits in 64 bits, and for
# s in [1, 63] q and the remainder follow from the exact 128-bit product
# m·5^k built from 32-bit halves. That is the fast domain, roughly
# 1e-11 <= |v| < 2e15; every other value (zero, subnormals, inf, nan, and
# any value whose floor is not a 17-digit number) is formatted by
# b"%.17g" % v itself.
#
# k and s depend only on e and on whether |v| reaches 10^(X0+1), where X0
# is the estimate floor((e - 1023)·log10 2) of X = floor(log10|v|), so 5^k,
# s and X are tabulated by 2(e - _E_LO) + (|v| >= 10^(X0+1)), clipped to
# the tables. Outside the fast domain, and so at both ends of the tables,
# they hold k = 0 and s = 1, where t = m >> 1 < 2^53 has fewer than 17
# digits, so the one digit-count check sends every such value to the
# fallback.
_X_MIN, _X_MAX = -11, 16


def _exponent_tables():
    e = np.arange(2048)
    x0 = ((e - 1023) * 78913) >> 18  # X or X - 1
    x = x0[:, None] + np.arange(2)
    k = 16 - x
    s = 1075 - e[:, None] - k
    fast = (k >= 0) & (k <= 27) & (s >= 1) & (s <= 63)
    rows = np.flatnonzero(fast.any(axis=1))
    e_lo, e_hi = rows[0] - 1, rows[-1] + 2  # one slow exponent at each end
    pow10 = (10.0 ** np.clip(x0 + 1, _X_MIN + 1, _X_MAX + 1)).view(np.uint64)  # as |v| bits
    fast, k, s, x = (a[e_lo:e_hi].reshape(-1) for a in (fast, k, s, x))
    pow5 = np.uint64(5) ** np.where(fast, k, 0).astype(np.uint64)
    return (
        int(e_lo),
        pow10[e_lo:e_hi],
        pow5 & np.uint64(0xFFFFFFFF),
        pow5 >> np.uint64(32),
        np.where(fast, s, 1).astype(np.uint64),
        np.where(fast, x - _X_MIN, 0),  # the layout index X - _X_MIN
    )


_E_LO, _POW10, _POW5_LO, _POW5_HI, _SHIFT, _XI = _exponent_tables()
_ASCII = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = (  # the four ASCII digits of 0..9999, each as one word
    np.stack(np.meshgrid(_ASCII, _ASCII, _ASCII, _ASCII, indexing="ij"), axis=-1)
    .reshape(10000, 4)
    .view(np.uint32)[:, 0]
)
_ZEROS2 = 2 * np.logical_and.accumulate(  # twice the trailing zeros of the same four digits
    _DIGITS4.view(np.uint8).reshape(10000, 4)[:, ::-1] == ord("0"), axis=1
).sum(axis=1)

# Each value is laid out in a row of _ROW bytes, then a boolean mask keeps
# the bytes '%g' prints, in row order:
#   cols 0..6   '-' and, in fixed form with X < 0, "0." and -X-1 zeros,
#               right-aligned against the digit field
#   cols 6..23  digit field: digits 0..a, '.', digits a+1..16
#   cols 24..27 "e-XX" in exponent form (X < -4)
#   col 24, 28  ',' or '\n' in fixed and in exponent form
# where X is the decimal exponent after rounding, and a = X for fixed form
# with X >= 0, a = 0 in exponent form, and a = -1 (the digits start one
# byte in, after the prefix) for X < 0. Digits past the last nonzero one,
# and a bare '.', are dropped. So a value that prints 17 digits keeps one
# run of bytes, which the mask copies fastest. The field is two copies of
# the digits, one shifted by a byte, merged by per-X word masks. The layout
# tables are indexed by X - _X_MIN, and the keep mask by
# ((X - _X_MIN)·17 + trailing zeros)·2 + sign.
_ROW = 32
_FIELD, _EXP = 6, 24
_FALLBACK = 4  # 24 columns hold the longest '%.17g' text, -2.2250738585072014e-308
_SLOW_XI = 0  # a fallback value's layout: exponent form, ended at col 28
#: Values per G17Encoder call in solver.write_csv: 4096 hold its scratch at
#: 0.45 MiB, and a call then costs about as much a value as at twice that.
BATCH = 4096


def _layout_tables():
    """(keep, m_lo, m_hi, const, term): keep[...] is the byte mask of a
    value by exponent, trailing zeros and sign; m_lo[X - _X_MIN] and
    m_hi[...] select the field bytes taken from the unshifted and the
    shifted digits; const[...] holds the other bytes, with ',' at the
    terminator column term[...]."""
    x = np.arange(_X_MIN, _X_MAX + 1)[:, None]
    col = np.arange(_ROW)[None, :]
    fixed = x >= -4
    a = np.where(x >= 0, x, np.where(fixed, -1, 0))  # the last digit before the point
    prefix = np.where(fixed & (x < 0), 1 - x, 0)  # "0.000"[: 1 - X], ending at col 6
    j = col - _FIELD  # slot in the digit field
    field = (j >= 0) & (j < 18)
    m_lo = field & (j <= a)
    m_hi = field & (j >= a + 2)
    point = field & (j == a + 1) & (a >= 0)
    sign = col == _FIELD - np.maximum(prefix, 1)
    pre = (col > _FIELD - prefix) & (col <= _FIELD)
    exp = ~fixed & (col >= _EXP) & (col < _EXP + 4)
    term = np.where(fixed, _EXP, _EXP + 4)
    nz = 17 - np.arange(17)[None, :, None, None]  # significant digits
    neg = np.arange(2)[None, None, :, None] == 1
    a4, j4 = a[:, :, None, None], j[:, None, None, :]
    keep = (
        (sign[:, None, None] & neg)
        | (pre | m_lo | exp | (col == term))[:, None, None]
        | (m_hi[:, None, None] & (j4 - 1 < nz))
        | (point[:, None, None] & (nz > a4 + 1))
    )
    const = np.zeros(sign.shape, np.uint8)
    const[sign] = ord("-")
    for row, n in zip(const, prefix[:, 0]):
        row[_FIELD + 1 - n : _FIELD + 1] = np.frombuffer(b"0.000"[:n], np.uint8)
    const[point] = ord(".")
    ex = ~fixed[:, 0]
    const[ex, _EXP : _EXP + 2] = np.frombuffer(b"e-", np.uint8)
    const[ex, _EXP + 2] = -x[ex, 0] // 10 % 10 + ord("0")
    const[ex, _EXP + 3] = -x[ex, 0] % 10 + ord("0")
    const[np.arange(len(term)), term[:, 0]] = ord(",")
    words = lambda t: np.ascontiguousarray(t).view(np.uint64)
    return (
        keep.reshape(-1, _ROW),
        words(m_lo * np.uint8(0xFF)),
        words(m_hi * np.uint8(0xFF)),
        words(const),
        term[:, 0],
    )


_KEEP, _M_LO, _M_HI, _CONST, _TERM = _layout_tables()


class G17Encoder:
    """Formats up to n doubles a call as '%.17g' values, each followed by
    ',' or, at the end of each row of ncols values, '\n'. Calls continue
    one another's rows, so a table may be split anywhere between values.

    Every step writes into scratch allocated here once, 115 bytes a value:
    six words, three flags, the 32-byte text row and the 32-byte keep row.
    The keep row holds the unshifted digits until the layout is merged, and
    four of the words, free by then, hold each layout table row in turn. So
    a call allocates only its output and a few short index arrays."""

    def __init__(self, n: int, ncols: int):
        self.size = n
        self._ncols = ncols
        self._col = 0  # the row position of the next value
        self._words = np.empty((6, n), np.uint64)
        self._flags = np.empty((3, n), bool)
        self._text = np.zeros((n, _ROW), np.uint8)
        self._keep = np.zeros((n, _ROW), bool)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """The encoded bytes of the contiguous float64 array v."""
        n = v.size
        u64, i64 = np.uint64, np.int64
        w0, w1, w2, w3, w4, w5 = (w[:n] for w in self._words)
        neg, fast, flag = (f[:n] for f in self._flags)
        text, keep = self._text[:n], self._keep[:n]
        bits = v.view(u64)
        low = u64(0xFFFFFFFF)

        # the table index 2(e - _E_LO) + (|v| >= 10^(X0+1)), and the sign
        np.bitwise_and(bits, u64(2**63 - 1), out=w0)
        np.subtract(w0, u64(_E_LO << 52), out=w1)  # wraps below _E_LO, so clips high
        w1 >>= u64(52)
        idx = w1.view(i64)
        np.take(_POW10, idx, out=w2, mode="clip")
        np.greater_equal(w0, w2, out=flag)
        idx <<= 1
        idx += flag
        np.signbit(v, out=neg)
        # (hi, lo) = (w2, w3) = m·5^k: with m = mh·2^32 + ml and
        # 5^k = ph·2^32 + pl, the cross sum mh·pl + ml·ph is below 2^64
        np.bitwise_and(bits, u64(2**52 - 1), out=w0)
        w0 |= u64(2**52)
        np.right_shift(w0, u64(32), out=w2)
        w0 &= low
        np.take(_POW5_LO, idx, out=w3, mode="clip")
        np.take(_POW5_HI, idx, out=w4, mode="clip")
        np.multiply(w2, w3, out=w5)
        w3 *= w0
        w0 *= w4
        w2 *= w4
        w5 += w0
        np.right_shift(w3, u64(32), out=w0)  # the middle word
        w3 &= low
        np.bitwise_and(w5, low, out=w4)
        w0 += w4
        w5 >>= u64(32)
        w2 += w5
        np.right_shift(w0, u64(32), out=w4)
        w2 += w4
        w0 <<= u64(32)
        w3 |= w0
        # t = floor(m·5^k / 2^s), fast if it has 17 digits; then round half
        # to even: with the remainder r shifted to the top bits, add 1 when
        # r·2^(64-s) + (t odd) > 2^63
        np.take(_SHIFT, idx, out=w0, mode="clip")
        np.subtract(u64(64), w0, out=w4)
        w2 <<= w4
        np.right_shift(w3, w0, out=w5)
        w5 |= w2
        np.subtract(w5, u64(10**16), out=w2)
        np.less(w2, u64(9 * 10**16), out=fast)
        w3 <<= w4
        np.bitwise_and(w5, u64(1), out=w2)
        w3 += w2
        np.greater(w3, u64(2**63), out=flag)
        w5 += flag
        # a carry to 10^17 becomes 10^16 one decade up; w0 is X - _X_MIN
        np.equal(w5, u64(10**17), out=flag)
        np.multiply(flag, u64(9 * 10**16), out=w2)
        w5 -= w2
        xi = w0.view(i64)
        np.take(_XI, idx, out=xi, mode="clip")
        xi += flag
        # the lead digit and four groups of four digits, each written as
        # one word twice: unshifted from col 6 into the keep row, and
        # shifted one byte right into the text row
        lo5 = keep.view(np.uint8)[:, _FIELD - 3 : _FIELD + 17].view(np.uint32)
        hi5 = text[:, _FIELD - 2 : _FIELD + 18].view(np.uint32)
        digits = w1.view(np.uint32)[:n]
        np.floor_divide(w5, u64(10**16), out=w2)
        np.take(_DIGITS4, w2.view(i64), out=digits, mode="clip")  # "000d"
        lo5[:, 0] = digits
        hi5[:, 0] = digits
        np.multiply(w2, u64(10**16), out=w1)
        w5 -= w1
        for whole, upper, scale in ((w5, w4, 10**8), (w4, w2, 10**4), (w5, w3, 10**4)):
            np.floor_divide(whole, u64(scale), out=upper)
            np.multiply(upper, u64(scale), out=w1)
            whole -= w1
        for i, group in enumerate((w2, w4, w3, w5), 1):
            np.take(_DIGITS4, group.view(i64), out=digits, mode="clip")
            lo5[:, i] = digits
            hi5[:, i] = digits
        # twice the trailing zeros
        zeros = w1.view(i64)
        np.take(_ZEROS2, w5.view(i64), out=zeros, mode="clip")
        np.equal(w5, u64(0), out=flag)
        tail = np.flatnonzero(flag)  # the few whose lower groups are all zero
        for group in (w3, w4, w2):
            zeros[tail] += _ZEROS2[group[tail]]
            tail = tail[group[tail] == 0]
        np.logical_not(fast, out=flag)
        slow = np.flatnonzero(flag)
        xi[slow] = _SLOW_XI
        # merge the layout, end the rows, and pick the bytes to keep
        table = self._words[2:].reshape(-1)[: 4 * n].reshape(n, 4)
        text64, lo64 = text.view(u64), keep.view(u64)
        np.take(_M_HI, xi, axis=0, out=table, mode="clip")
        text64 &= table
        np.take(_M_LO, xi, axis=0, out=table, mode="clip")
        lo64 &= table
        text64 |= lo64
        np.take(_CONST, xi, axis=0, out=table, mode="clip")
        text64 |= table
        ends = np.arange((self._ncols - 1 - self._col) % self._ncols, n, self._ncols)
        text[ends, _TERM[xi[ends]]] = ord("\n")
        self._col = (self._col + n) % self._ncols
        xi *= i64(34)
        xi += zeros
        xi += neg
        np.take(_KEEP, xi, axis=0, out=keep, mode="clip")
        if slow.size:  # right-aligned before the terminator, space-padded
            width = _EXP + 4 - _FALLBACK
            padded = b"".join([b"%*.17g" % (width, x) for x in v[slow].tolist()])
            padded = np.frombuffer(padded, np.uint8).reshape(-1, width)
            text[slow, _FALLBACK : _EXP + 4] = padded
            keep[slow, _FALLBACK : _EXP + 4] = padded != ord(" ")
        return text[keep]
