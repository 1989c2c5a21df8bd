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
# Each value is laid out in a row of _ROW bytes, then a boolean mask keeps
# the bytes '%g' prints, in row order:
#   col 0       '-', kept for a negative value
#   cols 1..5   "0.000": "0." and -X-1 zeros for -4 <= X < 0 (fixed form)
#   cols 6..23  digit field: digits 0..a, '.', digits a+1..16
#   cols 24..27 "e-XX", kept in exponent form (X < -4)
#   col 28      ',' or '\n'
# where X is the decimal exponent after rounding, and a = X for fixed form
# with X >= 0, a = 0 in exponent form, and a = 17 (no point in the field)
# for X < 0. Digits past the last nonzero one, and a bare '.', are dropped.
# The field is two copies of the digits, one shifted by a byte, merged by
# per-X word masks. All tables are indexed by X - _X_MIN, and the keep mask
# also by the number of significant digits.
_X_MIN, _X_MAX = -11, 16
_ROW = 32
_SIGN, _PREFIX, _FIELD, _EXP, _TERM = 0, 1, 6, 24, 28
_FALLBACK = 4  # 24 columns hold the longest '%.17g' text, -2.2250738585072014e-308
_K = np.arange(_X_MAX - _X_MIN + 1)  # k = 16 - X
_POW5 = np.uint64(5) ** _K.astype(np.uint64)
_POW5_LO, _POW5_HI = _POW5 & np.uint64(0xFFFFFFFF), _POW5 >> np.uint64(32)
_POW10 = 10.0 ** (17 - _K)  # 10^(X+1), rounded to double
_ASCII = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = (  # the four ASCII digits of 0..9999, each as one word
    np.stack(np.meshgrid(_ASCII, _ASCII, _ASCII, _ASCII, indexing="ij"), axis=-1)
    .reshape(10000, 4)
    .view(np.uint32)[:, 0]
)
_ZEROS4 = np.logical_and.accumulate(  # trailing zeros of the same four digits
    _DIGITS4.view(np.uint8).reshape(10000, 4)[:, ::-1] == ord("0"), axis=1
).sum(axis=1)


def _layout_tables():
    """(keep, m_lo, m_hi, const): keep[(X - _X_MIN) * 18 + nz] is the byte
    mask of a value with decimal exponent X and nz significant digits;
    m_lo[X - _X_MIN] and m_hi[...] select the field bytes taken from the
    unshifted and the shifted digits; const[...] holds the other bytes."""
    x = np.arange(_X_MIN, _X_MAX + 1)[:, None]
    col = np.arange(_ROW)[None, :]
    fixed = x >= -4
    a = np.where(fixed, np.where(x >= 0, x, 17), 0)  # the last digit before the point
    j = col - _FIELD  # slot in the digit field
    field = (j >= 0) & (j < 18)
    point = field & (j == a + 1)
    m_lo = field & (j <= np.minimum(a, 16))
    m_hi = field & (j >= a + 2)
    digit = np.where(j > a, j - 1, j)
    nz = np.arange(18)[None, :, None]
    keep = (
        (fixed & (x < 0) & (col >= _PREFIX) & (col < _PREFIX + 1 - x))[:, None]
        | ((m_lo | m_hi)[:, None] & ((digit[:, None] < nz) | (fixed & (digit <= x))[:, None]))
        | (point[:, None] & (nz > a[:, None] + 1))
        | (~fixed & (col >= _EXP) & (col < _EXP + 4))[:, None]
        | (col == _TERM)
    )
    const = np.zeros(point.shape, np.uint8)
    const[:, _SIGN] = ord("-")
    const[:, _PREFIX : _PREFIX + 5] = np.frombuffer(b"0.000", np.uint8)
    const[point] = ord(".")
    const[:, _EXP : _EXP + 2] = np.frombuffer(b"e-", np.uint8)
    const[:, _EXP + 2] = -x[:, 0] // 10 % 10 + ord("0")
    const[:, _EXP + 3] = -x[:, 0] % 10 + ord("0")
    words = lambda t: np.ascontiguousarray(t).view(np.uint64)
    return keep.reshape(-1, _ROW), words(m_lo * np.uint8(0xFF)), words(m_hi * np.uint8(0xFF)), words(const)


_KEEP, _M_LO, _M_HI, _CONST = _layout_tables()


class G17Encoder:
    """Formats up to n doubles at a time as '%.17g' values, each followed by
    ',' or, at the end of each row of ncols values, '\n'. Every step writes
    into scratch arrays allocated here once, so a chunk allocates only its
    output."""

    def __init__(self, n: int, ncols: int):
        self._u64 = np.empty((7, n), np.uint64)
        self._i64 = np.empty((3, n), np.int64)
        self._f64 = np.empty((2, n))
        self._flags = np.empty((3, n), bool)
        self._groups = np.empty((2, 4, n), np.uint32)
        self._rows = np.zeros((4, n, _ROW // 8), np.uint64)
        self._keep = np.empty((n, _ROW), bool)
        term = self._rows[3].view(np.uint8)[:, _TERM]
        term[:] = ord(",")
        term[ncols - 1 :: ncols] = ord("\n")

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """The encoded bytes of the contiguous float64 array v."""
        n = v.size
        u64 = np.uint64
        m, f, g, lo, hi, t, r = (a[:n] for a in self._u64)
        e, k, s = (a[:n] for a in self._i64)
        mag, pow10 = (a[:n] for a in self._f64)
        neg, fast, carry = (a[:n] for a in self._flags)
        groups, digits = self._groups[:, :, :n]
        lo_digits, hi_digits, row, term = (a[:n] for a in self._rows)
        keep = self._keep[:n]
        bits = v.view(u64)
        su = s.view(u64)

        # sign, biased exponent e, significand m with its implicit bit
        np.right_shift(bits, u64(52), out=e.view(u64))
        np.greater_equal(e, np.int64(2048), out=neg)
        e &= np.int64(2047)
        np.bitwise_and(bits, u64(2**52 - 1), out=m)
        m |= u64(2**52)
        # k = 16 - X, X = floor(log10|v|): floor((e - 1023)·log10 2) is X or
        # X - 1, and one compare with 10^(X+1) settles it
        np.subtract(e, np.int64(1023), out=k)
        k *= np.int64(78913)
        k >>= np.int64(18)
        np.subtract(np.int64(16), k, out=k)
        np.take(_POW10, k, out=pow10, mode="clip")
        np.abs(v, out=mag)
        np.greater_equal(mag, pow10, out=carry)
        k -= carry
        np.subtract(np.int64(1075), e, out=s)
        s -= k
        np.less_equal(k.view(u64), u64(27), out=fast)  # 0 <= k <= 27
        np.subtract(su, u64(1), out=f)
        fast &= f <= u64(62)  # 1 <= s <= 63
        su &= u64(63)
        # (hi, lo) = m·5^k from the four products of 32-bit halves
        np.take(_POW5_LO, k, out=f, mode="clip")
        np.take(_POW5_HI, k, out=g, mode="clip")
        np.right_shift(m, u64(32), out=t)
        m &= u64(0xFFFFFFFF)
        np.multiply(m, f, out=lo)
        np.multiply(t, g, out=hi)
        m *= g
        t *= f
        np.right_shift(lo, u64(32), out=r)  # the middle word
        lo &= u64(0xFFFFFFFF)
        for cross in (m, t):
            np.right_shift(cross, u64(32), out=f)
            hi += f
            cross &= u64(0xFFFFFFFF)
            r += cross
        np.right_shift(r, u64(32), out=f)
        hi += f
        r <<= u64(32)
        lo |= r
        # t = floor(m·5^k / 2^s), which must have 17 digits; then round half
        # to even: add 1 when remainder + 2^(s-1) - 1 + (t odd) >= 2^s
        np.subtract(u64(64), su, out=f)
        f &= u64(63)
        hi <<= f
        np.right_shift(lo, su, out=t)
        t |= hi
        np.subtract(t, u64(10**16), out=f)
        fast &= f < u64(9 * 10**16)
        np.left_shift(u64(1), su, out=r)
        r -= u64(1)
        lo &= r
        r >>= u64(1)
        lo += r
        np.bitwise_and(t, u64(1), out=r)
        lo += r
        lo >>= su
        t += lo
        # a carry to 10^17 becomes 10^16 one decade up; k becomes X - _X_MIN
        np.equal(t, u64(10**17), out=carry)
        np.multiply(carry, u64(9 * 10**16), out=f)
        t -= f
        np.subtract(np.int64(16 - _X_MIN), k, out=k)
        k += carry
        # the lead digit and four groups of four digits
        np.floor_divide(t, u64(10**16), out=f)
        np.multiply(f, u64(10**16), out=g)
        t -= g
        np.floor_divide(t, u64(10**8), out=g)
        np.multiply(g, u64(10**8), out=hi)
        t -= hi
        for i, part in enumerate((g, t)):
            upper, lower = groups[2 * i], groups[2 * i + 1]
            np.floor_divide(part, u64(10**4), out=upper, casting="unsafe")
            np.multiply(upper, np.uint32(10**4), out=lower)
            np.subtract(part, lower, out=lower, casting="unsafe")
        # the digits, unshifted and shifted one byte right
        np.take(_DIGITS4, groups, out=digits, mode="clip")
        lo8, hi8 = lo_digits.view(np.uint8), hi_digits.view(np.uint8)
        np.add(f, u64(ord("0")), out=lo8[:, _FIELD], casting="unsafe")
        hi8[:, _FIELD + 1] = lo8[:, _FIELD]
        lo4 = lo8[:, _FIELD + 1 : _FIELD + 17].view(np.uint32)
        hi4 = hi8[:, _FIELD + 2 : _FIELD + 18].view(np.uint32)
        for i in range(4):
            lo4[:, i] = digits[i]
            hi4[:, i] = digits[i]
        # significant digits: 17 less the trailing zeros
        np.take(_ZEROS4, groups[3], out=s, mode="clip")
        tail = np.flatnonzero(groups[3] == 0)  # the few whose lower groups are all zero
        for i in (2, 1, 0):
            s[tail] += _ZEROS4[groups[i, tail]]
            tail = tail[groups[i, tail] == 0]
        # merge the layout and pick the bytes to keep
        np.take(_M_LO, k, axis=0, out=row, mode="clip")
        lo_digits &= row
        np.take(_M_HI, k, axis=0, out=row, mode="clip")
        hi_digits &= row
        np.take(_CONST, k, axis=0, out=row, mode="clip")
        row |= lo_digits
        row |= hi_digits
        row |= term
        k *= np.int64(18)
        k += np.int64(17)
        k -= s
        np.take(_KEEP, k, axis=0, out=keep, mode="clip")
        keep[:, _SIGN] = neg
        text = row.view(np.uint8)
        slow = np.flatnonzero(~fast)
        if slow.size:  # right-aligned before the terminator, space-padded
            width = _TERM - _FALLBACK
            padded = b"".join([b"%*.17g" % (width, x) for x in v[slow].tolist()])
            padded = np.frombuffer(padded, np.uint8).reshape(-1, width)
            text[slow, _FALLBACK:_TERM] = padded
            keep[slow, :_FALLBACK] = False
            keep[slow, _FALLBACK:_TERM] = padded != ord(" ")
        return text[keep]
