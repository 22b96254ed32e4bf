"""CSV text of a float64 table, byte for byte what C's ``"%.17g"`` writes.

``csv_bytes`` converts a whole table at once in numpy instead of one
Python ``%`` conversion per value.  Each value ``x != 0`` is written as
its 17 significant digits ``n`` (``10**16 <= n < 10**17``) and decimal
exponent ``k``, so that ``|x|`` rounds to ``n * 10**(k - 16)``:

* ``k`` starts from ``floor(log10|x|)`` and is corrected by one where
  the scaled value below falls outside ``[10**16, 10**17)``.
* ``y = |x| * 10**(16 - k)`` is formed as a double-double (a pair
  ``hi + lo``) from a double-double table of powers of ten and Dekker's
  exact products, which holds ``y`` to about 1e-14 absolute.  ``n`` is
  ``y`` rounded to the nearest integer; a carry to ``10**17`` moves to
  ``(10**16, k + 1)``.
* A value whose fraction lies within ``TIE`` of one half, where the
  rounding direction needs the exact decimal expansion, and a value
  outside ``[FAST_MIN, FAST_MAX]`` (subnormals included), whose scaled
  product would leave the normal doubles, take ``n`` and ``k`` from
  Python's ``"%.16e"``: the same correctly rounded conversion.

The text then follows ``%g``'s layout: exponential form where
``k < -4`` or ``k >= 17``, trailing zeros dropped, a two-digit exponent
at least, and ``-0`` for negative zero.  Every character goes into a
fixed slot of a slot-by-value ``uint8`` matrix, with 0 in the slots a
value does not use; the rows of the CSV are that matrix read value by
value, with the zeros deleted.
"""

from __future__ import annotations

import functools

import numpy as np

# |x| inside this range scales to [1e16, 1e17] through normal doubles
FAST_MIN = 1e-270
FAST_MAX = 1e270
# a scaled fraction this close to 1/2 is rounded by the exact conversion
TIE = 1e-9

# Dekker's splitting constant, 2**27 + 1
_SPLIT = 134217729.0
# powers 10**p of the table, P_LOW <= p <= P_HIGH, cover 16 - k for every
# fast k, with one to spare on each side for the correction of k
P_LOW = 16 - 272
P_HIGH = 16 + 272

# slots of one value: sign, the "0.000" prefix of a small fixed value,
# the 17 digits with the point among them, the exponent ("e", sign, up to
# three digits), and the separator
_SIGN = 0
_PREFIX = 1
_DIGITS = 6
_EXP = _DIGITS + 18
_SEP = _EXP + 5
SLOTS = _SEP + 1

# values converted at a time, which keeps the transient arrays to a few MB
CHUNK = 8192


@functools.cache
def _pow10_table() -> np.ndarray:
    """Rows (hi, hi's high half, hi's low half, lo) of the double-double
    10**p = hi + lo for p = P_LOW..P_HIGH, built on first use from exact
    integer arithmetic (Python's int division rounds correctly)."""
    hi, lo = [], []
    for p in range(P_LOW, P_HIGH + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    t = _SPLIT * hi
    hi_hi = t - (t - hi)
    return np.stack((hi, hi_hi, hi - hi_hi, np.array(lo)))


def _scaled(ax: np.ndarray, k: np.ndarray):
    """ax * 10**(16 - k) as a normalised double-double (hi, lo)."""
    p_hi, p_hh, p_hl, p_lo = _pow10_table().take(16 - k - P_LOW, axis=1)
    prod = ax * p_hi
    t = _SPLIT * ax
    a_hi = t - (t - ax)
    a_lo = ax - a_hi
    err = ((a_hi * p_hh - prod) + a_hi * p_hl + a_lo * p_hh) + a_lo * p_hl
    err += ax * p_lo
    hi = prod + err
    return hi, err - (hi - prod)


def _digits_exponent(x: np.ndarray):
    """(n, k) of each value: n its 17 significant digits as an int64
    and k its decimal exponent, both 0 for a zero."""
    ax = np.abs(x)
    zero = ax == 0.0
    fast = (ax >= FAST_MIN) & (ax <= FAST_MAX)
    ax_fast = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(ax_fast)).astype(np.int64)
    hi, lo = _scaled(ax_fast, k)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    off = np.flatnonzero(low | high)
    if off.size:
        k[off] += high[off].astype(np.int64) - low[off]
        hi[off], lo[off] = _scaled(ax_fast[off], k[off])
    # hi is a whole number (every double above 2**53 is)
    lo_int = np.floor(lo)
    frac = lo - lo_int
    n = hi.astype(np.int64) + lo_int.astype(np.int64) + (frac > 0.5)
    carry = n == 10**17
    n[carry] = 10**16
    k[carry] += 1
    n[zero] = 0
    k[zero] = 0
    for i in np.flatnonzero((~fast & ~zero) | (np.abs(frac - 0.5) < TIE)):
        mantissa, exponent = ("%.16e" % ax[i]).split("e")
        n[i] = int(mantissa.replace(".", ""))
        k[i] = int(exponent)
    return n, k


def _text_slots(x: np.ndarray) -> np.ndarray:
    """The (SLOTS, x.size) character matrix of the values x, separator
    slot left 0."""
    n, k = _digits_exponent(x)
    u8 = np.uint8
    # n's first 8 digits and its last 9, each half a uint32; digit j of a
    # half is the last digit of its quotient q_j by a power of ten,
    # q_j - 10 q_(j-1), computed modulo 256
    high, low = (half.astype(np.uint32) for half in np.divmod(n, 10**9))
    digits = np.empty((17, x.size), u8)
    for j in range(17):
        digits[j] = high // 10 ** (7 - j) if j < 8 else low // 10 ** (16 - j)
    digits[1:8] -= u8(10) * digits[:7]
    digits[9:] -= u8(10) * digits[8:-1]
    # row j: a nonzero digit at j or after it, so digit j is significant
    sig = digits != 0
    for j in range(15, -1, -1):
        sig[j] |= sig[j + 1]
    n_sig = sig.view(u8).sum(axis=0, dtype=u8)

    expo = (k < -4) | (k >= 17)
    small = ~expo & (k < 0)
    # digits before the point (a fixed value writes all of them), the
    # rest one slot further on, after the point
    whole = np.where(expo, 1, np.maximum(k + 1, 0)).astype(u8)
    before = np.arange(17, dtype=u8)[:, None] < whole
    chars = (digits + u8(ord("0"))) * (sig | before)

    mat = np.zeros((SLOTS, x.size), u8)
    mat[_SIGN] = np.signbit(x) * u8(ord("-"))
    mat[_PREFIX] = small * u8(ord("0"))
    mat[_PREFIX + 1] = small * u8(ord("."))
    for j in range(3):
        mat[_PREFIX + 2 + j] = (small & (-k - 1 > j)) * u8(ord("0"))
    mat[_DIGITS : _DIGITS + 17] = chars * before
    mat[_DIGITS + 1 : _EXP] += chars * ~before
    point = np.flatnonzero(~small & (n_sig > whole))
    mat[_DIGITS + whole[point], point] = ord(".")
    ex = np.flatnonzero(expo)
    e = np.abs(k[ex])
    mat[_EXP, ex] = ord("e")
    mat[_EXP + 1, ex] = np.where(k[ex] < 0, ord("-"), ord("+"))
    mat[_EXP + 2, ex] = np.where(e >= 100, e // 100 + ord("0"), 0)
    mat[_EXP + 3, ex] = e // 10 % 10 + ord("0")
    mat[_EXP + 4, ex] = e % 10 + ord("0")
    return mat


def _rows(table: np.ndarray, valid) -> bytes:
    """:func:`csv_bytes` of one chunk of rows."""
    n_rows, n_cols = table.shape
    mat = _text_slots(table.ravel())
    seps = np.full(n_cols, ord(","), np.uint8)
    if valid is None:
        seps[-1] = ord("\n")
    mat[_SEP].reshape(n_rows, n_cols)[:] = seps
    rows = mat.T.reshape(n_rows, n_cols * SLOTS)
    if valid is not None:
        words = np.array([list(b"false\n"), list(b"true\n\0")], np.uint8)
        rows = np.concatenate((rows, words[valid.astype(np.intp)]), axis=1)
    return rows.tobytes().translate(None, b"\0")


def csv_bytes(table: np.ndarray, valid=None) -> bytes:
    """The CSV rows of a finite float64 table, each value as ``"%.17g"``
    text, ``,`` between values and ``\\n`` after each row; ``valid``, if
    given, is a boolean array that adds a last ``true``/``false`` column."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    step = max(1, CHUNK // table.shape[1])
    return b"".join(
        _rows(table[i : i + step], None if valid is None else valid[i : i + step])
        for i in range(0, len(table), step)
    )
