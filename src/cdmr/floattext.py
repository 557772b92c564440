"""CSV text of float arrays, each value exactly as Python's ``repr`` writes it.

Every CSV file cdmr writes stores floats as their shortest round-trip
decimal, the text ``repr(float(v))`` gives, so a file re-parses to the very
same doubles.  :func:`csv_text` produces that text for a whole 2-D array at
once instead of calling ``repr`` once per value, and :func:`csv_blocks` the
same text one block of rows at a time, for writers that stream it.

The digits come from exact integer arithmetic in the spirit of Ryu (Adams,
PLDI 2018).  A finite normal x = m 2^e is scaled to X = |x| 10^q, with
q = 17 - floor(log10 |x|), as the 128-bit product m 5^q shifted by 2^(e+q).
Every decimal inside the rounding interval X +- 5^q / 2^(1-e-q) reads back
as x.  The shortest digits are the multiple of the largest power 10^J
inside that interval; of those, the one nearest X.  The text is then laid out as repr
lays it out: fixed notation for decimal exponents -4 to 15, ``d.ddde-05``
otherwise, and ``.0`` after integral values.

Values outside that fast path go through ``repr`` itself, one at a time:
zeros, subnormals, inf and nan; power-of-two significands, whose rounding
interval is asymmetric; |x| outside [1e-10, 1e16); exact ties between two
nearest candidates; and any candidate that falls outside its interval.
"""

import numpy as np

# Cells formatted per block: bounds the working arrays (about 0.3 MB of
# text slots plus a few uint64 vectors per block).
_BLOCK_CELLS = 4096

_LOW, _HIGH = 1e-10, 1e16
_Q_MAX = 27  # q = 17 - floor(log10 |x|) lies in [1, 27] on [_LOW, _HIGH)
_POW5 = np.array([5**i for i in range(_Q_MAX + 1)], dtype=np.uint64)
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
_DIGITS = 17  # no double needs more significant digits to round-trip

_U1 = np.uint64(1)
_U32 = np.uint64(32)
_U64 = np.uint64(64)
_LOW32 = np.uint64(0xFFFFFFFF)
_FRACTION = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)
_E9 = np.uint64(10**9)

# One fixed slot per character a fast-path cell can need, in text order:
# sign, the "0.000" of 0.000ddd, then the digits with a possible decimal
# point after each of the first 16, then an exponent such as "e-05", then
# the separator.  Unused slots stay NUL and are squeezed out at the end.
_SIGN = 0
_PREFIX = slice(1, 6)
_DIGIT_SLOTS = slice(6, 6 + 2 * _DIGITS - 1, 2)
_POINT_COLS = np.arange(7, 6 + 2 * _DIGITS - 1, 2)
_EXPONENT = slice(6 + 2 * _DIGITS - 1, 6 + 2 * _DIGITS + 3)
_WIDTH = 6 + 2 * _DIGITS + 4  # the separator takes the last slot
# Row k: the first k characters of "0.000", which lead the digits of 0.000ddd.
_PREFIXES = np.array([list(b"0.000"[:k].ljust(5, b"\0")) for k in range(6)], dtype=np.uint8)
# Row k: the code of "0" on the first k digit places, to shift digit values
# to characters; the places after them stay NUL.
_DIGIT_CODES = np.where(np.arange(_DIGITS) < np.arange(_DIGITS + 1)[:, None],
                        ord("0"), 0).astype(np.uint8)


def csv_text(values) -> str:
    """CSV text of a 2-D float array: ``repr(float(v))`` cells, "," within a row, "\\n" after each.

    The result equals
    ``"".join(",".join(repr(float(v)) for v in row) + "\\n" for row in values)``
    byte for byte; a 1-D array is one row.
    """
    return "".join(csv_blocks(values))


def csv_blocks(values):
    """The text of :func:`csv_text`, one block of whole rows at a time.

    A block holds ``_BLOCK_CELLS // n_cols`` rows, and at least one.  A
    writer that writes each block as it comes holds one block's text, never
    the whole file's.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[None, :]
    if values.ndim != 2:
        raise ValueError(f"csv_text needs a 2-D array, got shape {values.shape}")
    n_rows, n_cols = values.shape
    if n_cols == 0:
        yield "\n" * n_rows
        return
    block = max(1, _BLOCK_CELLS // n_cols)
    for start in range(0, n_rows, block):
        yield _block_text(values[start:start + block])


def _block_text(rows):
    """CSV text of a block of rows, through the fast path where it holds, else ``repr``."""
    n_rows, n_cols = rows.shape
    buf = np.zeros((n_rows, n_cols, _WIDTH), dtype=np.uint8)
    buf[:, :-1, -1] = ord(",")
    buf[:, -1, -1] = ord("\n")
    cells = buf.reshape(-1, _WIDTH)
    flat = rows.reshape(-1)
    magnitude = np.abs(flat)
    fast = (magnitude >= _LOW) & (magnitude < _HIGH) & ((flat.view(np.uint64) & _FRACTION) != 0)
    if fast.any():
        magnitude[~fast] = 1.5  # any fast-path value; these cells are overwritten below
        digits, n_digits, exponent, ok = _shortest(magnitude)
        _layout(cells, flat < 0.0, digits, n_digits, exponent)
        slow = np.flatnonzero(~(fast & ok))
    else:  # a block of fallback cells alone skips the fast path
        slow = np.arange(flat.size)
    if slow.size:
        text = [repr(v) for v in flat[slow].tolist()]
        cells[slow, :-1] = np.array(text, dtype=f"S{_WIDTH - 1}").view(np.uint8).reshape(
            slow.size, _WIDTH - 1)
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _mul128(a, b):
    """High and low 64-bit words of the exact products a*b of uint64 arrays (a < 2^57)."""
    a0, a1 = a & _LOW32, a >> _U32
    b0, b1 = b & _LOW32, b >> _U32
    low = a0 * b0
    mid = a0 * b1 + a1 * b0  # < 2^63 + 2^57: no carry out
    lo = low + (mid << _U32)
    hi = a1 * b1 + (mid >> _U32) + (lo < low)
    return hi, lo


def _shortest(x):
    """Shortest round-trip digits of each positive x on the fast path.

    Returns (digits, number of digits, decimal exponent of the first digit,
    ok); where ok is false the caller falls back to ``repr``.
    """
    bits = x.view(np.uint64)
    m = (bits & _FRACTION) | _HIDDEN
    q = 17 - np.floor(np.log10(x)).astype(np.int64)
    s = 1075 - (bits >> np.uint64(52)).astype(np.int64) - q  # X = m 5^q / 2^s
    # s <= 59 on [_LOW, _HIGH), so 2^(s+1) fits in 64 bits.  Near 1e16 s
    # drops to -3: lift m (and the half-gap with it) until s >= 1.
    lift = np.maximum(1 - s, 0).astype(np.uint64)
    s = np.maximum(s, 1).astype(np.uint64)
    pow5 = _POW5.take(q)
    hi, lo = _mul128(m << lift, pow5)
    n = (hi << (_U64 - s)) | (lo >> s)  # N = floor(X) < 2^64
    # In units of 2^-(s+1): X = N + r2, the half-gap 5^q / 2^(s+1) = h + f.
    r2 = (lo & ((_U1 << s) - _U1)) << _U1
    unit = _U1 << (s + _U1)
    width = pow5 << lift
    h = width >> (s + _U1)
    f = width & (unit - _U1)
    # The integers in the closed interval.  Its ends, half an ulp from x, have
    # one more binary digit than x and so more decimal digits than x itself:
    # they are never the shortest, whether m is even or odd.
    low = n - h + (r2 > f)
    high = n + h + (r2 + f >= unit)
    # J: the most trailing digits that a multiple of 10^J in [low, high] drops.
    j = np.zeros(x.size, dtype=np.int64)
    quotient = high
    for power in _POW10[1:_DIGITS + 1]:
        quotient = quotient // np.uint64(10)
        fits = quotient * power >= low
        if not fits.any():
            break
        j += fits
    # Round X = N + r2/2^(s+1) to the nearest multiple of p = 10^J (J >= 1).
    p = _POW10.take(j)
    digits = n // p
    rest = n - digits * p
    half = p >> _U1
    tie = (rest == half) & (r2 == 0)
    digits += (rest > half) | ((rest == half) & (r2 != 0))
    candidate = digits * p
    # X lies in [1e16, 1e19), so the candidate has 16 to 19 digits.
    size = 16 + sum(candidate >= _POW10[k] for k in (16, 17, 18))
    n_digits = size - j
    ok = ~tie & (candidate >= low) & (candidate <= high)
    return digits, n_digits, size - 1 - q, ok


def _layout(slots, negative, digits, n_digits, exponent):
    """Write each value's text into its zeroed row of ``slots``, laid out as ``repr`` does."""
    slots[:, _SIGN] = negative * ord("-")
    fixed = (exponent >= -4) & (exponent <= 15)
    whole = fixed & (exponent >= 0)
    # Integral values pad with zeros up to the units digit and add ".0".
    shown = np.where(whole, np.maximum(n_digits, exponent + 2), n_digits)
    # The digits left-aligned in 17 places, split in two uint32 halves of
    # 9 digits each (the first place of the high half is always 0).
    padded = digits * _POW10.take(_DIGITS - n_digits)
    high = padded // _E9
    places = np.empty((2 * 9, digits.size), dtype=np.uint8)
    for half, rest in enumerate((high.astype(np.uint32),
                                 (padded - high * _E9).astype(np.uint32))):
        for i in range(9 * half + 8, 9 * half - 1, -1):
            quotient = rest // np.uint32(10)
            places[i] = rest - quotient * np.uint32(10)
            rest = quotient
    slots[:, _DIGIT_SLOTS] = places[1:].T + _DIGIT_CODES.take(shown, axis=0)
    point = np.flatnonzero(whole | (~fixed & (n_digits > 1)))
    slots[point, _POINT_COLS[np.where(whole[point], exponent[point], 0)]] = ord(".")
    slots[:, _PREFIX] = _PREFIXES.take(np.where(fixed & (exponent < 0), 1 - exponent, 0), axis=0)
    sci = np.flatnonzero(~fixed)
    if sci.size:
        power = exponent[sci]
        size = np.abs(power)
        slots[sci, _EXPONENT] = np.column_stack([
            np.full(sci.size, ord("e")), np.where(power < 0, ord("-"), ord("+")),
            ord("0") + size // 10, ord("0") + size % 10])
