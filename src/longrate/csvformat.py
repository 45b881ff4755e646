"""CSV text through one numpy kernel: the bytes of Python's ``'%.9g' % v``.

``g9_words`` formats a block of doubles at once.  It takes each value's
decimal exponent X from log10 and rounds |v| * 10^(8 - X) to the 9-digit
integer that %.9g prints.  A result of 10^9 moves X up by one; it comes
from rounding, or from a log10 a few ulps low at a power of ten (one a
few ulps high there gives just under 10^8, which rounds to 10^8 and is
also right).  The power of ten is correctly rounded, so the product is
within 2.3e-7 of the exact one and rounds the same way unless its
fraction lies within 1e-6 of .5; such near-ties, non-finite values and
nonzero magnitudes below 1e-290 are formatted by Python itself.  A zero
of either sign is read at X = 0 as the integer 0, which prints "0" or
"-0" as %.9g does.  The digits come from 4-digit lookup tables packed
into uint32 words, with the zeros %.9g drops stored as NUL bytes, and
deleting every NUL from a block of words leaves the text.

``montecarlo.write_ensemble_csv`` and the CLI's sample files call into
this module, which executes on their first write, so processes that
write no CSV never run it; its tables are built with numpy on first use.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["g9_words", "write_g9_lines", "write_path_rows"]

_X0 = 330  # the per-exponent tables cover decimal exponents -330..330
_TINY = 1e-290  # smaller nonzero magnitudes (and inf, nan) go to Python: 10^(8 - X) stays finite
_TIE = 1e-6  # scaled values this close to a half go to Python too
_ROWS = 1 << 12  # CSV rows formatted per block: the buffers stay near 1 MB
_WORD = np.dtype("<u4")  # four ASCII bytes, the first character in the low byte
_LEAD, _FULL, _TRAIL = 0, 10_000, 20_000  # offsets of the three digit tables


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's tables, built once per process on first use.

    ``digits`` holds the 4-digit groups 0000..9999 as words three times:
    leading zeros NUL (group 0 reads "0"), all four digits, and trailing
    zeros NUL (group 0 is all NUL).  Indexed by X + _X0, ``splits`` gives
    the divisor that cuts the 9 digits into integer part and fraction and
    the power of ten that left-aligns the fraction in 8 digits;
    ``template`` holds the words that depend on X alone (the "0." and
    zeros that start a fixed-point value below 1, the point, the
    exponent); ``scale`` is 10^(8 - X), correctly rounded.
    """
    chars = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()  # digits of 0..9999
    nonzero = chars != 0
    chars += ord("0")
    lead = np.where(np.logical_or.accumulate(nonzero, axis=1), chars, 0)
    lead[0, 3] = ord("0")
    trail = np.where(np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1], chars, 0)
    digits = np.concatenate([lead, chars, trail]).view(_WORD).ravel()

    x = np.arange(-_X0, _X0 + 1)
    fixed = (x >= -4) & (x <= 8)  # where %.9g prints fixed-point
    below_one = fixed & (x < 0)
    k = np.where(fixed, np.clip(x, 0, 8), 0)  # integer digits after the first
    splits = np.stack([10 ** (8 - k), 10 ** k], axis=1).astype(np.uint32)
    ax = np.abs(x)
    three = ax >= 100
    exponent = np.zeros((x.size, 8), np.uint8)  # "e+dd" or "e+ddd"
    exponent[:, :2] = [ord("e"), ord("+")]
    exponent[x < 0, 1] = ord("-")
    exponent[:, 2] = np.where(three, ax // 100, ax // 10 % 10) + ord("0")
    exponent[:, 3] = np.where(three, ax // 10 % 10, ax % 10) + ord("0")
    exponent[three, 4] = ax[three] % 10 + ord("0")
    template = np.zeros((x.size, 8), _WORD)
    template[below_one, 0] = ord("0") << 8 | ord(".") << 16  # after a sign in byte 0
    template[below_one, 1] = np.array([0, 0x30, 0x3030, 0x303030])[-x[below_one] - 1]
    template[~below_one, 3] = ord(".")
    template[~fixed, 6:] = exponent[~fixed].view(_WORD)
    scale = np.array([float(f"1e{8 - i}") for i in x])  # parsed, so correctly rounded
    return digits, splits, template, scale


def _int_words(i: np.ndarray, digits: np.ndarray):
    """The three words of the integers 0 <= i < 10^12, leading zeros NUL."""
    high = i // 10_000
    top = high // 10_000
    mid = high - top * 10_000
    return (
        np.where(top > 0, digits.take(_LEAD + top), 0),
        np.where(top > 0, digits.take(_FULL + mid), np.where(mid > 0, digits.take(_LEAD + mid), 0)),
        digits.take(np.where(high > 0, _FULL, _LEAD) + i - high * 10_000),
    )


def g9_words(values, sep: str) -> np.ndarray:
    """``'%.9g' % v + sep`` for each value, as 8 words of NUL-padded ASCII.

    Deleting every NUL byte from the words, row by row, leaves exactly
    that text.  The words hold: a sign and the first of 9 integer digits,
    or a sign and "0."; four integer digits, or the zeros after "0.";
    four integer digits; the point; eight fraction digits; the exponent,
    its third digit and ``sep``.
    """
    digits, splits, template, scale = _tables()
    v = np.ravel(np.asarray(values, dtype=float))
    out = np.empty((v.size, 8), _WORD)
    if v.size == 0:
        return out
    plain = v.min() >= _TINY and v.max() < math.inf  # no sign, no fallback
    a = v if plain else np.abs(v)
    if not plain:
        kernel = (a >= _TINY) & (a < math.inf)
        zero = a == 0.0
        python = ~(kernel | zero)
        a = np.where(kernel, a, 1.0)
    ix = np.floor(np.log10(a)).astype(np.intp)  # the decimal exponent X, plus _X0
    ix += _X0
    s = a * scale.take(ix)
    if not plain:
        s[zero] = 0.0  # at X = 0: the digits "0" and, for -0.0, the sign
    n = np.rint(s)
    off = np.abs(s - n, out=s)
    if off.max() > 0.5 - _TIE:
        tie = off > 0.5 - _TIE
        python = tie if plain else python | tie
        plain = False
    if n.max() >= 1e9:  # 10^9: one decimal exponent more
        carry = n >= 1e9
        n[carry] = 1e8
        ix += carry
    n = n.astype(np.uint32)
    divisor, shift = splits.take(ix, axis=0).T
    whole = n // divisor
    fraction = (n - whole * divisor) * shift
    high = fraction // 10_000
    low = fraction - high * 10_000
    out[...] = template.take(ix, axis=0)
    if whole.max() < 10_000:
        out[:, 2] = digits.take(_LEAD + whole)
    else:
        top, mid, last = _int_words(whole, digits)
        out[:, 0] |= top
        out[:, 1] |= mid
        out[:, 2] = last
    if not plain:
        out[:, 0] |= np.where(np.signbit(v), ord("-"), 0).astype(_WORD)
    out[:, 3] *= fraction != 0
    out[:, 4] = digits.take(np.where(low == 0, _TRAIL, _FULL) + high)
    out[:, 5] = digits.take(_TRAIL + low)
    out[:, 7] |= ord(sep) << 24
    if not plain:
        for j in np.flatnonzero(python):
            text = ("%.9g" % v[j]).encode("ascii").ljust(31, b"\0") + sep.encode("ascii")
            out[j] = np.frombuffer(text, _WORD)
    return out


def write_g9_lines(fh, values) -> None:
    """Write ``'%.9g\\n' % v`` for each value to the binary file ``fh``, a block at a time."""
    values = np.asarray(values, dtype=float)
    for start in range(0, values.size, _ROWS):
        words = g9_words(values[start : start + _ROWS], "\n")
        fh.write(words.tobytes().translate(None, b"\0"))


def write_path_rows(fh, grid: np.ndarray, factors: np.ndarray) -> None:
    """Write rows ``path,t,x_1,...,x_k`` of factors shaped (k, n_paths, len(grid)).

    Each block of whole paths, at most _ROWS rows, is one matrix of words
    with one row per CSV row, filled by ``g9_words`` and stripped of its
    NUL bytes in one ``translate``.  The index and t columns keep only
    the word positions that are not NUL in every row, so less is stripped.
    """
    digits = _tables()[0]
    steps = grid.size
    paths_per_block = max(1, _ROWS // steps)
    times = g9_words(grid, ",")
    times = times[:, times.any(axis=0)]
    for start in range(0, factors.shape[1], paths_per_block):
        stop = min(start + paths_per_block, factors.shape[1])
        paths = np.arange(start, stop)
        comma = np.full(paths.size, ord(",") << 24, _WORD)
        index = np.stack([*_int_words(paths, digits), comma], axis=1)
        index = index[:, index.any(axis=0)]
        lead = index.shape[1] + times.shape[1]
        # The words live in a bytearray, which translates without a copy.
        text = bytearray(_WORD.itemsize * paths.size * steps * (lead + 8 * len(factors)))
        table = np.frombuffer(text, _WORD).reshape(paths.size * steps, -1)
        rows = table.reshape(paths.size, steps, -1)
        rows[:, :, : index.shape[1]] = index[:, None]
        rows[:, :, index.shape[1] : lead] = times
        for c, values in enumerate(factors):
            sep = "\n" if c == len(factors) - 1 else ","
            table[:, lead + 8 * c : lead + 8 * (c + 1)] = g9_words(values[start:stop], sep)
        fh.write(text.translate(None, b"\0"))
