"""Exact "%.17g" text of float64 arrays, vectorized.

`dense_lines` gives the bytes of f"{v:.17g}" for every value of a 2-D array,
comma-separated with one line per row, without a Python call per value: the
digits of every value in fixed notation come from exact float64 arithmetic,
and "%.17g" itself writes the rest. `sjlt.transform.write_dense_vectors`
imports it on its first call, so commands that write no vectors never load it.
"""

from __future__ import annotations

import numpy as np

# A value x = +-D * 10^(X - 16), with D its 17-digit significand, is written
# in fixed notation when -4 <= X <= 16. Its record is 40 little-endian bytes,
# NUL where no text goes: byte 0 the sign, bytes 1-5 the "0.000" of X < 0,
# byte 6 the first digit and bytes 8, 10, ..., 38 the other sixteen; the
# byte after digit j (7 + 2j) holds the dot where digit j ends the integer
# part, and byte 39 the separator. translate drops the NULs.
_RECORD = 40
# values per pass: 3072 records, and every other temporary, stay below
# glibc's 128 KiB mmap threshold, past which each pass would fault in fresh pages
_PASS_VALUES = 3072
_WORD = np.dtype("<u8")


def _split26(v):
    # Veltkamp: hi + lo == v exactly, each half on at most 26 significant bits
    t = v * 134217729.0  # 2^27 + 1
    hi = t - (t - v)
    return hi, v - hi


def _decade_tables():
    # decade index i: X = i - 5 for 1 <= i <= 21, 0 below 1e-4, 22 from 1e17
    edges = np.array([float(f"1e{e}") for e in range(-4, 18)])
    # binade b, [2^(b-1023), 2^(b-1022)), holds at most one decade edge: its
    # values lie in the decade of its bottom, or the next one from that edge on
    lowest = np.searchsorted(edges, np.ldexp(1.0, np.arange(2047) - 1023), side="right")
    decade = np.append(lowest, 22)  # inf and nan
    edge = np.append(edges, np.nan)[decade]
    # zero and the subnormals take X = 0, so that 0 has D = 0 and the text "0"
    decade[0], edge[0] = 5, np.nan
    # 10^q, q = 16 - X <= 20, is exact (5^20 < 2^53); nan outside fixed notation
    scale = np.full(23, np.nan)
    scale[1:22] = [float(10 ** q) for q in range(20, -1, -1)]
    return (decade, edge, scale) + _split26(scale)


def _text_tables():
    # a 4-digit group's ASCII at every other byte of a word
    text = np.zeros((10000, 8), np.uint8)
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    for place, power in enumerate((1000, 100, 10, 1)):
        text[:, 2 * place] = np.tile(np.repeat(ascii_digits, power), 1000 // power)
    # word 0 of a record by first digit + 10 * sign bit
    first = np.zeros((20, 8), np.uint8)
    first[:, 0] = np.repeat([0, ord("-")], 10)
    first[:, 6] = np.tile(np.arange(48, 58), 2)
    # digits through group j's last nonzero one (groups follow the first digit), 0 if none
    last = np.full(10000, 5, np.int8)
    trailing = np.ones(10000, bool)
    for place in (6, 4, 2):
        trailing &= text[:, place] == 48
        last -= trailing
    through = last + 4 * np.arange(4, dtype=np.int8)[:, None]
    through[:, 0] = 0
    # records with n digits kept: n = 1..17 keeps bytes 0 .. 4 + 2n
    places = np.arange(_RECORD)
    keep_mask = np.where(places <= 4 + 2 * np.arange(18)[:, None], 255, 0).astype(np.uint8)
    # what decade i with n kept digits adds: "0.0..." below 1, the dot where
    # a digit follows the integer part, and the separator ','
    frame = np.zeros((23, 18, _RECORD), np.uint8)
    frame[:, :, -1] = ord(",")
    for x in range(-4, 17):
        if x < 0:
            frame[x + 5, :, 1:2 - x] = np.frombuffer(b"0.000"[:1 - x], np.uint8)
        else:
            frame[x + 5, x + 2:, 7 + 2 * x] = ord(".")
    return (text.view(_WORD).reshape(-1), first.view(_WORD).reshape(-1),
            through, keep_mask.view(_WORD),
            frame.reshape(-1, _RECORD).view(_WORD))


_DECADE, _DECADE_EDGE, _SCALE, _SCALE_HI, _SCALE_LO = _decade_tables()
_GROUP_TEXT, _FIRST_TEXT, _THROUGH, _KEEP, _FRAME = _text_tables()
_NEWLINE = np.uint64((ord(",") ^ ord("\n")) << 56)  # turns byte 39's ',' into '\n'


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, d, fast) for the absolute values a: the decade index i (X = i - 5),
    the 17-digit significand d as int64, and where both are exact.

    With q = 21 - i, the Dekker product of the two Veltkamp-split factors
    gives p + err == a * 10^q exactly: no product here comes near overflow or
    the subnormals. Where p lies in [10^16 + 32, 10^17 - 32), p is an even
    integer (p >= 2^53) and |err| <= ulp(p) / 2 <= 8, so a * 10^q lies in
    (10^16, 10^17 - 24): X = 16 - q is a's decade, whatever the binade table
    said, and d = p + rint(err) is a * 10^q rounded half to even, as "%.17g"
    rounds, since p is even. Zero has p = 0 and d = 0. Everywhere else `fast`
    is False: outside fixed notation, and where the table put the decade off
    by one (p near 10^16 or 10^17).
    """
    binade = a.view(np.int64) >> 52
    i = _DECADE.take(binade)
    i += a >= _DECADE_EDGE.take(binade)
    ah, al = _split26(a)
    p = a * _SCALE.take(i)
    bh, bl = _SCALE_HI.take(i), _SCALE_LO.take(i)
    err = ah * bh - p
    ah *= bl
    err += ah
    np.multiply(al, bh, out=ah)
    err += ah
    al *= bl
    err += al
    fast = (p >= 1e16 + 32) & (p < 1e17 - 32)
    fast |= p == 0
    d = p.astype(np.int64)
    d += np.rint(err).astype(np.int64)
    return i, d, fast


@np.errstate(over="ignore", invalid="ignore")  # inf and nan pass through the arithmetic
def _format_pass(x: np.ndarray, first_end: int, k: int) -> bytearray:
    """The "%.17g" text of the float64 values x, each followed by ',' or, at
    x[first_end::k], by '\\n'. Values that _significands leaves inexact are
    written by "%.17g" itself, one at a time."""
    i, d, fast = _significands(np.abs(x))
    # d = first * 10^16 + four 4-digit groups
    high = d // 10 ** 8
    low = d - high * 10 ** 8
    head = high // 10 ** 4
    first = head // 10 ** 4
    tail = low // 10 ** 4
    groups = (head - first * 10 ** 4, high - head * 10 ** 4, tail, low - tail * 10 ** 4)
    record = bytearray(_RECORD * x.size)
    words = np.frombuffer(record, _WORD).reshape(x.size, 5)
    first += np.signbit(x) * 10
    _FIRST_TEXT.take(first, out=words[:, 0], mode="clip")
    kept = np.maximum(i, 5) - 4  # the integer part's digits, at least one
    for j, group in enumerate(groups):
        _GROUP_TEXT.take(group, out=words[:, j + 1], mode="clip")
        np.maximum(kept, _THROUGH[j].take(group, mode="clip"), out=kept)
    table = _KEEP.take(kept, axis=0, mode="clip")
    words &= table
    i *= 18
    i += kept
    # the frame takes the mask's buffer: one (n, 5) temporary, not two
    words |= _FRAME.take(i, axis=0, mode="clip", out=table)
    words[first_end::k, 4] ^= _NEWLINE
    slow = np.flatnonzero(~fast)
    for j, v in zip(slow.tolist(), x[slow].tolist()):
        record[_RECORD * j:_RECORD * (j + 1) - 1] = (
            ("%.17g" % v).encode("ascii").ljust(_RECORD - 1, b"\0"))
    return record.translate(None, b"\0")


def dense_lines(rows: np.ndarray):
    """The "%.17g" lines of a 2-D float64 array's rows, as ASCII pieces of at
    most _PASS_VALUES values: the bytes of format_dense_vector's lines."""
    k = rows.shape[1]
    if k == 0:
        yield b"\n" * len(rows)
        return
    flat = rows.reshape(-1)
    for start in range(0, flat.size, _PASS_VALUES):
        yield _format_pass(flat[start:start + _PASS_VALUES], (k - 1 - start) % k, k)
