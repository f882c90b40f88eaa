"""k-wise independent bucket and sign generators from polynomials over a prime field.

A generator with r coefficients is a uniformly seeded polynomial of degree
r - 1; its evaluations at any r distinct points are jointly uniform over the
field, which is the only randomness property the projection analysis needs.
Field values are folded onto the output range by plain modulo, so every
consumer inherits a per-value reduction bias below range/modulus.

A KWiseGenerator holds one or more generators of one degree and range as
the rows of a read-only uint64 coefficient matrix; generator_block expands a
whole array of seeds into one in a single numpy pass of the splitmix64
mixer, and new_generator is its one-seed case. The batch evaluators split the
flat points into one equal segment per row, so a block of independently
seeded trials costs the numpy calls of one. A generator's rows need not
share a role: at range lcm(k, 2) a value v mod lcm(k, 2) fixes both the
bucket v mod k and the sign bit v mod 2, so one call can hash a block's
buckets and signs together. The scalar eval_bucket/eval_sign take one row,
in Python integers, and are the reference. On the Mersenne field 2^61 - 1
the batch evaluators are exact and give the scalar path's values bit for
bit, by two routes:

- Horner in blocks of HORNER_BLOCK points, each step adding a coefficient
  column, in one of two forms that one max over the block picks. Points all
  below 2^31 take an unreduced 10-call step: any 64-bit accumulator times
  such a point, split at bit 32 and folded via 2^61 = 1 (mod p), plus a
  coefficient stays below 2^64, and one fold at the end leaves it below
  2^61 + 7. Any other block takes a 21-call step that folds after every
  product, which keeps the accumulator below 2^61 + 8. One min(acc, acc - p)
  at the end makes it canonical.
- Forward differences along runs of L consecutive points: a difference
  table D[j] = Delta^j f(x0) at each run's start x0 steps along the run at
  r - 1 modular additions per point. The stepping needs no coefficients, so
  the runs of every row share one table. It slides down one window array,
  one row per step, in three numpy calls and no copy; the values it leaves
  behind are the run's. The table is seeded in one of two ways. Calls with
  many runs per row, such as the one-row chunks of `sjlt transform`, take
  the difference polynomials Delta^j f, computed in Python integers once per
  generator, which keeps them: one triangular Horner pass at x0 gives every
  row, r (r - 1) / 2 products per run. Calls with few runs per row, such as
  trial blocks with fresh coefficients in every row, take Horner values at
  a run's first r points and difference them, r (r - 1) products per run.
  L comes from the points: the gcd of their maximal consecutive runs, cut at
  segment ends, such as c for the replicas i*c .. i*c + c - 1 of scattered
  coordinates, or, when every segment is one consecutive range, any divisor
  of the segment length. One cost rule, `_difference_gain` with
  `_seed_products`, picks L or Horner and the seed.

A batch call allocates its arrays, or, given a `work` array of at least
`work_size` uint64 words, takes every one of them from it: the output first,
then, in turn over the same words, the scan's run ends, the kernel's tables,
window and scratch, and the fold quotient. The arithmetic is the same either
way. The values such a call returns are a view of `work`, valid until its
next use, so the caller owns the work array and shares it with no other
thread; a caller that hashes block after block, such as a trial loop, maps
no fresh pages for any block after the first.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator

import numpy as np

MERSENNE61 = (1 << 61) - 1

_MASK64 = (1 << 64) - 1

# splitmix64's state increment and mixer multipliers
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Deterministic Miller-Rabin witness set, exact for every n below 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality check for the moduli used by generators."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """Prime modulus; every evaluation point must lie in [0, modulus)."""

    modulus: int

    def __post_init__(self) -> None:
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")


# Mersenne prime with fast branch-free reduction; the transform refuses d * c
# above 2^61 - 1, so every flat replica index is a distinct field element.
DEFAULT_FIELD = PrimeField(MERSENNE61)


def splitmix64_stream(seed: int) -> Iterator[int]:
    """Counter-based 64-bit stream used to expand seeds into coefficients.

    Output n is splitmix64's mixer applied to seed + (n + 1) * 0x9E3779B97F4A7C15
    (mod 2^64). Fixed here so that seed -> coefficients stays stable across
    runs and implementations.
    """
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


@dataclass(frozen=True, eq=False)
class KWiseGenerator:
    """Immutable polynomial hashes of one field, degree and range, one per row
    of a read-only (rows, degree) uint64 coefficient matrix; a flat
    coefficient sequence is one generator. Evaluation only reads the
    generator, so threads may share it, each with its own work array, if
    any. Generators compare by identity; compare their coefficients instead.
    Forward-difference runs seeded by the difference polynomials build them
    once per generator, as `differences`."""

    field: PrimeField
    coefficients: np.ndarray
    range_size: int

    def __post_init__(self) -> None:
        if self.field.modulus > _MASK64:
            raise ValueError("generators support moduli below 2^64")
        values = np.asarray(self.coefficients)
        if values.ndim == 1:
            values = values[None]
        if values.dtype.kind not in "iu" or values.ndim != 2 or 0 in values.shape:
            raise ValueError("coefficients must be a non-empty (rows, degree) integer array")
        if not 1 <= self.range_size <= self.field.modulus:
            raise ValueError("range must satisfy 1 <= range <= modulus")
        if values.min() < 0 or int(values.max()) >= self.field.modulus:
            raise ValueError("coefficients must be field residues")
        values = values.astype(np.uint64)
        values.flags.writeable = False
        object.__setattr__(self, "coefficients", values)

    @property
    def degree(self) -> int:
        return self.coefficients.shape[1]

    def __len__(self) -> int:
        return len(self.coefficients)

    def row(self, j: int) -> KWiseGenerator:
        """The one-row generator of row j."""
        return KWiseGenerator(self.field, self.coefficients[j], self.range_size)

    @cached_property
    def differences(self) -> np.ndarray:
        """Read-only `_difference_coefficients` of the rows, built on first use."""
        table = _difference_coefficients(self.coefficients)
        table.flags.writeable = False
        return table


def _stream_coefficients(seed: int, degree: int, p: int) -> list[int]:
    # the expansion's definition: truncated stream outputs, rejecting those >= p
    mask = (1 << p.bit_length()) - 1
    candidates = (value & mask for value in splitmix64_stream(seed))
    return list(islice((c for c in candidates if c < p), degree))


def generator_block(seeds, degree: int, range_size: int,
                    field: PrimeField = DEFAULT_FIELD) -> KWiseGenerator:
    """Expand each 64-bit seed into one row of generator coefficients.

    Coefficient j consumes splitmix64 outputs until one, truncated to
    modulus.bit_length() bits, lands in [0, modulus); that value becomes the
    coefficient of x^j. Seeds are integers taken mod 2^64. One uint64 pass
    mixes stream outputs 1 .. degree of every seed at once; a row with a
    rejected candidate, which on the Mersenne field has probability about
    degree * 2^-61, is refilled from splitmix64_stream.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    p = field.modulus
    if p > _MASK64:
        raise ValueError("generators support moduli below 2^64")
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        seeds = seeds.astype(np.uint64).reshape(-1)
    else:
        seeds = np.array([operator.index(s) & _MASK64 for s in seeds], dtype=np.uint64)
    # output n of a seed's stream mixes seed + n * gamma (mod 2^64)
    z = seeds[:, None] + np.arange(1, degree + 1, dtype=np.uint64) * _GAMMA
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    z &= (1 << p.bit_length()) - 1
    rejected = z >= p
    if rejected.any():
        for j in np.flatnonzero(rejected.any(axis=1)):
            z[j] = _stream_coefficients(int(seeds[j]), degree, p)
    return KWiseGenerator(field=field, coefficients=z, range_size=range_size)


def new_generator(seed: int, degree: int, range_size: int,
                  field: PrimeField = DEFAULT_FIELD) -> KWiseGenerator:
    """Expand a 64-bit seed into a fresh one-row generator: generator_block of one seed.

    Identical (seed, degree, range) always produce identical coefficients.
    """
    return generator_block((seed,), degree, range_size, field)


def eval_bucket(gen: KWiseGenerator, index: int) -> int:
    """Evaluate a one-row generator's polynomial at `index`, reduced onto [0, range).

    The reference path: Python integers, which uint64 arithmetic would wrap.
    """
    rows = gen.coefficients.tolist()
    if len(rows) != 1:
        raise ValueError(f"scalar evaluation needs one generator, not {len(rows)} rows")
    p = gen.field.modulus
    if not 0 <= index < p:
        raise ValueError(f"index {index} outside [0, {p})")
    acc = 0
    for c in reversed(rows[0]):
        acc = (acc * index + c) % p
    return acc % gen.range_size


def eval_sign(gen: KWiseGenerator, index: int) -> int:
    """Map a range-2 bucket value to a sign: 0 -> +1, 1 -> -1."""
    if gen.range_size != 2:
        raise ValueError("sign evaluation needs range 2")
    return 1 if eval_bucket(gen, index) == 0 else -1


def reduction_bias_bound(field: PrimeField, range_size: int) -> float:
    """Upper bound on how far any output probability sits from 1/range."""
    return range_size / field.modulus


_U61 = np.uint64(61)
_U32 = np.uint64(32)
_U29 = np.uint64(29)
_U3 = np.uint64(3)
_P61 = np.uint64(MERSENNE61)
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW29 = np.uint64((1 << 29) - 1)
# points below this take `_mul_add_unreduced`
_NARROW = 1 << 31

# Points per cache block: a block's points, results and seven scratch
# buffers (nine 16K-lane uint64 arrays, 1.1 MB) stay in cache across all of
# its Horner steps.
HORNER_BLOCK = 1 << 14


def _mulmod_add(acc, b1, b0, coefficient, a1, a0, mid, lo, s) -> None:
    # acc = acc * x + coefficient, lazily reduced mod 2^61 - 1, in place, for
    # any x = b1 * 2^32 + b0 < p. acc < 2^61 + 8 before and after, so
    # acc >> 32 <= 2^29. The 122-bit product folds via 2^61 = 1 (mod p), and
    # the coefficient is added before one fold:
    # s = 8*a1*b1 + (mid >> 29) + ((mid & (2^29-1)) << 32) + (lo & p)
    #     + (lo >> 61) + coefficient < 4 * 2^61 + 2^33 + 8 < 2^64,
    # so (s & p) + (s >> 61) <= 2^61 + 3. 21 numpy calls. a1 .. s are
    # scratch of acc's shape; b1, b0 and the coefficient broadcast against it.
    np.right_shift(acc, _U32, out=a1)
    np.bitwise_and(acc, _LOW32, out=a0)
    np.multiply(a1, b0, out=mid)
    np.multiply(a0, b1, out=s)
    np.add(mid, s, out=mid)
    np.multiply(a0, b0, out=lo)
    np.right_shift(mid, _U29, out=s)
    np.multiply(a1, b1, out=a0)
    np.left_shift(a0, _U3, out=a0)
    np.add(s, a0, out=s)
    np.bitwise_and(mid, _LOW29, out=a1)
    np.left_shift(a1, _U32, out=a1)
    np.add(s, a1, out=s)
    np.bitwise_and(lo, _P61, out=a1)
    np.add(s, a1, out=s)
    np.right_shift(lo, _U61, out=a1)
    np.add(s, a1, out=s)
    np.add(s, coefficient, out=s)
    np.bitwise_and(s, _P61, out=a1)
    np.right_shift(s, _U61, out=s)
    np.add(a1, s, out=acc)


def _mul_add_unreduced(acc, x, coefficient, mid, high) -> None:
    # acc = acc * x + coefficient mod 2^61 - 1, in place and unreduced, for
    # x < 2^31 and any 64-bit acc. With mid = (acc >> 32) * x and
    # lo = (acc & (2^32 - 1)) * x, both below 2^63, acc * x = mid * 2^32 + lo
    # and 2^61 = 1 (mod p) give
    # (mid >> 29) + ((mid & (2^29-1)) << 32) + lo + coefficient
    #     < 2^34 + 2^61 + 2^63 + 2^61 < 2^64,
    # so no step folds; `_fold61` makes the last one congruent and below
    # 2^61 + 7. 10 numpy calls. mid and high are scratch of acc's shape; x
    # and the coefficient broadcast against it.
    np.right_shift(acc, _U32, out=mid)
    np.multiply(mid, x, out=mid)
    np.bitwise_and(acc, _LOW32, out=acc)
    np.multiply(acc, x, out=acc)
    np.add(acc, coefficient, out=acc)
    np.right_shift(mid, _U29, out=high)
    np.add(acc, high, out=acc)
    np.bitwise_and(mid, _LOW29, out=mid)
    np.left_shift(mid, _U32, out=mid)
    np.add(acc, mid, out=acc)


def _fold61(acc, scratch) -> None:
    # acc = (acc & p) + (acc >> 61) in place: congruent mod p, and at most
    # 2^61 - 1 + 7 = 2^61 + 6 for any 64-bit acc
    np.bitwise_and(acc, _P61, out=scratch)
    np.right_shift(acc, _U61, out=acc)
    np.add(acc, scratch, out=acc)


def _take(work: np.ndarray | None, shape: tuple[int, ...], offset: int = 0) -> np.ndarray:
    # a fresh uint64 array of `shape`, or the view of `work` that starts
    # `offset` words in
    if work is None:
        return np.empty(shape, dtype=np.uint64)
    return work[offset:offset + math.prod(shape)].reshape(shape)


def _rest(work: np.ndarray | None, offset: int) -> np.ndarray | None:
    # the words of `work` from `offset` on, for a callee's arrays
    return None if work is None else work[offset:]


def _horner61(coefficients: np.ndarray, idx: np.ndarray,
              work: np.ndarray | None = None) -> np.ndarray:
    # Mersenne-61 Horner, block by block, one generator per row of the
    # (rows, r) uint64 `coefficients`; row j evaluates the j-th of `rows`
    # equal consecutive segments of `idx`. A block whose points all lie
    # below 2^31 (one max decides) steps by `_mul_add_unreduced` and folds
    # once; any other block splits its points into 32-bit halves and steps
    # by `_mulmod_add`. Either way acc < 2p at the end, and
    # min(acc, acc - p) (acc - p wraps when acc < p) makes it canonical.
    # `work` holds the output, then the seven scratch blocks.
    coefficients = np.asarray(coefficients, dtype=np.uint64)
    rows = len(coefficients)
    points = idx.reshape(rows, -1)
    out = _take(work, points.shape)
    width = max(1, HORNER_BLOCK // rows)
    shape = (rows, min(points.shape[1], width))
    scratch = [_take(work, shape, out.size + j * math.prod(shape)) for j in range(7)]
    # coefficients r - 2 .. 0 as (rows, 1) columns; one row takes numpy
    # scalars, which numpy adds faster than a broadcast (1, 1) column
    steps = coefficients.T[-2::-1, :, None] if rows > 1 else coefficients[0, -2::-1]
    for start in range(0, points.shape[1], width):
        x = points[:, start:start + width]
        acc = out[:, start:start + width]
        lanes = [buffer[:, :x.shape[1]] for buffer in scratch]
        acc[...] = coefficients[:, -1:]
        if x.max() < _NARROW:
            for coefficient in steps:
                _mul_add_unreduced(acc, x, coefficient, *lanes[:2])
            _fold61(acc, lanes[0])
        else:
            b1, b0, *wide = lanes
            np.right_shift(x, _U32, out=b1)
            np.bitwise_and(x, _LOW32, out=b0)
            for coefficient in steps:
                _mulmod_add(acc, b1, b0, coefficient, *wide)
        np.subtract(acc, _P61, out=lanes[0])
        np.minimum(acc, lanes[0], out=acc)
    return out.reshape(idx.shape)


def _point_table(coefficients: np.ndarray, x0: np.ndarray,
                 work: np.ndarray | None = None) -> np.ndarray:
    # The (r, rows * n) difference table D[j] = Delta^j f(x0) at the (rows, n)
    # run starts x0, columns row-major: Horner gives f(x0) .. f(x0 + r - 1),
    # and r - 1 passes difference them in place. r (r - 1) products per run.
    # `work` holds the table, then the points x0 + j and Horner's arrays,
    # whose words the two difference buffers take once the table is copied.
    # One add per j: a broadcast add of x0[:, :, None] and arange(r) costs
    # numpy two iterator buffers of up to 64 KB each.
    r = coefficients.shape[1]
    size = r * x0.size
    points = _take(work, x0.shape + (r,), size)
    for j in range(r):
        np.add(x0, np.uint64(j), out=points[:, :, j])
    seeds = _horner61(coefficients, points, _rest(work, 2 * size))
    del points  # fresh points are freed before the table is allocated
    table = _take(work, (r, x0.size))
    np.copyto(table, seeds.reshape(-1, r).T)
    t = _take(work, (r - 1, x0.size), size)
    u = _take(work, t.shape, size + t.size)
    for j in range(1, r):
        # rows j.. become differences of rows j-1..: a + p - b lies in (0, 2p)
        np.add(table[j:], _P61, out=t[j - 1:])
        np.subtract(t[j - 1:], table[j - 1:-1], out=t[j - 1:])
        np.subtract(t[j - 1:], _P61, out=u[j - 1:])
        np.minimum(t[j - 1:], u[j - 1:], out=table[j:])
    return table


def _difference_coefficients(coefficients: np.ndarray) -> np.ndarray:
    # Coefficient k of Delta^j f for each row's polynomial f, as the
    # [k, j, row, 0] entry of an (r, r, rows, 1) uint64 array, zero above
    # Delta^j f's degree r - 1 - j. Exact, in Python integers mod p:
    # Delta g(x) = g(x + 1) - g(x), and the Taylor shift g(x + 1) takes
    # additions only (h[k] += h[k + 1] for k = n - 2 .. i, for each i < n - 1).
    r = coefficients.shape[1]
    table = []
    for f in coefficients.tolist():
        g, polynomials = f, []
        for j in range(r):
            polynomials.append(g + [0] * j)
            h, n = g[:], len(g)
            for i in range(n - 1):
                for k in range(n - 2, i - 1, -1):
                    h[k] += h[k + 1]
            g = [(a - b) % MERSENNE61 for a, b in zip(h, g[:-1])]
        table.append(polynomials)
    return np.array(table, dtype=np.uint64).transpose(2, 1, 0)[..., None].copy()


def _difference_table(differences: np.ndarray, x0: np.ndarray,
                      work: np.ndarray | None = None) -> np.ndarray:
    # The table of `_point_table` from `_difference_coefficients`: one
    # triangular Horner pass over the (rows, n) run starts x0. Step i adds
    # coefficient r - 1 - i to rows 0 .. i - 1 and starts row i at Delta^i f's
    # leading coefficient, so row j takes r - 1 - j steps: r (r - 1) / 2
    # products per run, and no differencing pass. Starts all below 2^31 (one
    # max decides for the call) step by `_mul_add_unreduced` and fold once,
    # others by `_mulmod_add`. The steps multiply by a contiguous copy of
    # x0: `_runs61` passes a strided view of every run's first point, and
    # multiplying by that view at every step cost the narrow step its gain.
    # `work` holds the table, the two halves of x0 and five scratch tables.
    r = differences.shape[0]
    table = _take(work, (r,) + x0.shape)
    narrow = x0.max() < _NARROW
    halves = [_take(work, x0.shape, table.size + j * x0.size) for j in range(1 if narrow else 2)]
    scratch = [_take(work, table.shape, table.size + 2 * x0.size + j * table.size)
               for j in range(2 if narrow else 5)]
    if narrow:
        np.copyto(halves[0], x0)
    else:
        np.right_shift(x0, _U32, out=halves[0])
        np.bitwise_and(x0, _LOW32, out=halves[1])
    table[0] = differences[r - 1, 0]
    for i in range(1, r):
        coefficient = differences[r - 1 - i]
        lanes = [buffer[:i] for buffer in scratch]
        if narrow:
            _mul_add_unreduced(table[:i], *halves, coefficient[:i], *lanes)
        else:
            _mulmod_add(table[:i], *halves, coefficient[:i], *lanes)
        table[i] = coefficient[i]
    if narrow:
        _fold61(table, scratch[0])
    np.subtract(table, _P61, out=scratch[0])
    np.minimum(table, scratch[0], out=table)
    return table.reshape(r, -1)


def _runs61(gen: KWiseGenerator, idx: np.ndarray, run: int,
            work: np.ndarray | None = None) -> np.ndarray:
    # Forward differences along runs (Knuth, TAOCP vol. 2, 4.6.4), for the
    # generator's coefficients and the segments of `_horner61`. A run's table
    # D[j] = Delta^j f(x0) has a constant last row, and Delta^j f(x + 1) =
    # Delta^j f(x) + Delta^(j+1) f(x) steps it by one point in r - 1 additions
    # mod p, with no coefficients, so the runs of all rows share one table
    # (columns row-major (row, run)). It slides down a (run + r - 1)-row window
    # whose rows r.. hold the constant row from the start: step s adds rows
    # s - 1 .. s + r - 3 into rows s .. s + r - 2, which leaves f(x0 + s - 1)
    # in row s - 1, so the first run rows end as the run's values, with no
    # copy. Entries stay canonical: a sum t < 2p, and min(t, t - p) reduces
    # it. A chunk's table holds at most HORNER_BLOCK entries, or one run per
    # row; `_seed_products` picks its seed, `_point_table` or
    # `_difference_table` of the generator's `differences`. `work` holds the
    # output, then each chunk's table, then the window over the seed's
    # arrays, which are dead once the table is built, then the two step
    # buffers.
    coefficients = gen.coefficients
    rows, r = coefficients.shape
    starts = idx.reshape(rows, -1)[:, ::run]
    out = _take(work, (rows, starts.shape[1], run))
    chunk = _rest(work, out.size)
    per_chunk = max(1, HORNER_BLOCK // (r * rows))
    differenced = _seed_products(rows, starts.size, r)[1]
    for first in range(0, starts.shape[1], per_chunk):
        x0 = starts[:, first:first + per_chunk]
        table = (_difference_table(gen.differences, x0, chunk) if differenced
                 else _point_table(coefficients, x0, chunk))
        window = _take(chunk, (run + r - 1, table.shape[1]), table.size)
        window[:r] = table
        window[r:] = table[-1]
        t = _take(chunk, (r - 1, table.shape[1]), table.size + window.size)
        u = _take(chunk, t.shape, table.size + window.size + t.size)
        for s in range(1, run):
            np.add(window[s - 1:s + r - 2], window[s:s + r - 1], out=t)
            np.subtract(t, _P61, out=u)
            np.minimum(t, u, out=window[s:s + r - 1])
        out[:, first:first + x0.shape[1]] = window[:run].T.reshape(rows, x0.shape[1], run)
    return out.reshape(-1)


def _seed_products(rows: int, runs: int, degree: int) -> tuple[int, bool]:
    # Products that seed `runs` runs over `rows` rows, and whether the
    # difference polynomials seed them. r Horner values cost r (r - 1) per
    # run; the difference seed r (r - 1) / 2 per run, after a table of exact
    # Python integers that costs about 64 r (r - 1) per row. Timed on the
    # kernel, the two seeds break even at 64-128 runs per row at degrees
    # 6-28 and 1-32 rows, so trial blocks (8-32 runs per row) keep r values.
    # The table is charged to every call, as it was timed, though a
    # generator builds it once. Both seeds were timed when every Horner
    # product below 2^32 took a 16-call step; points below 2^31 now take a
    # 10-call one, and the rule is kept as timed.
    point = runs * degree * (degree - 1)
    difference = (runs // 2 + 64 * rows) * degree * (degree - 1)
    return min(point, difference), difference < point


def _difference_gain(points: int, length: int, degree: int, rows: int) -> int:
    # Horner products that forward differences over runs of `length` save,
    # less the cost of their seeds and steps, on `rows` equal segments.
    # Horner takes degree - 1 products per point. Timed on the kernel, the
    # seeds cost `_seed_products` plus about 20 numpy calls per coefficient
    # and table chunk, 2560 (degree - 1) products, and one step of the table
    # costs about 384 products in numpy calls plus a sixth of a product per
    # table entry. For runs of 115 at degree 14 the gain turns positive at
    # 73 runs (measured break-even 64-96 runs), for runs of 531 at degree 28
    # at 25 (measured 19-24). The step was timed when it took four numpy
    # calls, a row copy besides the add, subtract and minimum that `_runs61`
    # now makes, and every Horner product below 2^32 took a 16-call step,
    # where points below 2^31 now take a 10-call one; the rule is kept as
    # timed.
    runs = points // length
    chunks = -(-runs // rows // max(1, HORNER_BLOCK // (degree * rows)))
    saved = (degree - 1) * points - _seed_products(rows, runs, degree)[0]
    return (saved - (degree - 1) * points // 6 - 384 * length
            - 2560 * (degree - 1) * chunks)


def _divisors(n: int) -> list[int]:
    small = [q for q in range(1, math.isqrt(n) + 1) if n % q == 0]
    return small + [n // q for q in reversed(small) if q * q != n]


def _run_length(idx: np.ndarray, rows: int, degree: int,
                work: np.ndarray | None = None) -> int:
    # Forward differences' run length for these points, or 0 for Horner. The
    # maximal runs of consecutive points, cut at segment ends, are tiled by
    # runs of their gcd, the unit. When every segment is one consecutive
    # range, any divisor of its length serves too, and the gain picks the
    # best of them: near sqrt(s n / 384) for n points and s seed products
    # per run. `work` holds the n - 1 gaps between points in its first words
    # and the n end flags, as bytes, from word n on.
    if not idx.size:
        return 0
    flat = idx.reshape(-1)
    segment = flat.size // rows
    gaps = np.subtract(flat[1:], flat[:-1], out=_take(work, (flat.size - 1,)))
    ends = (np.empty(flat.size, dtype=bool) if work is None
            else work[flat.size:].view(np.bool_)[:flat.size])
    np.not_equal(gaps, 1, out=ends[:-1])
    # the last point ends the last segment
    ends[segment - 1::segment] = True
    stops = np.flatnonzero(ends) + 1
    lengths = (_divisors(segment) if stops.size == rows
               else [int(np.gcd.reduce(np.diff(stops, prepend=0)))])
    best = max(lengths, key=lambda length: _difference_gain(flat.size, length, degree, rows))
    return best if _difference_gain(flat.size, best, degree, rows) > 0 else 0


def _work_words(rows: int, size: int, degree: int, length: int) -> int:
    # uint64 words of `work` for `size` points on `rows` rows at `degree`,
    # stepped in runs of `length` (0: Horner): the output, then the largest
    # of the arrays that take the words after it in turn, which are the
    # scan's end flags, the kernel's own and the fold quotient. A chunk of
    # runs holds its table, then the larger of its seed's arrays and the
    # window with its two step buffers.
    r, width, horner = degree, size // rows, max(1, HORNER_BLOCK // rows)
    if length:
        per_row = min(width // length, max(1, HORNER_BLOCK // (r * rows)))
        cols = rows * per_row
        if _seed_products(rows, size // length, r)[1]:
            seed = (5 * r + 2) * cols
        else:
            seed = 2 * r * cols + 7 * rows * min(per_row * r, horner)
        kernel = r * cols + max(seed, (length + 3 * r - 3) * cols)
    else:
        kernel = 7 * rows * min(width, horner)
    return size + max(-(-size // 8), kernel, size)


def work_size(rows: int, degree: int, points) -> int:
    """uint64 words of `work` that eval_bucket_batch needs to evaluate these
    points with a generator of `rows` rows and `degree` coefficients.

    The points are scanned once for their runs of consecutive points, as the
    call scans them, because the run length it picks sets the layout.
    """
    idx = np.ascontiguousarray(points, dtype=np.uint64)
    return _work_words(rows, idx.size, degree, _run_length(idx, rows, degree))


def eval_bucket_batch(gen: KWiseGenerator, points, *,
                      work: np.ndarray | None = None) -> np.ndarray:
    """Vectorized eval_bucket; bit-identical to the scalar path.

    `points` is an integer array of field elements. Given a generator of n
    rows, the flat `points` split into n equal consecutive segments and row
    j evaluates segment j; a one-row generator takes points of any shape.
    Runs of consecutive points are found in the points and stepped by forward
    differences where that pays. The caller's points are only read; the
    kernel's output is folded onto the range in place.

    Without `work` the kernel allocates its arrays and returns a fresh one.
    With `work`, a writable contiguous 1-D uint64 array of at least
    `work_size(len(gen), gen.degree, points)` words that shares no memory
    with the points, every array of the Mersenne-field kernel is a view of
    it, at offsets set by the call's shape, and so are the returned values:
    they are valid until the next call with the same `work`. The caller owns
    `work` and shares it with no other thread. The arithmetic is the same
    either way, and so are the values.
    """
    rows = len(gen)
    idx = np.asarray(points)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"points must have an integer dtype, not {idx.dtype}")
    idx = np.ascontiguousarray(idx, dtype=np.uint64)
    if idx.size and int(idx.max()) >= gen.field.modulus:
        raise ValueError("index outside the field")
    if rows > 1 and (idx.ndim != 1 or idx.size % rows):
        raise ValueError(f"points do not split into {rows} equal segments")
    if work is not None and (work.dtype != np.uint64 or work.ndim != 1
                             or not work.flags.c_contiguous or not work.flags.writeable
                             or np.may_share_memory(work, idx)):
        raise ValueError("work must be a writable contiguous 1-D uint64 array "
                         "that shares no memory with the points")
    if gen.field.modulus != MERSENNE61:
        return np.array([eval_bucket(row, int(i))
                         for row, segment in zip(map(gen.row, range(rows)), idx.reshape(rows, -1))
                         for i in segment], dtype=np.int64).reshape(idx.shape)
    # every layout holds at least twice the points, all that the scan takes
    if work is not None and work.size < 2 * idx.size:
        raise ValueError(f"work holds {work.size} words, and the call needs at least "
                         f"{2 * idx.size}")
    length = _run_length(idx, rows, gen.degree, work)
    if work is not None and work.size < (need := _work_words(rows, idx.size, gen.degree, length)):
        raise ValueError(f"work holds {work.size} words, and the call needs {need}")
    values = (_runs61(gen, idx, length, work).reshape(idx.shape) if length
              else _horner61(gen.coefficients, idx, work))
    # the kernel's output folds in place: a power-of-two range by a mask,
    # any other by v - (v // range) * range, as numpy divides by a scalar
    # without a hardware division per element, unlike v % range; the result
    # is below range < 2^61. The quotient takes the words after the output.
    range_size = np.uint64(gen.range_size)
    if gen.range_size & (gen.range_size - 1) == 0:
        np.bitwise_and(values, range_size - np.uint64(1), out=values)
    else:
        quotient = np.floor_divide(values, range_size, out=_take(work, values.shape, values.size))
        np.multiply(quotient, range_size, out=quotient)
        np.subtract(values, quotient, out=values)
    return values.view(np.int64)


def eval_sign_batch(gen: KWiseGenerator, points, *,
                    work: np.ndarray | None = None) -> np.ndarray:
    """Vectorized eval_sign; `gen`, `points` and `work` as for eval_bucket_batch."""
    if gen.range_size != 2:
        raise ValueError("sign evaluation needs range 2")
    # bits b of the kernel's output become 1 - 2b in place
    signs = eval_bucket_batch(gen, points, work=work)
    np.left_shift(signs, 1, out=signs)
    return np.subtract(1, signs, out=signs)
