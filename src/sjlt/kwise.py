"""k-wise independent bucket and sign generators from polynomials over a prime field.

A generator with r coefficients is a uniformly seeded polynomial of degree
r - 1; its evaluations at any r distinct points are jointly uniform over the
field, which is the only randomness property the projection analysis needs.
Field values are folded onto the output range by plain modulo, so every
consumer inherits a per-value reduction bias below range/modulus.

A GeneratorBlock holds many generators of one degree and range as the rows
of a uint64 coefficient matrix; generator_block expands a whole array of
seeds into one in a single numpy pass of the splitmix64 mixer, and
new_generator is its one-row case. The batch evaluators take one generator
or a block, whose row j evaluates the j-th equal segment of the flat points,
so a block of independently seeded trials costs the numpy calls of one. On
the Mersenne field 2^61 - 1 they are exact and give the scalar path's values
bit for bit, by two routes:

- Horner in blocks of HORNER_BLOCK points with lazy reduction: each step
  adds a coefficient column; between steps the accumulator is congruent to
  the partial value and below 2^61 + 8, and one min(acc, acc - p) at the end
  makes it canonical.
- Forward differences along runs of L consecutive points: the Horner values
  at a run's first r points seed a difference table, which then steps along
  the run at r - 1 modular additions per point. The stepping needs no
  coefficients, so the runs of every row share one table. L comes from the
  points: the gcd of their maximal consecutive runs, cut at segment ends,
  such as c for the replicas i*c .. i*c + c - 1 of scattered coordinates,
  or, when every segment is one consecutive range, any divisor of the
  segment length. One cost rule, `_difference_gain`, picks L or Horner.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
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


@dataclass(frozen=True)
class KWiseGenerator:
    """Immutable polynomial hash; evaluation is pure and thread-safe."""

    field: PrimeField
    coefficients: tuple[int, ...]
    range_size: int

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("degree must be at least 1")
        if not 1 <= self.range_size <= self.field.modulus:
            raise ValueError("range must satisfy 1 <= range <= modulus")
        if any(not 0 <= c < self.field.modulus for c in self.coefficients):
            raise ValueError("coefficients must be field residues")

    @property
    def degree(self) -> int:
        return len(self.coefficients)


def _stream_coefficients(seed: int, degree: int, p: int) -> list[int]:
    # the expansion's definition: truncated stream outputs, rejecting those >= p
    mask = (1 << p.bit_length()) - 1
    candidates = (value & mask for value in splitmix64_stream(seed))
    return list(islice((c for c in candidates if c < p), degree))


@dataclass(frozen=True, eq=False)
class GeneratorBlock:
    """Generators of one field, degree and range, one per row of a read-only
    (rows, degree) uint64 coefficient matrix; row j is the generator whose
    coefficients are coefficients[j]."""

    field: PrimeField
    coefficients: np.ndarray
    range_size: int

    def __post_init__(self) -> None:
        values = np.asarray(self.coefficients)
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
        return KWiseGenerator(field=self.field, coefficients=tuple(self.coefficients[j].tolist()),
                              range_size=self.range_size)


def generator_block(seeds, degree: int, range_size: int,
                    field: PrimeField = DEFAULT_FIELD) -> GeneratorBlock:
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
    if p.bit_length() > 64:
        raise ValueError("seed expansion supports moduli below 2^64")
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
    return GeneratorBlock(field=field, coefficients=z, range_size=range_size)


def new_generator(seed: int, degree: int, range_size: int,
                  field: PrimeField = DEFAULT_FIELD) -> KWiseGenerator:
    """Expand a 64-bit seed into a fresh generator: the one-row generator_block.

    Identical (seed, degree, range) always produce an identical generator.
    """
    return generator_block((seed,), degree, range_size, field).row(0)


def eval_bucket(gen: KWiseGenerator, index: int) -> int:
    """Evaluate the polynomial at `index`, reduced onto [0, range)."""
    p = gen.field.modulus
    if not 0 <= index < p:
        raise ValueError(f"index {index} outside [0, {p})")
    acc = 0
    for c in reversed(gen.coefficients):
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

# Points per cache block: a block's points, results and seven scratch
# buffers (nine 16K-lane uint64 arrays, 1.1 MB) stay in cache across all of
# its Horner steps.
HORNER_BLOCK = 1 << 14


def _horner61(coefficients: np.ndarray, idx: np.ndarray) -> np.ndarray:
    # Lazy Mersenne-61 Horner, block by block, one generator per row of the
    # (rows, r) uint64 `coefficients`; row j evaluates the j-th of `rows`
    # equal consecutive segments of `idx`. Between steps acc may exceed p
    # but stays below 2^61 + 8, so acc >> 32 <= 2^29. One step splits acc and
    # idx < p into 32-bit halves, folds the 122-bit product via 2^61 = 1
    # (mod p) and adds the coefficient column before a single fold:
    # s = 8*a1*b1 + (mid >> 29) + ((mid & (2^29-1)) << 32) + (lo & p)
    #     + (lo >> 61) + coefficient < 4 * 2^61 + 2^33 + 8 < 2^64,
    # so (s & p) + (s >> 61) <= 2^61 + 3. acc < 2p at the end, and
    # min(acc, acc - p) (acc - p wraps when acc < p) makes it canonical.
    coefficients = np.asarray(coefficients, dtype=np.uint64)
    rows = len(coefficients)
    points = idx.reshape(rows, -1)
    out = np.empty(points.shape, dtype=np.uint64)
    width = max(1, HORNER_BLOCK // rows)
    scratch = [np.empty((rows, min(points.shape[1], width)), dtype=np.uint64)
               for _ in range(7)]
    # coefficients r - 2 .. 0 as (rows, 1) columns; one row takes numpy
    # scalars, which numpy adds faster than a broadcast (1, 1) column
    steps = coefficients.T[-2::-1, :, None] if rows > 1 else coefficients[0, -2::-1]
    for start in range(0, points.shape[1], width):
        x = points[:, start:start + width]
        acc = out[:, start:start + width]
        b1, b0, a1, a0, mid, lo, s = (buffer[:, :x.shape[1]] for buffer in scratch)
        acc[...] = coefficients[:, -1:]
        np.right_shift(x, _U32, out=b1)
        np.bitwise_and(x, _LOW32, out=b0)
        for coefficient in steps:
            np.right_shift(acc, _U32, out=a1)
            np.bitwise_and(acc, _LOW32, out=a0)
            np.multiply(a1, b0, out=mid)
            np.multiply(a0, b1, out=s)
            np.add(mid, s, out=mid)
            np.multiply(a0, b0, out=lo)
            np.multiply(a1, b1, out=s)
            np.left_shift(s, _U3, out=s)
            np.right_shift(mid, _U29, out=a1)
            np.add(s, a1, out=s)
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
        np.subtract(acc, _P61, out=a1)
        np.minimum(acc, a1, out=acc)
    return out.reshape(idx.shape)


def _runs61(coefficients: np.ndarray, idx: np.ndarray, run: int) -> np.ndarray:
    # Forward differences along runs (Knuth, TAOCP vol. 2, 4.6.4), for the
    # (rows, r) `coefficients` and segments of `_horner61`. Horner gives
    # f(x0) .. f(x0 + r - 1) of each run; their difference table
    # D[j] = Delta^j f(x0) has a constant last row, and
    # Delta^j f(x + 1) = Delta^j f(x) + Delta^(j+1) f(x), so D[:-1] += D[1:]
    # (r - 1 additions mod p) steps every run by one point. The stepping uses
    # no coefficients, so the runs of all rows share one table, whose columns
    # are row-major (row, run). Entries stay canonical: a sum t < 2p, and
    # min(t, t - p) reduces it. A chunk's table holds at most HORNER_BLOCK
    # entries, or one run per row.
    rows, r = coefficients.shape
    starts = idx.reshape(rows, -1)[:, ::run]
    out = np.empty((rows, starts.shape[1], run), dtype=np.uint64)
    per_chunk = max(1, HORNER_BLOCK // (r * rows))
    for first in range(0, starts.shape[1], per_chunk):
        x0 = starts[:, first:first + per_chunk]
        seeds = _horner61(coefficients, x0[:, :, None] + np.arange(r, dtype=np.uint64))
        table = seeds.reshape(-1, r).T.copy()
        t = np.empty((r - 1, table.shape[1]), dtype=np.uint64)
        u = np.empty_like(t)
        for j in range(1, r):
            # rows j.. become differences of rows j-1..: a + p - b lies in (0, 2p)
            np.add(table[j:], _P61, out=t[j - 1:])
            np.subtract(t[j - 1:], table[j - 1:-1], out=t[j - 1:])
            np.subtract(t[j - 1:], _P61, out=u[j - 1:])
            np.minimum(t[j - 1:], u[j - 1:], out=table[j:])
        steps = np.empty((run, table.shape[1]), dtype=np.uint64)
        steps[0] = table[0]
        for step in steps[1:]:
            np.add(table[:-1], table[1:], out=t)
            np.subtract(t, _P61, out=u)
            np.minimum(t, u, out=table[:-1])
            step[...] = table[0]
        out[:, first:first + x0.shape[1]] = steps.T.reshape(rows, x0.shape[1], run)
    return out.reshape(-1)


def _difference_gain(points: int, length: int, degree: int) -> int:
    # Horner products that forward differences over runs of `length` save,
    # less the cost of their steps. They skip degree - 1 products at every
    # point past the first `degree` of a run. Timed on the kernel, one step
    # of the table costs about 384 products in numpy calls, however few runs
    # a call holds, plus a sixth of a product per table entry. For runs of
    # 115 at degree 14 the gain turns positive at 42 runs (measured
    # break-even 30-100 runs), for runs of 531 at degree 28 at 19 (measured
    # 16-32).
    saved = (degree - 1) * (points - points // length * degree)
    return saved - (degree - 1) * points // 6 - 384 * length


def _divisors(n: int) -> list[int]:
    small = [q for q in range(1, math.isqrt(n) + 1) if n % q == 0]
    return small + [n // q for q in reversed(small) if q * q != n]


def _run_length(idx: np.ndarray, rows: int, degree: int) -> int:
    # Forward differences' run length for these points, or 0 for Horner. The
    # maximal runs of consecutive points, cut at segment ends, are tiled by
    # runs of their gcd, the unit. When every segment is one consecutive
    # range, any divisor of its length serves too, and the gain picks the
    # best of them: near sqrt(r (r - 1) n / 384) for n points.
    if not idx.size:
        return 0
    flat = idx.reshape(-1)
    segment = flat.size // rows
    ends = np.ones(flat.size, dtype=bool)
    np.not_equal(np.diff(flat), 1, out=ends[:-1])
    ends[segment - 1::segment] = True
    stops = np.flatnonzero(ends) + 1
    lengths = (_divisors(segment) if stops.size == rows
               else [int(np.gcd.reduce(np.diff(stops, prepend=0)))])
    best = max(lengths, key=lambda length: _difference_gain(flat.size, length, degree))
    return best if _difference_gain(flat.size, best, degree) > 0 else 0


def eval_bucket_batch(gen: KWiseGenerator | GeneratorBlock, points) -> np.ndarray:
    """Vectorized eval_bucket; bit-identical to the scalar path.

    `points` is an integer array of field elements. Given a GeneratorBlock of
    n rows, the flat `points` split into n equal consecutive segments and row
    j evaluates segment j; one generator is the one-row case and takes points
    of any shape. Runs of consecutive points are found in the points and
    stepped by forward differences where that pays.
    """
    block = (gen if isinstance(gen, GeneratorBlock)
             else GeneratorBlock(gen.field, [gen.coefficients], gen.range_size))
    rows = len(block)
    idx = np.asarray(points)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"points must have an integer dtype, not {idx.dtype}")
    idx = np.ascontiguousarray(idx, dtype=np.uint64)
    if idx.size and int(idx.max()) >= block.field.modulus:
        raise ValueError("index outside the field")
    if rows > 1 and (idx.ndim != 1 or idx.size % rows):
        raise ValueError(f"points do not split into {rows} equal segments")
    if block.field.modulus != MERSENNE61:
        gens = map(block.row, range(rows))
        return np.array([eval_bucket(g, int(i))
                         for g, segment in zip(gens, idx.reshape(rows, -1))
                         for i in segment], dtype=np.int64).reshape(idx.shape)
    length = _run_length(idx, rows, block.degree)
    values = (_runs61(block.coefficients, idx, length).reshape(idx.shape) if length
              else _horner61(block.coefficients, idx))
    # v - (v // range) * range: numpy divides by a scalar without a hardware
    # division per element, unlike v % range; the result is below range < 2^61
    quotient = values // np.uint64(block.range_size)
    np.multiply(quotient, np.uint64(block.range_size), out=quotient)
    np.subtract(values, quotient, out=values)
    return values.view(np.int64)


def eval_sign_batch(gen: KWiseGenerator | GeneratorBlock, points) -> np.ndarray:
    """Vectorized eval_sign; `gen` and `points` as for eval_bucket_batch."""
    if gen.range_size != 2:
        raise ValueError("sign evaluation needs range 2")
    return 1 - 2 * eval_bucket_batch(gen, points)
