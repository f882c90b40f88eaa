"""k-wise independent bucket and sign generators from polynomials over a prime field.

A generator with r coefficients is a uniformly seeded polynomial of degree
r - 1; its evaluations at any r distinct points are jointly uniform over the
field, which is the only randomness property the projection analysis needs.
Field values are folded onto the output range by plain modulo, so every
consumer inherits a per-value reduction bias below range/modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

MERSENNE61 = (1 << 61) - 1

_MASK64 = (1 << 64) - 1

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
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
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


def new_generator(seed: int, degree: int, range_size: int,
                  field: PrimeField = DEFAULT_FIELD) -> KWiseGenerator:
    """Expand a 64-bit seed into a fresh generator.

    Coefficient j consumes splitmix64 outputs until one, truncated to
    modulus.bit_length() bits, lands in [0, modulus); that value becomes the
    coefficient of x^j. Identical (seed, degree, range) always produce an
    identical generator.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    p = field.modulus
    if p.bit_length() > 64:
        raise ValueError("seed expansion supports moduli below 2^64")
    mask = (1 << p.bit_length()) - 1
    stream = splitmix64_stream(seed)
    coefficients = []
    for _ in range(degree):
        while True:
            candidate = next(stream) & mask
            if candidate < p:
                break
        coefficients.append(candidate)
    return KWiseGenerator(field=field, coefficients=tuple(coefficients), range_size=range_size)


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
_U8 = np.uint64(8)
_P61 = np.uint64(MERSENNE61)
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW29 = np.uint64((1 << 29) - 1)


def _horner61(coefficients: tuple[int, ...], idx: np.ndarray) -> np.ndarray:
    # Each Horner step multiplies acc < 2^61 - 1 by idx < 2^61 - 1 and reduces the
    # 122-bit product via 2^61 = 1 (mod p); every partial sum stays below 2^63.
    # Steps write through preallocated scratch buffers so large batches do not
    # churn the allocator.
    acc = np.full(idx.shape, coefficients[-1], dtype=np.uint64)
    if len(coefficients) == 1:
        return acc
    b1 = idx >> _U32
    b0 = idx & _LOW32
    a1 = np.empty_like(acc)
    a0 = np.empty_like(acc)
    mid = np.empty_like(acc)
    lo = np.empty_like(acc)
    s = np.empty_like(acc)
    for coefficient in reversed(coefficients[:-1]):
        np.right_shift(acc, _U32, out=a1)
        np.bitwise_and(acc, _LOW32, out=a0)
        np.multiply(a1, b0, out=mid)
        np.multiply(b1, a0, out=s)
        np.add(mid, s, out=mid)
        np.multiply(a0, b0, out=lo)
        np.multiply(a1, b1, out=s)
        np.multiply(s, _U8, out=s)
        np.right_shift(mid, _U29, out=a1)
        np.add(s, a1, out=s)
        np.bitwise_and(mid, _LOW29, out=a1)
        np.left_shift(a1, _U32, out=a1)
        np.add(s, a1, out=s)
        np.bitwise_and(lo, _P61, out=a1)
        np.add(s, a1, out=s)
        np.right_shift(lo, _U61, out=a1)
        np.add(s, a1, out=s)
        np.bitwise_and(s, _P61, out=a1)
        np.right_shift(s, _U61, out=a0)
        np.add(a1, a0, out=acc)
        acc[acc >= _P61] -= _P61
        np.add(acc, np.uint64(coefficient), out=acc)
        np.bitwise_and(acc, _P61, out=a1)
        np.right_shift(acc, _U61, out=a0)
        np.add(a1, a0, out=acc)
        acc[acc >= _P61] -= _P61
    return acc


def eval_bucket_batch(gen: KWiseGenerator, indices: np.ndarray) -> np.ndarray:
    """Vectorized eval_bucket; bit-identical to the scalar path."""
    idx = np.ascontiguousarray(indices, dtype=np.uint64)
    if idx.size and int(idx.max()) >= gen.field.modulus:
        raise ValueError("index outside the field")
    if gen.field.modulus != MERSENNE61:
        return np.array([eval_bucket(gen, int(i)) for i in idx], dtype=np.int64)
    acc = _horner61(gen.coefficients, idx)
    return (acc % np.uint64(gen.range_size)).astype(np.int64)


def eval_sign_batch(gen: KWiseGenerator, indices: np.ndarray) -> np.ndarray:
    """Vectorized eval_sign."""
    if gen.range_size != 2:
        raise ValueError("sign evaluation needs range 2")
    return np.where(eval_bucket_batch(gen, indices) == 0, 1, -1).astype(np.int64)
