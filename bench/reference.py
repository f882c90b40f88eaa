"""Reference results for the benchmark's output checks.

Nothing here shares code with the paths a later change would speed up:
hashing goes through the scalar ``kwise.eval_bucket``/``eval_sign``, and
buckets are accumulated by a Python loop in flat-index order, the order the
projection kernel pins. References are recomputed on every run rather than
read from a pinned digest, so a deliberate change of the generator streams
moves the reference with it. The class counts are mathematical facts.
"""

from __future__ import annotations

import math
from dataclasses import replace

from sjlt.kwise import eval_bucket, eval_sign, new_generator
from sjlt.transform import bucket_generator, derive_spec, sign_generator


def _bucket_sums(bucket_gen, sign_gen, k, c, entries) -> list[float]:
    sums = [0.0] * k
    for i, value in entries:
        for r in range(c):
            flat = i * c + r
            sums[eval_bucket(bucket_gen, flat)] += eval_sign(sign_gen, flat) * value
    return sums


def projected_line(d, epsilon, delta, bucket_seed, sign_seed, entries) -> bytes:
    """The `sjlt transform` output line for one sparse vector, byte for byte."""
    spec = derive_spec(d, epsilon, delta, bucket_seed, sign_seed)
    sums = _bucket_sums(bucket_generator(spec), sign_generator(spec), spec.k, spec.c, entries)
    scale = math.sqrt(spec.c)
    return ",".join(f"{s / scale:.17g}" for s in sums).encode("ascii")


# The benchmark's trial settings have c = 1 and a uniform vector with entries
# 2^-5 or 2^-4, so every bucket sum and squared norm below is an exact dyadic
# number: the counts must agree exactly, not up to rounding.

def distortion_failures(d, epsilon, delta, trials, bucket_seed, sign_seed) -> int:
    """`sjlt distortion-bench` failure count for the uniform unit vector."""
    base = derive_spec(d, epsilon, delta, bucket_seed, sign_seed)
    x = 1.0 / math.sqrt(d)
    entries = [(i, x) for i in range(d)]
    norm = math.sqrt(math.fsum([x * x] * d))
    failures = 0
    for t in range(trials):
        spec = replace(base, bucket_seed=bucket_seed + t, sign_seed=sign_seed + t)
        sums = _bucket_sums(bucket_generator(spec), sign_generator(spec), spec.k, spec.c, entries)
        scale = math.sqrt(spec.c)
        ratio = math.sqrt(math.fsum((s / scale) ** 2 for s in sums)) / norm
        if ratio < 1.0 - epsilon or ratio > 1.0 + epsilon:
            failures += 1
    return failures


def tail_hits(d, epsilon, delta, trials, bucket_seed, sign_seed) -> int:
    """`sjlt tail-estimate` hit count for the uniform unit vector."""
    spec = derive_spec(d, epsilon, delta, bucket_seed, sign_seed)
    value = 1.0 / math.sqrt(d) / math.sqrt(spec.c)
    entries = [(i, value) for i in range(d * spec.c)]
    norm_sq = math.fsum([value * value] * (d * spec.c))
    hits = 0
    for t in range(trials):
        bucket_gen = new_generator(bucket_seed + t, spec.independence_degree, spec.k)
        sign_gen = new_generator(sign_seed + t, spec.independence_degree, 2)
        sums = _bucket_sums(bucket_gen, sign_gen, spec.k, 1, entries)
        if abs(math.fsum(s * s for s in sums) - norm_sq) >= epsilon:
            hits += 1
    return hits


# (m, i, t) -> number of 2m-pair sequences covering {1..i} with t even components.
PINNED_CLASS_COUNTS = {
    (1, 2, 1): 1, (1, 3, 1): 0, (2, 4, 2): 18,
    (3, 6, 1): 43200, (3, 6, 2): 23400, (3, 6, 3): 1350,
}


def _even_sequences(n: int, length: int) -> int:
    # Sequences of `length` edges of K_n in which every vertex has even degree,
    # by the character sum over sign vectors: an edge inside a side of the cut
    # contributes +1, an edge across it -1.
    total = sum(math.comb(n, s) * (math.comb(n - s, 2) + math.comb(s, 2) - s * (n - s)) ** length
                for s in range(n + 1))
    count, rest = divmod(total, 2 ** n)
    if rest:
        raise ArithmeticError("character sum not divisible by 2^n")
    return count


def covering_sequences(i: int, m: int) -> int:
    """Even-degree 2m-edge sequences that use every vertex of {1..i}
    (inclusion-exclusion over unused vertices); the sum over t of the class counts."""
    return sum((-1) ** (i - j) * math.comb(i, j) * _even_sequences(j, 2 * m)
               for j in range(i + 1))
