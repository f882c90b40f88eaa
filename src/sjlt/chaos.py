"""The signed collision cross-term: exact moments, graph-expansion moments, tails.

For a unit vector x, buckets H and signs s, the chaos value is the sum over
ordered pairs i != j of x_i x_j s_i s_j [H(i) = H(j)]. The squared norm of the
bucket projection equals |x|^2 plus exactly this value, so its even moments
and tail control the transform's failure probability. Exact oracles here
enumerate the fully independent law; the tail estimator samples the k-wise
generators the transform actually uses.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import ClassVar

import numpy as np

from .graphs import (
    BudgetExceededError,
    Multigraph,
    build_multigraph,
    check_assignment_budget,
    check_power_budget,
    check_table_budget,
    class_histograms,
    even_pair_multisets,
    weight,
)
# Unused here; bound because the benchmark's tracer (bench/tracing.py) patches them by name.
from .kwise import eval_bucket_batch, eval_sign_batch, new_generator  # noqa: F401
from .stats import partitioned_count
from .transform import (
    SparseVector,
    TransformSpec,
    TrialReport,
    signed_bucket_sums,
    trial_counter,
    uniform_vector,
)

SEQUENCE_ENUM_BUDGET = 10 ** 8

_GRAPH_CACHE_LIMIT = 200_000


@dataclass(frozen=True)
class ChaosInstance:
    """A unit vector and the bucket count; the bound's cap C is checked against x.

    `dense`, x's d entries as Python floats, zeros included, is built once
    here; every oracle reads x through it.
    """

    k: int
    x: SparseVector
    dense: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if abs(self.x.norm() - 1.0) > 1e-12:
            raise ValueError("x must be a unit vector")
        indices, values = self.x._arrays
        dense = np.zeros(self.d)
        dense[indices] = values
        object.__setattr__(self, "dense", tuple(dense.tolist()))

    @property
    def d(self) -> int:
        return self.x.dim

    @classmethod
    def uniform(cls, d: int, k: int) -> "ChaosInstance":
        return cls(k=k, x=uniform_vector(d))


@dataclass(frozen=True)
class RandomnessAssignment:
    buckets: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "buckets", tuple(int(b) for b in self.buckets))
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))
        if len(self.buckets) != len(self.signs):
            raise ValueError("buckets and signs must have equal length")
        if any(b < 0 for b in self.buckets):
            raise ValueError("buckets must be non-negative")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be -1 or +1")


def _pair_sum(x, buckets, signs) -> float:
    # The ordered pairs (i, j) and (j, i) give one float: multiplication is
    # commutative and the +-1 factors are exact. Doubling that rounded float
    # is exact, so 2 * term over i < j has the ordered sum's exact value, and
    # fsum rounds it once. It doubles the product, not x_i: (2 x_i) x_j can
    # round differently when the product is subnormal.
    d = len(x)
    return math.fsum(
        2.0 * (x[i] * x[j] * signs[i] * signs[j])
        for i in range(d)
        for j in range(i + 1, d)
        if buckets[i] == buckets[j]
    )


def chaos_value(inst: ChaosInstance, assignment: RandomnessAssignment) -> float:
    """Sum over ordered pairs i != j of x_i x_j s_i s_j [H(i) = H(j)].

    Ordered pairs, so every unordered pair contributes twice.
    """
    if len(assignment.buckets) != inst.d:
        raise ValueError("assignment length must match d")
    if any(b >= inst.k for b in assignment.buckets):
        raise ValueError("bucket values must lie below k")
    return _pair_sum(inst.dense, assignment.buckets, assignment.signs)


def exact_moment(inst: ChaosInstance, m: int) -> float:
    """Average of the chaos value to the 2m-th power over every assignment.

    The fully independent law: all k^d bucket maps times all 2^d sign
    patterns, summed over the bucket partitions they induce. Budget-guarded at
    k^d * 2^d <= 10^8.
    """
    if m < 1:
        raise ValueError("m must be positive")
    return _exact_power_moment(inst, 2 * m)


def bucket_partitions(d: int, k: int):
    """Each partition of range(d) into at most k blocks, once, as a restricted
    growth string: labels[i] is the block of i, numbered in order of first
    members. math.perm(k, q) of the k^d bucket maps induce a q-block one."""
    def extend(labels: tuple[int, ...], blocks: int):
        if len(labels) == d:
            yield labels
            return
        for label in range(min(blocks + 1, k)):
            yield from extend(labels + (label,), max(blocks, label + 1))
    return extend((), 0)


def _rounded_sum(weighted) -> float:
    """The sum of count * value over (count, value) pairs, exact, rounded once.

    Every finite float is an integer over a power of two, so the sum is one
    such ratio until the final division: it equals math.fsum over the values
    repeated count times, bit for bit. Infinite values make the sum what fsum
    makes it (inf, or ValueError for inf - inf).
    """
    numerator, denominator = 0, 1
    infinite = []
    for count, value in weighted:
        if math.isinf(value):
            infinite.append(value)
            continue
        p, q = value.as_integer_ratio()
        if q > denominator:
            numerator, denominator = numerator * (q // denominator), q
        numerator += count * p * (denominator // q)
    return math.fsum(infinite) if infinite else numerator / denominator


def _exact_power_moment(inst: ChaosInstance, power: int) -> float:
    total = check_assignment_budget(inst.d, inst.k)
    d, k, x = inst.d, inst.k, inst.dense
    # the pair terms of _pair_sum: s_i s_j = -1 negates 2.0 * (x_i x_j) exactly
    twice = [[2.0 * (x[i] * x[j]) for j in range(d)] for i in range(d)]

    def terms():
        # A bucket map enters the value only through its partition, and
        # negating the signs of a whole block leaves every pair term's bits
        # unchanged. So each partition's value with the first sign of every
        # block fixed to +1 stands for perm(k, q) maps times 2^q sign
        # patterns. Its power is yielded doubled with half that count, as the
        # plain enumeration's mirror pairs were, so a term >= 2^1023 still
        # makes the moment inf; a power past the float range saturates to
        # inf, negative for a negative value to an odd power.
        for labels in bucket_partitions(d, k):
            q = max(labels) + 1
            pairs = [(i, j, twice[i][j])
                     for i in range(d) for j in range(i + 1, d) if labels[i] == labels[j]]
            choices = [(1,) if labels.index(labels[i]) == i else (1, -1) for i in range(d)]
            count = math.perm(k, q) << (q - 1)
            for signs in product(*choices):
                value = math.fsum(t if signs[i] == signs[j] else -t for i, j, t in pairs)
                try:
                    term = value ** power
                except OverflowError:
                    term = math.copysign(math.inf, value) if power % 2 else math.inf
                yield count, 2.0 * term

    return _rounded_sum(terms()) / total


def _graphs(d: int, two_m: int):
    return ((orderings, build_multigraph(seq))
            for orderings, seq in even_pair_multisets(range(1, d + 1), two_m))


@lru_cache(maxsize=8)
def _cached_graphs(d: int, two_m: int) -> tuple[tuple[int, Multigraph], ...]:
    return tuple(_graphs(d, two_m))


def _check_sequence_budget(d: int, two_m: int) -> None:
    check_power_budget(math.comb(d, 2), two_m, SEQUENCE_ENUM_BUDGET,
                       "sequences exceed the enumeration budget")


def _iter_graphs(d: int, two_m: int):
    _check_sequence_budget(d, two_m)
    if math.comb(math.comb(d, 2) + two_m - 1, two_m) <= _GRAPH_CACHE_LIMIT:
        return _cached_graphs(d, two_m)
    return _graphs(d, two_m)


def graph_expansion_moment(inst: ChaosInstance, m: int) -> float:
    """The 2m-th moment as 2^2m times the sum of multigraph weights over all
    sequences of 2m increasing pairs; must equal exact_moment.

    The sum runs over multisets of pairs, each weight times its number of
    orderings, exactly and rounded once, so it equals the correctly rounded
    sum over sequences. It skips the multisets with an odd degree: their
    weight 0.0 adds nothing to the exact sum.
    """
    if m < 1:
        raise ValueError("m must be positive")
    return float(4 ** m) * _rounded_sum(
        (orderings, weight(graph, inst.dense, inst.k))
        for orderings, graph in _iter_graphs(inst.d, 2 * m))


def _check_cap(C: float, x: tuple[float, ...]) -> None:
    """Refuse a C the bound does not hold for: it needs every x_i^2 <= 1/C. The slack
    admits C = d for uniform x, whose x_i^2 * d is <= 1 + 4.4e-16 for d <= 10^5."""
    if not (math.isfinite(C) and C > 0):
        raise ValueError("C must be finite and positive")
    peak = max(v * v for v in x)
    if peak * C > 1.0 + 1e-12:
        raise ValueError(f"C={C!r} exceeds 1/max x_i^2 = {1.0 / peak!r}, the bound's cap")


def moment_upper_bound(inst: ChaosInstance, m: int, C: float) -> float:
    """Closed-form cap on the 2m-th moment from exact class counts.

    Dominates exact_moment when every |x_i|^2 <= 1/C; a larger C is refused.
    Past the float range the sum is exact, rounded once (inf beyond it).
    """
    _check_cap(C, inst.dense)
    if m < 1:
        raise ValueError("m must be positive")
    histograms = class_histograms(2 * m, m)
    cells = [(i, t, count) for i in range(1, 2 * m + 1) for t, count in histograms[i].items()]
    try:
        return float(4 ** m) * math.fsum(
            count / math.factorial(i) / float(inst.k) ** (i - t) / float(C) ** (2 * m - i)
            for i, t, count in cells)
    except (OverflowError, ZeroDivisionError):
        # imported only here: at module level it slowed tail-estimate calls by 5%
        from fractions import Fraction
        exact = 4 ** m * sum(Fraction(count, math.factorial(i) * inst.k ** (i - t))
                             / Fraction(C) ** (2 * m - i) for i, t, count in cells)
    return float(exact) if exact <= sys.float_info.max else math.inf


_MC_CHUNK = 4096

# bucket sums one Monte Carlo chunk holds (float64: 32 MB); a call over it was
# measured at 161 MB peak RSS for 4096*4096 and 545 MB for 4096*16384
MC_SUM_BUDGET = 1 << 22


def _chaos_powers(buckets: np.ndarray, sign_bits: np.ndarray, x: np.ndarray, norm_sq: float,
                  k: int, power: int) -> np.ndarray:
    """Each row's chaos value to `power`: its k signed bucket sums (sign
    1 - 2 * bit, the package's convention) squared and added to -|x|^2 in
    bucket order. Overwrites both int64 arrays."""
    sums = np.zeros((len(buckets), k))
    signed_bucket_sums(buckets, np.arange(0, sums.size, k)[:, None], sign_bits, x, sums)
    # one sequential running sum per row: (-|x|^2 + s_0^2) + s_1^2 + ...
    np.square(sums, out=sums)
    sums[:, 0] -= norm_sq
    return np.add.accumulate(sums, axis=1, out=sums)[:, -1] ** power


def _check_draws(trials: int, seed: int) -> None:
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _check_sum_budget(k: int, trials: int) -> None:
    # a chunk, or the pattern table that replaces it, sums rows * k buckets
    rows = min(trials, _MC_CHUNK)
    if rows * k > MC_SUM_BUDGET:
        raise BudgetExceededError(f"{rows}*{k} Monte Carlo bucket sums exceed the Monte Carlo "
                                  f"budget {MC_SUM_BUDGET}")


def monte_carlo_moment(inst: ChaosInstance, m: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the 2m-th moment with its standard error.

    Trials come in chunks of 4096. Each chunk draws rng.integers(0, k) for its
    (n, d) buckets, then rng.integers(0, 2) for its (n, d) sign bits, from
    default_rng(seed); this order fixes every reported byte. When the (2k)^d
    (bucket, sign) patterns number at most min(trials, 4096), each pattern's
    power is computed once and every trial looks its pattern up: a row's
    value depends on that row alone, so the bytes are the same. Either way
    a chunk sums min(trials, 4096) * k buckets, refused above MC_SUM_BUDGET.
    """
    _check_draws(trials, seed)
    _check_sum_budget(inst.k, trials)
    d, k, power = inst.d, inst.k, 2 * m
    rng = np.random.default_rng(seed)
    x = np.array(inst.dense)
    norm_sq = float(x @ x)
    patterns = (2 * k) ** d
    table = None
    if patterns <= min(trials, _MC_CHUNK):
        # digit i, in radix 2k, of pattern p is 2 * bucket_i + sign_bit_i
        radix = (2 * k) ** np.arange(d)
        digits = np.arange(patterns)[:, None] // radix % (2 * k)
        table = _chaos_powers(digits // 2, digits % 2, x, norm_sq, k, power)
    powers = np.empty(trials, dtype=np.float64)
    for position in range(0, trials, _MC_CHUNK):
        n = min(_MC_CHUNK, trials - position)
        buckets = rng.integers(0, k, size=(n, d))
        sign_bits = rng.integers(0, 2, size=(n, d))
        if table is None:
            # row by row: (2k)^d can dwarf any chunk (4^13 patterns at d = 13, k = 2)
            powers[position:position + n] = _chaos_powers(buckets, sign_bits, x, norm_sq, k, power)
        else:
            powers[position:position + n] = table[(buckets * 2 + sign_bits) @ radix]
    mean = float(powers.mean())
    se = float(powers.std(ddof=1) / math.sqrt(trials))
    return mean, se


def tail_estimate(spec: TransformSpec, trials: int, x: SparseVector | None = None) -> TrialReport:
    """Empirical P(|chaos value| >= spec.epsilon) over seeded trials.

    Trial t's chaos value is |y|^2 - |x|^2, from the values trial_counter
    computes and distortion_bench also judges. The threshold is closed:
    |value| equal to epsilon counts. x defaults to the uniform unit vector.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials")

    def hit(squares: np.ndarray, norm_sq: float) -> np.ndarray:
        return np.abs(squares - norm_sq) >= spec.epsilon

    return TrialReport.of(spec, trials, partitioned_count(trial_counter(spec, x, hit), trials))


@dataclass(frozen=True)
class MomentReport:
    d: int
    k: int
    m: int
    exact: float
    graph_expansion: float
    mc_mean: float
    mc_se: float
    rhs_bound: float

    CSV_COLUMNS: ClassVar[tuple[str, ...]] = (
        "d", "k", "m", "exact", "graph_expansion", "mc_mean", "mc_se", "rhs_bound")


def check_moment_report(d: int, k: int, m: int, trials: int, seed: int) -> None:
    """Every refusal of moment_report's phases but the cap's, which needs the
    vector, so a caller can refuse before the d-entry vector is built. Each
    enumerated space has its own budget: the (2k)^d assignments, the
    C(d,2)^2m sequences of the expansion, the 2m*(2m+1) entries of the
    bound's class tables and the min(trials, 4096)*k bucket sums of a Monte
    Carlo chunk."""
    for name, value in (("d", d), ("k", k)):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    if m < 1:
        raise ValueError("m must be positive")
    _check_draws(trials, seed)
    check_assignment_budget(d, k)
    _check_sequence_budget(d, 2 * m)
    check_table_budget(2 * m, 2 * m)
    _check_sum_budget(k, trials)


def moment_report(inst: ChaosInstance, m: int, C: float,
                  trials: int, seed: int) -> MomentReport:
    """Bundle the exact oracles, the Monte Carlo estimate and the class-count bound.

    Every refusal of every phase, the Monte Carlo's trials and seed and the
    bound's cap C included, comes before any phase runs.
    """
    check_moment_report(inst.d, inst.k, m, trials, seed)
    _check_cap(C, inst.dense)
    mc_mean, mc_se = monte_carlo_moment(inst, m, trials, seed)
    return MomentReport(d=inst.d, k=inst.k, m=m,
                        exact=exact_moment(inst, m),
                        graph_expansion=graph_expansion_moment(inst, m),
                        mc_mean=mc_mean, mc_se=mc_se,
                        rhs_bound=moment_upper_bound(inst, m, C))
