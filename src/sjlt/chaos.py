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
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import ClassVar

import numpy as np

from .graphs import (
    ASSIGNMENT_ENUM_BUDGET,
    BudgetExceededError,
    Multigraph,
    PairSequence,
    build_multigraph,
    class_count,
    weight,
)
# Unused here; bound because the benchmark's tracer (bench/tracing.py) patches them by name.
from .kwise import eval_bucket_batch, eval_sign_batch, new_generator  # noqa: F401
from .stats import partitioned_count, wilson_interval
from .transform import DenseVector, duplicate_rescale, signed_bucket_sums, trial_counter

SEQUENCE_ENUM_BUDGET = 10 ** 8

_GRAPH_CACHE_LIMIT = 200_000


@dataclass(frozen=True)
class ChaosInstance:
    """A unit vector with an explicit infinity-norm cap, plus the bucket count."""

    d: int
    k: int
    x: DenseVector
    infinity_bound: float

    def __post_init__(self) -> None:
        if self.d < 1 or self.k < 1:
            raise ValueError("d and k must be positive")
        if len(self.x) != self.d:
            raise ValueError("x must have length d")
        if abs(self.x.norm() - 1.0) > 1e-12:
            raise ValueError("x must be a unit vector")
        if max(abs(v) for v in self.x) > self.infinity_bound + 1e-12:
            raise ValueError("x violates the infinity-norm cap")

    @classmethod
    def uniform(cls, d: int, k: int) -> "ChaosInstance":
        return cls(d=d, k=k, x=DenseVector.uniform(d), infinity_bound=1.0 / math.sqrt(d))


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
    d = len(x)
    return math.fsum(
        x[i] * x[j] * signs[i] * signs[j]
        for i in range(d)
        for j in range(d)
        if i != j and buckets[i] == buckets[j]
    )


def chaos_value(inst: ChaosInstance, assignment: RandomnessAssignment) -> float:
    """Sum over ordered pairs i != j of x_i x_j s_i s_j [H(i) = H(j)].

    Ordered pairs, so every unordered pair contributes twice.
    """
    if len(assignment.buckets) != inst.d:
        raise ValueError("assignment length must match d")
    if any(b >= inst.k for b in assignment.buckets):
        raise ValueError("bucket values must lie below k")
    return _pair_sum(inst.x.values, assignment.buckets, assignment.signs)


def exact_moment(inst: ChaosInstance, m: int) -> float:
    """Average of the chaos value to the 2m-th power over every assignment.

    Enumerates the fully independent law: all k^d bucket maps times all 2^d
    sign patterns. Budget-guarded at k^d * 2^d <= 10^8.
    """
    if m < 1:
        raise ValueError("m must be positive")
    return _exact_power_moment(inst, 2 * m)


def _exact_power_moment(inst: ChaosInstance, power: int) -> float:
    total = (inst.k ** inst.d) * (2 ** inst.d)
    if total > ASSIGNMENT_ENUM_BUDGET:
        raise BudgetExceededError(
            f"{total} assignments exceed the exact enumeration budget {ASSIGNMENT_ENUM_BUDGET}")
    x = inst.x.values

    def terms():
        for buckets in product(range(inst.k), repeat=inst.d):
            for signs in product((1, -1), repeat=inst.d):
                yield _pair_sum(x, buckets, signs) ** power

    return math.fsum(terms()) / total


def _sequence_space(d: int, two_m: int):
    pairs = [(a, b) for a in range(1, d + 1) for b in range(a + 1, d + 1)]
    return pairs, len(pairs) ** two_m


@lru_cache(maxsize=8)
def _cached_graphs(d: int, two_m: int) -> tuple[Multigraph, ...]:
    pairs, _ = _sequence_space(d, two_m)
    return tuple(build_multigraph(PairSequence(seq))
                 for seq in product(pairs, repeat=two_m))


def _iter_graphs(d: int, two_m: int):
    pairs, total = _sequence_space(d, two_m)
    if total > SEQUENCE_ENUM_BUDGET:
        raise BudgetExceededError(
            f"{total} sequences exceed the enumeration budget {SEQUENCE_ENUM_BUDGET}")
    if total <= _GRAPH_CACHE_LIMIT:
        return _cached_graphs(d, two_m)
    return (build_multigraph(PairSequence(seq)) for seq in product(pairs, repeat=two_m))


def graph_expansion_moment(inst: ChaosInstance, m: int) -> float:
    """The 2m-th moment as 2^2m times the sum of multigraph weights over all
    sequences of 2m increasing pairs; must equal exact_moment."""
    if m < 1:
        raise ValueError("m must be positive")
    total = math.fsum(weight(graph, inst.x, inst.k) for graph in _iter_graphs(inst.d, 2 * m))
    return float(4 ** m) * total


def moment_upper_bound(inst: ChaosInstance, m: int, C: float) -> float:
    """Closed-form cap on the 2m-th moment from exact class counts.

    Dominates exact_moment whenever every |x_i|^2 <= 1/C.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if C <= 0:
        raise ValueError("C must be positive")
    terms = []
    for i in range(1, 2 * m + 1):
        for t in range(1, i // 2 + 1):
            count = class_count(i, t, m).count
            if count:
                terms.append(count / math.factorial(i)
                             / float(inst.k) ** (i - t) / float(C) ** (2 * m - i))
    return float(4 ** m) * math.fsum(terms)


def monte_carlo_moment(inst: ChaosInstance, m: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the 2m-th moment with its standard error."""
    if trials < 2:
        raise ValueError("need at least 2 trials")
    rng = np.random.default_rng(seed)
    x = inst.x.to_numpy()
    norm_sq = float(x @ x)
    powers = np.empty(trials, dtype=np.float64)
    position = 0
    while position < trials:
        n = min(4096, trials - position)
        buckets = rng.integers(0, inst.k, size=(n, inst.d))
        signs = rng.integers(0, 2, size=(n, inst.d)) * 2 - 1
        sums = signed_bucket_sums(buckets, signs, x, inst.k)
        values = np.full(n, -norm_sq)
        for t in range(inst.k):
            values += sums[:, t] ** 2
        powers[position:position + n] = values ** (2 * m)
        position += n
    mean = float(powers.mean())
    se = float(powers.std(ddof=1) / math.sqrt(trials))
    return mean, se


@dataclass(frozen=True)
class TailReport:
    epsilon: float
    trials: int
    hits: int
    failure_rate: float
    wilson_low: float
    wilson_high: float


def tail_estimate(x: DenseVector, k: int, c: int, epsilon: float, trials: int,
                  bucket_seed: int, sign_seed: int, degree: int) -> TailReport:
    """Empirical P(|chaos value| >= epsilon) for the duplicated-rescaled vector.

    Trial t draws fresh k-wise generators from seeds (bucket_seed + t,
    sign_seed + t). The threshold is closed: |value| equal to epsilon counts.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    if min(k, c, degree) < 1:
        raise ValueError("k, c and degree must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if bucket_seed == sign_seed:
        raise ValueError("bucket_seed and sign_seed must differ")
    replicated = duplicate_rescale(x.to_numpy(), c)
    points = np.arange(replicated.size, dtype=np.uint64)
    norm_sq = float(replicated @ replicated)

    def hit(per_bucket: np.ndarray) -> bool:
        return abs(float(per_bucket @ per_bucket) - norm_sq) >= epsilon

    count = trial_counter(points, replicated, k, degree, bucket_seed, sign_seed, hit)
    hits = partitioned_count(count, trials)
    low, high = wilson_interval(hits, trials)
    return TailReport(epsilon=float(epsilon), trials=trials, hits=hits,
                      failure_rate=hits / trials, wilson_low=low, wilson_high=high)


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


def moment_report(inst: ChaosInstance, m: int, C: float,
                  trials: int, seed: int) -> MomentReport:
    """Bundle the exact oracles, the Monte Carlo estimate and the class-count bound."""
    mc_mean, mc_se = monte_carlo_moment(inst, m, trials, seed)
    return MomentReport(d=inst.d, k=inst.k, m=m,
                        exact=exact_moment(inst, m),
                        graph_expansion=graph_expansion_moment(inst, m),
                        mc_mean=mc_mean, mc_se=mc_se,
                        rhs_bound=moment_upper_bound(inst, m, C))
