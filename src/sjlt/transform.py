"""Sparse signed-bucket random projection with duplicate-and-rescale preconditioning.

The transform maps R^d to R^k by replicating every coordinate c times,
rescaling by c^-0.5, and routing each replica to one of k output buckets with
a k-wise independent hash and sign. Applying it touches exactly c replicas
per nonzero input coordinate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from .kwise import (
    DEFAULT_FIELD,
    HORNER_BLOCK,
    KWiseGenerator,
    eval_bucket_batch,
    eval_sign_batch,
    generator_block,
    new_generator,
    reduction_bias_bound,
)
from .stats import partitioned_count, wilson_interval

DEFAULT_KAPPA = (1.0, 4.0, 2.0)

# modulo reduction bias k/modulus must stay below this on the production field
_MAX_BUCKET_BIAS = 2.0 ** -20


class AssumptionWarning(UserWarning):
    """Parameters left the regime in which the distortion analysis is sharp."""


@dataclass(frozen=True)
class DenseVector:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("dense vector entries must be finite")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def norm(self) -> float:
        return math.sqrt(math.fsum(v * v for v in self.values))

    def to_numpy(self) -> np.ndarray:
        return np.array(self.values, dtype=np.float64)

    @classmethod
    def uniform(cls, d: int) -> "DenseVector":
        """Unit vector with all entries equal to d^-0.5."""
        if d < 1:
            raise ValueError(f"d must be positive, got {d}")
        return cls((1.0 / math.sqrt(d),) * d)


@dataclass(frozen=True)
class SparseVector:
    """Index/value pairs with strictly increasing indices and no stored zeros."""

    dim: int
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")
        entries = tuple((int(i), float(v)) for i, v in self.entries)
        object.__setattr__(self, "entries", entries)
        previous = -1
        for i, v in entries:
            if not 0 <= i < self.dim:
                raise ValueError(f"index {i} out of range for dim {self.dim}")
            if i <= previous:
                raise ValueError("indices must be strictly increasing")
            if v == 0.0:
                raise ValueError("stored zeros are not allowed")
            if not math.isfinite(v):
                raise ValueError("values must be finite")
            previous = i

    @property
    def nnz(self) -> int:
        return len(self.entries)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # separate arrays: a float64 detour would round indices above 2^53
        indices = np.array([i for i, _ in self.entries], dtype=np.int64)
        values = np.array([v for _, v in self.entries], dtype=np.float64)
        return indices, values

    def norm(self) -> float:
        return math.sqrt(math.fsum(v * v for _, v in self.entries))

    def to_dense(self) -> DenseVector:
        out = [0.0] * self.dim
        for i, v in self.entries:
            out[i] = v
        return DenseVector(tuple(out))

    @classmethod
    def from_dense(cls, values) -> "SparseVector":
        vals = [float(v) for v in values]
        return cls(dim=len(vals), entries=tuple((i, v) for i, v in enumerate(vals) if v != 0.0))


def parse_sparse_vector(line: str) -> SparseVector:
    """Parse one `dim;idx:val,idx:val,...` line."""
    head, sep, body = line.strip().partition(";")
    if not sep:
        raise ValueError(f"missing ';' in sparse vector line: {line!r}")
    entries = []
    if body:
        for item in body.split(","):
            idx_text, sep2, val_text = item.partition(":")
            if not sep2:
                raise ValueError(f"missing ':' in sparse entry {item!r}")
            entries.append((int(idx_text), float(val_text)))
    return SparseVector(dim=int(head), entries=tuple(entries))


def format_sparse_vector(x: SparseVector) -> str:
    body = ",".join(f"{i}:{v:.17g}" for i, v in x.entries)
    return f"{x.dim};{body}"


def read_sparse_vectors(path) -> list[SparseVector]:
    with open(path, "r", encoding="ascii") as fh:
        return [parse_sparse_vector(line) for line in fh if line.strip()]


def format_dense_vector(y: DenseVector) -> str:
    return ",".join(f"{v:.17g}" for v in y.values)


def write_dense_vectors(path, vectors) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for y in vectors:
            fh.write(format_dense_vector(y) + "\n")


@dataclass(frozen=True)
class TransformSpec:
    """Full parameterization of one sampled transform; immutable, reusable, and
    refusing what every use refuses, so its users re-check nothing."""

    d: int
    epsilon: float
    delta: float
    m: int
    k: int
    c: int
    sparsity_gain: float
    bucket_seed: int
    sign_seed: int
    independence_degree: int
    epsilon_assumption_ok: bool = True

    def __post_init__(self) -> None:
        if min(self.d, self.m, self.k, self.c, self.independence_degree) < 1:
            raise ValueError("d, m, k, c and independence_degree must be positive")
        if self.k < self.m:
            raise ValueError("k must be at least m")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not (0 <= self.bucket_seed < 1 << 64 and 0 <= self.sign_seed < 1 << 64):
            # generators take seeds mod 2^64: seeds outside one period alias
            raise ValueError("bucket_seed and sign_seed must lie in [0, 2^64)")
        if self.bucket_seed == self.sign_seed:
            # equal seeds give the bucket and sign hashes the same polynomial
            raise ValueError("bucket_seed and sign_seed must differ")
        if self.d * self.c > DEFAULT_FIELD.modulus:
            # flat replica points 0 .. d*c - 1 must be distinct field elements
            raise ValueError(f"d * c = {self.d * self.c} exceeds the field size 2^61 - 1")
        if reduction_bias_bound(DEFAULT_FIELD, self.k) > _MAX_BUCKET_BIAS:
            raise ValueError("target dimension too large: bucket reduction bias exceeds 2^-20")


def sparsity_gain(m: int) -> float:
    """Slowly growing divisor of m in the replica-count formula; 1 below m = 3."""
    if m < 3:
        return 1.0
    return max(1.0, math.log(m) / math.log(math.log(m)))


def derive_spec(d: int, epsilon: float, delta: float, bucket_seed: int, sign_seed: int,
                constants: tuple[float, float, float] = DEFAULT_KAPPA,
                independence_degree: int | None = None) -> TransformSpec:
    """Fix every parameter of one sampled transform from (d, epsilon, delta).

    The moment order is m = ceil(kappa_m * ln(1/delta)), the target dimension
    k = ceil(kappa_k * m / epsilon^2), and the replica count
    c = ceil(kappa_c * (m / gain)^2 / epsilon) with gain = sparsity_gain(m).
    Natural logarithms throughout. epsilon <= ln(1/delta)^-2 is advisory:
    violating it records an AssumptionWarning but the transform still applies.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    kappa_m, kappa_k, kappa_c = constants
    if not all(math.isfinite(kappa) and kappa > 0 for kappa in constants):
        raise ValueError("kappa constants must be finite and positive")
    try:
        m = max(1, math.ceil(kappa_m * math.log(1.0 / delta)))
        gain = sparsity_gain(m)
        k = math.ceil(kappa_k * m / (epsilon * epsilon))
        c = math.ceil(kappa_c * (m / gain) ** 2 / epsilon)
    except OverflowError:
        # an infinite product reaches ceil, or the square overflows
        raise ValueError("kappa constants too large: m, k or c is not finite") from None
    if independence_degree is None:
        independence_degree = 2 * m
    log_budget = math.log(1.0 / delta)
    threshold = math.inf if log_budget * log_budget == 0.0 else 1.0 / (log_budget * log_budget)
    assumption_ok = epsilon <= threshold
    if not assumption_ok:
        warnings.warn(
            f"epsilon={epsilon:g} exceeds ln(1/delta)^-2={threshold:g}; "
            "the distortion guarantee weakens in this regime",
            AssumptionWarning, stacklevel=2)
    return TransformSpec(d=d, epsilon=float(epsilon), delta=float(delta), m=m, k=k, c=c,
                         sparsity_gain=gain, bucket_seed=int(bucket_seed),
                         sign_seed=int(sign_seed), independence_degree=independence_degree,
                         epsilon_assumption_ok=assumption_ok)


def bucket_generator(spec: TransformSpec) -> KWiseGenerator:
    return new_generator(spec.bucket_seed, spec.independence_degree, spec.k)


def sign_generator(spec: TransformSpec) -> KWiseGenerator:
    return new_generator(spec.sign_seed, spec.independence_degree, 2)


def duplicate_rescale(values: np.ndarray, c: int) -> np.ndarray:
    """Preconditioner: replica r of coordinate i sits at flat index i*c + r."""
    if c < 1:
        raise ValueError("c must be positive")
    return np.repeat(np.asarray(values, dtype=np.float64), c) / math.sqrt(c)


def signed_bucket_sums(buckets: np.ndarray, signs: np.ndarray, weights: np.ndarray,
                       k: int) -> np.ndarray:
    """Per-bucket sums of sign * weight over points, added in point order.

    A 2-D call sums each row into its own k buckets by offsetting row r's
    buckets by r * k, so row r of the result equals the 1-D call on row r bit
    for bit. The fixed order pins every projection's floating-point result.
    """
    if buckets.ndim == 2:
        rows = len(buckets)
        offset = buckets + np.arange(0, rows * k, k)[:, None]
        values = (signs * weights).reshape(-1)
        return signed_bucket_sums(offset.reshape(-1), 1, values, rows * k).reshape(rows, k)
    return np.bincount(buckets, weights=signs * weights, minlength=k)


def trial_counter(spec: TransformSpec, points: np.ndarray, weights: np.ndarray,
                  hit: Callable[[np.ndarray], bool]) -> Callable[[int, int], int]:
    """Count function over trial ranges, for `partitioned_count`.

    Trial t projects `weights` at the n flat uint64 field `points`, such as
    the replicas of a vector's nonzeros or one dense range (the kernel finds
    their consecutive runs), through fresh spec generators seeded
    (bucket_seed + t, sign_seed + t) mod 2^64 and counts when `hit(sums)`
    holds, so its outcome is fixed by its seeds alone. Trials go through the
    kernel in blocks of max(1, HORNER_BLOCK // max(n, k)) rows, one trial per
    row: a block expands its seeds into one GeneratorBlock per hash, hashes
    one segment of `points` per trial with one call per hash, sums all its
    rows in one 2-D `signed_bucket_sums`, and calls `hit` on the rows in
    trial order.
    """
    k, degree = spec.k, spec.independence_degree
    rows = max(1, HORNER_BLOCK // max(points.size, k))
    tiled = np.tile(points, rows)

    def count(start: int, stop: int) -> int:
        hits = 0
        for first in range(start, stop, rows):
            trials = np.arange(first, min(first + rows, stop), dtype=np.uint64)
            buckets = generator_block(trials + np.uint64(spec.bucket_seed), degree, k)
            signs = generator_block(trials + np.uint64(spec.sign_seed), degree, 2)
            block = tiled[:trials.size * points.size]
            sums = signed_bucket_sums(
                eval_bucket_batch(buckets, block).reshape(trials.size, -1),
                eval_sign_batch(signs, block).reshape(trials.size, -1), weights, k)
            hits += sum(hit(row) for row in sums)
        return hits

    return count


def _replicas(x: SparseVector, c: int) -> tuple[np.ndarray, np.ndarray]:
    # replica r of coordinate i sits at flat point i*c + r, carrying x_i unscaled
    indices, values = x._arrays
    points = indices.astype(np.uint64)[:, None] * np.uint64(c) + np.arange(c, dtype=np.uint64)
    return points.reshape(-1), np.repeat(values, c)


def apply_with_generators(x: SparseVector, c: int, k: int,
                          bucket_gen: KWiseGenerator,
                          sign_gen: KWiseGenerator) -> np.ndarray:
    """Project a sparse vector through explicit generators; returns k bucket sums."""
    points, weights = _replicas(x, c)
    sums = signed_bucket_sums(eval_bucket_batch(bucket_gen, points),
                              eval_sign_batch(sign_gen, points), weights, k)
    return sums / math.sqrt(c)


def apply(spec: TransformSpec, x: SparseVector) -> DenseVector:
    """Apply the sampled transform; cost scales with c * nnz(x)."""
    if x.dim != spec.d:
        raise ValueError(f"vector dimension {x.dim} does not match spec dimension {spec.d}")
    y = apply_with_generators(x, spec.c, spec.k, bucket_generator(spec), sign_generator(spec))
    return DenseVector(tuple(float(v) for v in y))


def materialize(spec: TransformSpec) -> np.ndarray:
    """Dense k x d matrix equal to the transform; for small instances only."""
    points = np.arange(spec.d * spec.c, dtype=np.uint64)
    buckets = eval_bucket_batch(bucket_generator(spec), points)
    signs = eval_sign_batch(sign_generator(spec), points)
    out = np.zeros((spec.k, spec.d))
    # unbuffered, in point order: replicas of a column add in replica order
    np.add.at(out, (buckets, np.repeat(np.arange(spec.d), spec.c)), signs / math.sqrt(spec.c))
    return out


def column_structure(spec: TransformSpec, column: int) -> list[tuple[int, int]]:
    """(bucket, sign) contribution of each replica of one input coordinate."""
    if not 0 <= column < spec.d:
        raise ValueError(f"column {column} out of range")
    points = np.arange(column * spec.c, (column + 1) * spec.c, dtype=np.uint64)
    return list(zip(eval_bucket_batch(bucket_generator(spec), points).tolist(),
                    eval_sign_batch(sign_generator(spec), points).tolist()))


def apply_dense_baseline(kind: str, seed: int, k: int, x: SparseVector) -> DenseVector:
    """Classic dense projection baseline: y = A x / sqrt(k) with i.i.d. entries."""
    if k < 1:
        raise ValueError("k must be positive")
    rng = np.random.default_rng(seed)
    if kind == "rademacher":
        matrix = rng.integers(0, 2, size=(k, x.dim)).astype(np.float64) * 2.0 - 1.0
    elif kind == "gaussian":
        matrix = rng.standard_normal((k, x.dim))
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    dense = np.zeros(x.dim)
    indices, values = x._arrays
    dense[indices] = values
    y = matrix @ dense / math.sqrt(k)
    return DenseVector(tuple(float(v) for v in y))


def _distortion_norm(spec: TransformSpec, x: SparseVector) -> float:
    norm = x.norm()
    if norm == 0.0:
        raise ValueError("zero vector has no distortion ratio")
    if x.dim != spec.d:
        raise ValueError(f"vector dimension {x.dim} does not match spec dimension {spec.d}")
    return norm


def distortion_trial(spec: TransformSpec, x: SparseVector) -> float:
    """Norm ratio |Mx| / |x| for the sampled transform."""
    norm = _distortion_norm(spec, x)
    y = apply_with_generators(x, spec.c, spec.k, bucket_generator(spec), sign_generator(spec))
    return float(np.sqrt(y @ y)) / norm


@dataclass(frozen=True)
class DistortionReport:
    d: int
    epsilon: float
    delta: float
    m: int
    k: int
    c: int
    trials: int
    failures: int
    failure_rate: float
    wilson_low: float
    wilson_high: float

    CSV_COLUMNS: ClassVar[tuple[str, ...]] = (
        "d", "k", "c", "m", "epsilon", "delta", "trials", "failures",
        "failure_rate", "wilson_low", "wilson_high")


def distortion_bench(spec: TransformSpec, trials: int,
                     x: SparseVector | None = None) -> DistortionReport:
    """Failure fraction of the distortion guarantee over independently seeded trials.

    Trial t reseeds both generators with (bucket_seed + t, sign_seed + t), so
    each trial's outcome is fixed by its seeds. x defaults to the uniform
    unit vector.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if x is None:
        x = SparseVector.from_dense(DenseVector.uniform(spec.d))
    norm = _distortion_norm(spec, x)
    points, weights = _replicas(x, spec.c)
    scale = math.sqrt(spec.c)
    low_bound, high_bound = 1.0 - spec.epsilon, 1.0 + spec.epsilon

    def fails(sums: np.ndarray) -> bool:
        # the same arithmetic as distortion_trial, so counts match it trial by trial
        y = sums / scale
        ratio = float(np.sqrt(y @ y)) / norm
        return ratio < low_bound or ratio > high_bound

    failures = partitioned_count(trial_counter(spec, points, weights, fails), trials)
    low, high = wilson_interval(failures, trials)
    return DistortionReport(d=spec.d, epsilon=spec.epsilon, delta=spec.delta, m=spec.m,
                            k=spec.k, c=spec.c, trials=trials, failures=failures,
                            failure_rate=failures / trials, wilson_low=low, wilson_high=high)
