"""Sparse signed-bucket random projection with duplicate-and-rescale preconditioning.

The transform maps R^d to R^k by replicating every coordinate c times,
rescaling by c^-0.5, and routing each replica to one of k output buckets with
a k-wise independent hash and sign. Applying it touches exactly c replicas
per nonzero input coordinate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Callable, ClassVar, Iterable

import numpy as np

from .kwise import (
    DEFAULT_FIELD,
    HORNER_BLOCK,
    KWiseGenerator,
    eval_bucket_batch,
    eval_sign_batch,  # materialize's; bench/tracing.py also patches it by name
    generator_block,
    new_generator,
    reduction_bias_bound,
    work_size,
)
from .stats import partitioned_count, wilson_interval

DEFAULT_KAPPA = (1.0, 4.0, 2.0)

# modulo reduction bias k/modulus must stay below this on the production field
_MAX_BUCKET_BIAS = 2.0 ** -20


class AssumptionWarning(UserWarning):
    """Parameters left the regime in which the distortion analysis is sharp."""


class SparseVector:
    """Index/value pairs with strictly increasing indices and no stored zeros.

    A vector keeps only its checked arrays, `_arrays`: the indices (int64;
    object when one lies outside int64) and the float64 values, both
    read-only, the form every numpy user takes. `parse_sparse_vector` and
    `from_dense` build them with no per-entry Python objects. `entries`, the
    (index, value) pairs as Python ints and floats, is derived from the
    arrays when first read and kept; equality, hashing and the repr use it.
    """

    def __init__(self, dim: int, entries: Iterable[tuple[int, float]]) -> None:
        if dim < 1:
            raise ValueError("dim must be positive")
        self._keep(dim, *_entry_arrays(entries))

    @classmethod
    def _from_arrays(cls, dim: int, indices: np.ndarray, values: np.ndarray) -> "SparseVector":
        # the constructor's checks, on arrays the vector then keeps uncopied
        if dim < 1:
            raise ValueError("dim must be positive")
        vector = cls.__new__(cls)
        vector._keep(dim, indices, values)
        return vector

    def _keep(self, dim: int, indices: np.ndarray, values: np.ndarray) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_arrays", _checked_arrays(dim, indices, values))

    @cached_property
    def entries(self) -> tuple[tuple[int, float], ...]:
        indices, values = self._arrays
        return tuple(zip(indices.tolist(), values.tolist()))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.entries) == (other.dim, other.entries)

    def __hash__(self) -> int:
        return hash((self.dim, self.entries))

    def __repr__(self) -> str:
        return f"SparseVector(dim={self.dim!r}, entries={self.entries!r})"

    def __setattr__(self, name, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def nnz(self) -> int:
        return len(self._arrays[1])

    def norm(self) -> float:
        return math.sqrt(_sum_of_squares(self._arrays[1]))

    @classmethod
    def from_dense(cls, values) -> "SparseVector":
        dense = np.fromiter(map(float, values), dtype=np.float64)
        # -0.0 == 0 is dropped; NaN is nonzero, so it is kept and refused
        indices = np.flatnonzero(dense)
        return cls._from_arrays(dense.size, indices, dense[indices])


def uniform_vector(d: int) -> SparseVector:
    """The unit vector with all d entries equal to d^-0.5, built from arrays."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return SparseVector._from_arrays(d, np.arange(d), np.full(d, 1.0 / math.sqrt(d)))


def _index_array(indices: list[int]) -> np.ndarray:
    # int64, or object past int64: a float64 detour would round indices above 2^53
    try:
        return np.array(indices, dtype=np.int64)
    except OverflowError:
        return np.array(indices, dtype=object)


def _entry_arrays(entries: Iterable[tuple[int, float]]) -> tuple[np.ndarray, np.ndarray]:
    """The (indices, values) arrays of (index, value) pairs, each pair read
    as int and float in order."""
    indices, values = [], []
    for i, v in entries:
        indices.append(int(i))
        values.append(float(v))
    return _index_array(indices), np.array(values, dtype=np.float64)


def _checked_arrays(dim: int, index_array: np.ndarray,
                    value_array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Refuses the first bad entry with its first failing check, in the order
    # range, order, zero, finiteness.
    n = len(value_array)
    failed = np.zeros((4, n), dtype=bool)
    failed[0] = (index_array < 0) | (index_array >= dim)
    failed[1, 1:] = index_array[1:] <= index_array[:-1]
    failed[2] = value_array == 0.0
    failed[3] = ~np.isfinite(value_array)
    if failed.any():
        j = int(failed.any(axis=0).argmax())
        raise ValueError((f"index {int(index_array[j])} out of range for dim {dim}",
                          "indices must be strictly increasing",
                          "stored zeros are not allowed",
                          "values must be finite")[int(failed[:, j].argmax())])
    index_array.flags.writeable = False
    value_array.flags.writeable = False
    return index_array, value_array


# every byte but the entry separators ',' and ':'
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",:")


def _parse_entry(item: str) -> tuple[int, float]:
    index_text, sep, value_text = item.partition(":")
    if not sep:
        raise ValueError(f"missing ':' in sparse entry {item!r}")
    return int(index_text), float(value_text)


def _parse_arrays(body: str) -> tuple[np.ndarray, np.ndarray]:
    tokens = body.replace(",", ":").split(":")
    try:
        # the tokens alternate index and value text when the separators alternate
        if body.encode().translate(None, _NOT_SEPARATORS) == b":," * body.count(",") + b":":
            return (_index_array(list(map(int, tokens[0::2]))),
                    np.array(list(map(float, tokens[1::2])), dtype=np.float64))
    except ValueError:
        pass
    # some entry is bad: read entry by entry to raise the first one's error
    return _entry_arrays(map(_parse_entry, body.split(",")))


def parse_sparse_vector(line: str) -> SparseVector:
    """Parse one `dim;idx:val,idx:val,...` line.

    Every entry is read before the dimension, and each entry as `_parse_entry`
    reads it, so a bad line raises the error of its first bad entry. The
    tokens go straight into the vector's arrays, with no per-entry tuple.
    """
    head, sep, body = line.strip().partition(";")
    if not sep:
        raise ValueError(f"missing ';' in sparse vector line: {line!r}")
    arrays = _parse_arrays(body) if body else _entry_arrays(())
    return SparseVector._from_arrays(int(head), *arrays)


def read_sparse_vectors(path) -> list[SparseVector]:
    with open(path, "r", encoding="ascii") as fh:
        return [parse_sparse_vector(line) for line in fh if line.strip()]


def format_dense_vector(values: Iterable[float]) -> str:
    return ",".join(f"{v:.17g}" for v in values)


def write_dense_vectors(path, rows) -> None:
    """Write each row of a 2-D float array as the line format_dense_vector
    gives, to the file at `path` or to a text stream such as sys.stdout."""
    from .text import dense_lines  # here, so that other commands never load it

    rows = np.asarray(rows, dtype=np.float64)
    if hasattr(path, "write"):
        for text in dense_lines(rows):
            path.write(text.decode("ascii"))
        return
    with open(path, "wb") as fh:
        fh.writelines(dense_lines(rows))


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
    bucket_seed: int
    sign_seed: int
    independence_degree: int

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
                constants: tuple[float, float, float] = DEFAULT_KAPPA) -> TransformSpec:
    """Fix every parameter of one sampled transform from (d, epsilon, delta).

    The moment order is m = ceil(kappa_m * ln(1/delta)), the target dimension
    k = ceil(kappa_k * m / epsilon^2), and the replica count
    c = ceil(kappa_c * (m / gain)^2 / epsilon) with gain = sparsity_gain(m),
    and both generators have degree 2m. Natural logarithms throughout.
    epsilon <= ln(1/delta)^-2 is advisory: violating it records an
    AssumptionWarning but the transform still applies.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    # past the float range, 1/epsilon^2 (in k) and 1/delta (in m) are refused by name
    if epsilon * epsilon == 0.0 or math.isinf(1.0 / (epsilon * epsilon)):
        raise ValueError(f"epsilon={epsilon!r} too small: 1/epsilon^2 exceeds the float range")
    if math.isinf(1.0 / delta):
        raise ValueError(f"delta={delta!r} too small: 1/delta exceeds the float range")
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
        raise ValueError(f"kappa constants too large for epsilon={epsilon!r}, "
                         f"delta={delta!r}: m, k or c is not finite") from None
    log_budget = math.log(1.0 / delta)
    threshold = math.inf if log_budget * log_budget == 0.0 else 1.0 / (log_budget * log_budget)
    if epsilon > threshold:
        warnings.warn(
            f"epsilon={epsilon:g} exceeds ln(1/delta)^-2={threshold:g}; "
            "the distortion guarantee weakens in this regime",
            AssumptionWarning, stacklevel=2)
    return TransformSpec(d=d, epsilon=float(epsilon), delta=float(delta), m=m, k=k, c=c,
                         bucket_seed=int(bucket_seed), sign_seed=int(sign_seed),
                         independence_degree=2 * m)


def bucket_generator(spec: TransformSpec) -> KWiseGenerator:
    return new_generator(spec.bucket_seed, spec.independence_degree, spec.k)


def sign_generator(spec: TransformSpec) -> KWiseGenerator:
    return new_generator(spec.sign_seed, spec.independence_degree, 2)


@np.errstate(over="ignore")
def signed_bucket_sums(buckets: np.ndarray, offsets, sign_bits: np.ndarray, weights,
                       sums: np.ndarray) -> np.ndarray:
    """Add each float64 weight, negated where the low bit of its sign value
    is 1, at offset + bucket of the caller's C-contiguous float64 `sums`,
    read flat; returns `sums`, where an overflowing sum stays inf.

    Overwrites the int64 `buckets` and `sign_bits`, to whose one shape
    `offsets` and `weights` broadcast. The low bit becomes the weight's IEEE
    sign bit, bit for bit (1 - 2b) * w, and the unbuffered np.add.at adds
    the points in order onto what `sums` holds, so a sum carries across
    calls. The fixed order pins every projection's floating-point result.
    """
    bits = sign_bits.view(np.uint64)
    np.left_shift(bits, np.uint64(63), out=bits)
    np.bitwise_xor(bits, np.asarray(weights, dtype=np.float64).view(np.uint64), out=bits)
    np.add(buckets, offsets, out=buckets)
    np.add.at(sums.reshape(-1), buckets.reshape(-1), bits.view(np.float64).reshape(-1))
    return sums


def trial_seeds(spec: TransformSpec, trials) -> np.ndarray:
    """The (2, T) uint64 bucket and sign seeds of the given trial indices:
    trial t draws its generators from (bucket_seed + t, sign_seed + t) mod 2^64."""
    seeds = np.array((spec.bucket_seed, spec.sign_seed), dtype=np.uint64)[:, None]
    return seeds + np.asarray(trials, dtype=np.uint64)


def row_squares(rows: np.ndarray) -> np.ndarray:
    """Each row's dot product with itself, bit for bit row @ row: a stacked
    (1, k) @ (k, 1) matmul takes numpy's one vector dot per row."""
    return np.matmul(rows[:, None, :], rows[:, :, None]).reshape(len(rows))


def trial_counter(spec: TransformSpec, x: SparseVector | None,
                  event: Callable[[np.ndarray, float], np.ndarray]) -> Callable[[int, int], int]:
    """Count function over trial ranges, for `partitioned_count`: the number
    of trials t in a range whose event(|y|^2, |x|^2) holds.

    x is the uniform unit vector when None. A dimension other than the
    spec's, and then a nonzero x whose |x|^2 leaves the float64 range, are
    refused before any work. |x|^2 is math.fsum of x's squared values,
    x.norm() squared before its root. Trial t projects the replicas
    of x's nonzeros, each carrying x_i unscaled, through generators of
    the spec's degree seeded by `trial_seeds`, so its outcome is fixed
    by its seeds alone; its row y is its bucket sums
    divided by sqrt(c). Trials go through the kernel in blocks of
    T = max(1, 2 * HORNER_BLOCK // max(n, k)) trials of n replica points. A
    block expands its T bucket seeds and then its T sign seeds into one
    2T-row KWiseGenerator of range lcm(k, 2), whose values fix both v mod k
    and v mod 2, and hashes both stacks of trial points in one kernel call.
    One `signed_bucket_sums` adds its output into the zeroed (T, k) sums,
    which are divided by sqrt(c) in place, and `row_squares` gives the
    block's T values |y|^2, in trial order.

    Each call of the count function allocates the (T, k) sums and one uint64
    work array, sized by `work_size` for its full blocks and for its last,
    shorter one, whose run length may differ. Each block's kernel call takes
    all of its arrays, and returns its values, as views of the work array,
    so a block allocates no more than its T squares, and blocks reuse pages
    that fresh arrays would each map afresh. Both arrays belong to that call
    alone, so calls from several threads each use their own.
    """
    if x is None:
        x = uniform_vector(spec.d)
    elif x.dim != spec.d:
        raise ValueError(f"vector dimension {x.dim} does not match spec dimension {spec.d}")
    norm_sq = _norm_sq(x)
    indices, values = x._arrays
    points, weights = _replica_points(indices, spec.c), np.repeat(values, spec.c)
    scale = math.sqrt(spec.c)
    k, degree, n = spec.k, spec.independence_degree, points.size
    # blocks of 4 * HORNER_BLOCK points per role ran no faster and raised peak RSS 1.6 MB
    rows = max(1, 2 * HORNER_BLOCK // max(n, k))
    offsets = np.arange(0, rows * k, k)[:, None]
    range_size = math.lcm(k, 2)
    # any prefix of 2T periods is the points of a 2T-row stack
    tiled = np.tile(points, 2 * rows)

    def block_hits(first: int, stop: int, work: np.ndarray, sums: np.ndarray) -> int:
        trials = np.arange(first, stop, dtype=np.uint64)
        block = generator_block(trial_seeds(spec, trials), degree, range_size)
        buckets, sign_bits = eval_bucket_batch(
            block, tiled[:2 * trials.size * n], work=work).reshape(2, trials.size, n)
        if k % 2:
            np.remainder(buckets, k, out=buckets)
        sums = sums[:trials.size]
        sums.fill(0.0)
        signed_bucket_sums(buckets, offsets[:trials.size], sign_bits, weights, sums)
        squares = row_squares(np.divide(sums, scale, out=sums))
        return int(np.count_nonzero(event(squares, norm_sq)))

    def count(start: int, stop: int) -> int:
        # the trial counts of the full blocks and of the last block
        total = max(0, stop - start)
        sizes = {min(rows, total), total % rows} - {0}
        work = np.empty(max((work_size(2 * t, degree, tiled[:2 * t * n]) for t in sizes),
                            default=0), dtype=np.uint64)
        sums = np.empty((min(rows, total), k))
        return sum(block_hits(first, min(first + rows, stop), work, sums)
                   for first in range(start, stop, rows))

    return count


def _sum_of_squares(values: np.ndarray) -> float:
    """math.fsum of the squared values; inf where it passes the largest float."""
    try:
        return math.fsum(v * v for v in values.tolist())
    except OverflowError:  # finite squares whose exact sum is past the largest float
        return math.inf


def _norm_sq(x: SparseVector) -> float:
    """x's `_sum_of_squares`, refused for a nonzero x where it is 0.0 or
    passes the largest float."""
    norm_sq = _sum_of_squares(x._arrays[1])
    if x.nnz and not 0.0 < norm_sq < math.inf:
        raise ValueError(f"|x|^2 = {norm_sq!r} of a nonzero vector lies outside the float64 range")
    return norm_sq


def _replica_points(indices: np.ndarray, c: int) -> np.ndarray:
    # replica r of coordinate i sits at flat point i*c + r
    points = indices.astype(np.uint64)[:, None] * np.uint64(c) + np.arange(c, dtype=np.uint64)
    return points.reshape(-1)


def _project_rows(vectors, c: int, k: int, bucket_gen: KWiseGenerator,
                  sign_gen: KWiseGenerator) -> np.ndarray:
    """The (n, k) bucket sums of the vectors' replicas, one row per vector,
    divided by sqrt(c) in place; an overflowing sum stays inf.

    All nonzeros stream through the kernel in chunks that cross vector
    boundaries, of max(1, HORNER_BLOCK // min(c, degree)) coordinates: one
    forward-difference table pass, or one Horner block. Peak memory is one
    chunk's, however large a vector. A chunk makes one kernel call per role,
    the range-2 sign role's values being the sign bits (stacking the roles
    as trial_counter does gave no speed here and cost 11% peak RSS). One
    `signed_bucket_sums` adds its (coordinates, c) points at offset row * k,
    value and offset broadcast over each coordinate's replicas, so each row
    has the bits of a per-vector np.bincount.
    """
    sums = np.zeros((len(vectors), k))
    if not vectors:
        return sums
    indices = np.concatenate([x._arrays[0] for x in vectors])
    values = np.concatenate([x._arrays[1] for x in vectors])
    offsets = np.repeat(np.arange(0, sums.size, k), [x.nnz for x in vectors])
    per_chunk = max(1, HORNER_BLOCK // min(c, bucket_gen.degree))
    for start in range(0, indices.size, per_chunk):
        chunk = slice(start, start + per_chunk)
        points = _replica_points(indices[chunk], c)
        buckets = eval_bucket_batch(bucket_gen, points).reshape(-1, c)
        sign_bits = eval_bucket_batch(sign_gen, points).reshape(-1, c)
        signed_bucket_sums(buckets, offsets[chunk, None], sign_bits, values[chunk, None], sums)
    return np.divide(sums, math.sqrt(c), out=sums)


def apply_with_generators(x: SparseVector, c: int, k: int,
                          bucket_gen: KWiseGenerator,
                          sign_gen: KWiseGenerator) -> np.ndarray:
    """Project a sparse vector through explicit generators; returns its (k,) row."""
    return _project_rows([x], c, k, bucket_gen, sign_gen)[0]


def apply_rows(spec: TransformSpec, vectors) -> np.ndarray:
    """Apply the sampled transform to each vector; cost scales with c * nnz.

    Row i of the (n, k) float64 result projects vectors[i], bit for bit as
    apply_with_generators does. The spec's bucket and sign generators are
    expanded once for all rows, whose nonzeros share one stream of kernel
    chunks. Every dimension is checked before any work, and the rows are
    refused unless all are finite.
    """
    for x in vectors:
        if x.dim != spec.d:
            raise ValueError(f"vector dimension {x.dim} does not match spec dimension {spec.d}")
    rows = _project_rows(vectors, spec.c, spec.k, bucket_generator(spec), sign_generator(spec))
    if not np.isfinite(rows).all():
        raise ValueError("dense vector entries must be finite")
    return rows


def apply(spec: TransformSpec, x: SparseVector) -> np.ndarray:
    """Apply the sampled transform to one vector: apply_rows' one (k,) float64 row."""
    return apply_rows(spec, [x])[0]


def materialize(spec: TransformSpec) -> np.ndarray:
    """Dense k x d matrix equal to the transform; for small instances only."""
    points = np.arange(spec.d * spec.c, dtype=np.uint64)
    buckets = eval_bucket_batch(bucket_generator(spec), points)
    signs = eval_sign_batch(sign_generator(spec), points)
    out = np.zeros((spec.k, spec.d))
    # unbuffered, in point order: replicas of a column add in replica order
    np.add.at(out, (buckets, np.repeat(np.arange(spec.d), spec.c)), signs / math.sqrt(spec.c))
    return out


def distortion_trial(spec: TransformSpec, x: SparseVector) -> float:
    """Norm ratio |Mx| / |x| for the sampled transform; a nonzero x whose
    |x|^2 leaves the float64 range is refused."""
    norm = math.sqrt(_norm_sq(x))
    if norm == 0.0:
        raise ValueError("zero vector has no distortion ratio")
    if x.dim != spec.d:
        raise ValueError(f"vector dimension {x.dim} does not match spec dimension {spec.d}")
    y = apply_with_generators(x, spec.c, spec.k, bucket_generator(spec), sign_generator(spec))
    return float(np.sqrt(y @ y)) / norm


@dataclass(frozen=True)
class TrialReport:
    """The spec's parameters, the count of trials that met the event, its rate
    and its Wilson interval, in the fields' order, which is the CSV order.
    The count's column is `failures` for distortion-bench and `hits` for
    tail-estimate."""

    d: int
    k: int
    c: int
    m: int
    epsilon: float
    delta: float
    trials: int
    count: int
    failure_rate: float
    wilson_low: float
    wilson_high: float

    DISTORTION_COLUMNS: ClassVar[tuple[str, ...]] = (
        "d", "k", "c", "m", "epsilon", "delta", "trials", "failures",
        "failure_rate", "wilson_low", "wilson_high")
    TAIL_COLUMNS: ClassVar[tuple[str, ...]] = (
        DISTORTION_COLUMNS[:7] + ("hits",) + DISTORTION_COLUMNS[8:])

    @classmethod
    def of(cls, spec: TransformSpec, trials: int, count: int) -> TrialReport:
        return cls(spec.d, spec.k, spec.c, spec.m, spec.epsilon, spec.delta, trials,
                   count, count / trials, *wilson_interval(count, trials))


def distortion_bench(spec: TransformSpec, trials: int,
                     x: SparseVector | None = None) -> TrialReport:
    """Failure fraction of the distortion guarantee over independently seeded trials.

    Trial t fails when |y| / |x|, from the values trial_counter computes,
    leaves [1 - epsilon, 1 + epsilon]. x defaults to the uniform unit vector.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    low_bound, high_bound = 1.0 - spec.epsilon, 1.0 + spec.epsilon

    def fails(squares: np.ndarray, norm_sq: float) -> np.ndarray:
        # distortion_trial's arithmetic row by row, so counts match it trial by trial
        ratios = np.sqrt(squares) / math.sqrt(norm_sq)
        return (ratios < low_bound) | (ratios > high_bound)

    count = trial_counter(spec, x, fails)
    if x is not None and x.nnz == 0:
        raise ValueError("zero vector has no distortion ratio")
    return TrialReport.of(spec, trials, partitioned_count(count, trials))
