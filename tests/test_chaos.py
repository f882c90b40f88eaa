"""Chaos moment oracles, the class-count bound, and tail estimation."""

import math
from collections import Counter
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sjlt.chaos
import sjlt.transform
from sjlt import kwise
from sjlt.chaos import (
    ChaosInstance,
    RandomnessAssignment,
    bucket_partitions,
    chaos_value,
    exact_moment,
    graph_expansion_moment,
    moment_report,
    moment_upper_bound,
    monte_carlo_moment,
    tail_estimate,
    _exact_power_moment,
)
from sjlt.graphs import (
    BudgetExceededError,
    PairSequence,
    build_multigraph,
    check_assignment_budget,
    check_table_budget,
    sequence_expectation,
    weight,
)
from sjlt.kwise import HORNER_BLOCK, eval_bucket_batch, eval_sign_batch, new_generator
from sjlt.transform import (
    SparseVector,
    TransformSpec,
    apply_with_generators,
    derive_spec,
    distortion_bench,
    signed_bucket_sums,
    trial_counter,
    uniform_vector,
)


def unit_vector(rng: np.random.Generator, d: int) -> SparseVector:
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return SparseVector.from_dense(v)


def tail_spec(d, k, c, epsilon, bucket_seed, sign_seed, degree) -> TransformSpec:
    # m and delta only label the tail report
    return TransformSpec(d=d, epsilon=epsilon, delta=0.5, m=1, k=k, c=c,
                         bucket_seed=bucket_seed, sign_seed=sign_seed,
                         independence_degree=degree)


def basis_instance(d: int, k: int) -> ChaosInstance:
    x = SparseVector.from_dense((1.0,) + (0.0,) * (d - 1))
    return ChaosInstance(k=k, x=x)


# ------------------------------------------------------------------ the value

def test_chaos_value_no_cross_terms_for_basis_vector():
    inst = basis_instance(3, 2)
    for buckets in product(range(2), repeat=3):
        for signs in product((1, -1), repeat=3):
            assert chaos_value(inst, RandomnessAssignment(buckets, signs)) == 0.0


def test_chaos_value_two_coordinates():
    inst = ChaosInstance.uniform(2, 2)
    hit = chaos_value(inst, RandomnessAssignment((0, 0), (1, 1)))
    assert hit == pytest.approx(1.0, rel=1e-15)     # two ordered pairs of 1/2
    miss = chaos_value(inst, RandomnessAssignment((0, 1), (1, 1)))
    assert miss == 0.0


def test_assignment_validation():
    with pytest.raises(ValueError):
        RandomnessAssignment((0, 1), (1,))
    with pytest.raises(ValueError):
        RandomnessAssignment((0, -1), (1, 1))
    with pytest.raises(ValueError):
        RandomnessAssignment((0, 1), (1, 2))
    inst = ChaosInstance.uniform(2, 2)
    with pytest.raises(ValueError):
        chaos_value(inst, RandomnessAssignment((0, 2), (1, 1)))


def test_instance_validation():
    with pytest.raises(ValueError):
        ChaosInstance(k=2, x=SparseVector.from_dense((1.0, 1.0)))
    # d is read off x, never set beside it
    x = uniform_vector(5)
    assert ChaosInstance(k=3, x=x).d == x.dim == 5
    with pytest.raises(TypeError):
        ChaosInstance(d=5, k=3, x=x)
    # the cap lives on the bound: C = 4 asks x_i^2 <= 1/4 of a vector with x_i^2 = 1/2
    with pytest.raises(ValueError, match=r"C=4\.0 exceeds 1/max x_i\^2"):
        moment_upper_bound(ChaosInstance.uniform(2, 2), 1, 4.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), d=st.integers(2, 6),
       k=st.integers(1, 4))
def test_bucket_sum_identity(seed, d, k):
    rng = np.random.default_rng(seed)
    inst = ChaosInstance(k=k, x=unit_vector(rng, d))
    buckets = rng.integers(0, k, size=d)
    sign_bits = rng.integers(0, 2, size=d)
    direct = chaos_value(inst, RandomnessAssignment(tuple(buckets), tuple(1 - 2 * sign_bits)))
    x = np.array(inst.dense)
    per_bucket, = signed_bucket_sums(buckets[None], sign_bits[None], x, k)
    fast = float(per_bucket @ per_bucket) - float(x @ x)
    assert fast == pytest.approx(direct, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------------- moments

def test_exact_moment_two_coordinates():
    inst = ChaosInstance.uniform(2, 2)
    assert exact_moment(inst, 1) == pytest.approx(0.5, rel=1e-12)
    assert graph_expansion_moment(inst, 1) == pytest.approx(0.5, rel=1e-12)


def test_exact_moment_zero_for_basis_vector():
    inst = basis_instance(3, 2)
    for m in (1, 2):
        assert exact_moment(inst, m) == 0.0
        assert graph_expansion_moment(inst, m) == 0.0


def test_exact_moment_three_uniform_coordinates():
    # enumerated over 64 assignments; equals 2/3 because each ordered pair
    # contributes 1/3 and collisions happen half the time
    inst = ChaosInstance.uniform(3, 2)
    a = exact_moment(inst, 1)
    b = graph_expansion_moment(inst, 1)
    assert a == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert a == pytest.approx(b, rel=1e-12)
    m2a = exact_moment(inst, 2)
    m2b = graph_expansion_moment(inst, 2)
    assert m2a == pytest.approx(32.0 / 27.0, rel=1e-12)
    assert m2a == pytest.approx(m2b, rel=1e-12)


def test_oracle_agreement_random_instances():
    rng = np.random.default_rng(99)
    for d in (2, 3, 4):
        for k in (2, 3):
            for m in (1, 2):
                for _ in range(4):
                    inst = ChaosInstance(k=k, x=unit_vector(rng, d))
                    a = exact_moment(inst, m)
                    b = graph_expansion_moment(inst, m)
                    assert abs(a - b) <= 1e-12 * max(a, b, 1e-30)


def test_first_moment_vanishes():
    rng = np.random.default_rng(5)
    for d, k in [(2, 2), (3, 2), (4, 3)]:
        inst = ChaosInstance(k=k, x=unit_vector(rng, d))
        assert abs(_exact_power_moment(inst, 1)) <= 1e-12


def test_higher_odd_moments():
    # flipping every sign leaves the value unchanged, so nothing forces odd
    # moments to zero beyond d = 2: a triangle of pairs has all even vertex
    # degrees and makes the third moment strictly positive
    rng = np.random.default_rng(5)
    inst2 = ChaosInstance(k=2, x=unit_vector(rng, 2))
    assert abs(_exact_power_moment(inst2, 3)) <= 1e-12
    inst3 = ChaosInstance(k=2, x=unit_vector(rng, 3))
    third = _exact_power_moment(inst3, 3)
    triangle_orderings = 6
    expected = 8.0 * triangle_orderings * (1.0 / 4.0) * math.prod(v * v for v in inst3.dense)
    assert third == pytest.approx(expected, rel=1e-12)
    assert third > 0.0


def test_moment_invariant_under_coordinate_permutation():
    rng = np.random.default_rng(17)
    base = ChaosInstance(k=2, x=unit_vector(rng, 4)).dense
    reference = None
    for perm in list(permutations(range(4)))[:8]:
        x = SparseVector.from_dense([base[i] for i in perm])
        inst = ChaosInstance(k=2, x=x)
        value = exact_moment(inst, 1)
        if reference is None:
            reference = value
        assert value == pytest.approx(reference, rel=1e-12)


def test_exact_moment_budget_guard():
    # one budget on the k^d * 2^d = (2k)^d assignments, with one message: 4^30 at d = 30, k = 2
    inst = ChaosInstance.uniform(30, 2)
    with pytest.raises(BudgetExceededError) as moment:
        exact_moment(inst, 1)
    with pytest.raises(BudgetExceededError) as expectation:
        sequence_expectation(PairSequence(((1, 2), (1, 2))), inst.dense, k=2, d=30)
    assert str(moment.value) == str(expectation.value) == (
        "4^30 assignments exceed the exact enumeration budget 100000000")


def canonical_partition(buckets) -> tuple[int, ...]:
    """Relabel a bucket map's values in order of first appearance."""
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(b, len(labels)) for b in buckets)


def test_bucket_partitions_are_the_induced_partitions_once_each():
    for d in range(1, 7):
        for k in range(1, 5):
            partitions = list(bucket_partitions(d, k))
            assert len(partitions) == len(set(partitions))
            induced = Counter(canonical_partition(b) for b in product(range(k), repeat=d))
            assert set(partitions) == set(induced)
            for labels in partitions:
                assert induced[labels] == math.perm(k, max(labels) + 1)


def test_partition_weights_count_every_assignment():
    for d in range(1, 9):
        for k in range(1, 6):
            weights = sum(math.perm(k, max(labels) + 1) * 2 ** d
                          for labels in bucket_partitions(d, k))
            assert weights == k ** d * 2 ** d


def brute_force_power_moments(inst: ChaosInstance, powers) -> list[float]:
    """Every power's mean over all k^d bucket maps and 2^d sign patterns, each
    assignment's value an fsum over its ordered pairs."""
    x, d = inst.dense, inst.d
    values = []
    for buckets in product(range(inst.k), repeat=d):
        for signs in product((1, -1), repeat=d):
            values.append(math.fsum(x[i] * x[j] * signs[i] * signs[j]
                                    for i in range(d) for j in range(d)
                                    if i != j and buckets[i] == buckets[j]))
    total = len(values)
    return [math.fsum(v ** power for v in values) / total for power in powers]


@st.composite
def awkward_unit_vectors(draw):
    """Unit vectors with zero entries and entries whose products are subnormal."""
    d = draw(st.integers(1, 6))
    entry = st.one_of(st.floats(-1.0, 1.0), st.just(0.0),
                      st.floats(1e-170, 1e-155), st.floats(-1e-155, -1e-170))
    values = draw(st.lists(entry, min_size=d, max_size=d))
    values[draw(st.integers(0, d - 1))] = draw(st.floats(0.25, 1.0))
    norm = math.sqrt(math.fsum(v * v for v in values))
    return SparseVector.from_dense([v / norm for v in values])


@settings(max_examples=40, deadline=None)
@given(x=awkward_unit_vectors(), k=st.integers(1, 3))
def test_exact_power_moment_equals_brute_force_bit_for_bit(x, k):
    inst = ChaosInstance(k=k, x=x)
    powers = range(1, 7)
    expected = brute_force_power_moments(inst, powers)
    assert [_exact_power_moment(inst, p).hex() for p in powers] == [e.hex() for e in expected]


def test_huge_terms_make_the_moment_infinite():
    # one bucket and equal signs at d = 3 give Z = 2: the term 2^1023 doubles
    # to inf, as in the plain enumeration, while 2^1022 still sums finitely
    inst = ChaosInstance.uniform(3, 1)
    assert math.isfinite(_exact_power_moment(inst, 1022))
    assert _exact_power_moment(inst, 1023) == math.inf


def test_monte_carlo_moment_consistent_with_exact():
    inst = ChaosInstance.uniform(3, 2)
    mean, se = monte_carlo_moment(inst, 1, trials=20000, seed=4)
    assert abs(mean - 2.0 / 3.0) <= 4.0 * se


def reference_monte_carlo_moment(inst: ChaosInstance, m: int, trials: int,
                                 seed: int) -> tuple[float, float]:
    """monte_carlo_moment computed row by row: every chunk of up to 4096 trials
    draws its buckets, then its sign bits, and each trial's row is summed,
    squared and raised to the power on its own."""
    rng = np.random.default_rng(seed)
    x = np.array(inst.dense)
    norm_sq = float(x @ x)
    powers = np.empty(trials, dtype=np.float64)
    position = 0
    while position < trials:
        n = min(4096, trials - position)
        buckets = rng.integers(0, inst.k, size=(n, inst.d))
        signs = rng.integers(0, 2, size=(n, inst.d)) * 2 - 1
        # row r's buckets offset by r * k, summed by one bincount
        offset = buckets + np.arange(0, n * inst.k, inst.k)[:, None]
        sums = np.bincount(offset.reshape(-1), weights=(signs * x).reshape(-1),
                           minlength=n * inst.k).reshape(n, inst.k)
        values = np.full(n, -norm_sq)
        for t in range(inst.k):
            values += sums[:, t] ** 2
        powers[position:position + n] = values ** (2 * m)
        position += n
    return float(powers.mean()), float(powers.std(ddof=1) / math.sqrt(trials))


# (2k)^d patterns against min(trials, 4096): 2 fit at every trial count, 64
# at all but 2 trials, 4096 only from 4096 trials on, and 7776 never; at
# k = 40 each row's running sum of squares spans 40 columns
@pytest.mark.parametrize("trials", [2, 4095, 4096, 4097, 10000])
@pytest.mark.parametrize("d, k, m", [(1, 1, 1), (3, 2, 2), (6, 2, 1), (5, 3, 3), (12, 40, 1)])
@pytest.mark.parametrize("x_kind", ["uniform", "random"])
def test_monte_carlo_moment_matches_row_by_row_reference(d, k, m, trials, x_kind):
    if x_kind == "uniform":
        inst = ChaosInstance.uniform(d, k)
    else:
        rng = np.random.default_rng([d, k, trials])
        inst = ChaosInstance(k=k, x=unit_vector(rng, d))
    got = monte_carlo_moment(inst, m, trials, seed=trials + d)
    expected = reference_monte_carlo_moment(inst, m, trials, seed=trials + d)
    assert [v.hex() for v in got] == [v.hex() for v in expected]


# (mc_mean, mc_se) at seed 0 for the benchmark's 14 moment cells at 10,000
# trials, then two cells with more (bucket, sign) patterns than trials
@pytest.mark.parametrize("d, k, m, trials, expected", [
    (2, 2, 1, 10000, (0.49689999999999984, 0.005000153913022614)),
    (2, 2, 2, 10000, (0.4968999999999996, 0.005000153913022613)),
    (2, 3, 1, 10000, (0.33469999999999983, 0.004719090800334124)),
    (2, 3, 2, 10000, (0.3346999999999997, 0.0047190908003341215)),
    (3, 2, 1, 10000, (0.6620444444444449, 0.008522979350355701)),
    (3, 2, 2, 10000, (1.164641975308644, 0.037879908223803146)),
    (3, 3, 1, 10000, (0.4475111111111114, 0.006478019567027271)),
    (3, 3, 2, 10000, (0.6198716049382726, 0.02687559236070348)),
    (4, 2, 1, 10000, (0.7694, 0.013109902782061183)),
    (4, 2, 2, 10000, (2.3105, 0.10570200455231035)),
    (4, 3, 1, 10000, (0.50415, 0.00812979932800997)),
    (4, 3, 2, 10000, (0.9150375, 0.054912520523332356)),
    (4, 3, 3, 10000, (4.227384375, 0.4827960584833236)),
    (6, 2, 2, 10000, (3.79216790123457, 0.24421262272635666)),
    (6, 2, 1, 2000, (0.8033333333333335, 0.03617985999022432)),
    (5, 3, 2, 10000, (1.1913932799999998, 0.08305953267669365)),
])
def test_monte_carlo_moment_golden_values(d, k, m, trials, expected):
    got = monte_carlo_moment(ChaosInstance.uniform(d, k), m, trials, seed=0)
    assert repr(got) == repr(expected)


def ordered_expansion(inst: ChaosInstance, m: int) -> float:
    """The graph expansion summed with fsum over every ordered pair sequence."""
    pairs = [(a, b) for a in range(1, inst.d + 1) for b in range(a + 1, inst.d + 1)]
    return float(4 ** m) * math.fsum(weight(build_multigraph(PairSequence(seq)), inst.dense, inst.k)
                                     for seq in product(pairs, repeat=2 * m))


def test_grouped_expansion_equals_ordered_sum_bit_for_bit():
    uniform_cells = [(d, k, m) for d in (2, 3, 4) for k in (2, 3) for m in (1, 2)]
    uniform_cells += [(4, 3, 3), (6, 2, 2)]
    instances = [(ChaosInstance.uniform(d, k), m) for d, k, m in uniform_cells]
    rng = np.random.default_rng(41)
    for d, k, m in [(3, 2, 3), (4, 3, 2), (5, 2, 2), (6, 3, 1)]:
        instances.append((ChaosInstance(k=k, x=unit_vector(rng, d)), m))
    for inst, m in instances:
        assert graph_expansion_moment(inst, m) == ordered_expansion(inst, m)


def test_streamed_expansion_equals_cached(monkeypatch):
    rng = np.random.default_rng(43)
    instances = [(ChaosInstance.uniform(4, 2), 2), (ChaosInstance.uniform(3, 3), 3),
                 (ChaosInstance(k=2, x=unit_vector(rng, 5)), 2)]
    cached = [graph_expansion_moment(inst, m) for inst, m in instances]
    monkeypatch.setattr(sjlt.chaos, "_GRAPH_CACHE_LIMIT", 0)
    sjlt.chaos._cached_graphs.cache_clear()
    assert [graph_expansion_moment(inst, m) for inst, m in instances] == cached
    assert sjlt.chaos._cached_graphs.cache_info().currsize == 0


def test_cached_graphs_hold_only_even_multigraphs():
    for (d, two_m), size in {(6, 4): 165, (4, 6): 74}.items():
        graphs = sjlt.chaos._cached_graphs(d, two_m)
        assert len(graphs) == size
        assert all(c % 2 == 0 for _, graph in graphs for c in graph.degree.values())


def test_expansion_budget_message():
    # the budget counts ordered sequences: 28^6 at d = 8, m = 3
    with pytest.raises(BudgetExceededError) as excinfo:
        graph_expansion_moment(ChaosInstance.uniform(8, 1), 3)
    assert str(excinfo.value) == "28^6 sequences exceed the enumeration budget 100000000"


# float.hex pins of the exact oracles, taken from the plain enumerations: ordered
# pairs, every sign pattern and every pair multiset. Skipping zero and
# mirror-image terms must keep every bit.
PINNED_UNIFORM_MOMENTS = (
    # d, k, m, exact_moment, graph_expansion_moment
    (2, 2, 1, "0x1.ffffffffffffcp-2", "0x1.ffffffffffffcp-2"),
    (2, 2, 2, "0x1.ffffffffffff8p-2", "0x1.ffffffffffffap-2"),
    (2, 3, 1, "0x1.5555555555553p-2", "0x1.5555555555553p-2"),
    (2, 3, 2, "0x1.5555555555550p-2", "0x1.5555555555551p-2"),
    (3, 2, 1, "0x1.5555555555558p-1", "0x1.5555555555559p-1"),
    (3, 2, 2, "0x1.2f684bda12f6dp+0", "0x1.2f684bda12f6ep+0"),
    (3, 3, 1, "0x1.c71c71c71c721p-2", "0x1.c71c71c71c720p-2"),
    (3, 3, 2, "0x1.2f684bda12f6dp-1", "0x1.2f684bda12f6ep-1"),
    (4, 2, 1, "0x1.8000000000000p-1", "0x1.8000000000000p-1"),
    (4, 2, 2, "0x1.1400000000000p+1", "0x1.1400000000000p+1"),
    (4, 3, 1, "0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    (4, 3, 2, "0x1.d555555555555p-1", "0x1.d555555555555p-1"),
    (4, 3, 3, "0x1.16aaaaaaaaaabp+2", "0x1.16aaaaaaaaaaap+2"),
    (6, 2, 2, "0x1.da12f684bda1dp+1", "0x1.da12f684bda1dp+1"),
    (1, 2, 1, "0x0.0p+0", "0x0.0p+0"),
)
# k and the unit vector: negative entries, entries near 1e-13, and tiny ones
# whose products are subnormal
PINNED_VECTORS = {
    "a": (2, (
        "0x1.c04773d63af49p-3", "0x1.0a717676c39d7p-1", "0x1.1d3fcc78c90a5p-44",
        "-0x1.a69a171c66528p-1",
    )),
    "b": (3, (
        "-0x1.600396949557ep-43", "-0x1.16ef21d6f9c5ep-2", "-0x1.b8d07a69994bap-3",
        "0x1.d55a1e1b71ca8p-45", "0x1.e0277d4650a1ap-1",
    )),
    "c": (2, (
        "0x1.3ceb792c58cabp-1", "-0x1.8cd9de6608a43p-1", "0x1.03b1c360f5587p-3",
    )),
    "d": (2, (
        "-0x1.08d2504d04e3ap-2", "-0x1.1bf301f7759d4p-4", "0x1.51fbe69ed4589p-1",
        "0x1.0bcf7d8ee459bp-2", "-0x1.4d72c66868b4ep-1", "0x1.6562359213bcap-44",
    )),
    "e": (2, (
        "0x1.3333333333333p-1", "0x1.999999999999ap-1", "0x1.67e9c127b6e74p-532",
    )),
    "f": (3, (
        "0x1.3333333333333p-1", "0x1.999999999999ap-1", "0x1.67e9c127b6e74p-532",
        "0x1.be4ad0cad88f6p-534",
    )),
}
PINNED_VECTOR_MOMENTS = (
    ("a", 1, "0x1.d7460745d2e0cp-2", "0x1.d7460745d2e0dp-2"),
    ("a", 2, "0x1.fa333b1aeb8efp-2", "0x1.fa333b1aeb8f1p-2"),
    ("a", 3, "0x1.7e4196ca66751p-1", "0x1.7e4196ca66752p-1"),
    ("b", 1, "0x1.2ad78719ae1bep-3", "0x1.2ad78719ae1bep-3"),
    ("b", 2, "0x1.05a3dcfcfe559p-4", "0x1.05a3dcfcfe559p-4"),
    ("c", 1, "0x1.f7d0feedfb4f2p-2", "0x1.f7d0feedfb4f4p-2"),
    ("c", 2, "0x1.070ab2d5e105ep-1", "0x1.070ab2d5e105ep-1"),
    ("c", 3, "0x1.3cc5c4f7c241ap-1", "0x1.3cc5c4f7c241bp-1"),
    ("d", 1, "0x1.3df8014396529p-1", "0x1.3df8014396529p-1"),
    ("d", 2, "0x1.2605c4b3f2b0bp+0", "0x1.2605c4b3f2b0cp+0"),
    ("e", 1, "0x1.d7dbf487fcb92p-2", "0x1.d7dbf487fcb94p-2"),
    ("e", 2, "0x1.b2dd8d6457178p-2", "0x1.b2dd8d645717ap-2"),
    ("e", 3, "0x1.90c5a106ddfc4p-2", "0x1.90c5a106ddfc6p-2"),
    ("f", 1, "0x1.3a92a30553261p-2", "0x1.3a92a30553262p-2"),
    ("f", 2, "0x1.21e908ed8f650p-2", "0x1.21e908ed8f651p-2"),
)
PINNED_CHAOS_VALUES = (
    # vector, buckets, signs, chaos_value
    ("a", (1, 0, 1, 0), (1, -1, 1, 1), "0x1.b7d76996ca838p-1"),
    ("a", (0, 0, 0, 0), (-1, -1, -1, 1), "0x1.72be460338f65p+0"),
    ("a", (0, 1, 0, 0), (1, 1, -1, 1), "-0x1.7201ce337ce3cp-2"),
    ("a", (0, 0, 1, 0), (1, -1, -1, -1), "-0x1.737abdd2f442ep-1"),
    ("b", (1, 0, 2, 1, 0), (1, 1, -1, 1, -1), "0x1.0595b3304e6b9p-1"),
    ("b", (1, 1, 0, 1, 2), (-1, 1, 1, -1, -1), "-0x1.ff6649deaaf8ap-45"),
    ("b", (2, 2, 2, 2, 1), (1, 1, 1, -1, 1), "0x1.e04e29d604c73p-4"),
    ("b", (1, 2, 0, 2, 0), (1, -1, 1, 1, -1), "0x1.9d65727fc2b14p-2"),
    ("c", (1, 1, 1), (1, -1, -1), "0x1.364563ea40669p-1"),
    ("c", (0, 1, 0), (-1, -1, 1), "-0x1.417e4c460ad38p-3"),
    ("c", (0, 1, 1), (-1, -1, 1), "0x1.9293fd8441badp-3"),
    ("c", (1, 1, 1), (-1, -1, -1), "-0x1.ff8f62ac6143fp-1"),
    ("d", (1, 0, 1, 1, 1, 1), (1, -1, -1, -1, 1, 1), "0x1.2dfef8a563243p+1"),
    ("d", (1, 0, 1, 0, 0, 0), (1, -1, -1, -1, -1, 1), "0x1.c10bf976528c3p-5"),
    ("d", (1, 0, 1, 0, 1, 0), (-1, -1, -1, 1, -1, 1), "-0x1.a803fb2f5dfeap-1"),
    ("d", (1, 1, 0, 1, 1, 0), (-1, -1, 1, -1, -1, -1), "-0x1.92e935e6b17c7p-5"),
    ("e", (1, 1, 1), (1, -1, -1), "-0x1.eb851eb851eb8p-1"),
    ("e", (0, 1, 0), (-1, -1, 1), "-0x1.afe54e2fa848bp-532"),
    ("e", (0, 1, 1), (-1, -1, 1), "-0x1.1fee341fc585dp-531"),
    ("e", (1, 1, 1), (-1, -1, -1), "0x1.eb851eb851eb8p-1"),
    ("f", (1, 0, 2, 0), (1, -1, 1, 1), "-0x1.6508a708ad3f8p-533"),
    ("f", (0, 1, 1, 0), (-1, -1, -1, 1), "0x1.b9f9299c4a13dp-532"),
    ("f", (0, 1, 0, 0), (1, 1, -1, 1), "-0x1.2a020f8c6750ep-532"),
    ("f", (1, 0, 2, 0), (1, -1, -1, -1), "0x1.6508a708ad3f8p-533"),
    ("f", (0, 1, 2, 2), (1, 1, 1, -1), "-0x0.00000000004e6p-1022"),
    ("f", (0, 1, 2, 2), (1, -1, -1, -1), "0x0.00000000004e6p-1022"),
)


def test_exact_oracles_keep_their_pinned_bits():
    for d, k, m, exact, expansion in PINNED_UNIFORM_MOMENTS:
        inst = ChaosInstance.uniform(d, k)
        assert (exact_moment(inst, m).hex(), graph_expansion_moment(inst, m).hex()) == \
            (exact, expansion), (d, k, m)
    instances = {}
    for name, (k, entries) in PINNED_VECTORS.items():
        x = SparseVector.from_dense([float.fromhex(e) for e in entries])
        instances[name] = ChaosInstance(k=k, x=x)
    for name, m, exact, expansion in PINNED_VECTOR_MOMENTS:
        inst = instances[name]
        assert (exact_moment(inst, m).hex(), graph_expansion_moment(inst, m).hex()) == \
            (exact, expansion), (name, m)
    for name, buckets, signs, value in PINNED_CHAOS_VALUES:
        assignment = RandomnessAssignment(buckets, signs)
        assert chaos_value(instances[name], assignment).hex() == value, (name, buckets, signs)


# ------------------------------------------------------------------ the bound

def test_moment_bound_single_term():
    for k in (2, 3):
        inst = ChaosInstance.uniform(3, k)
        assert moment_upper_bound(inst, 1, 3.0) == pytest.approx(2.0 / k, rel=1e-12)


# float.hex of moment_upper_bound(uniform(d, k), m, C=d) on the oracles cells,
# as the per-i class histograms gave them
PINNED_BOUNDS = (
    (2, 2, 1, "0x1.0000000000000p+0"), (2, 2, 2, "0x1.0000000000000p+4"),
    (2, 3, 1, "0x1.5555555555555p-1"), (2, 3, 2, "0x1.9c71c71c71c71p+2"),
    (3, 2, 1, "0x1.0000000000000p+0"), (3, 2, 2, "0x1.ae38e38e38e39p+3"),
    (3, 3, 1, "0x1.5555555555555p-1"), (3, 3, 2, "0x1.4bda12f684bdap+2"),
    (4, 2, 1, "0x1.0000000000000p+0"), (4, 2, 2, "0x1.8800000000000p+3"),
    (4, 3, 1, "0x1.5555555555555p-1"), (4, 3, 2, "0x1.271c71c71c71cp+2"),
    (4, 3, 3, "0x1.297da12f684bep+7"), (6, 2, 2, "0x1.638e38e38e38ep+3"),
)


def test_moment_bound_keeps_its_pinned_bits():
    for d, k, m, bound in PINNED_BOUNDS:
        assert moment_upper_bound(ChaosInstance.uniform(d, k), m, float(d)).hex() == bound


def test_moment_bound_budget_names_the_first_refused_vertex_count():
    # the bound builds one (2m, 2m) class table: 44*(44+1) entries at m = 22
    # fit the table budget, and m = 23 is the first refused, named by its 46
    # vertices
    check_table_budget(44, 44)
    with pytest.raises(BudgetExceededError) as excinfo:
        moment_upper_bound(ChaosInstance.uniform(3, 2), 23, 3.0)
    assert str(excinfo.value) == "46*(46+1) class table entries exceed the table budget 2048"


# (d, k, m) with its exact and expansion moments: 3^12 sequences, past the
# census's budget, which the bound's tables do not use
NEW_CELL_READING = ((3, 2, 6), 256.00722563746564, 256.00722563746575)


def test_moment_bound_dominates_on_cells_beyond_the_census_budget():
    # the paper's inequality at m >= 4, where C(8,2)^8 > 10^9 sequences
    # exceed the census's budget but the bound's tables enumerate nothing
    for d in (2, 3):
        for k in (2, 3):
            for m in range(4, 9):
                inst = ChaosInstance.uniform(d, k)
                exact, expansion = exact_moment(inst, m), graph_expansion_moment(inst, m)
                assert abs(exact - expansion) <= 1e-12 * max(exact, expansion), (d, k, m)
                assert exact <= moment_upper_bound(inst, m, float(d)) * (1 + 1e-12), (d, k, m)
    (d, k, m), exact, expansion = NEW_CELL_READING
    inst = ChaosInstance.uniform(d, k)
    assert (exact_moment(inst, m), graph_expansion_moment(inst, m)) == (exact, expansion)
    assert moment_upper_bound(inst, m, float(d)) == pytest.approx(3.4464351e10, rel=1e-6)


@pytest.mark.parametrize("cap", [1e-200, 5e-324, 1e-100])
def test_moment_bound_is_inf_past_the_float_range(cap):
    # C^(2m-i) underflows to 0.0 for an admissible tiny cap: the exact sum
    # exceeds the largest float, and inf is a true bound
    assert moment_upper_bound(ChaosInstance.uniform(2, 2), 3, cap) == math.inf


def test_moment_bound_stays_exact_when_a_power_of_k_overflows():
    # k^(i-t) overflows a float at k = 10^200; the exact sum is finite, and
    # for uniform x at d = 2 the moment is the collision probability 1/k
    k = 10 ** 200
    bound = moment_upper_bound(ChaosInstance.uniform(2, k), 3, 2.0)
    assert math.isfinite(bound) and 1.0 / k <= bound


def test_moment_bound_dominates_exact_moment():
    rng = np.random.default_rng(23)
    for d, k, m in [(3, 2, 1), (4, 2, 2), (4, 3, 2)]:
        for _ in range(10):
            cap = 1.0 / math.sqrt(d)
            x = None
            while x is None:
                v = rng.standard_normal(d)
                v /= np.linalg.norm(v)
                if np.max(np.abs(v)) <= cap * 1.75:
                    scaled_cap = float(np.max(np.abs(v)))
                    x = SparseVector.from_dense(v)
            inst = ChaosInstance(k=k, x=x)
            big_c = 1.0 / scaled_cap ** 2
            bound = moment_upper_bound(inst, m, big_c)
            assert exact_moment(inst, m) <= bound * (1 + 1e-12)


def test_moment_bound_dominates_graph_expansion():
    inst = ChaosInstance.uniform(4, 2)
    for m in (1, 2):
        assert graph_expansion_moment(inst, m) <= moment_upper_bound(inst, m, 4.0) * (1 + 1e-12)


def test_moment_bound_decreases_in_cap():
    # every term carries C^-(2m-i) with i <= 2m, so a larger cap only shrinks it;
    # C = 4 is the largest that uniform(4, 2), x_i^2 = 1/4, admits
    inst = ChaosInstance.uniform(4, 2)
    bounds = [moment_upper_bound(inst, 2, C) for C in (1.0, 2.0, 3.0, 4.0)]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    assert bounds[0] > bounds[-1]


@pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf])
def test_non_finite_cap_rejected_before_any_phase(monkeypatch, cap):
    inst = ChaosInstance.uniform(3, 2)
    with pytest.raises(ValueError, match="C must be finite"):
        moment_upper_bound(inst, 2, cap)

    def unreachable(*args, **kwargs):
        raise AssertionError("a moment phase ran before C was checked")

    for phase in ("monte_carlo_moment", "exact_moment", "graph_expansion_moment"):
        monkeypatch.setattr(sjlt.chaos, phase, unreachable)
    with pytest.raises(ValueError, match="C must be finite"):
        moment_report(inst, 2, cap, trials=100, seed=0)


def test_default_cap_accepted_for_every_budgeted_d():
    # sjlt moment-report's default C = d; k = 1 lets the most d through the budget
    with pytest.raises(BudgetExceededError):
        check_assignment_budget(27, 1)
    for d in range(1, 27):
        check_assignment_budget(d, 1)
        moment_upper_bound(ChaosInstance.uniform(d, 1), 1, float(d))


@pytest.mark.parametrize("d, k, m, error, message", [
    (14, 2, 1, BudgetExceededError,
     "4^14 assignments exceed the exact enumeration budget 100000000"),
    (3, 2, 0, ValueError, "m must be positive"),
    (8, 1, 3, BudgetExceededError,
     "28^6 sequences exceed the enumeration budget 100000000"),
    (2, 2, 23, BudgetExceededError,
     "46*(46+1) class table entries exceed the table budget 2048"),
])
def test_exact_phase_refusals_come_before_any_phase(monkeypatch, d, k, m, error, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("a moment phase ran before its refusal")

    for phase in ("monte_carlo_moment", "exact_moment", "graph_expansion_moment"):
        monkeypatch.setattr(sjlt.chaos, phase, unreachable)
    with pytest.raises(error) as excinfo:
        moment_report(ChaosInstance.uniform(d, k), m, float(d), trials=100, seed=0)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("trials, seed, message", [
    (1, 0, "need at least 2 trials"),
    (100, -1, "seed must be non-negative, got -1"),
])
def test_monte_carlo_refusals_come_before_any_phase(monkeypatch, trials, seed, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("a moment phase ran before its refusal")

    for phase in ("monte_carlo_moment", "exact_moment", "graph_expansion_moment"):
        monkeypatch.setattr(sjlt.chaos, phase, unreachable)
    with pytest.raises(ValueError) as excinfo:
        moment_report(ChaosInstance.uniform(3, 2), 1, 3.0, trials=trials, seed=seed)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("d, k, trials, refused", [
    # every other budget passes d = 1, k = 5*10^7: its 4096-row chunk once
    # asked numpy for 1.49 TiB of bucket sums
    (1, 50_000_000, 10_000, "4096*50000000"),
    (2, 1025, 10_000, "4096*1025"),
    (2, 2098, 2000, "2000*2098"),
    (2, 1024, 10_000, None),
    (2, 2097, 2000, None),
])
def test_monte_carlo_bucket_sums_have_their_own_budget(monkeypatch, d, k, trials, refused):
    # a chunk, or its pattern table, sums min(trials, 4096) * k buckets; the
    # refusal comes before any phase, and a direct Monte Carlo call makes it too
    assert sjlt.chaos.MC_SUM_BUDGET == 4096 * 1024
    inst = ChaosInstance.uniform(d, k)
    if refused is None:
        sjlt.chaos.check_moment_report(d, k, 22, trials, 0)
        return
    message = f"{refused} Monte Carlo bucket sums exceed the Monte Carlo budget 4194304"
    with pytest.raises(BudgetExceededError) as excinfo:
        monte_carlo_moment(inst, 1, trials, seed=0)
    assert str(excinfo.value) == message

    def unreachable(*args, **kwargs):
        raise AssertionError("a moment phase ran before its refusal")

    for phase in ("monte_carlo_moment", "exact_moment", "graph_expansion_moment"):
        monkeypatch.setattr(sjlt.chaos, phase, unreachable)
    with pytest.raises(BudgetExceededError) as excinfo:
        moment_report(inst, 22, 1.0, trials=trials, seed=0)
    assert str(excinfo.value) == message


def test_monte_carlo_runs_at_its_sum_budget():
    # 4096 * 1024 bucket sums: the whole budget in one row-path chunk
    mean, se = monte_carlo_moment(ChaosInstance.uniform(2, 1024), 1, 4096, seed=0)
    assert math.isfinite(mean) and math.isfinite(se) and se >= 0.0


@pytest.mark.parametrize("trials, seed, message", [
    (1, 0, "need at least 2 trials"),
    (100, -1, "seed must be non-negative, got -1"),
])
def test_monte_carlo_moment_refuses_its_draws_when_called_directly(trials, seed, message):
    with pytest.raises(ValueError) as excinfo:
        monte_carlo_moment(ChaosInstance.uniform(3, 2), 1, trials, seed)
    assert str(excinfo.value) == message


def test_moment_report_bundle():
    inst = ChaosInstance.uniform(2, 2)
    report = moment_report(inst, 1, 2.0, trials=2000, seed=1)
    assert report.exact == pytest.approx(0.5, rel=1e-12)
    assert report.graph_expansion == pytest.approx(0.5, rel=1e-12)
    assert report.rhs_bound == pytest.approx(1.0, rel=1e-12)
    assert report.mc_se > 0


# ---------------------------------------------------------------------- tails

def test_tail_zero_for_basis_vector():
    # a single nonzero replica has no cross terms, so the chaos is identically 0
    x = SparseVector.from_dense((1.0, 0.0, 0.0, 0.0))
    report = tail_estimate(tail_spec(4, 3, 1, 0.5, 1, 2, 2), trials=1000, x=x)
    assert report.hits == 0
    assert report.failure_rate == 0.0
    # the zero vector has no replicas to hash, and its chaos is 0 as well
    zero = SparseVector(4, ())
    assert tail_estimate(tail_spec(4, 3, 1, 0.5, 1, 2, 2), trials=1000, x=zero).hits == 0


def test_tail_forced_collision_boundary():
    # d=2, k=1 forces a collision so |value| always equals epsilon exactly;
    # integer coordinates keep the arithmetic float-exact, which makes this a
    # true test of the closed >= threshold
    x = SparseVector.from_dense((1.0, 1.0))
    report = tail_estimate(tail_spec(2, 1, 1, 2.0, 3, 4, 2), trials=1000, x=x)
    assert report.failure_rate == 1.0


def test_tail_requires_enough_trials():
    with pytest.raises(ValueError):
        tail_estimate(tail_spec(2, 2, 1, 0.5, 0, 1, 2), trials=10)


def test_trial_reports_refuse_before_hashing(monkeypatch):
    # each refusal of both reports comes before any seed expansion or kernel
    # call, in the order trials, dimension, zero vector: a zero vector of the
    # wrong dimension gets the dimension message
    def hashed(*args, **kwargs):
        raise AssertionError("hashing began")

    monkeypatch.setattr(sjlt.transform, "generator_block", hashed)
    monkeypatch.setattr(sjlt.transform, "eval_bucket_batch", hashed)
    spec = tail_spec(8, 4, 2, 0.5, 1, 2, 4)
    wrong, wrong_zero = uniform_vector(9), SparseVector(9, ())
    dimension = "vector dimension 9 does not match spec dimension 8"
    for call, message in (
            (lambda: distortion_bench(spec, 0, x=wrong_zero), "trials must be positive"),
            (lambda: tail_estimate(spec, 999, x=wrong), "need at least 1000 trials"),
            (lambda: distortion_bench(spec, 10, x=wrong), dimension),
            (lambda: tail_estimate(spec, 1000, x=wrong), dimension),
            (lambda: distortion_bench(spec, 10, x=wrong_zero), dimension),
            (lambda: distortion_bench(spec, 10, x=SparseVector(8, ())),
             "zero vector has no distortion ratio")):
        with pytest.raises(ValueError, match=message):
            call()
    # the patched names are the ones a report's first block calls
    for call in (lambda: distortion_bench(spec, 10), lambda: tail_estimate(spec, 1000)):
        with pytest.raises(AssertionError, match="hashing began"):
            call()


def test_tail_rejects_equal_seeds():
    # equal seeds expand to one polynomial for both the bucket and the sign hash;
    # the spec the estimator takes refuses them
    with pytest.raises(ValueError, match="must differ"):
        tail_estimate(tail_spec(2, 2, 1, 0.5, 7, 7, 2), trials=1000)


def test_tail_rejects_bucket_bias():
    # k / (2^61 - 1) above 2^-20 is refused by the spec, before any k-length
    # sum is allocated
    with pytest.raises(ValueError, match="bucket reduction bias"):
        tail_estimate(tail_spec(4, 2**42, 1, 0.5, 7, 8, 2), trials=1000)


def _reference_outcomes(spec, x, trials):
    # per trial (distortion failed, tail hit), both judged from the trial's
    # one row y, the one distortion_trial takes its ratio from:
    # apply_with_generators under the trial's own seeds
    degree, norm_sq = spec.independence_degree, math.fsum(v * v for _, v in x.entries)
    outcomes = []
    for t in range(trials):
        y = apply_with_generators(x, spec.c, spec.k,
                                  new_generator(spec.bucket_seed + t, degree, spec.k),
                                  new_generator(spec.sign_seed + t, degree, 2))
        ratio = float(np.sqrt(y @ y)) / x.norm()
        outcomes.append((ratio < 1.0 - spec.epsilon or ratio > 1.0 + spec.epsilon,
                         abs(float(y @ y) - norm_sq) >= spec.epsilon))
    return outcomes


def _tail_count_fn(spec, x):
    # tail_estimate's own count function, taken where it goes to partitioned_count,
    # so that any trial range can be counted, one trial or below the 1000-trial floor
    taken = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sjlt.chaos, "partitioned_count", lambda count, total: taken.append(count) or 0)
        tail_estimate(spec, 1000, x=x)
    return taken[0]


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_tail_matches_distortion_ratio():
    # one reference for both reports: trial t's row y fails distortion_bench
    # by |y| / |x| and hits tail_estimate by |y @ y - fsum(x^2)| >= epsilon,
    # trial by trial. c = 2, so 1/sqrt(c) is not exact, and x is non-dyadic
    # with gaps.
    rng = np.random.default_rng(2032)
    dense = rng.standard_normal(24)
    dense[[0, 5, 6, 13, 23]] = 0.0
    dense /= np.linalg.norm(dense)
    x = SparseVector.from_dense(dense)
    spec = derive_spec(24, 0.25, 0.01, 5, 6, (1.0, 0.11, 0.2))
    assert (spec.c, spec.k, spec.independence_degree) == (2, 9, 10)
    fails, hits = zip(*_reference_outcomes(spec, x, 1000))
    assert 0 < sum(fails) < len(fails) and 0 < sum(hits) < len(hits)
    count = _tail_count_fn(spec, x)
    assert [bool(count(t, t + 1)) for t in range(len(hits))] == list(hits)
    assert tail_estimate(spec, 1000, x=x).hits == sum(hits)
    assert distortion_bench(spec, 1000, x=x).failures == sum(fails)


def _block_trials(n, k):
    # trials per kernel call for n points per trial
    return max(1, 2 * HORNER_BLOCK // max(n, k))


def _reference_bucket_sums(bucket_seed, sign_seed, degree, k, flat, replicated):
    # one trial written out with explicit generators and a plain bincount
    buckets = eval_bucket_batch(new_generator(bucket_seed, degree, k), flat)
    signs = eval_sign_batch(new_generator(sign_seed, degree, 2), flat)
    return np.bincount(buckets, weights=signs * replicated, minlength=k)


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_trial_loops_match_per_trial_reference():
    # non-dyadic entries and c > 1, where bucket sums are rounded, unlike the
    # dyadic c = 1 settings the benchmark's reference checks. The reference
    # hashes one trial at a time, point by point by Horner; the loops hash
    # blocks of trials, runs of c, by differences once c > degree. Trial
    # counts straddle the block boundaries, x has gaps so its replica points
    # are not one run, and odd k puts the rows of 2-D bucket sums at
    # unaligned addresses.
    rng = np.random.default_rng(2024)
    d, epsilon = 24, 0.25
    dense = rng.standard_normal(d)
    dense[[1, 2, 7, 15, 16, 17, 23]] = 0.0
    dense /= np.linalg.norm(dense)
    sparse = SparseVector.from_dense(dense)
    indices = np.array([i for i, _ in sparse.entries], dtype=np.uint64)
    bucket_seed, sign_seed = 1234, 98765

    # kappa_c = 0.2 gives c = 2 < degree 10; 2.0 gives c = 18 > degree 10
    for constants, expected_c in (((1.0, 0.11, 0.2), 2), ((1.0, 0.11, 2.0), 18)):
        spec = derive_spec(d, epsilon, 0.01, bucket_seed, sign_seed, constants)
        c, k = spec.c, spec.k
        assert (c, spec.independence_degree, k % 2) == (expected_c, 10, 1)
        flat = (indices[:, None] * np.uint64(c) + np.arange(c, dtype=np.uint64)).reshape(-1)
        replicated = np.repeat([v for _, v in sparse.entries], c)
        rows = _block_trials(flat.size, k)
        fails = []
        for t in range(2 * rows + 3):
            y = _reference_bucket_sums(bucket_seed + t, sign_seed + t, spec.independence_degree,
                                       k, flat, replicated) / math.sqrt(c)
            ratio = float(np.sqrt(y @ y)) / sparse.norm()
            fails.append(ratio < 1.0 - epsilon or ratio > 1.0 + epsilon)
        assert 0 < sum(fails) < len(fails)
        for trials in (1, rows - 1, rows + 1, 2 * rows + 3):
            report = distortion_bench(spec, trials, x=sparse)
            assert report.failures == sum(fails[:trials])

    for k, c, degree in ((7, 3, 4), (7, 18, 4)):
        spec = tail_spec(d, k, c, 0.3, bucket_seed, sign_seed, degree)
        rows = _block_trials(sparse.nnz * c, k)
        hits = [hit for _, hit in _reference_outcomes(spec, sparse, max(1000, 2 * rows + 3) + 1)]
        assert 0 < sum(hits) < len(hits)
        for trials in (1000, len(hits)):
            assert tail_estimate(spec, trials, x=sparse).hits == sum(hits[:trials])
        # below the estimator's 1000-trial floor, through its own count function
        count = _tail_count_fn(spec, sparse)
        for trials in (1, rows - 1, rows + 1, 2 * rows + 3):
            assert count(0, trials) == sum(hits[:trials])
            assert count(1, trials + 1) == sum(hits[1:trials + 1])


@pytest.mark.parametrize("d", [1, 3, 64, 1000])
def test_default_vector_is_the_uniform_unit_vector(d):
    # the default is built from arrays, with the floats 1/sqrt(d) bit for bit;
    # the oracles' uniform instance reads the same vector
    uniform = SparseVector.from_dense([1.0 / math.sqrt(d)] * d)
    assert uniform_vector(d) == uniform
    assert ChaosInstance.uniform(d, 2).dense == (1.0 / math.sqrt(d),) * d
    spec = tail_spec(d, 16, 4, 0.5, 3, 4 + 2 ** 40, 2)
    assert distortion_bench(spec, 300) == distortion_bench(spec, 300, x=uniform)
    assert tail_estimate(spec, 1000) == tail_estimate(spec, 1000, x=uniform)


@pytest.mark.parametrize("k", [1, 2, 7, 12])
def test_stacked_block_reduction_matches_per_trial_reference(k, monkeypatch):
    # A block hashes buckets and signs in one call at range lcm(k, 2) and
    # reduces the halves to v mod k and v mod 2: k = 1 (range 2, every
    # bucket 0), k = 2 (one range for both), odd k (buckets need a modulo)
    # and even k (buckets are a view). Each trial's scaled sums, read where
    # row_squares receives them, equal two one-trial calls divided by
    # sqrt(c) bit for bit, across partial blocks and from a nonzero first
    # trial; the bucket seed wraps past 2^64 in both. Full blocks step runs
    # of c = 5 by differences, and short last blocks take Horner.
    c, degree = 5, 4
    spec = tail_spec(40, k, c, 0.5, 2**64 - 3, 777, degree)
    indices = np.array([0, 3, 4, 11, 29, 39], dtype=np.uint64)
    values = np.random.default_rng(k).standard_normal(indices.size)
    x = SparseVector(40, zip(indices.tolist(), values.tolist()))
    points = (indices[:, None] * np.uint64(c) + np.arange(c, dtype=np.uint64)).reshape(-1)
    rows = _block_trials(points.size, k)
    reference = [_reference_bucket_sums(spec.bucket_seed + t, spec.sign_seed + t, degree, k,
                                        points, np.repeat(values, c)) / math.sqrt(c)
                 for t in range(2 * rows + 4)]
    seen = []
    original = sjlt.transform.row_squares
    monkeypatch.setattr(sjlt.transform, "row_squares",
                        lambda sums: seen.extend(sums.copy()) or original(sums))
    for trials in (rows - 1, rows + 1, 2 * rows + 3):
        for start in (0, 1):
            seen.clear()
            count = trial_counter(spec, x, lambda squares, norm_sq: np.ones(len(squares), bool))
            assert count(start, start + trials) == trials
            assert np.array(seen).tobytes() == np.array(reference[start:start + trials]).tobytes()


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_trial_block_is_one_kernel_call(monkeypatch):
    # The benchmark's traced kwise.hash_evals counts the points handed to
    # sjlt.transform.eval_bucket_batch. A block of trials hashes its buckets
    # and signs in one such call, so the count stays 2 evaluations per point
    # and trial, and the trial path makes no eval_sign_batch call.
    calls = []
    original = sjlt.transform.eval_bucket_batch

    def counted(gen, points, **kwargs):
        calls.append(len(points))
        return original(gen, points, **kwargs)

    def refused(gen, points, **kwargs):
        raise AssertionError("eval_sign_batch called on the trial path")

    monkeypatch.setattr(sjlt.transform, "eval_bucket_batch", counted)
    monkeypatch.setattr(sjlt.transform, "eval_sign_batch", refused)
    x, spec = _dense_trial_case(24, 0.1)
    n = spec.d * spec.c
    rows = _block_trials(n, spec.k)
    for trials, run in ((2 * rows + 3, lambda t: distortion_bench(spec, t, x=x)),
                        (rows + 1, lambda t: _tail_count_fn(spec, x)(5, 5 + t))):
        calls.clear()
        run(trials)
        assert len(calls) == -(-trials // rows)
        assert sum(calls) == 2 * trials * n


def _dense_trial_case(d, kappa_c):
    # a non-dyadic vector with every coordinate nonzero: each trial's replica
    # points 0 .. d*c - 1 form one consecutive range
    rng = np.random.default_rng(d)
    dense = rng.uniform(0.5, 1.5, d) * rng.choice([-1.0, 1.0], d)
    dense /= np.linalg.norm(dense)
    spec = derive_spec(d, 0.25, 0.01, 4321, 56789, (1.0, 0.11, kappa_c))
    return SparseVector.from_dense(dense), spec


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
@pytest.mark.parametrize("kappa_c, expected_c", [(0.1, 1), (2.0, 18)])
def test_dense_trial_loops_match_per_trial_reference(kappa_c, expected_c):
    # the dense counterpart of the test above: a block's points are one
    # consecutive range per trial, which the kernel steps in runs longer
    # than c, while the reference hashes one trial at a time by Horner
    d = 24
    x, spec = _dense_trial_case(d, kappa_c)
    c, k, degree = spec.c, spec.k, spec.independence_degree
    assert (c, degree, x.nnz) == (expected_c, 10, d)
    rows = _block_trials(d * c, k)
    # a full block stacks 2 * rows segments: its bucket rows, then its sign rows
    block = np.tile(np.arange(d * c, dtype=np.uint64), 2 * rows)
    assert kwise._run_length(block, 2 * rows, degree) > max(c, degree)
    fails, hits = zip(*_reference_outcomes(spec, x, max(1000, 2 * rows + 3)))
    assert 0 < sum(fails) < len(fails) and 0 < sum(hits) < len(hits)
    count = _tail_count_fn(spec, x)
    for trials in (1, rows - 1, rows + 1, 2 * rows + 3):
        assert distortion_bench(spec, trials, x=x).failures == sum(fails[:trials])
        assert count(0, trials) == sum(hits[:trials])
    assert tail_estimate(spec, 1000, x=x).hits == sum(hits[:1000])


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
@pytest.mark.parametrize("horner_block", [1, 7, 4096])
def test_trial_counts_do_not_depend_on_horner_block(monkeypatch, horner_block):
    # the block size sets how many trials share a kernel call, the Horner
    # width and the difference-table chunks; no count may move with it. At
    # the default size the c = 18 block takes runs of 36. The spike vector's
    # points are scattered runs of c = 9 > degree 4, at odd k = 37; 120
    # trials are enough for the default and 4096 blocks to step them by
    # differences, while blocks of one trial take Horner.
    cases = [_dense_trial_case(d, kappa_c) for d, kappa_c in ((24, 0.1), (6, 2.0))]
    spike_spec = TransformSpec(d=64, epsilon=0.15, delta=0.5, m=1, k=37, c=9,
                               bucket_seed=31337, sign_seed=4242, independence_degree=4)
    spikes = SparseVector(64, ((5, 0.5), (6, -0.5), (20, 0.5), (63, 0.5)))

    def counts():
        return ([_tail_count_fn(spec, x)(3, 33) for x, spec in cases]
                + [distortion_bench(spike_spec, 120, x=spikes).failures])

    expected = counts()
    monkeypatch.setattr(kwise, "HORNER_BLOCK", horner_block)
    monkeypatch.setattr(sjlt.transform, "HORNER_BLOCK", horner_block)
    assert counts() == expected
    assert 0 < expected[-1] < 120


def test_tail_markov_consistency():
    # enumerable instance: the sampled tail stays below moment / epsilon^2
    inst = ChaosInstance.uniform(4, 2)
    epsilon = 0.9
    moment = exact_moment(inst, 1)
    assert moment == pytest.approx(0.75, rel=1e-12)
    bound = moment / epsilon ** 2
    report = tail_estimate(tail_spec(4, 2, 1, epsilon, 101, 202, 2), trials=4000, x=inst.x)
    se = math.sqrt(report.failure_rate * (1 - report.failure_rate) / report.trials)
    assert report.failure_rate <= bound + 3.0 * se
