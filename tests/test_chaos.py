"""Chaos moment oracles, the class-count bound, and tail estimation."""

import math
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjlt.chaos import (
    ChaosInstance,
    RandomnessAssignment,
    chaos_value,
    exact_moment,
    graph_expansion_moment,
    moment_report,
    moment_upper_bound,
    monte_carlo_moment,
    tail_estimate,
    _exact_power_moment,
)
from sjlt.graphs import BudgetExceededError
from sjlt.kwise import eval_bucket_batch, eval_sign_batch, new_generator
from sjlt.transform import (
    DenseVector,
    SparseVector,
    TransformSpec,
    derive_spec,
    distortion_bench,
    distortion_trial,
    duplicate_rescale,
    signed_bucket_sums,
)


def unit_vector(rng: np.random.Generator, d: int) -> DenseVector:
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return DenseVector(tuple(v.tolist()))


def basis_instance(d: int, k: int) -> ChaosInstance:
    x = DenseVector((1.0,) + (0.0,) * (d - 1))
    return ChaosInstance(d=d, k=k, x=x, infinity_bound=1.0)


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
        ChaosInstance(d=2, k=2, x=DenseVector((1.0, 1.0)), infinity_bound=1.0)
    with pytest.raises(ValueError):
        ChaosInstance(d=2, k=2, x=DenseVector.uniform(2), infinity_bound=0.5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), d=st.integers(2, 6),
       k=st.integers(1, 4))
def test_bucket_sum_identity(seed, d, k):
    rng = np.random.default_rng(seed)
    inst = ChaosInstance(d=d, k=k, x=unit_vector(rng, d), infinity_bound=1.0)
    buckets = rng.integers(0, k, size=d)
    signs = rng.integers(0, 2, size=d) * 2 - 1
    direct = chaos_value(inst, RandomnessAssignment(tuple(buckets), tuple(signs)))
    x = inst.x.to_numpy()
    per_bucket = signed_bucket_sums(buckets, signs, x, k)
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
                    inst = ChaosInstance(d=d, k=k, x=unit_vector(rng, d), infinity_bound=1.0)
                    a = exact_moment(inst, m)
                    b = graph_expansion_moment(inst, m)
                    assert abs(a - b) <= 1e-12 * max(a, b, 1e-30)


def test_first_moment_vanishes():
    rng = np.random.default_rng(5)
    for d, k in [(2, 2), (3, 2), (4, 3)]:
        inst = ChaosInstance(d=d, k=k, x=unit_vector(rng, d), infinity_bound=1.0)
        assert abs(_exact_power_moment(inst, 1)) <= 1e-12


def test_higher_odd_moments():
    # flipping every sign leaves the value unchanged, so nothing forces odd
    # moments to zero beyond d = 2: a triangle of pairs has all even vertex
    # degrees and makes the third moment strictly positive
    rng = np.random.default_rng(5)
    inst2 = ChaosInstance(d=2, k=2, x=unit_vector(rng, 2), infinity_bound=1.0)
    assert abs(_exact_power_moment(inst2, 3)) <= 1e-12
    x = unit_vector(rng, 3)
    inst3 = ChaosInstance(d=3, k=2, x=x, infinity_bound=1.0)
    third = _exact_power_moment(inst3, 3)
    triangle_orderings = 6
    expected = 8.0 * triangle_orderings * (1.0 / 4.0) * math.prod(v * v for v in x)
    assert third == pytest.approx(expected, rel=1e-12)
    assert third > 0.0


def test_moment_invariant_under_coordinate_permutation():
    rng = np.random.default_rng(17)
    base = unit_vector(rng, 4).values
    reference = None
    for perm in list(permutations(range(4)))[:8]:
        x = DenseVector(tuple(base[i] for i in perm))
        inst = ChaosInstance(d=4, k=2, x=x, infinity_bound=1.0)
        value = exact_moment(inst, 1)
        if reference is None:
            reference = value
        assert value == pytest.approx(reference, rel=1e-12)


def test_exact_moment_budget_guard():
    inst = ChaosInstance.uniform(30, 2)
    with pytest.raises(BudgetExceededError):
        exact_moment(inst, 1)


def test_monte_carlo_moment_consistent_with_exact():
    inst = ChaosInstance.uniform(3, 2)
    mean, se = monte_carlo_moment(inst, 1, trials=20000, seed=4)
    assert abs(mean - 2.0 / 3.0) <= 4.0 * se


# ------------------------------------------------------------------ the bound

def test_moment_bound_single_term():
    for k in (2, 3):
        inst = ChaosInstance.uniform(3, k)
        assert moment_upper_bound(inst, 1, 3.0) == pytest.approx(2.0 / k, rel=1e-12)


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
                    x = DenseVector(tuple(v.tolist()))
            inst = ChaosInstance(d=d, k=k, x=x, infinity_bound=scaled_cap)
            big_c = 1.0 / scaled_cap ** 2
            bound = moment_upper_bound(inst, m, big_c)
            assert exact_moment(inst, m) <= bound * (1 + 1e-12)


def test_moment_bound_dominates_graph_expansion():
    inst = ChaosInstance.uniform(4, 2)
    for m in (1, 2):
        assert graph_expansion_moment(inst, m) <= moment_upper_bound(inst, m, 4.0) * (1 + 1e-12)


def test_moment_bound_decreases_in_cap():
    # every term carries C^-(2m-i) with i <= 2m, so a larger cap only shrinks it
    inst = ChaosInstance.uniform(4, 2)
    bounds = [moment_upper_bound(inst, 2, C) for C in (1.0, 2.0, 4.0, 8.0)]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    assert bounds[0] > bounds[-1]


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
    x = DenseVector((1.0, 0.0, 0.0, 0.0))
    report = tail_estimate(x, k=3, c=1, epsilon=0.5, trials=1000,
                           bucket_seed=1, sign_seed=2, degree=2)
    assert report.hits == 0
    assert report.failure_rate == 0.0


def test_tail_forced_collision_boundary():
    # d=2, k=1 forces a collision so |value| always equals epsilon exactly;
    # integer coordinates keep the arithmetic float-exact, which makes this a
    # true test of the closed >= threshold
    x = DenseVector((1.0, 1.0))
    report = tail_estimate(x, k=1, c=1, epsilon=2.0, trials=1000,
                           bucket_seed=3, sign_seed=4, degree=2)
    assert report.failure_rate == 1.0


def test_tail_requires_enough_trials():
    with pytest.raises(ValueError):
        tail_estimate(DenseVector.uniform(2), k=2, c=1, epsilon=0.5, trials=10,
                      bucket_seed=0, sign_seed=1, degree=2)


def test_tail_rejects_equal_seeds():
    # equal seeds expand to one polynomial for both the bucket and the sign hash
    with pytest.raises(ValueError):
        tail_estimate(DenseVector.uniform(2), k=2, c=1, epsilon=0.5, trials=1000,
                      bucket_seed=7, sign_seed=7, degree=2)


def test_tail_matches_distortion_ratio():
    # same seeds: the chaos value for the replicated vector equals ratio^2 - 1
    d = 64
    spec = TransformSpec(d=d, epsilon=0.25, delta=0.1, m=3, k=48, c=2,
                         sparsity_gain=1.0, bucket_seed=5, sign_seed=6,
                         independence_degree=6)
    x = SparseVector.from_dense(DenseVector.uniform(d).values)
    ratio = distortion_trial(spec, x)
    replicated = duplicate_rescale(x.to_dense().to_numpy(), spec.c)
    points = np.arange(replicated.size, dtype=np.uint64)
    bucket_gen = new_generator(spec.bucket_seed, spec.independence_degree, spec.k)
    sign_gen = new_generator(spec.sign_seed, spec.independence_degree, 2)
    per_bucket = np.bincount(eval_bucket_batch(bucket_gen, points),
                             weights=eval_sign_batch(sign_gen, points) * replicated,
                             minlength=spec.k)
    value = float(per_bucket @ per_bucket) - float(replicated @ replicated)
    assert value == pytest.approx(ratio ** 2 - 1.0, rel=0, abs=1e-12)


def _reference_bucket_sums(bucket_seed, sign_seed, degree, k, flat, replicated):
    # one trial written out with explicit generators and a plain bincount
    buckets = eval_bucket_batch(new_generator(bucket_seed, degree, k), flat)
    signs = eval_sign_batch(new_generator(sign_seed, degree, 2), flat)
    return np.bincount(buckets, weights=signs * replicated, minlength=k)


@pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")
def test_trial_loops_match_per_trial_reference():
    # non-dyadic entries and c > 1, where bucket sums are rounded, unlike the
    # dyadic c = 1 settings the benchmark's reference checks
    rng = np.random.default_rng(2024)
    d, epsilon, trials = 24, 0.25, 200
    x = unit_vector(rng, d)
    sparse = SparseVector.from_dense(x.values)
    bucket_seed, sign_seed = 1234, 98765
    constants = (1.0, 0.1, 0.2)
    report = distortion_bench(d, epsilon, 0.01, trials, bucket_seed, sign_seed, constants,
                              x=sparse)
    spec = derive_spec(d, epsilon, 0.01, bucket_seed, sign_seed, constants)
    c, k = spec.c, spec.k
    assert c > 1
    flat = (np.arange(d)[:, None] * c + np.arange(c)[None, :]).reshape(-1).astype(np.uint64)
    replicated = np.repeat(x.to_numpy(), c)
    failures = 0
    for t in range(trials):
        y = _reference_bucket_sums(bucket_seed + t, sign_seed + t, spec.independence_degree,
                                   k, flat, replicated) / math.sqrt(c)
        ratio = float(np.sqrt(y @ y)) / sparse.norm()
        failures += ratio < 1.0 - epsilon or ratio > 1.0 + epsilon
    assert 0 < failures < trials
    assert report.failures == failures

    k, c, degree, threshold, trials = 6, 3, 4, 0.3, 1000
    report = tail_estimate(x, k, c, threshold, trials, bucket_seed, sign_seed, degree)
    replicated = duplicate_rescale(x.to_numpy(), c)
    points = np.arange(replicated.size, dtype=np.uint64)
    norm_sq = float(replicated @ replicated)
    hits = 0
    for t in range(trials):
        per_bucket = _reference_bucket_sums(bucket_seed + t, sign_seed + t, degree, k,
                                            points, replicated)
        hits += abs(float(per_bucket @ per_bucket) - norm_sq) >= threshold
    assert 0 < hits < trials
    assert report.hits == hits


def test_tail_markov_consistency():
    # enumerable instance: the sampled tail stays below moment / epsilon^2
    inst = ChaosInstance.uniform(4, 2)
    epsilon = 0.9
    moment = exact_moment(inst, 1)
    assert moment == pytest.approx(0.75, rel=1e-12)
    bound = moment / epsilon ** 2
    report = tail_estimate(inst.x, k=2, c=1, epsilon=epsilon, trials=4000,
                           bucket_seed=101, sign_seed=202, degree=2)
    se = math.sqrt(report.failure_rate * (1 - report.failure_rate) / report.trials)
    assert report.failure_rate <= bound + 3.0 * se
