"""Generator contract tests: exhaustive uniformity, determinism, batch/scalar parity."""

from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sjlt import kwise
from sjlt.kwise import (
    DEFAULT_FIELD,
    MERSENNE61,
    KWiseGenerator,
    PrimeField,
    eval_bucket,
    eval_bucket_batch,
    eval_sign,
    eval_sign_batch,
    is_prime,
    new_generator,
    reduction_bias_bound,
)

F5 = PrimeField(5)

FIXTURE = Path(__file__).parent / "fixtures" / "kwise_seed_vectors.txt"


def test_is_prime_basics():
    primes = [2, 3, 5, 7, 61, 2**31 - 1, MERSENNE61]
    composites = [0, 1, 4, 9, 2**61 - 2, 2**61, 3215031751]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(2**61 - 3)


def test_new_generator_construction_contract():
    g = new_generator(seed=7, degree=4, range_size=16)
    assert g.degree == 4
    assert len(g.coefficients) == 4
    assert all(0 <= c < DEFAULT_FIELD.modulus for c in g.coefficients)


def test_new_generator_deterministic():
    a = new_generator(seed=7, degree=4, range_size=16)
    b = new_generator(seed=7, degree=4, range_size=16)
    assert a == b
    assert a.coefficients == b.coefficients


def test_new_generator_rejects_bad_parameters():
    with pytest.raises(ValueError):
        new_generator(seed=7, degree=0, range_size=16)
    with pytest.raises(ValueError):
        new_generator(seed=7, degree=2, range_size=0)
    with pytest.raises(ValueError):
        new_generator(seed=7, degree=2, range_size=7, field=F5)


def test_polynomial_example():
    # h(x) = 1 + 2x over F_5
    g = KWiseGenerator(field=F5, coefficients=(1, 2), range_size=5)
    assert [eval_bucket(g, i) for i in (0, 1, 2)] == [1, 3, 0]


def test_single_bucket_is_constant_zero():
    g = new_generator(seed=3, degree=4, range_size=1)
    assert all(eval_bucket(g, i) == 0 for i in range(50))


def test_index_outside_field_rejected():
    g = KWiseGenerator(field=F5, coefficients=(1, 2), range_size=5)
    with pytest.raises(ValueError):
        eval_bucket(g, 5)
    with pytest.raises(ValueError):
        eval_bucket(g, -1)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_exhaustive_rwise_uniformity(degree):
    # all 5^r coefficient vectors hit every r-tuple of evaluations exactly once
    seen = Counter()
    for coefficients in product(range(5), repeat=degree):
        g = KWiseGenerator(field=F5, coefficients=coefficients, range_size=5)
        seen[tuple(eval_bucket(g, point) for point in range(degree))] += 1
    assert len(seen) == 5 ** degree
    assert set(seen.values()) == {1}


def test_sign_mapping():
    g = KWiseGenerator(field=F5, coefficients=(0,), range_size=2)  # constant 0
    assert eval_sign(g, 3) == 1
    g = KWiseGenerator(field=F5, coefficients=(1,), range_size=2)  # constant 1
    assert eval_sign(g, 3) == -1


def test_sign_requires_range_two():
    g = KWiseGenerator(field=F5, coefficients=(1, 2), range_size=5)
    with pytest.raises(ValueError):
        eval_sign(g, 0)
    with pytest.raises(ValueError):
        eval_sign_batch(g, np.arange(3, dtype=np.uint64))


def test_exhaustive_sign_bias():
    # over all 25 degree-2 coefficient vectors the pair correlation and the
    # marginal are exactly the squared and plain single-value reduction bias
    total = Fraction(0)
    marginal = Fraction(0)
    for coefficients in product(range(5), repeat=2):
        g = KWiseGenerator(field=F5, coefficients=coefficients, range_size=2)
        s0, s1 = eval_sign(g, 0), eval_sign(g, 1)
        total += s0 * s1
        marginal += s0
    assert total / 25 == Fraction(1, 25)
    assert marginal / 25 == Fraction(1, 5)
    assert Fraction(1, 5) < Fraction(reduction_bias_bound(F5, 2)).limit_denominator()


def test_default_field_bias_is_negligible():
    assert reduction_bias_bound(DEFAULT_FIELD, 2**20) < 2.0 ** -20


def test_range_containment_bulk():
    rng = np.random.default_rng(11)
    points = rng.integers(0, MERSENNE61, size=10**6, dtype=np.uint64)
    for seed, range_size in [(1, 3), (2, 192), (3, 2**20)]:
        g = new_generator(seed, 6, range_size)
        values = eval_bucket_batch(g, points)
        assert values.min() >= 0
        assert values.max() < range_size


def test_fixture_vectors_stable():
    for line in FIXTURE.read_text().splitlines():
        seed_text, degree_text, coeff_text = line.split(";")
        g = new_generator(int(seed_text), int(degree_text), 16)
        assert tuple(int(c) for c in coeff_text.split(",")) == g.coefficients


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=-2**63, max_value=2**63 - 1),
       degree=st.integers(min_value=1, max_value=8),
       range_size=st.integers(min_value=1, max_value=500),
       indices=st.lists(st.integers(min_value=0, max_value=MERSENNE61 - 1),
                        min_size=1, max_size=40))
def test_batch_matches_scalar(seed, degree, range_size, indices):
    g = new_generator(seed, degree, range_size)
    batch = eval_bucket_batch(g, np.array(indices, dtype=np.uint64))
    assert batch.tolist() == [eval_bucket(g, i) for i in indices]


@settings(max_examples=200, deadline=None)
@given(a=st.integers(min_value=0, max_value=MERSENNE61 - 1),
       b=st.integers(min_value=0, max_value=MERSENNE61 - 1))
def test_mersenne_mulmod_kernel(a, b):
    # the polynomial 0 + a*x evaluated at b is one Horner multiply
    got = kwise._horner61([(0, a)], np.array([b], dtype=np.uint64))
    assert int(got[0]) == (a * b) % MERSENNE61


def test_mersenne_mulmod_edge_values():
    p = MERSENNE61
    edge = [0, 1, 2, p - 1, p - 2, 2**32 - 1, 2**32, 2**60, 2**60 + 12345]
    for a in edge:
        for b in edge:
            got = kwise._horner61([(0, a)], np.array([b], dtype=np.uint64))
            assert int(got[0]) == (a * b) % p


def test_sign_batch_matches_scalar():
    g = new_generator(99, 5, 2)
    points = np.arange(2000, dtype=np.uint64)
    batch = eval_sign_batch(g, points)
    assert batch.tolist() == [eval_sign(g, int(i)) for i in points]
    assert set(batch.tolist()) <= {-1, 1}


@st.composite
def replica_runs(draw):
    # (generator, points, run): runs of `run` consecutive indices, some of them
    # ending at the top of the field, in counts that are rarely block multiples
    degree = draw(st.integers(min_value=1, max_value=16))
    run = draw(st.sampled_from([1, degree, degree + 1, 3 * degree,
                                kwise.HORNER_BLOCK + degree + 1]))
    cap = 2 if run > kwise.HORNER_BLOCK else 12
    top = MERSENNE61 - 1 - run
    start = st.one_of(st.integers(min_value=0, max_value=top),
                      st.integers(min_value=top - 64, max_value=top))
    starts = draw(st.lists(start, max_size=cap))
    points = np.array([x + r for x in starts for r in range(run)], dtype=np.uint64)
    gen = new_generator(draw(st.integers(min_value=0, max_value=2**64 - 1)), degree,
                        draw(st.integers(min_value=1, max_value=5000)))
    return gen, points, run


@settings(max_examples=60, deadline=None)
@given(case=replica_runs())
def test_run_paths_match_scalar(case):
    gen, points, run = case
    scalar = [eval_bucket(gen, int(i)) for i in points]
    assert eval_bucket_batch(gen, points, run=1).tolist() == scalar
    assert eval_bucket_batch(gen, points, run=run).tolist() == scalar


@pytest.mark.parametrize("degree", [1, 2, 16])
def test_runs_span_several_table_chunks(degree):
    # more runs than one difference table holds (HORNER_BLOCK // degree)
    g = new_generator(degree, degree, 1000)
    run = degree + 1
    count = kwise.HORNER_BLOCK // degree + 3
    starts = np.arange(count, dtype=np.uint64) * np.uint64(5 * run) + np.uint64(2**60)
    points = (starts[:, None] + np.arange(run, dtype=np.uint64)).reshape(-1)
    got = eval_bucket_batch(g, points, run=run).tolist()
    assert got == [eval_bucket(g, int(i)) for i in points]


@settings(max_examples=40, deadline=None)
@given(case=replica_runs(), data=st.data())
def test_broken_runs_rejected(case, data):
    gen, points, run = case
    assume(run > 1 and points.size)
    broken = points.copy()
    position = data.draw(st.integers(min_value=0, max_value=points.size - 1))
    broken[position] ^= np.uint64(1 << data.draw(st.integers(min_value=0, max_value=40)))
    assume(int(broken[position]) < MERSENNE61)
    with pytest.raises(ValueError):
        eval_bucket_batch(gen, broken, run=run)
    with pytest.raises(ValueError):
        eval_bucket_batch(gen, points[1:], run=run)


@pytest.mark.parametrize("run", [0, -3, 1.5, True])
def test_run_must_be_positive_integer(run):
    with pytest.raises(ValueError):
        eval_bucket_batch(new_generator(3, 2, 7), np.arange(4, dtype=np.uint64), run=run)


def test_non_integer_points_rejected():
    g = new_generator(5, 3, 2)
    for points in (np.array([1.7, 2.2]), [1.7, 2.2], np.array([True, False])):
        with pytest.raises(ValueError):
            eval_bucket_batch(g, points)
        with pytest.raises(ValueError):
            eval_sign_batch(g, points)
    # integer lists and signed arrays stay accepted
    assert eval_bucket_batch(g, [1, 2]).tolist() == [eval_bucket(g, 1), eval_bucket(g, 2)]
    assert eval_sign_batch(g, np.array([1, 2])).tolist() == [eval_sign(g, 1), eval_sign(g, 2)]


ADVERSARIAL = [MERSENNE61 - 1, MERSENNE61 - 2, 2**32 - 1, 2**32, 2**60]


def _lazy_accumulators(coefficients, x):
    # the kernel's arithmetic in Python integers: the accumulator after each step
    acc, seen = coefficients[-1], []
    b1, b0 = x >> 32, x & 0xFFFFFFFF
    for c in reversed(coefficients[:-1]):
        a1, a0 = acc >> 32, acc & 0xFFFFFFFF
        mid, lo = a1 * b0 + a0 * b1, a0 * b0
        s = (8 * a1 * b1 + (mid >> 29) + ((mid & (2**29 - 1)) << 32)
             + (lo & MERSENNE61) + (lo >> 61) + c)
        assert s < 2**64
        acc = (s & MERSENNE61) + (s >> 61)
        seen.append(acc)
    return seen


@pytest.mark.parametrize("degree", [3, 4])
def test_horner_adversarial_values(degree):
    # edge coefficients and points; some drive the unreduced accumulator past p
    p = MERSENNE61
    peak = 0
    points = np.array(ADVERSARIAL, dtype=np.uint64)
    for coefficients in product(ADVERSARIAL, repeat=degree):
        got = kwise._horner61([coefficients], points).tolist()
        for x, value in zip(ADVERSARIAL, got):
            expected = 0
            for c in reversed(coefficients):
                expected = (expected * x + c) % p
            assert value == expected
            peak = max(peak, *_lazy_accumulators(coefficients, x))
    assert p <= peak < 2**61 + 8


@st.composite
def segmented_generators(draw):
    # (generators, points, run): one segment of runs per generator, some of
    # them ending at the top of the field; a long segment exceeds HORNER_BLOCK
    degree = draw(st.integers(min_value=1, max_value=16))
    run = draw(st.sampled_from([1, degree, degree + 1, 3 * degree]))
    long = draw(st.booleans())
    count = draw(st.integers(min_value=1, max_value=2 if long else 70))
    runs = kwise.HORNER_BLOCK // run + 1 if long else draw(st.integers(min_value=0, max_value=5))
    range_size = draw(st.integers(min_value=1, max_value=5000))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                          min_size=count, max_size=count))
    gens = tuple(new_generator(seed, degree, range_size) for seed in seeds)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    top = MERSENNE61 - 1 - run
    starts = rng.integers(0, top, size=count * runs, endpoint=True, dtype=np.uint64)
    if draw(st.booleans()):
        starts[::2] = np.uint64(top) - rng.integers(0, 64, size=starts[::2].size, dtype=np.uint64)
    points = (starts[:, None] + np.arange(run, dtype=np.uint64)).reshape(-1)
    return gens, points, run


@settings(max_examples=40, deadline=None)
@given(case=segmented_generators())
def test_generator_tuples_match_one_generator_calls(case):
    gens, points, run = case
    segments = points.reshape(len(gens), -1)
    expected = np.concatenate([eval_bucket_batch(g, segment, run=run)
                               for g, segment in zip(gens, segments)])
    assert eval_bucket_batch(gens, points, run=run).tolist() == expected.tolist()
    # both kernel paths, whichever one the call picks
    coefficients = np.array([g.coefficients for g in gens], dtype=np.uint64)
    range_size = np.uint64(gens[0].range_size)
    for values in (kwise._horner61(coefficients, points), kwise._runs61(coefficients, points, run)):
        assert (values % range_size).tolist() == expected.tolist()
    # the scalar reference, on every point of short segments and a sample of long ones
    step = 1 if segments.shape[1] <= 200 else 97
    for j, (g, segment) in enumerate(zip(gens, segments)):
        for position in list(range(0, segment.size, step)) + list(range(segment.size))[-3:]:
            assert expected[j * segment.size + position] == eval_bucket(g, int(segment[position]))
    if gens[0].range_size == 2:
        signs = [eval_sign_batch(g, segment, run=run).tolist() for g, segment in zip(gens, segments)]
        assert eval_sign_batch(gens, points, run=run).tolist() == sum(signs, [])


def test_generator_tuples_reject_mismatched_input():
    g = new_generator(1, 3, 7)
    points = np.arange(12, dtype=np.uint64)
    bad = [
        ((g, new_generator(2, 4, 7)), points, 1),   # mixed degrees
        ((g, new_generator(2, 3, 8)), points, 1),   # mixed ranges
        ((), points, 1),                             # no generator
        ((g, g), points[:5], 1),                     # 5 points over 2 generators
        ((g, g, g), points[:8], 1),
        ((g, g), points[:6], 2),                     # segments of 3 split runs of 2
        ((g, g), np.r_[points[:6], [6, 7, 9, 10, 11, 12]], 3),  # second segment breaks a run
        ((g, g), points.reshape(2, 6), 1),           # points must be flat
    ]
    for gens, pts, run in bad:
        with pytest.raises(ValueError):
            eval_bucket_batch(gens, pts, run=run)
    with pytest.raises(ValueError):
        eval_sign_batch((new_generator(1, 3, 2), g), points)
    assert eval_bucket_batch((g, g, g), points[:0], run=3).tolist() == []


def test_path_rule_follows_the_measured_break_even():
    # c = 115 replicas at 14 coefficients: Horner below 45 runs (one run is
    # what a 1-nnz apply and column_structure hash), differences from there;
    # runs no longer than the degree and empty calls always take Horner
    assert not any(kwise._differences_pay(runs, 115, 14) for runs in (0, 1, 25))
    assert all(kwise._differences_pay(runs, 115, 14) for runs in (100, 10**4))
    assert not kwise._differences_pay(10**6, 14, 14)
    assert not kwise._differences_pay(10**6, 1, 1)
