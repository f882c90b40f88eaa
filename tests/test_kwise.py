"""Generator contract tests: exhaustive uniformity, determinism, batch/scalar parity."""

from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    got = kwise._horner61((0, a), np.array([b], dtype=np.uint64))
    assert int(got[0]) == (a * b) % MERSENNE61


def test_mersenne_mulmod_edge_values():
    p = MERSENNE61
    edge = [0, 1, 2, p - 1, p - 2, 2**32 - 1, 2**32, 2**60, 2**60 + 12345]
    for a in edge:
        for b in edge:
            got = kwise._horner61((0, a), np.array([b], dtype=np.uint64))
            assert int(got[0]) == (a * b) % p


def test_sign_batch_matches_scalar():
    g = new_generator(99, 5, 2)
    points = np.arange(2000, dtype=np.uint64)
    batch = eval_sign_batch(g, points)
    assert batch.tolist() == [eval_sign(g, int(i)) for i in points]
    assert set(batch.tolist()) <= {-1, 1}
