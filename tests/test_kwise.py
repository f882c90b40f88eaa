"""Generator contract tests: exhaustive uniformity, determinism, batch/scalar parity."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest.mock import patch

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
    generator_block,
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
    assert g.degree == 4 and len(g) == 1
    assert g.coefficients.shape == (1, 4)
    assert all(0 <= c < DEFAULT_FIELD.modulus for c in g.coefficients[0].tolist())


def test_new_generator_deterministic():
    a = new_generator(seed=7, degree=4, range_size=16)
    b = new_generator(seed=7, degree=4, range_size=16)
    # generators compare by identity; their coefficient matrices are equal
    assert a is not b
    assert np.array_equal(a.coefficients, b.coefficients)


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
    rows = {}
    for line in FIXTURE.read_text().splitlines():
        seed_text, degree_text, coeff_text = line.split(";")
        g = new_generator(int(seed_text), int(degree_text), 16)
        assert [int(c) for c in coeff_text.split(",")] == g.coefficients[0].tolist()
        rows.setdefault(g.degree, []).append((int(seed_text), g.coefficients[0].tolist()))
    # the seeds of one degree expand in one block to the same rows
    for degree, pairs in rows.items():
        block = generator_block([seed for seed, _ in pairs], degree, 16)
        assert block.coefficients.tolist() == [coefficients for _, coefficients in pairs]


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
    edge = [0, 1, 2, p - 1, p - 2, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**60, 2**60 + 12345]
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


def _maximal_run_unit(points, rows):
    # the gcd of the maximal consecutive runs, cut at segment ends, and
    # whether every segment is one range; plain Python, one point at a time
    flat = [int(x) for x in points.reshape(-1)]
    segment = len(flat) // rows
    lengths, length = [], 0
    for position, x in enumerate(flat):
        length += 1
        if (position + 1) % segment == 0 or flat[position + 1] != x + 1:
            lengths.append(length)
            length = 0
    return math.gcd(*lengths), len(lengths) == rows


@st.composite
def point_sets(draw):
    # (generator, points, run): pieces of a multiple of `run` consecutive
    # indices, some ending at the top of the field, in counts that are rarely
    # block multiples. A piece follows the last one directly (adjacent
    # replicas merge into longer runs), after a gap, or anywhere in the field;
    # with run 1 the points are arbitrary
    degree = draw(st.integers(min_value=1, max_value=16))
    run = draw(st.sampled_from([1, degree, degree + 1, 3 * degree,
                                kwise.HORNER_BLOCK + degree + 1]))
    long = run > kwise.HORNER_BLOCK
    top = MERSENNE61 - 1 - 3 * run
    start = st.one_of(st.integers(min_value=0, max_value=top),
                      st.integers(min_value=top - 64, max_value=top))
    pieces = draw(st.lists(st.tuples(st.integers(min_value=1, max_value=1 if long else 3),
                                     st.one_of(st.just(0), st.integers(1, 3 * run), start)),
                           max_size=2 if long else 12))
    points, x = [], 0
    for count, step in pieces:
        # a step above 3 * run is a fresh start; a piece may not leave the field
        x = step if step > 3 * run else min(x + step, MERSENNE61 - count * run)
        points.extend(range(x, x + count * run))
        x += count * run
    gen = new_generator(draw(st.integers(min_value=0, max_value=2**64 - 1)), degree,
                        draw(st.integers(min_value=1, max_value=5000)))
    return gen, np.array(points, dtype=np.uint64), run


@settings(max_examples=60, deadline=None)
@given(case=point_sets())
def test_run_paths_match_scalar(case):
    gen, points, run = case
    scalar = [eval_bucket(gen, int(i)) for i in points]
    assert eval_bucket_batch(gen, points).tolist() == scalar
    if not points.size:
        return
    # both kernel paths over runs that tile the points, whichever the call picks
    for values in (kwise._horner61(gen.coefficients, points),
                   kwise._runs61(gen, points, run)):
        assert (values % np.uint64(gen.range_size)).tolist() == scalar
    # a run length that is no divisor of one range is the unit, never shorter
    unit, one_range = _maximal_run_unit(points, 1)
    assert unit % run == 0
    assert kwise._run_length(points, 1, gen.degree) in (
        [0] + kwise._divisors(points.size) if one_range else (0, unit))


@pytest.mark.parametrize("degree", [1, 2, 16])
def test_runs_span_several_table_chunks(degree):
    # more runs than one difference table holds (HORNER_BLOCK // degree)
    g = new_generator(degree, degree, 1000)
    run = degree + 1
    count = kwise.HORNER_BLOCK // degree + 3
    starts = np.arange(count, dtype=np.uint64) * np.uint64(5 * run) + np.uint64(2**60)
    points = (starts[:, None] + np.arange(run, dtype=np.uint64)).reshape(-1)
    scalar = [eval_bucket(g, int(i)) for i in points]
    assert eval_bucket_batch(g, points).tolist() == scalar
    got = kwise._runs61(g, points, run)
    assert (got % np.uint64(1000)).tolist() == scalar


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


ADVERSARIAL = [MERSENNE61 - 1, MERSENNE61 - 2, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**60]


def _lazy_accumulators(coefficients, x, narrow):
    # the kernel's arithmetic in Python integers, in a block that takes the
    # unreduced narrow step (every point below 2^31) or the wide one: the
    # accumulator it hands to the final min(acc, acc - p)
    acc = coefficients[-1]
    b1, b0 = x >> 32, x & 0xFFFFFFFF
    for c in reversed(coefficients[:-1]):
        a1, a0 = acc >> 32, acc & 0xFFFFFFFF
        if narrow:
            mid, lo = a1 * x, a0 * x
            assert mid < 2**63 and lo < 2**63
            acc = (mid >> 29) + ((mid & (2**29 - 1)) << 32) + lo + c
            assert acc < 2**64
        else:
            mid, lo = a1 * b0 + a0 * b1, a0 * b0
            s = (8 * a1 * b1 + (mid >> 29) + ((mid & (2**29 - 1)) << 32)
                 + (lo & MERSENNE61) + (lo >> 61) + c)
            # below 2^63 when b1 = 0, as the a0*b1 and a1*b1 products vanish
            assert s < (2**63 if b1 == 0 else 2**64)
            acc = (s & MERSENNE61) + (s >> 61)
            assert acc < 2**61 + 8
    if narrow:
        acc = (acc & MERSENNE61) + (acc >> 61)
    assert acc < 2**61 + 8
    return acc


@pytest.mark.parametrize("degree", [3, 4])
def test_horner_adversarial_values(degree):
    # edge coefficients and points; some drive the accumulator's end past p.
    # A block of every point takes the wide step; blocks of one point each
    # take the narrow step at 2^31 - 1
    p = MERSENNE61
    peak = 0
    points = np.array(ADVERSARIAL, dtype=np.uint64)
    for coefficients in product(ADVERSARIAL, repeat=degree):
        together = kwise._horner61([coefficients], points).tolist()
        with patch.object(kwise, "HORNER_BLOCK", 1):
            alone = kwise._horner61([coefficients], points).tolist()
        for x, value, single in zip(ADVERSARIAL, together, alone):
            expected = 0
            for c in reversed(coefficients):
                expected = (expected * x + c) % p
            assert value == single == expected
            for narrow in {False, x < 2**31}:
                end = _lazy_accumulators(coefficients, x, narrow)
                assert end % p == expected
                peak = max(peak, end)
    assert p <= peak < 2**61 + 8


def test_unreduced_step_fits_at_its_worst_case():
    # the largest 64-bit accumulator, narrow point and coefficient: the
    # unreduced sum stays below 2^64, congruent to acc * x + c, and the
    # kernel's step gives it exactly. (The bound is safe, not tight: the sum
    # would fit for points up to about 3 * 2^30.)
    p = MERSENNE61
    acc, x, c = 2**64 - 1, 2**31 - 1, p - 1
    mid, lo = (acc >> 32) * x, (acc & 0xFFFFFFFF) * x
    s = (mid >> 29) + ((mid & (2**29 - 1)) << 32) + lo + c
    assert s < 2**64
    assert s % p == (acc * x + c) % p
    got = np.array([acc], dtype=np.uint64)
    kwise._mul_add_unreduced(got, np.uint64(x), np.uint64(c), *np.empty((2, 1), dtype=np.uint64))
    assert int(got[0]) == s


@st.composite
def narrow_and_wide_points(draw):
    # coefficients near p or anywhere; points below 2^31 (the narrow step),
    # at or above it, and the edge pairs 2^31 - 1, 2^31 and 2^32 - 1, 2^32
    p = MERSENNE61
    degree = draw(st.integers(min_value=1, max_value=32))
    coefficient = st.one_of(st.integers(min_value=p - 64, max_value=p - 1),
                            st.integers(min_value=0, max_value=p - 1))
    narrow = st.one_of(st.sampled_from([0, 1, 2**31 - 1]),
                       st.integers(min_value=0, max_value=2**31 - 1))
    wide = st.one_of(st.sampled_from([2**31, 2**32 - 1, 2**32, p - 1]),
                     st.integers(min_value=2**31, max_value=p - 1))
    runs = draw(st.lists(st.lists(st.one_of(narrow, wide), min_size=1, max_size=12)
                         | st.lists(narrow, min_size=1, max_size=12), min_size=1, max_size=4))
    points = [x for run in runs for x in run] + [2**31 - 1, 2**31, 2**32 - 1, 2**32]
    return (draw(st.lists(coefficient, min_size=degree, max_size=degree)), points,
            draw(st.integers(min_value=1, max_value=16)))


@settings(max_examples=80, deadline=None)
@given(case=narrow_and_wide_points())
def test_narrow_horner_blocks_match_scalar(case):
    # blocks of `width` points: those whose points all lie below 2^31 take
    # the unreduced narrow step, one call per coefficient after the first
    coefficients, points, width = case
    gen = KWiseGenerator(DEFAULT_FIELD, tuple(coefficients), MERSENNE61)
    with patch.object(kwise, "HORNER_BLOCK", width), \
            patch.object(kwise, "_mul_add_unreduced", wraps=kwise._mul_add_unreduced) as step:
        got = kwise._horner61([coefficients], np.array(points, dtype=np.uint64))
    assert got.tolist() == [eval_bucket(gen, x) for x in points]
    narrow_blocks = sum(max(points[i:i + width]) < 2**31 for i in range(0, len(points), width))
    assert step.call_count == narrow_blocks * (len(coefficients) - 1)
    for x, value in zip(points, got.tolist()):
        for narrow in {False, x < 2**31}:
            assert _lazy_accumulators(coefficients, x, narrow) % MERSENNE61 == value
    ranged = KWiseGenerator(DEFAULT_FIELD, tuple(coefficients), 1000)
    assert eval_bucket_batch(ranged, points).tolist() == [eval_bucket(ranged, x) for x in points]


@st.composite
def generator_blocks(draw):
    # (block, points, run): one segment of runs per row, some of them ending
    # at the top of the field; a long segment exceeds HORNER_BLOCK. Runs sit
    # anywhere, or in adjacent pairs that merge (across a segment end too),
    # or each segment is one range with a gap at a random point
    degree = draw(st.integers(min_value=1, max_value=16))
    run = draw(st.sampled_from([1, degree, degree + 1, 3 * degree]))
    long = draw(st.booleans())
    count = draw(st.integers(min_value=1, max_value=2 if long else 70))
    runs = kwise.HORNER_BLOCK // run + 1 if long else draw(st.integers(min_value=0, max_value=5))
    range_size = draw(st.integers(min_value=1, max_value=5000))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                          min_size=count, max_size=count))
    block = generator_block(seeds, degree, range_size)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    top = MERSENNE61 - 1 - 2 * run
    layout = draw(st.sampled_from(["scattered", "adjacent", "gap"]))
    if layout == "gap":
        starts = rng.integers(0, MERSENNE61 - runs * run - 1, size=(count, 1), dtype=np.uint64)
        points = starts + np.arange(runs * run, dtype=np.uint64)
        points[:, rng.integers(0, max(1, runs * run)):] += np.uint64(1)
        return block, points.reshape(-1), 1
    starts = rng.integers(0, top, size=count * runs, endpoint=True, dtype=np.uint64)
    if draw(st.booleans()):
        starts[::2] = np.uint64(top) - rng.integers(0, 64, size=starts[::2].size, dtype=np.uint64)
    if layout == "adjacent":
        starts[1::2] = starts[:-1:2] + np.uint64(run)
    points = (starts[:, None] + np.arange(run, dtype=np.uint64)).reshape(-1)
    return block, points, run


@settings(max_examples=40, deadline=None)
@given(case=generator_blocks())
def test_generator_blocks_match_one_generator_calls(case):
    block, points, run = case
    gens = [block.row(j) for j in range(len(block))]
    segments = points.reshape(len(gens), -1)
    expected = np.concatenate([eval_bucket_batch(g, segment)
                               for g, segment in zip(gens, segments)])
    assert eval_bucket_batch(block, points).tolist() == expected.tolist()
    # both kernel paths, whichever one the call picks
    range_size = np.uint64(block.range_size)
    for values in (kwise._horner61(block.coefficients, points),
                   kwise._runs61(block, points, run)):
        assert (values % range_size).tolist() == expected.tolist()
    # the scalar reference, on every point of short segments and a sample of long ones
    step = 1 if segments.shape[1] <= 200 else 97
    for j, (g, segment) in enumerate(zip(gens, segments)):
        for position in list(range(0, segment.size, step)) + list(range(segment.size))[-3:]:
            assert expected[j * segment.size + position] == eval_bucket(g, int(segment[position]))
    if block.range_size == 2:
        signs = [eval_sign_batch(g, segment).tolist() for g, segment in zip(gens, segments)]
        assert eval_sign_batch(block, points).tolist() == sum(signs, [])


def test_generator_blocks_reject_mismatched_input():
    block = generator_block([1, 2], 3, 7)
    points = np.arange(12, dtype=np.uint64)
    bad = [
        (block, points[:5]),                            # 5 points over 2 rows
        (generator_block([1, 2, 3], 3, 7), points[:8]),
        (block, points.reshape(2, 6)),                  # points must be flat
    ]
    for gen, pts in bad:
        with pytest.raises(ValueError):
            eval_bucket_batch(gen, pts)
    with pytest.raises(ValueError):
        eval_sign_batch(block, points)
    assert eval_bucket_batch(generator_block([1, 2, 3], 3, 7), points[:0]).tolist() == []
    # points need not form runs of any length: pieces that split or break a
    # run, and points in any order, evaluate like every other point
    for pts in (points[:6], np.r_[0, 1, 2, 6, 7, 9, 10, 11],
                np.array([MERSENNE61 - 1, 0, 5, 4, 4, MERSENNE61 - 2])):
        expected = [eval_bucket(block.row(j), int(x))
                    for j, segment in enumerate(pts.reshape(2, -1)) for x in segment]
        assert eval_bucket_batch(block, pts).tolist() == expected
    for coefficients in ([[1, 2], [3]], np.zeros((0, 3)), np.zeros((2, 0)), [[1.5, 2.0]],
                         [[0, MERSENNE61]], [[-1, 2]], (), 3, np.zeros((1, 2, 2), dtype=int),
                         (0, MERSENNE61), (True, False)):
        with pytest.raises(ValueError):
            KWiseGenerator(DEFAULT_FIELD, coefficients, 7)
    with pytest.raises(ValueError):
        KWiseGenerator(DEFAULT_FIELD, [[1, 2]], 0)
    with pytest.raises(TypeError):
        generator_block(np.array([1.0, 2.0]), 3, 7)
    with pytest.raises(ValueError):
        generator_block([1, 2], 0, 7)
    with pytest.raises(ValueError):
        block.coefficients[0, 0] = 5


def test_one_generator_type_contract():
    # one seed is a read-only (1, degree) uint64 matrix, a flat coefficient
    # sequence is one generator, and the batch path equals the scalar one
    gen = new_generator(77, 5, 11)
    assert len(gen) == 1 and gen.degree == 5 and gen.range_size == 11
    assert gen.coefficients.dtype == np.uint64 and gen.coefficients.shape == (1, 5)
    with pytest.raises(ValueError):
        gen.coefficients[0, 0] = 5
    flat = KWiseGenerator(DEFAULT_FIELD, tuple(gen.coefficients[0].tolist()), 11)
    assert np.array_equal(flat.coefficients, gen.coefficients)
    points = np.arange(40, dtype=np.uint64)
    expected = [eval_bucket(gen, int(x)) for x in points]
    assert eval_bucket_batch(gen, points).tolist() == expected
    assert eval_bucket_batch(flat, points).tolist() == expected
    # the constructor copies: freezing the matrix leaves the caller's array writable
    source = np.array([[1, 2, 3]], dtype=np.uint64)
    KWiseGenerator(DEFAULT_FIELD, source, 7)
    source[0, 0] = 4
    # scalar evaluation takes one row; a block evaluates row by row
    block = generator_block([77, 78], 5, 2)
    assert block.row(0).coefficients.tolist() == new_generator(77, 5, 2).coefficients.tolist()
    with pytest.raises(ValueError, match="one generator, not 2 rows"):
        eval_bucket(block, 3)
    with pytest.raises(ValueError, match="one generator, not 2 rows"):
        eval_sign(block, 3)
    # uint64 coefficients cannot hold residues of a modulus of 2^64 or more
    wide = PrimeField(2**64 + 13)
    with pytest.raises(ValueError, match="moduli below 2\\^64"):
        KWiseGenerator(wide, (1, 2), 5)
    with pytest.raises(ValueError, match="moduli below 2\\^64"):
        new_generator(1, 2, 5, wide)


def _replicas(coordinates, c):
    # the flat points of coordinates' replicas, as transform lays them out
    coordinates = np.asarray(coordinates, dtype=np.uint64)
    return (coordinates[:, None] * np.uint64(c) + np.arange(c, dtype=np.uint64)).reshape(-1)


def test_path_rule_follows_the_measured_break_even():
    # c = 115 replicas at 14 coefficients, at scattered coordinates: Horner
    # below 73 runs (one run is what a 1-nnz apply hashes; measured
    # break-even 64-96), differences over runs of 115 from
    # there; empty calls and degree 1 always take Horner
    def scattered(runs, c):
        return _replicas(np.arange(runs) * 3, c)

    assert [kwise._run_length(scattered(runs, 115), 1, 14) for runs in (0, 1, 30, 41, 72)] == [0] * 5
    assert [kwise._run_length(scattered(runs, 115), 1, 14) for runs in (73, 100, 10**4)] == [115] * 3
    # runs of 531 at 28 (measured 19-24), of 107 at 28 (measured 48-64) and
    # of 18 at 10 (measured 250-400)
    assert kwise._run_length(scattered(25, 531), 1, 28) == 531
    assert kwise._run_length(scattered(24, 531), 1, 28) == 0
    assert kwise._run_length(scattered(67, 107), 1, 28) == 107
    assert kwise._run_length(scattered(66, 107), 1, 28) == 0
    assert kwise._run_length(scattered(397, 18), 1, 10) == 18
    assert kwise._run_length(scattered(396, 18), 1, 10) == 0
    # runs as short as the degree pay only with the difference seed: runs of
    # 14 at 14 (8.3 ms against Horner's 8.7 ms for 10^4 runs), not of 10
    # (7.7 ms against 6.8 ms)
    assert kwise._run_length(scattered(10**4, 14), 1, 14) == 14
    assert kwise._run_length(scattered(10**4, 10), 1, 14) == 0
    assert kwise._run_length(scattered(10**4, 1), 1, 1) == 0
    # adjacent coordinates merge into runs of 230 and 345; their unit is
    # still 115, and a divisor of the unit (23 at 30 runs) is never taken
    merged = _replicas([0, 1, 5, 9, 10, 11] + list(range(20, 20 + 3 * 80, 3)), 115)
    assert kwise._run_length(merged, 1, 14) == 115
    assert kwise._run_length(merged[:115 * 30], 1, 14) == 0
    # runs of 230 from 53 (measured 40-50)
    assert kwise._run_length(_replicas(np.arange(53) * 4, 230), 1, 14) == 230
    assert kwise._run_length(_replicas(np.arange(52) * 4, 230), 1, 14) == 0
    # the benchmark's transform files: 50 to 2000 nonzeros among d = 2^20
    rng = np.random.default_rng(11)
    for nnz, length in ((50, 0), (51, 0), (200, 115), (2000, 115)):
        coordinates = np.sort(rng.choice(2**20, size=nnz, replace=False))
        assert kwise._run_length(_replicas(coordinates, 115), 1, 14) == length


def test_run_length_rule_follows_the_measured_optima():
    # one consecutive range per segment: the rule picks the run lengths that
    # timed fastest (the benchmark's trial blocks, 16 x 1024 and 64 x 256
    # points at 6 coefficients: 32, 2.1-2.7x faster than Horner; 3 x 4608
    # replicas of 18 at 10: 64, as fast as 72 and faster than runs of 18),
    # and Horner where no divisor of the segment length pays (a prime
    # segment, a single run of 115)
    def ranges(rows, length, start=0):
        return np.tile(np.arange(start, start + length, dtype=np.uint64), rows)

    assert kwise._run_length(ranges(16, 1024), 16, 6) == 32
    assert kwise._run_length(ranges(64, 256), 64, 6) == 32
    assert kwise._run_length(ranges(3, 4608), 3, 10) == 64
    assert kwise._run_length(ranges(16, 1021), 16, 6) == 0
    assert kwise._run_length(ranges(1, 115, 115 * 7), 1, 14) == 0
    # segments that start anywhere, and the last points of the field
    shifted = np.concatenate([np.arange(x, x + 1024, dtype=np.uint64)
                              for x in (5, 10**9, MERSENNE61 - 1024, 0)] * 4)
    assert kwise._run_length(shifted, 16, 6) == 32
    # a gap leaves runs of the gcd of the pieces' lengths: 4 here, Horner
    gap = ranges(16, 1024)
    gap[-100:] += np.uint64(1)
    assert kwise._run_length(gap, 16, 6) == 0
    # two pieces of a segment in swapped order: runs of their gcd, 18
    swapped = ranges(3, 4608)
    swapped[:4608] = np.roll(swapped[:4608], 18)
    assert kwise._run_length(swapped, 3, 10) == 18


def test_points_keep_their_shape_on_every_path():
    # one generator takes points of any shape; a consecutive range may still
    # take the long-run path
    g = new_generator(17, 6, 1000)
    for points in (np.arange(16384, dtype=np.uint64).reshape(128, 128),
                   np.arange(2 ** 20, 2 ** 20 + 60, dtype=np.uint64).reshape(3, 4, 5)):
        got = eval_bucket_batch(g, points)
        assert got.shape == points.shape
        assert got.reshape(-1).tolist() == [eval_bucket(g, int(i)) for i in points.reshape(-1)]
    assert kwise._run_length(np.arange(16384, dtype=np.uint64).reshape(128, 128), 1, 6) == 32


def _segment_lengths(degree):
    # primes, and lengths whose divisors all lie at or below the degree
    return [1, 2, 3, 7, 13, 31, 257, 1021, 2 * degree, 4 * degree, 64, 256, 1024]


@st.composite
def long_run_cases(draw):
    # (block, points): rows of one consecutive range each, or with one row
    # broken by a gap, or by arbitrary points in place of its range; some
    # ranges end at the top of the field
    degree = draw(st.integers(min_value=1, max_value=16))
    run = draw(st.sampled_from([1, 18, degree + 1 + draw(st.integers(0, 8))]))
    per_segment = draw(st.sampled_from(_segment_lengths(degree)))
    length = run * per_segment
    rows = min(draw(st.integers(min_value=1, max_value=70)), max(1, 40000 // length))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                          min_size=rows, max_size=rows))
    block = generator_block(seeds, degree, draw(st.integers(min_value=1, max_value=5000)))
    top = MERSENNE61 - length - 1
    starts = draw(st.lists(st.one_of(st.integers(min_value=0, max_value=top),
                                     st.integers(min_value=top - 64, max_value=top)),
                           min_size=rows, max_size=rows))
    points = (np.array(starts, dtype=np.uint64)[:, None]
              + np.arange(length, dtype=np.uint64)).reshape(-1)
    row = draw(st.integers(min_value=0, max_value=rows - 1))
    broken = draw(st.sampled_from(["none", "gap", "scattered"]))
    if broken == "gap" and per_segment > 1:
        cut = run * draw(st.integers(min_value=1, max_value=per_segment - 1))
        points[row * length + cut:(row + 1) * length] += np.uint64(1)
    elif broken == "scattered":
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
        points[row * length:(row + 1) * length] = rng.integers(
            0, MERSENNE61, size=length, dtype=np.uint64)
    return block, points


@settings(max_examples=60, deadline=None)
@given(case=long_run_cases(), data=st.data())
def test_long_runs_match_horner_and_scalar(case, data):
    block, points = case
    rows, degree = len(block), block.degree
    segment = points.size // rows
    length = kwise._run_length(points, rows, degree)
    unit, one_range = _maximal_run_unit(points, rows)
    assert length in ([0] + kwise._divisors(segment) if one_range else (0, unit))
    horner = kwise._horner61(block.coefficients, points)
    got = eval_bucket_batch(block, points)
    assert got.tolist() == (horner % np.uint64(block.range_size)).tolist()
    # every run length the rule may pick, not only the one it does pick
    for L in (kwise._divisors(segment) if one_range else [unit]):
        if degree < L <= 4096:
            assert np.array_equal(kwise._runs61(block, points, L), horner)
    for position in data.draw(st.lists(st.integers(min_value=0, max_value=points.size - 1),
                                       min_size=1, max_size=20)):
        g = block.row(position // segment)
        assert got[position] == eval_bucket(g, int(points[position]))


@st.composite
def difference_seed_cases(draw):
    # (block, points, run): one or several rows of runs at degrees 1-32 (from
    # degree 13 some coefficient C(n, k) j! S(n - k, j) of Delta^j x^n
    # exceeds 2^32), with every start within r * run of the top of the field
    # or of 2^32 (the wide step), or every point below 2^31 (the narrow one)
    degree = draw(st.integers(min_value=1, max_value=32))
    run = draw(st.integers(min_value=1, max_value=300))
    rows = draw(st.sampled_from([1, 2, 5]))
    runs = draw(st.integers(min_value=1, max_value=6))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                          min_size=rows, max_size=rows))
    block = generator_block(seeds, degree, draw(st.integers(min_value=1, max_value=5000)))
    top = draw(st.sampled_from([MERSENNE61, 2**32, 2**31])) - run
    starts = draw(st.lists(st.integers(min_value=top - degree * run, max_value=top),
                           min_size=rows * runs, max_size=rows * runs))
    points = (np.array(starts, dtype=np.uint64)[:, None]
              + np.arange(run, dtype=np.uint64)).reshape(-1)
    return block, points, run


@settings(max_examples=60, deadline=None)
@given(case=difference_seed_cases(), data=st.data())
def test_difference_seed_matches_horner_and_scalar(case, data):
    block, points, run = case
    rows, degree = len(block), block.degree
    horner = kwise._horner61(block.coefficients, points)
    starts = points.reshape(rows, -1)[:, ::run]
    differences = kwise._difference_coefficients(block.coefficients)
    assert np.array_equal(kwise._difference_table(differences, starts),
                          kwise._point_table(block.coefficients, starts))
    # whichever seed the rule would pick, the runs take the difference seed
    with patch.object(kwise, "_seed_products", lambda rows, runs, degree: (0, True)):
        got = kwise._runs61(block, points, run)
    assert np.array_equal(got, horner)
    segment = points.size // rows
    for position in data.draw(st.lists(st.integers(min_value=0, max_value=points.size - 1),
                                       min_size=1, max_size=20)):
        g = block.row(position // segment)
        assert int(got[position]) % block.range_size == eval_bucket(g, int(points[position]))


@pytest.mark.parametrize("degree", [1, 2, 5, 14, 20, 28, 32])
def test_difference_coefficients_are_the_difference_polynomials(degree):
    # coefficient k of Delta^j f, checked against Delta^j f(x) =
    # sum_i (-1)^(j-i) C(j, i) f(x + i) from Python-integer values of f at r
    # points, which fix a polynomial of degree below r
    block = generator_block([degree, 2**64 - degree, 12345], degree, 7)
    table = kwise._difference_coefficients(block.coefficients)
    assert table.shape == (degree, degree, 3, 1) and table.dtype == np.uint64
    xs = [0, 1, MERSENNE61 - 1] + [(i * 0x9E3779B97F4A7C15) % MERSENNE61
                                   for i in range(degree - 3)]

    def value(coefficients, x):
        return sum(c * pow(x, k, MERSENNE61) for k, c in enumerate(coefficients)) % MERSENNE61

    for row, f in enumerate(block.coefficients.tolist()):
        polynomials = [[int(table[k, j, row, 0]) for k in range(degree)] for j in range(degree)]
        for j, polynomial in enumerate(polynomials):
            assert polynomial[degree - j:] == [0] * j
        for x in xs[:degree]:
            values = [value(f, x + i) for i in range(degree)]
            for j, polynomial in enumerate(polynomials):
                expected = sum((-1) ** (j - i) * math.comb(j, i) * values[i]
                               for i in range(j + 1)) % MERSENNE61
                assert value(polynomial, x) == expected


def test_difference_seed_canonicalizes_lazy_sums():
    # at x0 = 1 the lazy Horner sums of these polynomials end at exactly p,
    # which the seed must give as 0, like every point stepped from it
    for coefficients in ([MERSENNE61 - 1, 1], [MERSENNE61 - 3, 1, 2]):
        gen = KWiseGenerator(DEFAULT_FIELD, coefficients, 1000)
        points = np.arange(1, 41, dtype=np.uint64)
        with patch.object(kwise, "_seed_products", lambda rows, runs, degree: (0, True)):
            got = kwise._runs61(gen, points, 40)
        assert got[0] == 0
        assert got.tolist() == kwise._horner61(gen.coefficients, points).tolist()


@pytest.mark.parametrize("differenced", [False, True], ids=["point-seed", "difference-seed"])
@pytest.mark.parametrize("degree", [1, 2, 6, 14])
def test_window_steps_match_horner_at_short_runs(degree, differenced):
    # runs of 1, 2, r - 1, r and r + 1 points: the window's pre-filled
    # constant rows are read from the first step on, and a run shorter than
    # r leaves part of its table unstepped. Three rows of more runs than one
    # table chunk holds, with starts near p and a few small ones.
    rows = 3
    rng = np.random.default_rng(degree)
    block = generator_block(rng.integers(0, 2**63, size=rows), degree, 1000)
    runs = max(1, kwise.HORNER_BLOCK // (degree * rows)) + 2
    seed_rule = lambda rows, runs, degree: (0, differenced)
    for run in sorted({1, 2, degree - 1, degree, degree + 1} - {0}):
        starts = MERSENNE61 - run - rng.integers(0, 8 * run * runs, size=rows * runs,
                                                 dtype=np.uint64)
        starts[::97] = rng.integers(0, 2**20, size=starts[::97].size, dtype=np.uint64)
        points = (starts[:, None] + np.arange(run, dtype=np.uint64)).reshape(-1)
        with patch.object(kwise, "_seed_products", seed_rule), \
                patch.object(kwise, "_difference_table", wraps=kwise._difference_table) as seeded, \
                patch.object(kwise, "_point_table", wraps=kwise._point_table) as pointed:
            got = kwise._runs61(block, points, run)
        assert (seeded.call_count, pointed.call_count) == ((2, 0) if differenced else (0, 2))
        assert got.dtype == np.uint64
        assert np.array_equal(got, kwise._horner61(block.coefficients, points))


def _path_cases():
    # (generator maker, points, kernel path): scattered points take Horner, a
    # trial block of 32 rows over one 1024-point range the point seed, and a
    # one-row chunk of 200 replica runs of 115 the difference seed
    rng = np.random.default_rng(12)
    scattered = rng.integers(0, MERSENNE61, size=3000, dtype=np.uint64)
    block = np.tile(np.arange(1024, dtype=np.uint64), 32)
    chunk = _replicas(np.sort(rng.choice(2**40, size=200, replace=False)), 115)
    return [
        (lambda size: new_generator(3, 9, size), scattered, "horner"),
        (lambda size: generator_block(range(40, 72), 6, size), block, "point"),
        (lambda size: new_generator(4, 14, size), chunk, "difference"),
    ]


@pytest.mark.parametrize("make, points, path", _path_cases(), ids=["horner", "point", "difference"])
def test_batch_evaluators_leave_points_alone(make, points, path):
    # the kernel's output folds and maps to signs in place, never the caller's
    # points: a contiguous uint64 array stays unchanged, a read-only one is
    # taken, and ranges 1, 2, 4 and 2^20 give the scalar path's values
    before = points.copy()
    frozen = points.copy()
    frozen.flags.writeable = False
    rows = len(make(1))
    segment = points.size // rows
    positions = list(range(0, points.size, 211)) + [points.size - 1]
    for size in (1, 2, 4, 2**20):
        gen = make(size)
        with patch.object(kwise, "_difference_table", wraps=kwise._difference_table) as seeded, \
                patch.object(kwise, "_point_table", wraps=kwise._point_table) as pointed:
            values = eval_bucket_batch(gen, points)
        assert (path == "difference", path == "point") == (seeded.called, pointed.called)
        assert np.array_equal(points, before)
        assert np.array_equal(eval_bucket_batch(gen, frozen), values)
        assert values.dtype == np.int64 and int(values.max()) < size
        for position in positions:
            row = gen.row(position // segment)
            assert values[position] == eval_bucket(row, int(points[position]))
        if size == 2:
            signs = eval_sign_batch(gen, points)
            assert np.array_equal(points, before)
            assert np.array_equal(eval_sign_batch(gen, frozen), signs)
            assert np.array_equal(signs, 1 - 2 * values)
            for position in positions:
                row = gen.row(position // segment)
                assert signs[position] == eval_sign(row, int(points[position]))


def test_seed_rule_takes_difference_polynomials_for_long_one_row_calls():
    # a one-row transform chunk (1,170 runs of 115 at 14 coefficients) takes
    # the difference seed; a trial block (32 rows of one 1024-point range at
    # 6 coefficients, runs of 64) keeps Horner values at each run's r points
    rng = np.random.default_rng(3)
    chunk = _replicas(np.sort(rng.choice(2**20, size=1170, replace=False)), 115)
    trial_block = np.tile(np.arange(1024, dtype=np.uint64), 32)
    cases = [(new_generator(7, 14, 2800), chunk, 1, 115, True),
             (generator_block(range(32), 6, 16), trial_block, 32, 64, False)]
    for gen, points, rows, length, difference_seeded in cases:
        assert kwise._run_length(points, rows, gen.degree) == length
        assert kwise._seed_products(rows, points.size // length, gen.degree)[1] == difference_seeded
        with patch.object(kwise, "_difference_table", wraps=kwise._difference_table) as seeded, \
                patch.object(kwise, "_point_table", wraps=kwise._point_table) as pointed:
            got = eval_bucket_batch(gen, points)
        assert (seeded.called, pointed.called) == (difference_seeded, not difference_seeded)
        assert np.array_equal(got, kwise._horner61(gen.coefficients, points)
                              % np.uint64(gen.range_size))


_GOLDEN = 0x9E3779B97F4A7C15
_M64 = 2**64 - 1


def _scalar_splitmix64(seed, count):
    # splitmix64 as published (Steele, Lea, Flood 2014), one output at a time
    out, state = [], seed % 2**64
    for _ in range(count):
        state = (state + _GOLDEN) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        out.append(z ^ (z >> 31))
    return out


def _scalar_coefficients(seed, degree, p):
    mask = (1 << p.bit_length()) - 1
    coefficients, drawn = [], 0
    while len(coefficients) < degree:
        drawn += 4 * degree
        outputs = _scalar_splitmix64(seed, drawn)
        coefficients = [v & mask for v in outputs if v & mask < p][:degree]
    return coefficients


def _unmix(z):
    # inverse of the splitmix64 mixer: undo each xorshift and odd multiply
    def unshift(y, k):
        x = y
        for _ in range(64 // k + 1):
            x = y ^ (x >> k)
        return x

    z = unshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 2**64) & _M64
    z = unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & _M64
    return unshift(z, 30)


@pytest.mark.parametrize("field", [DEFAULT_FIELD, F5, PrimeField(7)], ids=["m61", "f5", "f7"])
def test_block_seed_expansion_matches_scalar_splitmix64(field):
    rng = np.random.default_rng(field.modulus % 1000)
    p = field.modulus
    # the state whose first output is all ones: its first candidate is 2^61 - 1
    first_rejected = (_unmix(_M64) - _GOLDEN) & _M64
    assert _scalar_splitmix64(first_rejected, 1)[0] & MERSENNE61 == MERSENNE61
    python_seeds = [0, 1, 2**63, _M64 - 2, first_rejected, -3, 2**64 + 5, 2**70 + 9]
    for degree in range(1, 33):
        array_seeds = rng.integers(0, 2**64, size=int(rng.integers(3, 40)), dtype=np.uint64)
        # seeds near 2^64 wrap, as first + arange(n) does in a trial block
        array_seeds[:3] = np.uint64(_M64 - 1) + np.arange(3, dtype=np.uint64)
        for seeds in (python_seeds, array_seeds, array_seeds.astype(np.int64)):
            block = generator_block(seeds, degree, 2, field)
            assert block.coefficients.shape == (len(seeds), degree)
            for seed, row in zip(seeds, block.coefficients.tolist()):
                assert row == _scalar_coefficients(int(seed), degree, p)
                assert new_generator(int(seed), degree, 2, field).coefficients[0].tolist() == row
    if p == MERSENNE61:
        row = generator_block([first_rejected], 4, 2).coefficients[0].tolist()
        assert row == [v & MERSENNE61 for v in _scalar_splitmix64(first_rejected, 5)[1:]]
    else:
        # small fields reject often; most rows here take the refill path
        block = generator_block(range(200), 8, 2, field)
        mask = (1 << p.bit_length()) - 1
        refilled = sum(any(v & mask >= p for v in _scalar_splitmix64(seed, 8))
                       for seed in range(200))
        assert refilled > 20
        assert block.coefficients.tolist() == [_scalar_coefficients(s, 8, p) for s in range(200)]


# ranges for the work-array calls: powers of two fold by a mask, the others
# through the quotient; 192 is a trial block's lcm(k, 2) at k = 192
_WORK_RANGES = [2, 4, 2**20, 7, 192, 2800, 1000003]


@st.composite
def work_call_sequences(draw):
    # (generator, points) calls of every kind, in a drawn order, so the
    # shapes shrink and grow: trial blocks of T trials over one 256- or
    # 1024-point range per row (narrow or, near the top of the field, wide
    # Horner for few rows, point-seeded runs for more), a one-trial block of
    # c = 18 replicas at 10 coefficients (point-seeded at d = 256,
    # difference-seeded at 1024), a one-row chunk of replicas of 115 at 14,
    # difference-seeded, in two table chunks from 1,171 coordinates, and
    # scattered points anywhere in the field
    def block(rows, degree):
        seeds = draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                              min_size=rows, max_size=rows))
        return generator_block(seeds, degree, draw(st.sampled_from(_WORK_RANGES)))

    n = draw(st.sampled_from([256, 1024]))
    start = draw(st.sampled_from([0, MERSENNE61 - n]))
    trials = draw(st.integers(min_value=1, max_value=32 if n == 1024 else 128))
    segment = np.arange(start, start + n, dtype=np.uint64)
    calls = [(block(2 * trials, 6), np.tile(segment, 2 * trials))]
    replicas = np.arange(draw(st.sampled_from([256, 1024])) * 18, dtype=np.uint64)
    calls.append((block(2, 10), np.tile(replicas, 2)))
    count = draw(st.integers(min_value=1, max_value=1400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    coordinates = np.sort(rng.choice(2**40, size=count, replace=False))
    calls.append((block(1, 14), _replicas(coordinates, 115)))
    rows = draw(st.sampled_from([1, 3]))
    scattered = rng.integers(0, MERSENNE61, size=rows * draw(st.integers(0, 700)), dtype=np.uint64)
    calls.append((block(rows, draw(st.integers(min_value=1, max_value=16))), scattered))
    return draw(st.permutations(calls))


@settings(max_examples=25, deadline=None)
@given(calls=work_call_sequences(), fill=st.integers(min_value=0, max_value=2**32))
def test_work_calls_match_fresh_calls(calls, fill):
    # one work array, filled with garbage bytes and never cleared, serves
    # every call; each returns the fresh call's values bit for bit, as a
    # view of the work array
    words = max(kwise.work_size(len(gen), gen.degree, points) for gen, points in calls)
    work = np.frombuffer(np.random.default_rng(fill).bytes(8 * words), dtype=np.uint64).copy()
    for gen, points in calls:
        expected = eval_bucket_batch(gen, points)
        got = eval_bucket_batch(gen, points, work=work)
        assert np.shares_memory(got, work) or not points.size
        assert got.dtype == np.int64 and got.tobytes() == expected.tobytes()


def _kernel_paths(gen, points):
    # the seeds that one call takes, by name
    with patch.object(kwise, "_difference_table", wraps=kwise._difference_table) as seeded, \
            patch.object(kwise, "_point_table", wraps=kwise._point_table) as pointed:
        eval_bucket_batch(gen, points)
    return seeded.call_count, pointed.call_count


def test_work_calls_take_no_point_sized_array():
    # With a work array the kernel's arrays are all views of it: a call's
    # traced peak stays below 96 KB (numpy's iterator buffer for a broadcast
    # operand is up to 64 KB, the scan's run ends a few KB), where its
    # arrays take 0.4-2.8 MB. The cases take each seed: a trial block's
    # point seed and Horner, and a replica chunk's difference seed over two
    # table chunks.
    rng = np.random.default_rng(29)
    block = np.tile(np.arange(1024, dtype=np.uint64), 64)
    chunk = _replicas(np.sort(rng.choice(2**40, size=1300, replace=False)), 115)
    cases = [(generator_block(range(64), 6, 192), block, (0, 1)),
             (generator_block(range(6), 6, 192), block[:6 * 1024], (0, 0)),
             (new_generator(5, 14, 2800), chunk, (2, 0))]
    for gen, points, paths in cases:
        assert _kernel_paths(gen, points) == paths
        work = np.empty(kwise.work_size(len(gen), gen.degree, points), dtype=np.uint64)
        expected = eval_bucket_batch(gen, points)
        tracemalloc.start()
        try:
            got = eval_bucket_batch(gen, points, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, expected)
        assert peak < 96 * 1024 < work.nbytes // 2


def test_work_array_contract_is_checked():
    # a work array of another type, layout or size, or one that holds the
    # points, is refused before the kernel writes to it
    gen = generator_block(range(4), 6, 192)
    points = np.tile(np.arange(1024, dtype=np.uint64), 4)
    words = kwise.work_size(4, 6, points)
    frozen = np.empty(words, dtype=np.uint64)
    frozen.flags.writeable = False
    shared = np.empty(words + points.size, dtype=np.uint64)
    shared[words:] = points
    for work, message in [
            (np.empty(words, dtype=np.int64), "writable contiguous 1-D uint64"),
            (np.empty((2, words), dtype=np.uint64), "writable contiguous 1-D uint64"),
            (np.empty(2 * words, dtype=np.uint64)[::2], "writable contiguous 1-D uint64"),
            (frozen, "writable contiguous 1-D uint64"),
            (shared, "shares no memory with the points"),
            (np.empty(2 * points.size - 1, dtype=np.uint64), f"needs at least {2 * points.size}"),
            (np.empty(words - 1, dtype=np.uint64), f"the call needs {words}"),
    ]:
        with pytest.raises(ValueError, match=message):
            eval_bucket_batch(gen, shared[words:] if work is shared else points, work=work)
    assert np.array_equal(eval_bucket_batch(gen, points, work=np.empty(words, dtype=np.uint64)),
                          eval_bucket_batch(gen, points))
