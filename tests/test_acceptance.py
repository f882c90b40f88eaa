"""Acceptance suite: one test per criterion, each printing a PASS line on completion.

Statistical criteria fix every seed, so reruns are bit-for-bit repeatable.
"""

import math
import statistics
import time

import numpy as np
import pytest

from sjlt.chaos import (
    ChaosInstance,
    exact_moment,
    graph_expansion_moment,
    moment_upper_bound,
    tail_estimate,
)
from sjlt.graphs import check_structure, class_count, class_histogram
from sjlt.kwise import KWiseGenerator, PrimeField, eval_bucket
from sjlt.transform import (
    DenseVector,
    SparseVector,
    TransformSpec,
    apply,
    derive_spec,
    distortion_bench,
    materialize,
)

pytestmark = pytest.mark.filterwarnings("ignore::sjlt.transform.AssumptionWarning")

GRID = [(d, k, m) for d in (2, 3, 4) for k in (2, 3) for m in (1, 2)]
VECTORS_PER_CELL = 50


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS", flush=True)


def _cell_vectors(d: int, cell_seed: int):
    rng = np.random.default_rng(cell_seed)
    out = []
    for _ in range(VECTORS_PER_CELL):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        out.append(DenseVector(tuple(v.tolist())))
    return out


def test_criterion_1_moment_identity():
    worst = 0.0
    for cell_index, (d, k, m) in enumerate(GRID):
        for x in _cell_vectors(d, 1000 + cell_index):
            inst = ChaosInstance(k=k, x=x)
            exact = exact_moment(inst, m)
            expansion = graph_expansion_moment(inst, m)
            rel = abs(exact - expansion) / max(exact, expansion, 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-12, (d, k, m, exact, expansion)
    print(f"  worst relative disagreement: {worst:.3e}")
    _passed(1, "moment identity, exact vs graph expansion")


def test_criterion_2_moment_bound():
    for cell_index, (d, k, m) in enumerate(GRID):
        for x in _cell_vectors(d, 2000 + cell_index):
            cap = max(abs(v) for v in x)
            inst = ChaosInstance(k=k, x=x)
            big_c = 1.0 / cap ** 2          # tightest C the vector satisfies
            bound = moment_upper_bound(inst, m, big_c)
            exact = exact_moment(inst, m)
            assert exact <= bound * (1.0 + 1e-12), (d, k, m, exact, bound)
            # the bound holds only when every x_i^2 <= 1/C, so a larger C is refused
            with pytest.raises(ValueError, match=r"exceeds 1/max x_i\^2"):
                moment_upper_bound(inst, m, big_c * (1.0 + 1e-9))
    _passed(2, "class-count bound dominates every exact moment")


def test_criterion_3_class_structure():
    for m in (1, 2, 3):
        for i in range(1, 7):
            histogram = class_histogram(i, m)
            assert all(1 <= t <= i // 2 for t in histogram), (i, m, histogram)
            for t in range(i // 2 + 1, i + 1):
                assert class_count(i, t, m).count == 0
            for t in range(1, i // 2 + 1):
                report = check_structure(i, t, m)
                if 3 * t > i:
                    assert report.applicable
                    assert report.pair_component_deficits == 0, (i, t, m)
                    assert report.uncovered_members == 0, (i, t, m)
                    assert report.family_count <= report.family_bound, (i, t, m)
                    if report.member_count:
                        assert report.min_pair_components >= 3 * t - i, (i, t, m)
                else:
                    assert not report.applicable
    _passed(3, "class structure: empty beyond i/2, pair components, coverage")


def test_criterion_4_specific_counts():
    assert class_count(2, 1, 1).count == 1
    assert class_count(3, 1, 1).count == 0
    # two doubled edges over a perfect matching: 3 matchings x C(4,2) placements
    assert class_count(4, 2, 2).count == 18
    _passed(4, "pinned class counts 1 / 0 / 18")


def test_criterion_5_distortion_failure_rate():
    report = distortion_bench(derive_spec(1024, 0.25, 0.05, 20240501, 20240502),
                              trials=10**5)
    print(f"  failures={report.failures}/{report.trials} "
          f"wilson_high={report.wilson_high:.3e} (allowed {report.delta})")
    assert report.wilson_high <= report.delta
    _passed(5, "distortion failure rate within delta at 1e5 seeds")


def test_criterion_6_tail_surrogate():
    delta = 0.05
    spec = derive_spec(256, 0.25, delta, 31337, 42424)
    report = tail_estimate(spec, trials=20000)
    print(f"  tail hits={report.hits}/{report.trials} "
          f"wilson_high={report.wilson_high:.3e} (allowed {5 * delta})")
    assert report.wilson_high <= 5.0 * delta

    # Markov consistency on enumerable instances
    for d, k, epsilon, seeds in [(4, 2, 0.9, (101, 202)), (3, 2, 0.95, (303, 404))]:
        inst = ChaosInstance.uniform(d, k)
        markov_bound = exact_moment(inst, 1) / epsilon ** 2
        spec = TransformSpec(d=d, epsilon=epsilon, delta=delta, m=1, k=k, c=1,
                             bucket_seed=seeds[0], sign_seed=seeds[1],
                             independence_degree=2)
        sampled = tail_estimate(spec, trials=4000, x=inst.x)
        se = math.sqrt(sampled.failure_rate * (1 - sampled.failure_rate) / sampled.trials)
        assert sampled.failure_rate <= markov_bound + 3.0 * se, (d, k, epsilon)
    _passed(6, "tail bound within 5*delta plus Markov consistency")


def test_criterion_7_kwise_exactness():
    from collections import Counter
    from itertools import product
    field = PrimeField(5)
    for degree in (1, 2, 3):
        seen = Counter()
        for coefficients in product(range(5), repeat=degree):
            g = KWiseGenerator(field=field, coefficients=coefficients, range_size=5)
            seen[tuple(eval_bucket(g, point) for point in range(degree))] += 1
        assert len(seen) == 5 ** degree
        assert set(seen.values()) == {1}
    _passed(7, "exhaustive r-wise uniformity, degrees 1-3 over F_5")


# seeds searched so no column has two replicas sharing a bucket
COLLISION_FREE = [(4, 2, 4, 3), (6, 3, 8, 20), (8, 4, 8, 725)]


def test_criterion_8_sparsity_and_scaling():
    for d, c, k, seed in COLLISION_FREE:
        spec = TransformSpec(d=d, epsilon=0.5, delta=0.5, m=1, k=k, c=c,
                             bucket_seed=seed, sign_seed=seed + 1, independence_degree=6)
        M = materialize(spec)
        for col in range(d):
            nonzero = M[np.abs(M[:, col]) > 1e-15, col]
            assert len(nonzero) == c, (d, c, k, col)
            assert np.allclose(np.abs(nonzero), 1.0 / math.sqrt(c), rtol=1e-12, atol=0)

    spec = derive_spec(2_000_000, 0.5, 0.5, 11, 22)    # m=1, k=16, c=4
    n_small = 40_000
    x_small = SparseVector(dim=spec.d, entries=tuple((i, 1.0) for i in range(n_small)))
    x_big = SparseVector(dim=spec.d, entries=tuple((i, 1.0) for i in range(2 * n_small)))
    apply(spec, x_small)
    apply(spec, x_big)
    times_small, times_big = [], []
    for _ in range(30):
        t0 = time.perf_counter()
        apply(spec, x_small)
        t1 = time.perf_counter()
        apply(spec, x_big)
        t2 = time.perf_counter()
        times_small.append(t1 - t0)
        times_big.append(t2 - t1)
    ratio = statistics.median(times_big) / statistics.median(times_small)
    print(f"  nnz-doubling wall-time ratio: {ratio:.3f} (allowed 1.4 .. 2.6)")
    assert 1.4 <= ratio <= 2.6
    _passed(8, "column sparsity exact and apply time linear in nnz")
