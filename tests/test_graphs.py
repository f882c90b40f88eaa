"""Multigraph engine tests: exact expectations, class counts, structure facts."""

import math
from collections import Counter
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sjlt.graphs
from sjlt.graphs import (
    CLASS_ENUM_BUDGET,
    BudgetExceededError,
    ClassCount,
    Multigraph,
    PairSequence,
    build_multigraph,
    check_power_budget,
    check_structure,
    check_table_budget,
    class_count,
    class_histogram,
    class_histograms,
    disjoint_pair_families,
    pair_family_bound,
    sequence_expectation,
    even_pair_multisets,
    weight,
    _census,
    _class_tables,
)


# ----------------------------------------------------------------- multigraphs

def test_pair_sequence_validation():
    with pytest.raises(ValueError):
        PairSequence(((2, 1),))
    with pytest.raises(ValueError):
        PairSequence(((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        PairSequence(((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        PairSequence(((1, 2),))  # odd length
    with pytest.raises(ValueError):
        PairSequence(())


def test_build_doubled_edge():
    g = build_multigraph(PairSequence(((1, 2), (1, 2))))
    assert g.vertices == frozenset({1, 2})
    assert g.degree == {1: 2, 2: 2}
    assert len(g.edges) == 2
    assert g.components == (frozenset({1, 2}),)


def test_build_two_singleton_edges():
    g = build_multigraph(PairSequence(((1, 2), (3, 4))))
    assert len(g.components) == 2
    assert set(g.degree.values()) == {1}


def test_build_hand_checked_instance():
    seq = PairSequence(((1, 2), (2, 3), (1, 3), (4, 5), (4, 5), (1, 2)))
    g = build_multigraph(seq)
    assert g.degree == {1: 3, 2: 3, 3: 2, 4: 2, 5: 2}
    assert g.components == (frozenset({1, 2, 3}), frozenset({4, 5}))
    assert g.components == components_by_bfs(seq.pairs)


def test_degrees_are_a_plain_dict_in_first_seen_order():
    g = build_multigraph(PairSequence(((3, 5), (1, 3), (2, 5), (1, 2))))
    assert type(g.degree) is dict
    assert list(g.degree.items()) == [(3, 2), (5, 2), (1, 2), (2, 2)]


def components_by_bfs(pairs) -> tuple[frozenset[int], ...]:
    """Independent component oracle: breadth-first search from each unseen
    vertex in increasing order, so components come sorted by smallest vertex."""
    neighbours = {}
    for a, b in pairs:
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    components, seen = [], set()
    for start in sorted(neighbours):
        if start in seen:
            continue
        seen.add(start)
        component, frontier = {start}, [start]
        while frontier:
            frontier = [w for v in frontier for w in neighbours[v] if w not in seen]
            seen.update(frontier)
            component.update(frontier)
        components.append(frozenset(component))
    return tuple(components)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda half: st.lists(
    st.lists(st.integers(1, 12), min_size=2, max_size=2, unique=True),
    min_size=2 * half, max_size=2 * half)))
def test_components_and_degrees_match_bfs(raw):
    # 2 to 8 pairs on up to 12 vertices
    pairs = tuple((min(a, b), max(a, b)) for a, b in raw)
    g = build_multigraph(PairSequence(pairs))
    assert g.components == components_by_bfs(pairs)
    assert g.degree == Counter(v for pair in pairs for v in pair)
    assert g.vertices == frozenset(g.degree)
    assert g.edges == pairs


# ---------------------------------------------------------------------- weight

def test_weight_doubled_edge():
    g = build_multigraph(PairSequence(((1, 2), (1, 2))))
    assert weight(g, [0.5, 0.5], 2) == pytest.approx(1.0 / 32.0, rel=0, abs=0)


def test_weight_zero_on_odd_degree():
    g = build_multigraph(PairSequence(((1, 2), (3, 4))))
    assert weight(g, [0.5] * 4, 2) == 0.0


def test_weight_component_product():
    g = build_multigraph(PairSequence(((1, 2), (1, 2), (3, 4), (3, 4))))
    assert weight(g, [0.5] * 4, 2) == pytest.approx(1.0 / 1024.0, rel=0, abs=0)


def test_weight_vertex_out_of_range():
    g = build_multigraph(PairSequence(((1, 3), (1, 3))))
    with pytest.raises(ValueError):
        weight(g, [0.5, 0.5], 2)


def test_weight_invariant_under_reordering():
    x = [0.4, -0.6, 0.5, 0.3]
    a = build_multigraph(PairSequence(((1, 2), (3, 4), (1, 2), (3, 4))))
    b = build_multigraph(PairSequence(((3, 4), (1, 2), (3, 4), (1, 2))))
    assert weight(a, x, 3) == weight(b, x, 3)


# --------------------------------------------------------- exact expectations

def test_sequence_expectation_doubled_edge():
    x = [1 / math.sqrt(2)] * 2
    got = sequence_expectation(PairSequence(((1, 2), (1, 2))), x, k=2, d=2)
    assert got == pytest.approx(0.125, rel=1e-12)
    g = build_multigraph(PairSequence(((1, 2), (1, 2))))
    assert got == pytest.approx(weight(g, x, 2), rel=1e-12)


def test_sequence_expectation_vanishes_on_odd_degrees():
    got = sequence_expectation(PairSequence(((1, 2), (1, 3))), [0.5, 0.5, 0.5], k=2, d=3)
    assert got == 0.0


def test_sequence_expectation_vanishes_on_zero_coordinate():
    got = sequence_expectation(PairSequence(((1, 2), (1, 2))), [0.5, 0.0], k=2, d=2)
    assert got == 0.0


def test_sequence_expectation_budget():
    with pytest.raises(BudgetExceededError):
        sequence_expectation(PairSequence(((1, 2), (1, 2))), [0.1] * 30, k=10, d=30)


def test_expectation_equals_weight_everywhere():
    # every sequence over d <= 4, k <= 3, m <= 2: enumeration against the
    # component-weight formula
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        x = x.tolist()
        pairs = [(a, b) for a in range(1, d + 1) for b in range(a + 1, d + 1)]
        for k in (2, 3):
            for m in (1, 2):
                for seq_pairs in product(pairs, repeat=2 * m):
                    seq = PairSequence(seq_pairs)
                    expected = weight(build_multigraph(seq), x, k)
                    got = sequence_expectation(seq, x, k, d)
                    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


# ------------------------------------------------------------- class counting

def test_class_counts_hand_values():
    assert class_count(2, 1, 1).count == 1
    assert class_count(3, 1, 1).count == 0
    assert class_count(4, 2, 2).count == 18   # 3 perfect matchings x C(4,2) slot choices
    assert class_count(4, 3, 2).count == 0
    assert class_count(2, 1, 2).count == 1
    assert class_count(3, 1, 2).count == 18
    # connected, all degrees even, 4 edges on 4 vertices forces a 4-cycle:
    # 3 labeled cycles, each with 4! edge orderings
    assert class_count(4, 1, 2).count == 72


def test_class_histogram_all_two_regular():
    # 6 edges on 6 vertices with even positive degrees force degree 2 everywhere:
    # disjoint cycle covers, counted by hand
    assert class_histogram(6, 3) == {1: 43200, 2: 23400, 3: 1350}


def test_no_classes_beyond_half_vertices():
    for m in (1, 2, 3):
        for i in range(1, 7):
            histogram = class_histogram(i, m)
            assert all(t <= i // 2 for t in histogram)


def test_class_count_rejects_bad_arguments():
    with pytest.raises(ValueError):
        class_count(0, 1, 1)
    with pytest.raises(ValueError):
        class_count(2, 0, 1)


def test_class_count_budget():
    # the closed form's tables are budgeted, not the census's C(i,2)^2m
    # sequences: 36^6 at (9, 3) are counted, 3*(2048+1) table entries are not
    assert sum(class_histogram(9, 3).values()) == covering_sequences_by_parity_walk(9, 6)
    with pytest.raises(BudgetExceededError,
                       match=r"^3\*\(2048\+1\) class table entries exceed the table "
                             r"budget 2048$"):
        class_histogram(3, 1024)


def test_table_budget_frontier():
    # n*(2m+1) entries: 4*(511+1) = 2048 is admitted, 3*(682+1) = 2049 is not;
    # below three vertices no table is built, so nothing is refused
    check_table_budget(4, 511)
    check_table_budget(44, 44)
    for n in (1, 2):
        check_table_budget(n, 10 ** 9)
    for n, two_m in ((3, 682), (46, 46), (2049, 0)):
        with pytest.raises(BudgetExceededError,
                           match=rf"^{n}\*\({two_m}\+1\) class table entries "):
            check_table_budget(n, two_m)


def test_table_budget_refuses_before_any_table_is_built(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a table was built before the budget refusal")

    monkeypatch.setattr(sjlt.graphs, "_class_tables", unreachable)
    for call in (lambda: class_histograms(3, 8000), lambda: class_histogram(46, 23),
                 lambda: class_count(3, 1, 8000)):
        with pytest.raises(BudgetExceededError):
            call()


def test_power_budget_is_exact_at_every_size():
    # the bit-length shortcut refuses exactly the powers above the budget
    for budget in (1, 2, 7, 8, 9, 10**8, 2**40 - 1, 2**40, 2**40 + 1):
        for base in range(0, 40):
            for exponent in range(1, 50):
                total = base ** exponent
                if total <= budget:
                    assert check_power_budget(base, exponent, budget, "x exceed") == total
                else:
                    with pytest.raises(BudgetExceededError,
                                       match=rf"^{base}\^{exponent} x exceed {budget}$"):
                        check_power_budget(base, exponent, budget, "x exceed")
    with pytest.raises(BudgetExceededError, match=r"^36\^20000000 "):
        check_power_budget(36, 2 * 10**7, 10**9, "sequences exceed the budget")


def dense_class_tables(n: int, two_m: int) -> dict[int, dict[int, int]]:
    """The recurrences of graphs._class_tables over every (vertices, pairs)
    cell, zero or not, with a math.comb per binomial: the reference for the
    version that splits over the nonzero connected counts alone."""
    if n <= 2:
        return {i: {1: 1} if i == 2 else {} for i in range(1, n + 1)}

    def split_first_component(conn, rest, v, length):
        return sum(math.comb(v - 1, a - 1) * math.comb(length, b)
                   * conn[a][b] * rest[v - a][length - b]
                   for a in range(1, v + 1) for b in range(length + 1))

    sizes, lengths = range(n + 1), range(two_m + 1)
    even = [[sum(math.comb(v, s) * (math.comb(v - s, 2) + math.comb(s, 2) - s * (v - s)) ** l
                 for s in range(v + 1)) >> v for l in lengths] for v in sizes]
    cover = [[sum((-1) ** j * math.comb(v, j) * even[v - j][l] for j in range(v + 1))
              for l in lengths] for v in sizes]
    conn = [[0] * len(lengths) for _ in sizes]
    for v in range(1, n + 1):
        for l in lengths:
            conn[v][l] = cover[v][l] - split_first_component(conn, cover, v, l)
    layer = [[int(v == 0 and l == 0) for l in lengths] for v in sizes]
    histograms = {i: {} for i in range(1, n + 1)}
    for t in range(1, n // 2 + 1):
        layer = [[split_first_component(conn, layer, v, l) for l in lengths] for v in sizes]
        for i in range(2 * t, n + 1):
            if layer[i][two_m]:
                histograms[i][t] = layer[i][two_m]
    return histograms


def test_sparse_class_tables_equal_the_dense_recurrence():
    for n in range(1, 10):
        for two_m in range(1, 11):
            assert _class_tables(n, two_m) == dense_class_tables(n, two_m), (n, two_m)


def test_one_pass_histograms_equal_the_single_ones():
    for m in (1, 2, 3):
        for n in range(1, 7):
            histograms = class_histograms(n, m)
            assert sorted(histograms) == list(range(1, n + 1))
            for i in range(1, n + 1):
                assert histograms[i] == class_histogram(i, m)


@pytest.mark.parametrize("n, m, first", [(9, 3, 9), (7, 4, 6)])
def test_one_pass_answers_cells_beyond_the_census_budget(n, m, first):
    # C(first,2)^2m sequences exceed the census's budget, which the closed
    # form does not use: the one pass and the single histogram agree
    assert math.comb(first, 2) ** (2 * m) > CLASS_ENUM_BUDGET
    histograms = class_histograms(n, m)
    assert histograms[first] == class_histogram(first, m)
    assert sum(histograms[first].values()) == covering_sequences_by_parity_walk(first, 2 * m)


def test_one_pass_histograms_reject_bad_arguments():
    for n, m in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="n and m must be positive"):
            class_histograms(n, m)


def test_class_count_invariant_enforced():
    with pytest.raises(ValueError):
        ClassCount(i=4, t=3, m=2, count=5)


def test_symmetry_over_relabeled_vertex_sets():
    # an enumeration over arbitrary vertex labels counts what the closed
    # form counts on {1..n}
    rng = np.random.default_rng(12)
    for m in (1, 2, 3):
        for n in range(2, 7):
            vertices = rng.choice(np.arange(1, 100), size=n, replace=False).tolist()
            counts, _ = _census(tuple(sorted(vertices)), 2 * m)
            assert counts == class_histogram(n, m)
    q = tuple(sorted(rng.choice(np.arange(1, 30), size=3, replace=False).tolist()))
    assert _census(q, 4)[0].get(1, 0) == class_count(3, 1, 2).count


def test_closed_form_counts_equal_the_census():
    for m in (1, 2, 3):
        for i in range(1, 7):
            counts, _ = _census(tuple(range(1, i + 1)), 2 * m)
            assert class_histogram(i, m) == counts


def even_sequences_by_parity_walk(n: int, length: int) -> int:
    """Independent oracle: walk the 2^n degree-parity vectors, one pair per step."""
    masks = [(1 << a) | (1 << b) for a, b in combinations(range(n), 2)]
    states = np.arange(1 << n)
    ways = np.zeros(1 << n, dtype=object)
    ways[0] = 1
    for _ in range(length):
        nxt = np.zeros(1 << n, dtype=object)
        for mask in masks:
            nxt[states ^ mask] += ways
        ways = nxt
    return int(ways[0])


def covering_sequences_by_parity_walk(i: int, length: int) -> int:
    """Even-degree sequences covering all i vertices: inclusion-exclusion over unused ones."""
    return sum((-1) ** j * math.comb(i, j) * even_sequences_by_parity_walk(i - j, length)
               for j in range(i + 1))


def test_closed_form_counts_sum_to_the_covering_count():
    # beyond the census: the classes of every i <= 2m partition the covering
    # sequences, counted by inclusion-exclusion over unused vertices
    for m in (4, 5, 6):
        for i in range(1, 2 * m + 1):
            assert sum(_class_tables(i, 2 * m)[i].values()) == \
                covering_sequences_by_parity_walk(i, 2 * m)
    # within it: the census's orderings-weighted total, checked without the
    # orderings formula
    for m in (1, 2, 3):
        for i in range(1, 7):
            counts, _ = _census(tuple(range(1, i + 1)), 2 * m)
            assert sum(counts.values()) == covering_sequences_by_parity_walk(i, 2 * m)


def test_even_pair_multisets_are_the_even_multisets():
    # the enumerator skips exactly the multisets with an odd vertex: what it
    # yields is the even subset of every multiset, each once, and its orderings
    # count the even-degree sequences without the orderings formula
    for n in range(1, 6):
        for two_m in (2, 4, 6):
            pairs = list(combinations(range(1, n + 1), 2))
            even = []
            for chosen in combinations_with_replacement(pairs, two_m):
                degree = Counter(v for pair in chosen for v in pair)
                if all(c % 2 == 0 for c in degree.values()):
                    even.append(chosen)
            yielded = []
            total = 0
            for orderings, seq in even_pair_multisets(range(1, n + 1), two_m):
                yielded.append(seq.pairs)
                assert all(c % 2 == 0 for c in build_multigraph(seq).degree.values())
                total += orderings
            # the brute filter's lexicographic order, each multiset sorted and once
            assert yielded == even
            assert total == even_sequences_by_parity_walk(n, two_m)


@pytest.mark.parametrize("two_m", [0, -1, 3])
def test_even_pair_multisets_refuse_a_bad_pair_count(two_m):
    with pytest.raises(ValueError, match="^need an even, positive number of pairs$"):
        next(even_pair_multisets(range(1, 5), two_m))


def even_compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(2, total - 2 * (parts - 1) + 1, 2):
        for rest in even_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_closed_form_counts_of_perfect_matchings():
    # t = i/2 components on i vertices are the pairs of a perfect matching,
    # each pair repeated an even, positive number of times
    for m in range(1, 7):
        for t in range(1, m + 1):
            matchings = math.factorial(2 * t) // (2 ** t * math.factorial(t))
            orderings = 0
            for parts in even_compositions(2 * m, t):
                term = math.factorial(2 * m)
                for part in parts:
                    term //= math.factorial(part)
                orderings += term
            assert _class_tables(2 * t, 2 * m)[2 * t].get(t, 0) == matchings * orderings


def test_crude_cap():
    for m in (1, 2):
        for i in (2, 3, 4, 5):
            total = sum(class_histogram(i, m).values())
            assert total <= (i * (i - 1) // 2) ** (2 * m) <= i ** (4 * m)


# ------------------------------------------------------------ structure facts

def test_structure_equality_case():
    report = check_structure(4, 2, 2)
    assert report.applicable
    assert report.member_count == 18
    assert report.min_pair_components == 2      # equals 3t - i
    assert report.pair_component_deficits == 0
    assert report.uncovered_members == 0
    assert report.family_count <= report.family_bound
    assert report.ok


def test_structure_not_applicable():
    report = check_structure(3, 1, 2)
    assert not report.applicable
    assert report.ok


def test_structure_larger_m():
    report = check_structure(4, 2, 3)
    assert report.applicable
    assert report.member_count == 90
    assert report.min_pair_components >= 2
    assert report.ok


def test_pair_families_enumeration():
    families = disjoint_pair_families(4, 2)
    assert len(families) == 3                      # perfect matchings of [4]
    assert len(set(families)) == len(families)
    assert len(families) <= pair_family_bound(4, 2) == 12
    with pytest.raises(ValueError):
        disjoint_pair_families(4, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=2**32))
def test_weight_dominated_by_class_bound(m, i, seed):
    # for every enumerated member and capped x: weight <= k^-(i-t) C^-(2m-i) prod x_v^2
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    cap = 1.0 / math.sqrt(i)
    x = rng.uniform(-cap, cap, size=i)
    big_c = 1.0 / cap ** 2
    pairs = [(a, b) for a in range(1, i + 1) for b in range(a + 1, i + 1)]
    if not pairs or len(pairs) ** (2 * m) > 10**5:
        return
    for seq_pairs in product(pairs, repeat=2 * m):
        g = build_multigraph(PairSequence(seq_pairs))
        if g.vertices != frozenset(range(1, i + 1)):
            continue
        if any(v % 2 for v in g.degree.values()):
            continue
        t = len(g.components)
        bound = (k ** -(i - t)) * (big_c ** -(2 * m - i)) * math.prod(x ** 2)
        assert weight(g, x, k) <= bound * (1 + 1e-12) + 1e-300
