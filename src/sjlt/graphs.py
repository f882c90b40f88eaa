"""Multigraphs built from sequences of index pairs: weights, counts, structure checks.

A sequence of 2m pairs over {1..d} induces a multigraph whose expected signed
collision product is nonzero only when every vertex degree is even. The
functions here construct those graphs and compute their component-wise
weights. They count the sequence classes, grouped by vertex count and number
of connected components, by exact integer recurrences over the nonzero
connected counts. Class members, even-degree pair multisets weighted by their
orderings and each found by the one pair that can close it, are enumerated
only to check their structure and as the counts' test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

CLASS_ENUM_BUDGET = 10 ** 9
CLASS_TABLE_BUDGET = 2048  # closed-form table entries: at most 1.9 s on a 2-vCPU Xeon
ASSIGNMENT_ENUM_BUDGET = 10 ** 8


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed its configured budget."""


@dataclass(frozen=True)
class PairSequence:
    """An even-length sequence of strictly increasing 1-based index pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple((int(a), int(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs or len(pairs) % 2:
            raise ValueError("need an even, positive number of pairs")
        for a, b in pairs:
            if not 1 <= a < b:
                raise ValueError(f"pair ({a}, {b}) must be strictly increasing and 1-based")


@dataclass(frozen=True, eq=False)
class Multigraph:
    """A pair sequence's multigraph as weight reads it: degrees and components."""

    degree: dict[int, int]
    components: tuple[frozenset[int], ...]


def build_multigraph(seq: PairSequence) -> Multigraph:
    """Multigraph whose edge multiset is the sequence; only used vertices appear,
    and components come sorted by their smallest vertex.

    Components are found as vertex bitmasks: each pair's two-bit mask absorbs
    every component mask it meets.
    """
    degree: dict[int, int] = {}
    masks: list[int] = []
    for a, b in seq.pairs:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
        joined = (1 << a) | (1 << b)
        apart = []
        for mask in masks:
            if mask & joined:
                joined |= mask
            else:
                apart.append(mask)
        masks = apart + [joined]
    vertices = sorted(degree)
    # disjoint masks sort by their lowest bit, the component's smallest vertex
    components = tuple(frozenset(v for v in vertices if mask >> v & 1)
                       for mask in sorted(masks, key=lambda mask: mask & -mask))
    return Multigraph(degree=degree, components=components)


def weight(graph: Multigraph, x: Sequence[float], k: int) -> float:
    """Product over components of k^-(size-1) * prod x_v^deg(v); 0 on any odd degree."""
    for v in graph.degree:
        if not 1 <= v <= len(x):
            raise ValueError(f"vertex {v} outside the coefficient vector")
    total = 1.0
    for component in graph.components:
        if any(graph.degree[v] % 2 for v in component):
            return 0.0
        part = float(k) ** -(len(component) - 1)
        for v in component:
            part *= x[v - 1] ** graph.degree[v]
        total *= part
    return total


def check_power_budget(base: int, exponent: int, budget: int, refusal: str) -> int:
    """The size base^exponent of an enumeration, refused above `budget` by a
    message that names it as base^exponent. A size whose bit length alone
    puts it past the budget is refused before any power is built."""
    if exponent * (base.bit_length() - 1) < budget.bit_length():
        total = base ** exponent
        if total <= budget:
            return total
    raise BudgetExceededError(f"{base}^{exponent} {refusal} {budget}")


def check_assignment_budget(d: int, k: int) -> int:
    """The k^d * 2^d = (2k)^d (hash, sign) assignments of d coordinates, within budget."""
    return check_power_budget(2 * k, d, ASSIGNMENT_ENUM_BUDGET,
                              "assignments exceed the exact enumeration budget")


def sequence_expectation(seq: PairSequence, x: Sequence[float], k: int, d: int) -> float:
    """Exact mean of the signed collision product over every (hash, sign) assignment.

    Enumerates all k^d bucket maps and 2^d sign patterns; budget-guarded.
    """
    if d < 1 or k < 1:
        raise ValueError("d and k must be positive")
    if len(x) < d:
        raise ValueError("x must cover all d coordinates")
    if any(b > d for _, b in seq.pairs):
        raise ValueError("sequence uses vertices beyond d")
    total = check_assignment_budget(d, k)
    pair_list = seq.pairs

    def terms():
        for hashes in product(range(k), repeat=d):
            for signs in product((1, -1), repeat=d):
                value = 1.0
                for a, b in pair_list:
                    if hashes[a - 1] != hashes[b - 1]:
                        value = 0.0
                        break
                    value *= x[a - 1] * x[b - 1] * signs[a - 1] * signs[b - 1]
                yield value

    return math.fsum(terms()) / total


def check_class_budget(n: int, two_m: int) -> None:
    """The C(n,2)^2m pair sequences on n vertices, within the class budget."""
    check_power_budget(math.comb(n, 2), two_m, CLASS_ENUM_BUDGET,
                       "sequences exceed the class enumeration budget")


def check_table_budget(n: int, two_m: int) -> None:
    """The n * (two_m + 1) exact integers of the class tables on n vertices,
    within the table budget. Below three vertices no table is built."""
    if n > 2 and n * (two_m + 1) > CLASS_TABLE_BUDGET:
        raise BudgetExceededError(f"{n}*({two_m}+1) class table entries exceed the table "
                                  f"budget {CLASS_TABLE_BUDGET}")


def even_pair_multisets(vertices, two_m: int):
    """Each multiset of two_m increasing pairs over the vertices whose multigraph
    has only even degrees, once, in lexicographic order, as a sequence with its
    number of orderings (every ordering has the same multigraph). The others
    weigh 0: the parity bitmask of the first two_m - 1 pairs names the one pair
    that can close an even multiset, so no other multiset is built."""
    if two_m < 1 or two_m % 2:
        raise ValueError("need an even, positive number of pairs")
    pairs = tuple(combinations(sorted(vertices), 2))
    masks = tuple((1 << a) ^ (1 << b) for a, b in pairs)
    closing = {mask: p for p, mask in enumerate(masks)}
    for chosen in combinations_with_replacement(range(len(pairs)), two_m - 1):
        odd = 0
        for p in chosen:
            odd ^= masks[p]
        last = closing.get(odd)
        # sorted multisets only: the closing pair comes no earlier than the rest
        if last is None or last < chosen[-1]:
            continue
        chosen += (last,)
        orderings, run = math.factorial(two_m), 1
        for previous, p in zip(chosen, chosen[1:]):
            run = run + 1 if p == previous else 1
            orderings //= run
        yield orderings, PairSequence(tuple(pairs[p] for p in chosen))


@lru_cache(maxsize=32)
def _census(vertices: tuple[int, ...], two_m: int):
    """Counts by component number plus each member multiset's orderings and
    components, over the multisets covering every vertex with even degrees."""
    check_class_budget(len(vertices), two_m)
    counts: dict[int, int] = {}
    members: list[tuple[int, tuple[frozenset[int], ...]]] = []
    every = sum(1 << v for v in vertices)
    for orderings, seq in even_pair_multisets(vertices, two_m):
        # covered vertices as a bitmask, before any graph is built
        covered = 0
        for a, b in seq.pairs:
            covered |= (1 << a) | (1 << b)
        if covered != every:
            continue
        graph = build_multigraph(seq)
        t = len(graph.components)
        counts[t] = counts.get(t, 0) + orderings
        members.append((orderings, graph.components))
    return counts, tuple(members)


@dataclass(frozen=True)
class ClassCount:
    i: int
    t: int
    m: int
    count: int

    def __post_init__(self) -> None:
        if self.t > self.i // 2 and self.count != 0:
            raise ValueError("classes with more than i/2 components cannot exist")


def _class_tables(n: int, two_m: int) -> dict[int, dict[int, int]]:
    """Sequences of two_m pairs covering {1..i} with even degrees, by component
    number, for every i <= n.

    Exact integer recurrences (the exponential formula over vertex and position
    labels): even[v][l] = 2^-v sum_s C(v,s) lambda_s^l counts even-degree
    sequences on v vertices, where lambda_s = C(v-s,2) + C(s,2) - s(v-s) =
    ((v-2s)^2 - v)/2 is the pair sum of the sign character of an s-set;
    inclusion-exclusion keeps the covering ones; splitting off the component
    of vertex 1 gives the connected counts and then, one component at a time,
    the t-component counts. The splits run over the nonzero connected counts
    alone: a connected even multigraph on a >= 3 vertices has at least a
    pairs, so most are 0. The tables for n hold every smaller vertex count, so
    one pass serves all i. Below three vertices there is at most the one pair
    (1, 2), whose 2m copies form one even component: no tables are built.
    """
    if n <= 2:
        return {i: {1: 1} if i == 2 else {} for i in range(1, n + 1)}
    sizes, lengths = range(n + 1), range(two_m + 1)
    binom = [[math.comb(x, y) for y in range(x + 1)] for x in range(max(n, two_m) + 1)]
    even = [[sum(binom[v][s] * (((v - 2 * s) ** 2 - v) // 2) ** l for s in range(v + 1)) >> v
             for l in lengths] for v in sizes]
    cover = [[sum((-1) ** j * binom[v][j] * even[v - j][l] for j in range(v + 1))
              for l in lengths] for v in sizes]
    connected = []

    def split(rest, v: int, l: int) -> int:
        # Sequences of l pairs on {1..v}: the component of vertex 1, with a
        # vertices and b pairs, counted by c, the rest by rest[v - a][l - b].
        return sum(binom[v - 1][a - 1] * binom[l][b] * c * rest[v - a][l - b]
                   for a, b, c in connected if a <= v and b <= l)

    for v in range(1, n + 1):
        for l in lengths:
            # (v, l) is not in `connected` yet, so the split counts exactly
            # the sequences whose component of vertex 1 is not the whole graph
            count = cover[v][l] - split(cover, v, l)
            if count:
                connected.append((v, l, count))
    layer = [[int(v == 0 and l == 0) for l in lengths] for v in sizes]
    histograms = {i: {} for i in range(1, n + 1)}
    for t in range(1, n // 2 + 1):
        # t even components need at least 2t vertices
        layer = [[split(layer, v, l) if v >= 2 * t else 0 for l in lengths] for v in sizes]
        for i in range(2 * t, n + 1):
            if layer[i][two_m]:
                histograms[i][t] = layer[i][two_m]
    return histograms


def class_histograms(n: int, m: int) -> dict[int, dict[int, int]]:
    """class_histogram(i, m) for every i in 1..n, from one pass of the counts,
    refused before any table is built when the tables exceed their budget."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    check_table_budget(n, 2 * m)
    return _class_tables(n, 2 * m)


def class_histogram(i: int, m: int) -> dict[int, int]:
    """Eligible sequence counts on {1..i} by component number, in closed form."""
    return class_histograms(i, m)[i]


def class_count(i: int, t: int, m: int) -> ClassCount:
    """Exact number of 2m-pair sequences covering {1..i} with t even components."""
    if min(i, t, m) < 1:
        raise ValueError("i, t and m must be positive")
    return ClassCount(i=i, t=t, m=m, count=class_histogram(i, m).get(t, 0))


def _pairings(elems: tuple[int, ...]):
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for j, partner in enumerate(rest):
        for tail in _pairings(rest[:j] + rest[j + 1:]):
            yield ((first, partner),) + tail


def disjoint_pair_families(i: int, u: int) -> tuple[frozenset[frozenset[int]], ...]:
    """Every set of u vertex-disjoint unordered pairs drawn from {1..i}."""
    if u < 1:
        raise ValueError("u must be positive")
    families = []
    for chosen in combinations(range(1, i + 1), 2 * u):
        for pairing in _pairings(chosen):
            families.append(frozenset(frozenset(p) for p in pairing))
    return tuple(families)


def pair_family_bound(i: int, u: int) -> int:
    """Binomial cap on the number of disjoint pair families."""
    return math.comb(i, 2 * u) * math.factorial(2 * u) // math.factorial(u)


@dataclass(frozen=True)
class StructReport:
    """Size-2-component structure of one enumerated class."""

    i: int
    t: int
    m: int
    applicable: bool
    member_count: int
    min_pair_components: int | None
    pair_component_deficits: int
    uncovered_members: int
    family_count: int | None
    family_bound: int | None

    @property
    def ok(self) -> bool:
        if not self.applicable:
            return True
        if self.pair_component_deficits or self.uncovered_members:
            return False
        return self.family_count is not None and self.family_count <= self.family_bound


def check_structure(i: int, t: int, m: int) -> StructReport:
    """Verify that every class member carries at least 3t - i two-vertex components
    and that those components realize membership in some disjoint pair family."""
    if min(i, t, m) < 1:
        raise ValueError("i, t and m must be positive")
    _, members = _census(tuple(range(1, i + 1)), 2 * m)
    selected = [(orderings, comps) for orderings, comps in members if len(comps) == t]
    member_count = sum(orderings for orderings, _ in selected)
    u = 3 * t - i
    if u <= 0:
        return StructReport(i, t, m, False, member_count, None, 0, 0, None, None)
    families = set(disjoint_pair_families(i, u))
    bound = pair_family_bound(i, u)
    deficits = 0
    uncovered = 0
    min_pairs: int | None = None
    for orderings, components in selected:
        pair_components = [c for c in components if len(c) == 2]
        count = len(pair_components)
        min_pairs = count if min_pairs is None else min(min_pairs, count)
        if count < u:
            deficits += orderings
            uncovered += orderings
            continue
        family = frozenset(pair_components[:u])
        if family not in families:
            uncovered += orderings
    return StructReport(i, t, m, True, member_count, min_pairs, deficits, uncovered,
                        len(families), bound)
