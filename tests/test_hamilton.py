import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from clawtrace.errors import OrderTooLargeForExact
from clawtrace.families import complete, complete_split, nn33, star
from clawtrace.graph import bits, disjoint_union, from_edges
from clawtrace.hamilton import (
    MAX_EXACT,
    HamiltonWitness,
    _run_dp,
    _with_apex,
    find_hamilton_path,
    has_hamilton_cycle,
    has_hamilton_path,
)

from oracles import (
    graphs,
    graphs_with_twins,
    hamilton_cycle_brute,
    hamilton_path_brute,
    random_graph,
    witness_is_valid,
)


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner)


def test_named_graphs():
    assert has_hamilton_path(path_graph(7))
    assert not has_hamilton_cycle(path_graph(7))
    assert has_hamilton_cycle(cycle_graph(7))
    assert has_hamilton_cycle(complete(6))
    assert has_hamilton_path(star(3))
    assert not has_hamilton_path(star(4))
    assert not has_hamilton_path(nn33(8))
    assert not has_hamilton_path(disjoint_union(complete(3), complete(3)))
    assert has_hamilton_path(complete(1))
    assert not has_hamilton_cycle(complete(2))


def test_petersen_traceable_but_not_hamiltonian():
    g = petersen()
    assert has_hamilton_path(g)
    assert not has_hamilton_cycle(g)


def test_split_graph_balance():
    # K_3 joined to t isolated vertices: path iff t <= 4, cycle iff t <= 3
    for t in range(1, 7):
        g = complete_split(3, 3 + t)
        assert has_hamilton_path(g) == (t <= 4)
        assert has_hamilton_cycle(g) == (t <= 3)


def test_matches_permutation_brute_force():
    rng = np.random.default_rng(83)
    for _ in range(250):
        n = int(rng.integers(1, 8))
        g = random_graph(rng, n, rng.random())
        assert has_hamilton_path(g) == hamilton_path_brute(g)
        assert has_hamilton_cycle(g) == hamilton_cycle_brute(g)


def test_witness_extraction():
    rng = np.random.default_rng(89)
    found = 0
    for _ in range(200):
        n = int(rng.integers(2, 12))
        g = random_graph(rng, n, rng.random())
        w = find_hamilton_path(g)
        assert (w is not None) == has_hamilton_path(g)
        if w is not None:
            found += 1
            assert w.kind == "Path"
            assert witness_is_valid(g, w)
    assert found > 50


def test_witness_validation_rejects_garbage():
    g = path_graph(4)
    assert not witness_is_valid(g, HamiltonWitness("Path", (0, 2, 1, 3)))
    assert not witness_is_valid(g, HamiltonWitness("Path", (0, 1, 2)))
    assert not witness_is_valid(g, HamiltonWitness("Path", (0, 1, 2, 2)))
    assert witness_is_valid(g, HamiltonWitness("Path", (0, 1, 2, 3)))
    c = cycle_graph(5)
    assert witness_is_valid(c, HamiltonWitness("Cycle", (0, 1, 2, 3, 4)))
    assert not witness_is_valid(c, HamiltonWitness("Cycle", (0, 2, 1, 3, 4)))


def test_order_cap():
    with pytest.raises(OrderTooLargeForExact):
        has_hamilton_path(complete(MAX_EXACT + 1))
    assert has_hamilton_path(complete(MAX_EXACT))  # boundary order works


def test_larger_structured_instances():
    # exercise the table on sizes well past the brute-force range
    assert has_hamilton_cycle(cycle_graph(20))
    assert not has_hamilton_path(nn33(20))
    assert has_hamilton_path(path_graph(22))
    w = find_hamilton_path(cycle_graph(18))
    assert w is not None and witness_is_valid(cycle_graph(18), w)
    # big twin classes: the table counts members instead of listing them
    assert not has_hamilton_path(nn33(MAX_EXACT))
    split = complete_split(12, 20)
    w = find_hamilton_path(split)
    assert w is not None and witness_is_valid(split, w)


def assert_agrees_with_permutation_oracles(g):
    assert has_hamilton_cycle(g) == hamilton_cycle_brute(g)
    path = hamilton_path_brute(g)
    assert has_hamilton_path(g) == path
    w = find_hamilton_path(g)
    assert (w is not None) == path
    assert w is None or witness_is_valid(g, w)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_dp_agrees_with_permutation_oracles(g):
    assert_agrees_with_permutation_oracles(g)


@settings(max_examples=100, deadline=None)
@given(graphs_with_twins())
def test_twin_class_dp_agrees_with_permutation_oracles(g):
    assert_agrees_with_permutation_oracles(g)


def subset_dp(g, starts):
    """dp[S] = endpoints of the paths that start in `starts` and cover
    exactly S, by a plain loop over the sets in increasing order (a set
    comes before each of its supersets)."""
    dp = [0] * (1 << g.n)
    for v in starts:
        dp[1 << v] = 1 << v
    for s in range(1 << g.n):
        for v in range(g.n):
            if dp[s] >> v & 1:
                for w in range(g.n):
                    if g.has_edge(v, w) and not s >> w & 1:
                        dp[s | 1 << w] |= 1 << w
    return dp


def twin_layout(g):
    """The class of each vertex and the index field of each class >= 1:
    vertex 0 alone in class 0, vertices 1..n-1 grouped by closed
    neighbourhood in order of their smallest member, a class of size s
    counted in s.bit_length() bits."""
    keys = []
    cls = [0] * g.n
    for v in range(1, g.n):
        key = g.adj[v] | 1 << v
        if key not in keys:
            keys.append(key)
        cls[v] = keys.index(key) + 1
    widths = [cls.count(c).bit_length() for c in range(1, len(keys) + 1)]
    return cls, list(itertools.accumulate(widths, initial=0))


def projected_table(g):
    """subset_dp from vertex 0 projected onto class counts: each set's
    endpoints, mapped to their classes, are ORed into the entry of the
    set's member counts."""
    cls, offsets = twin_layout(g)
    anchored = subset_dp(g, [0])
    table = [0] * (1 << offsets[-1])
    for s in range(1, 1 << g.n, 2):  # the sets that hold vertex 0
        index = sum(1 << offsets[cls[v] - 1] for v in bits(s & ~1))
        for v in bits(anchored[s]):
            table[index] |= 1 << cls[v]
    return table


def is_twin_free(g):
    return len(set(twin_layout(g)[0])) == g.n


def assert_tables_match(g):
    for h in (g, _with_apex(g)):
        assert _run_dp(h).tolist() == projected_table(h)
    # on twin-free graphs the table is the plain subset DP's
    if is_twin_free(g):
        # index t stands for the set {0} plus vertex v at bit v - 1
        anchored = subset_dp(g, [0])
        assert _run_dp(g).tolist() == [
            anchored[t << 1 | 1] for t in range(1 << (g.n - 1))
        ]
    if is_twin_free(_with_apex(g)):
        # through the apex, index t is a set of g and endpoints move up one
        # bit; entry 0 is the path {apex}
        paths = subset_dp(g, range(g.n))
        assert _run_dp(_with_apex(g)).tolist() == [
            paths[t] << 1 | (t == 0) for t in range(1 << g.n)
        ]


def test_dp_tables_match_subset_loop_on_every_small_graph():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            g = from_edges(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
            assert_tables_match(g)


def test_dp_tables_match_subset_loop_on_random_graphs():
    rng = np.random.default_rng(97)
    for _ in range(40):
        n = int(rng.integers(6, 11))
        assert_tables_match(random_graph(rng, n, rng.random()))


def test_anchor_of_degree_two():
    # vertex 0 has degree 2 in each; K_{2,3} has no Hamilton cycle, the
    # hexagon with a chord and C_9 do
    k23 = from_edges(5, [(a, b) for a in (1, 2) for b in (0, 3, 4)])
    chorded = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
    for g, cycle in ((k23, False), (chorded, True), (cycle_graph(9), True)):
        assert g.degree(0) == 2
        assert has_hamilton_cycle(g) == cycle == hamilton_cycle_brute(g)
        assert_tables_match(g)
