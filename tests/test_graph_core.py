from dataclasses import fields

import numpy as np
import pytest

from clawtrace.cli import _analyze_one
from clawtrace.enumeration import _attach, sample_dense_claw_free
from clawtrace.errors import InvalidParams, OrderOutOfRange
from clawtrace.families import complete, edgeless, star
from clawtrace.graph import (
    Graph,
    bits,
    complement,
    components,
    disjoint_union,
    from_edges,
    induced,
    is_block_chain,
    is_complete,
    is_connected,
    is_two_connected,
    join,
    mask_components,
    mask_connected,
    mask_is_clique,
    relabel,
    separations,
)
from clawtrace.graph6 import decode, encode
from clawtrace.hamilton import _with_apex
from clawtrace.structure import closure
from clawtrace.verify import _path_closure

from oracles import brute_force_isomorphic, edge_list, random_graph


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_construction_and_accessors():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 1)])  # duplicate collapses
    assert g.n == 4 and g.m == 3
    assert g.degrees() == [1, 2, 2, 1]
    assert g.has_edge(1, 2) and not g.has_edge(0, 3)
    assert sorted(edge_list(g)) == [(0, 1), (1, 2), (2, 3)]
    assert g.min_degree() == 1
    assert g.vertex_mask == 0b1111
    assert g.adj[1] == 0b0101


def test_construction_rejects_bad_input():
    with pytest.raises(InvalidParams, match=r"^loop at vertex 1$"):
        from_edges(3, [(1, 1)])
    with pytest.raises(InvalidParams, match=r"^edge \(0,3\) outside 0\.\.2$"):
        from_edges(3, [(0, 3)])
    with pytest.raises(OrderOutOfRange):
        from_edges(0, [])
    with pytest.raises(OrderOutOfRange):
        from_edges(65, [])


def test_bits_and_popcount():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert len(list(bits(0b10110))) == 0b10110.bit_count() == 3
    assert list(bits(0)) == []


def test_complement_involution():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        g = random_graph(rng, n, rng.random())
        assert complement(complement(g)) == g
        assert g.m + complement(g).m == n * (n - 1) // 2


def test_join_and_union_shapes():
    g = join(complete(3), edgeless(4))
    assert g.n == 7 and g.m == 3 + 12
    assert is_connected(g)
    h = disjoint_union(complete(3), complete(4))
    assert h.n == 7 and h.m == 3 + 6
    assert not is_connected(h)
    assert len(components(h)) == 2
    with pytest.raises(OrderOutOfRange):
        disjoint_union(complete(40), complete(30))


def test_induced_and_edges_between():
    g = cycle_graph(6)
    sub = induced(g, 0b000111)  # vertices 0,1,2 of the cycle: a path
    assert sub.n == 3 and sub.m == 2
    with pytest.raises(InvalidParams, match=r"^induced subgraph on empty vertex set$"):
        induced(g, 0)
    # edges between {0,1} and {2..5}: the whole cycle minus both sides
    both = induced(g, 0b111111).m
    assert both - induced(g, 0b000011).m - induced(g, 0b111100).m == 2


def test_connectivity_small_cases():
    assert is_connected(complete(1))
    assert not is_connected(from_edges(2, []))
    assert is_connected(path_graph(5))
    assert len(components(from_edges(5, [(0, 1), (2, 3)]))) == 3


def cut_vertices(g):
    return {v for v, comps in enumerate(separations(g)) if len(comps) >= 2}


def block_counts(g):
    info = _analyze_one(g)
    return info["blocks"], info["cut_vertices"]


def test_block_decomposition_path():
    g = path_graph(5)
    assert separations(g)[2] == [0b00011, 0b11000]
    assert cut_vertices(g) == {1, 2, 3}
    assert block_counts(g) == (4, 3)
    assert is_block_chain(g)
    assert not is_two_connected(g)


def test_block_decomposition_two_triangles_sharing_a_vertex():
    g = from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert cut_vertices(g) == {2}
    assert block_counts(g) == (2, 1)
    assert is_block_chain(g)
    assert not is_two_connected(g)


def test_block_decomposition_biconnected():
    g = cycle_graph(6)
    assert all(comps == [g.vertex_mask & ~(1 << v)] for v, comps in enumerate(separations(g)))
    assert cut_vertices(g) == set()
    assert block_counts(g) == (1, 0)
    assert is_block_chain(g)
    assert is_two_connected(g)


def test_block_chain_star_is_not():
    # K_{1,3} has three end-blocks
    assert not is_block_chain(star(4))
    assert is_block_chain(path_graph(6))
    assert is_block_chain(complete(5))


def test_two_connected_edge_cases():
    assert not is_two_connected(complete(2))
    assert not is_two_connected(star(5))
    assert is_two_connected(complete(3))


def test_mask_helpers():
    g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert mask_is_clique(g, 0b000111)
    assert not mask_is_clique(g, 0b011001)
    assert mask_connected(g, 0b000111)
    assert not mask_connected(g, 0b011001)
    assert not mask_connected(g, 0)
    comps = mask_components(g, 0b011111)
    assert sorted(c.bit_count() for c in comps) == [2, 3]


def test_relabel_preserves_structure():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, 0.5)
        perm = list(rng.permutation(n))
        h = relabel(g, perm)
        assert h.m == g.m
        for u, v in edge_list(g):
            assert h.has_edge(perm[u], perm[v])


def test_brute_force_isomorphic_basics():
    assert brute_force_isomorphic(cycle_graph(5), relabel(cycle_graph(5), [2, 0, 4, 1, 3]))
    assert not brute_force_isomorphic(cycle_graph(6), path_graph(6))
    assert not brute_force_isomorphic(complete(4), complete(5))
    with pytest.raises(OrderOutOfRange):
        brute_force_isomorphic(cycle_graph(9), cycle_graph(9))


def test_is_complete():
    assert is_complete(complete(5))
    assert not is_complete(star(4))
    assert is_complete(complete(1))


def test_every_builder_gives_rows_that_fix_n_and_m():
    # a graph is its rows: Graph(adj) is the one constructor, every builder
    # of the package returns symmetric loop-free rows, n and m are read off
    # them, and equality and hashing see the rows alone
    assert [f.name for f in fields(Graph) if f.init] == ["adj"]
    g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
    closable = decode("D|c")
    built = [
        g,
        complement(g),
        disjoint_union(g, complete(3)),
        join(g, edgeless(2)),
        induced(g, 0b101110),
        relabel(g, [5, 3, 1, 0, 2, 4]),
        decode(encode(g)),
        _attach(g, 0b000110),
        sample_dense_claw_free(10, 30, 1),
        _with_apex(g),
        closure(closable).closed,
        _path_closure(g),
    ]
    for h in built:
        assert h.n == len(h.adj)
        assert h.m == len(edge_list(h))
        assert all(row >> h.n == 0 and not row >> v & 1 for v, row in enumerate(h.adj))
        assert all(h.has_edge(u, v) == h.has_edge(v, u) for u in range(h.n) for v in range(h.n))
        same = Graph(tuple(list(h.adj)))
        assert same == h and hash(same) == hash(h)
    # the m of a closure counts the pairs it added: three for the claw-free
    # closure, and all of K6 for the path closure of g
    assert closure(closable).closed.m == closable.m + 3
    assert _path_closure(g).m == 15
    # equal order and size, other rows: another graph
    assert relabel(g, [1, 0, 2, 3, 4, 5]) != g
