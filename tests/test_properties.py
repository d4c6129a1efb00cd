"""Property tests for the augmentation filters, the canonical form, the
claw test, the path closure and the traceability cascade.

networkx serves as the independent oracle for isomorphism, cut vertices,
blocks and the components under a vertex mask; the removal rule is written out
here from canonical_labeling and canonical_form, not taken from the
enumerator.  The claw test is checked against the brute-force triple scan,
the path closure against an all-pairs fixpoint loop, the partition
refinement against a recount of every vertex against every cell and against
the definition of an equitable partition, the twin masks and vertex keys
against their pairwise definitions, and the cascade against the exact
Hamilton path solver.
"""
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawtrace.canon import (
    _initial_cells,
    _refine,
    canonical_form,
    canonical_labeling,
    earlier_twins,
    vertex_keys,
)
from clawtrace.cli import _analyze_one, _block_counts
from clawtrace.enumeration import (
    _attach,
    _rule_filter,
    _viable_masks,
    sample_dense_claw_free,
)
from clawtrace.graph import (
    Graph,
    components,
    from_edges,
    induced,
    is_block_chain,
    is_connected,
    is_two_connected,
    mask_components,
    mask_connected,
    relabel,
)
from clawtrace.hamilton import has_hamilton_path
from clawtrace.structure import is_claw_free
from clawtrace.verify import _path_closure, decide_traceable

from oracles import (
    block_structure_nx,
    claw_free_brute,
    earlier_twins_pairwise,
    edge_list,
    exhaustive_list,
    graphs,
    graphs_with_twins,
    path_closure_brute,
    random_graph,
    vertex_keys_per_neighbour,
)

def _nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edge_list(g))
    return h


def _full_rule_vertex(child: Graph, connected: bool) -> int:
    """The highest canonical label among the non-cut vertices (all vertices
    when connectivity is not required)."""
    cut = set(nx.articulation_points(_nx(child))) if connected else set()
    labels = canonical_labeling(child)[1]
    return max((v for v in range(child.n) if v not in cut), key=labels.__getitem__)


CHAINS = [("connected", "claw-free"), ("connected",), ()]


@pytest.mark.parametrize("chain", CHAINS)
def test_key_filter_rejects_only_what_the_full_rule_rejects(chain):
    connected = "connected" in chain
    for n in range(1, 7):
        for parent in exhaustive_list(n, chain):
            rule_candidates = _rule_filter(parent, connected)
            for mask in range(1 if connected else 0, 1 << n):
                child = _attach(parent, mask)
                if "claw-free" in chain and not is_claw_free(child):
                    continue
                rule = _full_rule_vertex(child, connected)
                candidates = rule_candidates(mask)
                if candidates:
                    assert rule in candidates
                else:
                    rest = induced(child, child.vertex_mask & ~(1 << rule))
                    assert canonical_form(rest) != canonical_form(parent)


def _prefix_representative(g: Graph, mask: int) -> int:
    """mask with its members in each twin class of g moved to the class's
    lowest vertices; u and v are twins when N(u) - v = N(v) - u."""
    nbrs = [{u for u in range(g.n) if g.has_edge(u, v)} for v in range(g.n)]
    rep = 0
    done = set()
    for v in range(g.n):
        if v in done:
            continue
        cls = [u for u in range(v, g.n) if nbrs[u] - {v} == nbrs[v] - {u}]
        done.update(cls)
        taken = sum(mask >> u & 1 for u in cls)
        rep |= sum(1 << u for u in cls[:taken])
    return rep


def _marked(g: Graph) -> nx.Graph:
    h = _nx(g)
    nx.set_node_attributes(h, {v: v == g.n - 1 for v in range(g.n)}, "new")
    return h


@pytest.mark.parametrize("chain", CHAINS)
def test_viable_masks_are_the_claw_free_prefix_representatives(chain):
    # the claw oracle is the full claw test of the child, the twin oracle
    # the mask moved onto the lowest members of each twin class
    for n in range(1, 7):
        for parent in exhaustive_list(n, chain):
            viable = _viable_masks(parent, chain)
            for mask in range(1 << n):
                want = (
                    (mask != 0 or "connected" not in chain)
                    and mask == _prefix_representative(parent, mask)
                    and ("claw-free" not in chain or is_claw_free(_attach(parent, mask)))
                )
                assert viable >> mask & 1 == want


@pytest.mark.parametrize("chain", CHAINS)
def test_viable_masks_drop_only_repeats_of_their_prefix_representative(chain):
    same_vertex = nx.algorithms.isomorphism.categorical_node_match("new", False)
    skipped = 0
    for n in range(1, 7):
        for parent in exhaustive_list(n, chain):
            viable = _viable_masks(parent, chain)
            for mask in range(1 << n):
                rep = _prefix_representative(parent, mask)
                if mask == rep:
                    continue
                assert not viable >> mask & 1
                skipped += 1
                child, kept = _attach(parent, mask), _attach(parent, rep)
                assert canonical_form(child) == canonical_form(kept)
                # an isomorphism that fixes the new vertex, as the argument
                # for the twin screen needs
                assert nx.is_isomorphic(_marked(child), _marked(kept), node_match=same_vertex)
    assert skipped > 0


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(graphs(min_n=2), graphs_with_twins(max_n=12)),
    st.randoms(use_true_random=False),
)
def test_canonical_form_agrees_with_networkx(g, rnd):
    # graphs_with_twins gives the twin classes the search prunes on
    perm = list(range(g.n))
    rnd.shuffle(perm)
    same = relabel(g, perm)
    assert canonical_form(same) == canonical_form(g)
    # a near miss: the relabelled copy with one vertex pair toggled
    u, v = sorted(rnd.sample(range(g.n), 2))
    other = from_edges(g.n, set(edge_list(same)) ^ {(u, v)})
    assert (canonical_form(other) == canonical_form(g)) == nx.is_isomorphic(_nx(g), _nx(other))


def _refine_recounting_every_cell(g: Graph, cells: tuple) -> tuple:
    """The refinement rule written out in full: each round recounts every
    vertex against every cell and splits each cell by those counts, parts
    in ascending order of counts, until a round splits nothing."""
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        split = []
        for cell in cells:
            parts: dict[tuple, list[int]] = {}
            for v in cell:
                counts = tuple(bin(g.adj[v] & m).count("1") for m in masks)
                parts.setdefault(counts, []).append(v)
            split.extend(tuple(parts[key]) for key in sorted(parts))
        if len(split) == len(cells):
            return cells
        cells = tuple(split)


def _as_tuples(cells: list[int]) -> tuple:
    """canon's partition, a list of vertex masks, as a tuple of cells."""
    return tuple(tuple(v for v in range(cell.bit_length()) if cell >> v & 1) for cell in cells)


def _as_masks(cells: tuple) -> list[int]:
    return [sum(1 << v for v in cell) for cell in cells]


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(min_n=2), graphs_with_twins(max_n=12)))
def test_refinement_against_fresh_cells_matches_recounting_every_cell(g):
    initial = _as_tuples(_initial_cells(g))
    cells = _refine_recounting_every_cell(g, initial)
    assert _as_tuples(_refine(g, _as_masks(initial), range(len(initial)))) == cells
    # every individualisation of one vertex of the refined partition, the
    # first level of the search tree among them
    for k, cell in enumerate(cells):
        for v in cell if len(cell) > 1 else ():
            child = cells[:k] + ((v,), tuple(u for u in cell if u != v)) + cells[k + 1:]
            want = _refine_recounting_every_cell(g, child)
            # the search names only the singleton; the rest of the old
            # cell, the split's last part, may be named too
            assert _as_tuples(_refine(g, _as_masks(child), (k,))) == want
            assert _as_tuples(_refine(g, _as_masks(child), (k, k + 1))) == want


def _is_equitable(g: Graph, cells: tuple) -> bool:
    """Every cell's members have equal neighbour counts into every cell."""
    return all(
        len({sum(g.has_edge(v, u) for u in other) for v in cell}) == 1
        for cell in cells
        for other in cells
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(min_n=2), graphs_with_twins(max_n=12)))
def test_the_search_branches_on_equitable_partitions(g):
    # canonical_labeling relies on this: the candidates of a branching cell
    # share their row against the singleton cells before it, so a node has
    # one next column, and each candidate stays a singleton at the branching
    # position, so no two children refine to the same partition
    initial = _initial_cells(g)
    cells = _refine(g, initial, range(len(initial)))
    assert _is_equitable(g, _as_tuples(cells))
    for k, cell in enumerate(cells):
        # the search branches on the first non-singleton cell only
        first = all(c & (c - 1) == 0 for c in cells[:k])
        for v in range(g.n):
            if cell >> v & 1 and cell & (cell - 1):
                child = _refine(g, cells[:k] + [1 << v, cell & ~(1 << v)] + cells[k + 1:], (k,))
                assert _is_equitable(g, _as_tuples(child))
                assert child[k] == 1 << v or not first


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(), graphs_with_twins(max_n=12)))
def test_vertex_invariants_match_their_pairwise_definitions(g):
    assert earlier_twins(g) == earlier_twins_pairwise(g)
    assert vertex_keys(g) == vertex_keys_per_neighbour(g)


@st.composite
def sampled_claw_free(draw, min_n=1, max_n=12):
    """Hypothesis strategy: a connected claw-free graph from the dense
    sampler at a random edge target; a stuck run gives its stuck graph."""
    n = draw(st.integers(min_n, max_n))
    target_m = draw(st.integers(0, n * (n - 1) // 2))
    seed = draw(st.integers(0, 2**32 - 1))
    return sample_dense_claw_free(n, target_m, seed)


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(max_n=12), sampled_claw_free()))
def test_cascade_matches_exact_solver(g):
    # graphs() is mostly not claw-free, the sampler always is
    assert decide_traceable(g) == has_hamilton_path(g)


@settings(max_examples=300, deadline=None)
@given(sampled_claw_free(min_n=4), st.data())
def test_claw_test_near_claw_free_dense_graphs(g, data):
    # one or two toggled pairs turn a claw-free graph into a near miss
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    toggled = data.draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=2))
    h = from_edges(g.n, set(edge_list(g)) ^ toggled)
    assert is_claw_free(h) == claw_free_brute(h)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=12))
def test_claw_test_matches_brute_force_at_every_density(g):
    # graphs() draws each pair independently, so sparse and dense graphs
    # both occur; the claw test walks non-edges, which dense graphs lack
    assert is_claw_free(g) == claw_free_brute(g)


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(max_n=12), sampled_claw_free()))
def test_path_closure_matches_all_pairs_fixpoint(g):
    assert _path_closure(g).adj == path_closure_brute(g).adj


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10), st.data())
def test_component_helpers_match_networkx(g, data):
    mask = data.draw(st.integers(0, g.vertex_mask))
    want = sorted(
        sum(1 << v for v in comp)
        for comp in nx.connected_components(_nx(g).subgraph(
            [v for v in range(g.n) if mask >> v & 1]))
    )
    # components come by lowest vertex, which is the order of their masks'
    # lowest set bits
    got = mask_components(g, mask)
    assert sorted(got) == want
    assert [c & -c for c in got] == sorted(c & -c for c in got)
    assert mask_connected(g, mask) == (len(want) == 1)
    full = [sum(1 << v for v in c) for c in nx.connected_components(_nx(g))]
    assert components(g) == sorted(full, key=lambda c: c & -c)
    assert is_connected(g) == nx.is_connected(_nx(g))


def _block_structure(g: Graph) -> tuple:
    counts = _block_counts(g) if is_connected(g) else (None, None)
    return (*counts, is_block_chain(g), is_two_connected(g))


def test_block_structure_matches_networkx_on_the_atlas():
    # every graph on 1..7 vertices, the disconnected ones included; analyze
    # reports the counts, so it is read here for this small corpus
    for h in nx.graph_atlas_g()[1:]:
        g = from_edges(h.number_of_nodes(), h.edges())
        info = _analyze_one(g)
        got = (info["blocks"], info["cut_vertices"], info["block_chain"], is_two_connected(g))
        assert got == block_structure_nx(g), h.edges()


def test_block_structure_matches_networkx_on_random_graphs():
    # edge probabilities around the connectivity threshold log(n)/n, so
    # disconnected, separable and 2-connected graphs all occur up to n = 30
    rng = np.random.default_rng(20)
    for _ in range(3000):
        n = int(rng.integers(1, 31))
        g = random_graph(rng, n, min(1.0, rng.uniform(0.7, 1.8) * math.log(n + 1) / n))
        assert _block_structure(g) == block_structure_nx(g), edge_list(g)
