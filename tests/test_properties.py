"""Property tests for the augmentation filters and the canonical form.

networkx serves as the independent oracle for isomorphism and cut
vertices; the removal rule is written out here from canonical_labeling and
canonical_form, not taken from the enumerator.
"""
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawtrace.canon import canonical_form, canonical_labeling
from clawtrace.enumeration import (
    _attach,
    _claw_free_extension_ok,
    _rule_candidates,
    exhaustive_list,
)
from clawtrace.graph import Graph, from_edges, induced, relabel
from clawtrace.structure import is_claw_free

from oracles import graphs

CLAW_FREE = [g for n in range(1, 8) for g in exhaustive_list(n, ("claw-free",))]


def _nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CLAW_FREE), st.data())
def test_claw_free_extension_matches_full_check(parent, data):
    mask = data.draw(st.integers(0, (1 << parent.n) - 1))
    assert _claw_free_extension_ok(parent, mask) == is_claw_free(_attach(parent, mask))


def _full_rule_vertex(child: Graph, connected: bool) -> int:
    """The highest canonical label among the non-cut vertices (all vertices
    when connectivity is not required)."""
    cut = set(nx.articulation_points(_nx(child))) if connected else set()
    labels = canonical_labeling(child)[1]
    return max((v for v in range(child.n) if v not in cut), key=labels.__getitem__)


@pytest.mark.parametrize("chain", [("connected", "claw-free"), ("connected",), ()])
def test_key_filter_rejects_only_what_the_full_rule_rejects(chain):
    connected = "connected" in chain
    for n in range(1, 7):
        for parent in exhaustive_list(n, chain):
            for mask in range(1 if connected else 0, 1 << n):
                if "claw-free" in chain and not _claw_free_extension_ok(parent, mask):
                    continue
                child = _attach(parent, mask)
                rule = _full_rule_vertex(child, connected)
                candidates = _rule_candidates(child, connected)
                if candidates:
                    assert rule in candidates
                else:
                    rest = induced(child, child.vertex_mask & ~(1 << rule))
                    assert canonical_form(rest) != canonical_form(parent)


@settings(max_examples=300, deadline=None)
@given(graphs(min_n=2), st.randoms(use_true_random=False))
def test_canonical_form_agrees_with_networkx(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    same = relabel(g, perm)
    assert canonical_form(same) == canonical_form(g)
    # a near miss: the relabelled copy with one vertex pair toggled
    u, v = sorted(rnd.sample(range(g.n), 2))
    other = from_edges(g.n, set(same.edges()) ^ {(u, v)})
    assert (canonical_form(other) == canonical_form(g)) == nx.is_isomorphic(_nx(g), _nx(other))
