import hashlib
import itertools
import json
import time

import networkx as nx
import numpy as np
import pytest

from clawtrace.canon import (
    MAX_CANONICAL,
    canonical_form,
    canonical_labeling,
)
from clawtrace.errors import OrderOutOfRange
from clawtrace.families import complete, edgeless, star
from clawtrace.graph import disjoint_union, from_edges, join, relabel
from clawtrace.graph6 import decode

import frozen
from oracles import brute_force_isomorphic, edge_list, exhaustive_list, random_graph


def test_canonical_form_relabel_invariant():
    rng = np.random.default_rng(17)
    for _ in range(150):
        n = int(rng.integers(1, 11))
        g = random_graph(rng, n, rng.random())
        expect = canonical_form(g)
        for _ in range(4):
            perm = list(rng.permutation(n))
            assert canonical_form(relabel(g, perm)) == expect


def test_canonical_labeling_is_a_permutation_onto_the_form():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        g = random_graph(rng, n, 0.4)
        _, labels = canonical_labeling(g)
        assert sorted(labels) == list(range(n))
        assert canonical_form(g) == canonical_form(relabel(g, labels))
        # the form decodes back to an isomorphic graph
        assert canonical_form(decode(canonical_form(g))) == canonical_form(g)


def test_distinct_classes_distinct_forms_n4():
    # all 11 graphs on 4 vertices: forms must be pairwise distinct
    forms = set()
    seen = []
    for mask in range(1 << 6):
        pairs = list(itertools.combinations(range(4), 2))
        g = from_edges(4, [pairs[b] for b in range(6) if mask >> b & 1])
        if not any(brute_force_isomorphic(g, h) for h in seen):
            seen.append(g)
            forms.add(canonical_form(g))
    assert len(seen) == 11 and len(forms) == 11


def test_are_isomorphic_matches_brute_force():
    rng = np.random.default_rng(31)
    agree = 0
    for _ in range(120):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n, rng.random())
        h = random_graph(rng, n, rng.random())
        assert (canonical_form(g) == canonical_form(h)) == brute_force_isomorphic(g, h)
        agree += 1
    assert agree == 120


def test_shuffled_pairs_always_isomorphic():
    rng = np.random.default_rng(37)
    for _ in range(80):
        n = int(rng.integers(2, 12))
        g = random_graph(rng, n, 0.5)
        h = relabel(g, list(rng.permutation(n)))
        assert canonical_form(g) == canonical_form(h)


def test_order_cap_enforced():
    with pytest.raises(OrderOutOfRange, match=r"^canonical labelling capped at n <= 16, got 17$"):
        canonical_form(complete(MAX_CANONICAL + 1))
    canonical_form(complete(MAX_CANONICAL))  # boundary order is fine


def test_regular_vs_irregular_separation():
    # same degree sequence, different graphs: C_6 vs two triangles
    c6 = from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    tt = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert canonical_form(c6) != canonical_form(tt)


def test_star_form_matches_any_hub_position():
    forms = set()
    for hub in range(5):
        others = [v for v in range(5) if v != hub]
        forms.add(canonical_form(from_edges(5, [(hub, v) for v in others])))
    assert forms == {canonical_form(star(5))}


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edge_list(g))
    return h


TWIN_HEAVY = [
    pytest.param(edgeless(MAX_CANONICAL), id="empty"),
    pytest.param(star(MAX_CANONICAL), id="star"),
    pytest.param(join(edgeless(8), edgeless(8)), id="K8,8"),
    pytest.param(disjoint_union(complete(8), complete(8)), id="2K8"),
]


@pytest.mark.parametrize("g", TWIN_HEAVY)
def test_twin_heavy_graphs_at_the_order_cap(g):
    # every vertex has a twin, so a search without twin pruning visits a
    # factorial number of leaves; with it each labelling takes milliseconds,
    # and the bound below only catches a return to the factorial search
    rng = np.random.default_rng(41)
    copy = relabel(g, list(rng.permutation(g.n)))
    start = time.perf_counter()
    forms = {canonical_form.__wrapped__(h) for h in (g, copy)}
    assert time.perf_counter() - start < 2.0
    (form,) = forms
    assert nx.is_isomorphic(_nx(decode(form)), _nx(g))


def labeling_corpus():
    """The connected claw-free classes of order <= 8, 300 seeded random
    graphs at n = 2..16 of random density, and the twin-heavy graphs."""
    corpus = [g for n in range(1, 9) for g in exhaustive_list(n)]
    rng = np.random.default_rng(14)
    for _ in range(300):
        n = int(rng.integers(2, MAX_CANONICAL + 1))
        corpus.append(random_graph(rng, n, rng.random()))
    return corpus + [param.values[0] for param in TWIN_HEAVY]


def test_canonical_labels_are_frozen():
    # the labels themselves, not just the forms: reports print canonical
    # forms, and the enumerator picks its removal-rule vertex by label
    labels = [canonical_labeling(g) for g in labeling_corpus()]
    digest = hashlib.sha256(json.dumps(labels).encode()).hexdigest()
    assert digest == frozen.CANONICAL_LABELING_SHA256
