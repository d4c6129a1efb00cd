import numpy as np
import pytest

from clawtrace.errors import InvalidParams, NotClawFree
from clawtrace.families import claw, complete, graph_l, graph_m, net, nn33, star
from clawtrace.graph import from_edges, induced, is_complete, relabel
from clawtrace.hamilton import has_hamilton_path
from clawtrace.structure import (
    MAX_PATTERN,
    closure,
    find_induced,
    is_claw_free,
    is_closed,
    is_eligible,
)

from oracles import (
    brute_force_isomorphic,
    claw_free_brute,
    edge_list,
    find_induced_brute,
    random_graph,
)


def cycle_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_claw_free_matches_brute_force():
    rng = np.random.default_rng(61)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        g = random_graph(rng, n, rng.random())
        assert is_claw_free(g) == claw_free_brute(g)


def test_claw_free_named_graphs():
    for g in (net(), graph_l(), graph_m(), nn33(9), complete(7), cycle_graph(8)):
        assert is_claw_free(g)
    assert not is_claw_free(claw())
    assert not is_claw_free(star(5))


def test_find_induced_agrees_with_subset_scan():
    rng = np.random.default_rng(67)
    two_k2 = from_edges(4, [(0, 1), (2, 3)])
    k1_k3 = from_edges(4, [(1, 2), (1, 3), (2, 3)])
    patterns = [claw(), net(), cycle_graph(4), cycle_graph(5), complete(3), two_k2, k1_k3]
    for _ in range(400):
        host = random_graph(rng, int(rng.integers(4, 10)), rng.random())
        pattern = patterns[int(rng.integers(len(patterns)))]
        # half the searches anchored at a random nonempty vertex set
        anchors = None if rng.random() < 0.5 else int(rng.integers(1, 1 << host.n))
        hit = find_induced(host, pattern, anchors)
        assert (hit is not None) == find_induced_brute(host, pattern, anchors)
        if hit is not None:
            # the returned mask really induces the pattern and meets anchors
            assert hit.bit_count() == pattern.n
            assert brute_force_isomorphic(induced(host, hit), pattern)
            assert anchors is None or hit & anchors


def test_find_induced_pattern_cap():
    with pytest.raises(InvalidParams, match=r"^pattern order 11 exceeds 10$"):
        find_induced(complete(12), complete(MAX_PATTERN + 1))


def test_induced_net_in_pendant_family():
    for n in range(6, 12):
        assert find_induced(nn33(n), net()) is not None
    assert find_induced(complete(9), net()) is None


def test_eligibility_and_local_completion():
    wheelish = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
    assert is_eligible(wheelish, 0)
    assert not is_eligible(net(), 0)  # neighborhood disconnected
    assert not is_eligible(complete(4), 1)  # neighborhood already complete
    result = closure(wheelish)
    assert [(s.vertex, s.added) for s in result.steps] == [(0, ((1, 3), (1, 4), (2, 4)))]
    assert is_complete(result.closed)


def test_closure_requires_claw_free():
    with pytest.raises(NotClawFree):
        closure(claw())
    with pytest.raises(NotClawFree):
        is_closed(star(6))


def test_net_is_already_closed():
    result = closure(net())
    assert result.steps == ()
    assert result.closed == net()
    assert is_closed(net())


def test_cycle_closure_is_identity_but_dense_cycle_completes():
    c7 = cycle_graph(7)
    assert closure(c7).closed == c7  # neighborhoods disconnected
    # C_5 squared: every neighborhood connected non-complete, closure -> K_5
    c5sq = from_edges(5, [(i, (i + 1) % 5) for i in range(5)]
                      + [(i, (i + 2) % 5) for i in range(5)])
    assert is_complete(c5sq) or is_complete(closure(c5sq).closed)


def test_closure_invariants_random():
    rng = np.random.default_rng(71)
    done = 0
    while done < 120:
        g = random_graph(rng, int(rng.integers(2, 10)), rng.random())
        if not is_claw_free(g):
            continue
        done += 1
        result = closure(g)
        cl = result.closed
        assert is_claw_free(cl)
        assert is_closed(cl)
        assert closure(cl).closed == cl  # idempotent
        assert has_hamilton_path(cl) == has_hamilton_path(g)
        # steps replay to the closed graph
        cur = g
        for step in result.steps:
            cur = from_edges(cur.n, edge_list(cur) + list(step.added))
        assert cur == cl


def test_closure_order_invariance_sample():
    rng = np.random.default_rng(73)
    done = 0
    while done < 25:
        g = random_graph(rng, int(rng.integers(3, 11)), rng.random())
        if not is_claw_free(g):
            continue
        done += 1
        base = closure(g).closed
        for _ in range(5):
            pick = lambda elig: elig[int(rng.integers(len(elig)))]
            assert closure(g, pick=pick).closed == base


def test_closure_commutes_with_relabeling():
    rng = np.random.default_rng(79)
    done = 0
    while done < 40:
        g = random_graph(rng, int(rng.integers(2, 9)), 0.6)
        if not is_claw_free(g):
            continue
        done += 1
        perm = list(rng.permutation(g.n))
        assert closure(relabel(g, perm)).closed == relabel(closure(g).closed, perm)
