import numpy as np
import pytest

from clawtrace.errors import OrderTooLargeForExact
from clawtrace.families import complete, complete_split, nn33, star
from clawtrace.graph import disjoint_union, from_edges
from clawtrace.hamilton import (
    MAX_EXACT,
    HamiltonWitness,
    find_hamilton_path,
    has_hamilton_cycle,
    has_hamilton_path,
)

from oracles import (
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
