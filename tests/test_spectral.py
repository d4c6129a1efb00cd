import math

import numpy as np
import pytest

from clawtrace.errors import InvalidParams
from clawtrace.families import (
    complete,
    complete_plus_isolated,
    complete_split,
    graph_l,
    graph_m,
    net,
    nn33,
    star,
)
from clawtrace.graph import disjoint_union, from_edges
from clawtrace.spectral import (
    complete_split_radius,
    hofmeister_bound,
    hong_bound,
    spectral_radius,
    triple_split_radius,
)

import frozen
from oracles import mu_dense, random_graph


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_frozen_anchors():
    assert abs(spectral_radius(net()).value - frozen.MU_NET) < 1e-9
    assert abs(spectral_radius(graph_l()).value - frozen.MU_L) < 1e-9
    assert abs(spectral_radius(graph_m()).value - frozen.MU_M) < 1e-9
    assert abs(spectral_radius(star(9)).value - frozen.MU_STAR_9) < 1e-9
    assert abs(spectral_radius(nn33(7)).value - frozen.MU_PENDANT_7) < 1e-9


def test_exact_values():
    assert abs(spectral_radius(complete(8)).value - 7.0) < 1e-9
    assert abs(spectral_radius(net()).value - (1 + math.sqrt(2))) < 1e-9
    # path eigenvalue 2 cos(pi / (n+1))
    for n in (2, 5, 9):
        want = 2 * math.cos(math.pi / (n + 1))
        assert abs(spectral_radius(path_graph(n)).value - want) < 1e-9


def test_spectral_radius_agrees_with_nonsymmetric_eigensolver():
    rng = np.random.default_rng(41)
    for _ in range(120):
        n = int(rng.integers(1, 13))
        g = random_graph(rng, n, rng.random())
        est = spectral_radius(g)
        assert est.converged
        assert abs(est.value - mu_dense(g)) < 1e-12, (g, est)


def test_bipartite_components_handled():
    # stars, paths and even cycles all have +/- paired spectra, so the
    # radius is also the magnitude of the smallest eigenvalue
    rng = np.random.default_rng(43)
    for n in (2, 4, 6, 10, 15):
        assert abs(spectral_radius(star(n)).value - math.sqrt(n - 1)) < 1e-9
    c6 = from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert abs(spectral_radius(c6).value - 2.0) < 1e-9
    for _ in range(20):
        n = int(rng.integers(2, 12))
        left = int(rng.integers(1, n))
        edges = [
            (i, j)
            for i in range(left)
            for j in range(left, n)
            if rng.random() < 0.6
        ]
        g = from_edges(n, edges)
        assert abs(spectral_radius(g).value - mu_dense(g)) < 1e-8


def test_order_64_input():
    # rows of K_64 overflow int64, so the matrix must be built unsigned
    assert abs(spectral_radius(complete(64)).value - 63.0) < 1e-9


def test_disconnected_takes_max_over_components():
    g = disjoint_union(complete(4), star(6))
    assert abs(spectral_radius(g).value - 3.0) < 1e-9
    h = complete_plus_isolated(8)
    assert abs(spectral_radius(h).value - 6.0) < 1e-9


def test_residual_certificate():
    rng = np.random.default_rng(47)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(2, 12)), 0.5)
        est = spectral_radius(g)
        assert est.converged and est.iterations == 0
        assert 0 <= est.residual <= 1e-12 * max(1, est.value)


def test_closed_forms_match_each_other_and_the_oracle():
    for k in range(1, 7):
        for n in range(k + 1, 31):
            want = mu_dense(complete_split(k, n))
            assert abs(complete_split_radius(k, n) - want) < 1e-12
    for n in range(4, 41):
        assert abs(triple_split_radius(n) - complete_split_radius(3, n)) < 1e-12
    with pytest.raises(InvalidParams):
        complete_split_radius(5, 5)
    with pytest.raises(InvalidParams):
        triple_split_radius(3)


def test_split_equality_order():
    # 1 + sqrt(3n-8) meets n-3 only at n = 8
    assert abs(triple_split_radius(8) - 5.0) < 1e-12
    for n in (6, 7, 9, 10, 12):
        assert abs(triple_split_radius(n) - (n - 3)) > 1e-6


def test_bound_sandwich_on_random_graphs():
    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        g = random_graph(rng, n, rng.random())
        mu = spectral_radius(g).value
        assert hofmeister_bound(g) <= mu + 1e-9
        from clawtrace.graph import is_connected

        if is_connected(g):
            assert mu <= hong_bound(g) + 1e-9


def test_hong_bound_needs_connected():
    with pytest.raises(InvalidParams, match=r"^bound requires a connected graph$"):
        hong_bound(disjoint_union(complete(3), complete(3)))


def test_hong_equality_on_complete_and_star():
    for n in (2, 5, 9):
        g = complete(n)
        assert abs(spectral_radius(g).value - hong_bound(g)) < 1e-9
        s = star(n + 1)
        assert abs(spectral_radius(s).value - hong_bound(s)) < 1e-9
    p = path_graph(5)
    assert spectral_radius(p).value < hong_bound(p) - 1e-6

