import pytest

from clawtrace import cli
from clawtrace.canon import canonical_form
from clawtrace.errors import InvalidParams, OrderOutOfRange
from clawtrace.families import (
    BROUSEK_BASES,
    T_JOIN,
    _CONSTRUCTORS,
    FamilySpec,
    brousek,
    brousek_blown,
    claw,
    complete,
    complete_plus_isolated,
    complete_split,
    edgeless,
    graph_l,
    graph_m,
    make,
    net,
    ning_ge,
    nn33,
    star,
)
from clawtrace.graph import is_connected, is_two_connected, join
from clawtrace.hamilton import MAX_EXACT, has_hamilton_cycle, has_hamilton_path
from clawtrace.structure import is_claw_free

import frozen


def test_basic_orders_and_sizes():
    assert (complete(5).n, complete(5).m) == (5, 10)
    assert (star(6).n, star(6).m) == (6, 5)
    assert (edgeless(4).n, edgeless(4).m) == (4, 0)
    assert (claw().n, claw().m) == (4, 3)
    assert (net().n, net().m) == (6, 6)
    assert (graph_l().n, graph_l().m) == (7, 8)
    assert (graph_m().n, graph_m().m) == (8, 8)


def test_pendant_family_shape():
    for n in range(6, 14):
        g = nn33(n)
        q = n - 3
        assert g.n == n and g.m == q * (q - 1) // 2 + 3
        assert sorted(g.degrees())[:3] == [1, 1, 1]
        assert is_connected(g) and is_claw_free(g)
        assert not has_hamilton_path(g)
    assert canonical_form(nn33(6)) == canonical_form(net())


def test_complete_split_is_a_join():
    g = complete_split(3, 8)
    assert canonical_form(g) == canonical_form(join(complete(3), edgeless(5)))
    assert g.m == 3 + 3 * 5
    assert sorted(g.degrees()) == [3, 3, 3, 3, 3, 7, 7, 7]


def test_hub_family_structure():
    g = ning_ge(7)
    assert g.n == 7 and sorted(g.degrees()) == [1, 1, 4, 4, 4, 4, 6]
    assert is_connected(g)
    assert not is_claw_free(g)  # hub sees two isolated vertices plus a clique
    assert not has_hamilton_path(g)
    assert canonical_form(g) == frozen.G6_HUB_SPLIT_7
    assert canonical_form(ning_ge(8)) == frozen.G6_HUB_SPLIT_8


def test_complete_plus_isolated():
    g = complete_plus_isolated(6)
    assert g.n == 6 and g.m == 10
    assert not is_connected(g)
    assert not has_hamilton_path(g)


def test_small_canonical_anchors():
    assert canonical_form(net()) == frozen.G6_NET
    assert canonical_form(nn33(7)) == frozen.G6_PENDANT_7
    assert canonical_form(nn33(8)) == frozen.G6_PENDANT_8
    assert canonical_form(graph_l()) == frozen.G6_GRAPH_L
    assert canonical_form(complete_split(3, 8)) == frozen.G6_SPLIT_38


def test_l_and_m_are_claw_free_extensions_of_the_net():
    from clawtrace.structure import find_induced

    for g in (graph_l(), graph_m()):
        assert is_claw_free(g)
        assert find_induced(g, net()) is not None


def test_two_triangle_bases():
    assert len(BROUSEK_BASES) == 4
    graphs = [make(s) for s in BROUSEK_BASES]
    forms = {canonical_form(g) for g in graphs}
    assert len(forms) == 4  # pairwise non-isomorphic
    for g in graphs:
        assert g.n == 9
        assert is_two_connected(g)
        assert is_claw_free(g)
        assert not has_hamilton_cycle(g)


def test_two_triangle_join_arithmetic():
    # triangle join adds one vertex, a path of order k adds k-2 vertices
    assert brousek(T_JOIN, T_JOIN, T_JOIN).n == 9
    assert brousek(3, 3, 3).n == 9
    assert brousek(4, T_JOIN, 5).n == 6 + 2 + 1 + 3
    g = brousek(T_JOIN, T_JOIN, T_JOIN)
    assert sorted(g.degrees()) == sorted([4, 4, 4, 4, 4, 4, 2, 2, 2])


def test_blown_family_at_order_9_is_its_base():
    # one builder serves both: a K_3 a-side is the a-triangle itself
    for spec in BROUSEK_BASES:
        assert brousek_blown(*spec.params, 9) == brousek(*spec.params)


def test_blown_family_shape():
    # every order the `hamiltonian-family` sweep verifies (9..22), and on up
    # to the exact solver's cap
    for n in range(9, MAX_EXACT + 1):
        for spec in BROUSEK_BASES:
            g = brousek_blown(*spec.params, n)
            assert g.n == n
            assert is_claw_free(g)
            assert is_two_connected(g)
            assert not has_hamilton_cycle(g)


def test_constructor_validation():
    with pytest.raises(InvalidParams):
        nn33(5)
    with pytest.raises(InvalidParams):
        star(1)
    with pytest.raises(InvalidParams):
        complete_split(4, 4)
    with pytest.raises(InvalidParams):
        ning_ge(4)
    with pytest.raises(InvalidParams):
        brousek(1, 3, 3)  # path order below 3
    with pytest.raises(InvalidParams):
        brousek_blown(4, T_JOIN, T_JOIN, 12)  # not an order-9 base
    with pytest.raises(InvalidParams):
        brousek_blown(T_JOIN, T_JOIN, T_JOIN, 8)
    with pytest.raises(OrderOutOfRange):
        complete(65)


def test_make_dispatch_and_labels():
    assert canonical_form(make(FamilySpec("Nn33", (8,)))) == canonical_form(nn33(8))
    assert canonical_form(make(FamilySpec("NetN"))) == canonical_form(net())
    assert FamilySpec("Nn33", (8,)).label() == "Nn33(8)"
    assert FamilySpec("NetN").label() == "NetN"
    assert FamilySpec("Brousek", (T_JOIN, 3, 3)).label() == "Brousek(T,3,3)"
    assert FamilySpec("BrousekBlown", (T_JOIN, T_JOIN, T_JOIN, 12)).label() == (
        "BrousekBlown(T,T,T,12)"
    )
    with pytest.raises(InvalidParams):
        make(FamilySpec("NoSuchKind", (3,)))
    with pytest.raises(InvalidParams):
        make(FamilySpec("CompleteSplit", (3,)))  # wrong arity
    assert set(s.kind for s in BROUSEK_BASES) == {"Brousek"}
    # every constructor is reachable from `clawtrace construct`
    assert set(cli._FAMILIES.values()) == set(_CONSTRUCTORS)
