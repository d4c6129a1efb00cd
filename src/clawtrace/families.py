"""Constructors for the named graph families used by the verifiers.

Vertex orders are fixed so graph6 output is reproducible byte for byte:
clique/core vertices come first, pendant and attachment vertices last.  The
two-triangles family uses a-triangle 0,1,2 and b-triangle 3,4,5 with join
vertices appended in pair order; a triangle join is encoded as parameter 0,
a path join of order k >= 3 as k.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParams, OrderOutOfRange
from .graph import Graph, disjoint_union, from_edges, join

T_JOIN = 0  # triangle join marker in params


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    params: tuple[int, ...] = ()

    def label(self) -> str:
        if not self.params:
            return self.kind
        inner = ",".join("T" if p == T_JOIN else str(p) for p in self.params)
        return f"{self.kind}({inner})"


def _check_order(n: int) -> None:
    if not 1 <= n <= 64:
        raise OrderOutOfRange(f"order {n} outside 1..64")


def complete(n: int) -> Graph:
    _check_order(n)
    return from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def edgeless(n: int) -> Graph:
    _check_order(n)
    return from_edges(n, ())


def star(n: int) -> Graph:
    """K_{1,n-1}; hub is vertex 0."""
    if n < 2:
        raise InvalidParams("star needs n >= 2")
    _check_order(n)
    return from_edges(n, ((0, i) for i in range(1, n)))


def claw() -> Graph:
    return star(4)


def complete_split(k: int, n: int) -> Graph:
    """K_k joined to an independent set of n-k vertices; clique first."""
    if not 1 <= k < n:
        raise InvalidParams(f"complete split needs 1 <= k < n, got k={k}, n={n}")
    _check_order(n)
    return join(complete(k), edgeless(n - k))


def nn33(n: int) -> Graph:
    """K_{n-3} with three disjoint pendant edges.

    Clique on 0..n-4; pendant vertex n-3+i hangs from clique vertex i.
    Needs n >= 6 so the three pendant edges attach to distinct clique vertices.
    """
    if n < 6:
        raise InvalidParams(f"pendant family needs n >= 6, got {n}")
    _check_order(n)
    edges = [(i, j) for i in range(n - 3) for j in range(i + 1, n - 3)]
    edges += [(i, n - 3 + i) for i in range(3)]
    return from_edges(n, edges)


def net() -> Graph:
    """The net: a triangle with one pendant on each corner (= nn33(6))."""
    return nn33(6)


# Fixed 6-vertex base for the L and M constructions: triangle 0,1,2 with
# pendants 3,4,5 hanging from 0,1,2 respectively.
_NET_EDGES = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5))


def graph_l() -> Graph:
    """Net plus one vertex adjacent to exactly the triangle corner 0 and its
    pendant 3 (7 vertices, 8 edges)."""
    return from_edges(7, _NET_EDGES + ((6, 0), (6, 3)))


def graph_m() -> Graph:
    """Net with the pendant at corner 0 extended to a path of three vertices
    (8 vertices, 8 edges)."""
    return from_edges(8, _NET_EDGES + ((3, 6), (6, 7)))


def ning_ge(n: int) -> Graph:
    """K_1 joined to (K_{n-3} plus two isolated vertices)."""
    if n < 5:
        raise InvalidParams(f"hub family needs n >= 5, got {n}")
    _check_order(n)
    return join(complete(1), disjoint_union(complete(n - 3), edgeless(2)))


def complete_plus_isolated(n: int) -> Graph:
    """K_{n-1} plus one isolated vertex."""
    if n < 2:
        raise InvalidParams(f"needs n >= 2, got {n}")
    _check_order(n)
    return disjoint_union(complete(n - 1), edgeless(1))


def _join_params(params) -> tuple[int, int, int]:
    if len(params) != 3:
        raise InvalidParams("two-triangles family takes three join params")
    for x in params:
        if x != T_JOIN and x < 3:
            raise InvalidParams(f"path join needs order >= 3, got {x}")
    return tuple(params)


def _two_triangles(q: int, xs: tuple[int, int, int]) -> Graph:
    """The two-triangles graph with its a-triangle grown to K_q: K_q on
    0..q-1 and the b-triangle on q, q+1, q+2, each pair {a_i, b_i} =
    {i, q+i} joined as param x_i says.  The order is checked before any
    edge is built."""
    n = q + 3 + sum(1 if x == T_JOIN else x - 2 for x in xs)
    _check_order(n)
    edges = [(i, j) for i in range(q) for j in range(i + 1, q)]
    edges += [(q, q + 1), (q, q + 2), (q + 1, q + 2)]
    nxt = q + 3
    for i, x in enumerate(xs):
        a, b = i, q + i
        if x == T_JOIN:
            edges += [(a, b), (a, nxt), (b, nxt)]
            nxt += 1
        else:
            prev = a
            for _ in range(x - 2):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
            edges.append((prev, b))
    return from_edges(n, edges)


def brousek(x1: int, x2: int, x3: int) -> Graph:
    """Two disjoint triangles, each pair {a_i, b_i} joined by a triangle
    (param 0) or by a path of order k_i >= 3 (param k_i)."""
    return _two_triangles(3, _join_params((x1, x2, x3)))


def brousek_blown(x1: int, x2: int, x3: int, n: int) -> Graph:
    """Order-9 two-triangles graph with the a-triangle replaced by K_{n-6}.

    The three join attachment points a_1, a_2, a_3 become clique vertices
    0, 1, 2 of the K_{n-6} on 0..n-7; the rest of the layout follows the
    base construction.
    """
    xs = _join_params((x1, x2, x3))
    if any(x not in (T_JOIN, 3) for x in xs):
        raise InvalidParams("blown family builds on the order-9 bases only")
    if n < 9:
        raise InvalidParams(f"clique replacement needs n >= 9, got {n}")
    return _two_triangles(n - 6, xs)


_CONSTRUCTORS = {
    "Complete": complete,
    "Star": star,
    "CompleteSplit": complete_split,
    "Nn33": nn33,
    "NetN": net,
    "GraphM": graph_m,
    "GraphL": graph_l,
    "Claw": claw,
    "NingGe": ning_ge,
    "Brousek": brousek,
    "BrousekBlown": brousek_blown,
    "CompletePlusIsolated": complete_plus_isolated,
}


def make(spec: FamilySpec) -> Graph:
    if spec.kind not in _CONSTRUCTORS:
        raise InvalidParams(f"unknown family kind {spec.kind!r}")
    try:
        return _CONSTRUCTORS[spec.kind](*spec.params)
    except TypeError as exc:
        raise InvalidParams(f"{spec.kind}{spec.params}: {exc}") from None


BROUSEK_BASES = (
    FamilySpec("Brousek", (T_JOIN, T_JOIN, T_JOIN)),
    FamilySpec("Brousek", (3, T_JOIN, T_JOIN)),
    FamilySpec("Brousek", (3, 3, T_JOIN)),
    FamilySpec("Brousek", (3, 3, 3)),
)
