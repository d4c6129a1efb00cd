"""Immutable simple graphs on at most 64 vertices.

A graph is its adjacency rows, one python int bitmask per vertex, so
neighborhood intersections, independence tests and component sweeps are
single word operations.  Graph(adj) derives n and m from the rows, so
equality and hashing see the rows alone.  Vertex subsets everywhere in this package are plain int bitmasks
(``VertexSet``); bit i set means vertex i is in the set.  One primitive,
separations (the components of g - v for each vertex v), is behind every
cut-vertex test: two-connectivity, block chains, the block and cut-vertex
counts of analyze, the traceability no-certificate and the removal rule of
the exhaustive sweep.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParams, OrderOutOfRange

VertexSet = int

MAX_ORDER = 64


def bits(mask: VertexSet):
    """Iterate set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    adj: tuple[int, ...]
    n: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", len(self.adj))

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @property
    def vertex_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def min_degree(self) -> int:
        return min(row.bit_count() for row in self.adj)


def from_edges(n: int, edges) -> Graph:
    """Build a graph from an (u, v) edge iterable; duplicates collapse."""
    if not 1 <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"order {n} outside 1..{MAX_ORDER}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise InvalidParams(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParams(f"edge ({u},{v}) outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(tuple(rows))


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return Graph(tuple((full & ~row) & ~(1 << v) for v, row in enumerate(g.adj)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    if n > MAX_ORDER:
        raise OrderOutOfRange(f"union order {n} exceeds {MAX_ORDER}")
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    n = g.n + h.n
    if n > MAX_ORDER:
        raise OrderOutOfRange(f"join order {n} exceeds {MAX_ORDER}")
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [row | hmask for row in g.adj]
    rows += [(row << g.n) | gmask for row in h.adj]
    return Graph(tuple(rows))


def induced(g: Graph, subset: VertexSet) -> Graph:
    """Induced subgraph on the vertices of `subset`, relabelled in mask order."""
    verts = list(bits(subset & g.vertex_mask))
    if not verts:
        raise InvalidParams("induced subgraph on empty vertex set")
    pos = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        row = 0
        for u in bits(g.adj[v] & subset):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph(tuple(rows))


def _reach(g: Graph, start: int, mask: VertexSet) -> VertexSet:
    """Vertices reachable from start (a vertex of mask) inside mask."""
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen


def components(g: Graph) -> list[VertexSet]:
    return mask_components(g, g.vertex_mask)


def is_connected(g: Graph) -> bool:
    return _reach(g, 0, g.vertex_mask) == g.vertex_mask


def separations(g: Graph) -> list[list[VertexSet]]:
    """The components of g - v for each vertex v, each list ordered as
    mask_components orders it; every cut-vertex test of the package reads
    them.

    For connected g with n >= 2, v is a cut vertex exactly when g - v has
    two or more components, and then it lies in one block per component:
    the block-cut tree has one edge from v to a block per component of
    g - v.  The end blocks of a g with a cut vertex are counted by the pairs
    (c, C), C a component of g - c that holds no cut vertex.  An end block
    B has one cut vertex c, and B - c is a whole component of g - c: an edge
    leaving B - c would put a vertex of B - c in a second block, making it a
    cut vertex.  Conversely, the blocks that meet such a C span a subtree of
    the block-cut tree that stays connected without c, so two of them would
    be joined through a cut vertex inside C; C is therefore one block less
    c, and that block is an end block.
    """
    full = g.vertex_mask
    return [mask_components(g, full & ~(1 << v)) for v in range(g.n)]


def is_block_chain(g: Graph) -> bool:
    """Connected, and nonseparable or with exactly two end blocks, so that
    the block-cut tree is a path; end blocks are counted as in
    separations."""
    if not is_connected(g):
        return False
    pieces = separations(g)
    cut = sum(1 << v for v, comps in enumerate(pieces) if len(comps) >= 2)
    if not cut:
        return True
    return sum(1 for comps in pieces if len(comps) >= 2 for c in comps if not c & cut) == 2


def is_two_connected(g: Graph) -> bool:
    """Connected, at least 3 vertices, and every g - v has one component."""
    return g.n >= 3 and is_connected(g) and all(len(comps) == 1 for comps in separations(g))


def is_complete(g: Graph) -> bool:
    full = g.vertex_mask
    return all(row == full & ~(1 << v) for v, row in enumerate(g.adj))


def mask_is_clique(g: Graph, mask: VertexSet) -> bool:
    for v in bits(mask):
        if mask & ~g.adj[v] & ~(1 << v):
            return False
    return True


def mask_connected(g: Graph, mask: VertexSet) -> bool:
    """Is the induced subgraph on `mask` connected (empty mask counts as no)."""
    return mask != 0 and _reach(g, (mask & -mask).bit_length() - 1, mask) == mask


def mask_components(g: Graph, mask: VertexSet) -> list[VertexSet]:
    """Components of the subgraph induced on `mask`, by lowest vertex."""
    out = []
    while mask:
        comp = _reach(g, (mask & -mask).bit_length() - 1, mask)
        out.append(comp)
        mask &= ~comp
    return out


def relabel(g: Graph, perm) -> Graph:
    """Apply vertex permutation: new label of old vertex v is perm[v]."""
    perm = [int(p) for p in perm]  # numpy ints would poison the bit rows
    rows = [0] * g.n
    for v, row in enumerate(g.adj):
        out = 0
        while row:
            low = row & -row
            out |= 1 << perm[low.bit_length() - 1]
            row ^= low
        rows[perm[v]] = out
    return Graph(tuple(rows))
