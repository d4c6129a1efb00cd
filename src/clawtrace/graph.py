"""Immutable simple graphs on at most 64 vertices.

Adjacency is stored as one python int bitmask per vertex, so neighborhood
intersections, independence tests and component sweeps are single word
operations.  Vertex subsets everywhere in this package are plain int bitmasks
(``VertexSet``); bit i set means vertex i is in the set.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DisconnectedInput,
    EmptySet,
    LoopEdge,
    OrderOutOfRange,
    VertexOutOfRange,
)

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
    n: int
    adj: tuple[int, ...]
    m: int = field(compare=False)

    @property
    def vertex_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self):
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(rest):
                yield (u, v)

    def min_degree(self) -> int:
        return min(row.bit_count() for row in self.adj)


def _from_rows(n: int, rows) -> Graph:
    rows = tuple(rows)
    m = sum(r.bit_count() for r in rows) // 2
    return Graph(n=n, adj=rows, m=m)


def from_edges(n: int, edges) -> Graph:
    """Build a graph from an (u, v) edge iterable; duplicates collapse."""
    if not 1 <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"order {n} outside 1..{MAX_ORDER}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _from_rows(n, rows)


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return _from_rows(g.n, ((full & ~row) & ~(1 << v) for v, row in enumerate(g.adj)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    if n > MAX_ORDER:
        raise OrderOutOfRange(f"union order {n} exceeds {MAX_ORDER}")
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return _from_rows(n, rows)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    n = g.n + h.n
    if n > MAX_ORDER:
        raise OrderOutOfRange(f"join order {n} exceeds {MAX_ORDER}")
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [row | hmask for row in g.adj]
    rows += [(row << g.n) | gmask for row in h.adj]
    return _from_rows(n, rows)


def induced(g: Graph, subset: VertexSet) -> Graph:
    """Induced subgraph on the vertices of `subset`, relabelled in mask order."""
    verts = list(bits(subset & g.vertex_mask))
    if not verts:
        raise EmptySet("induced subgraph on empty vertex set")
    pos = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        row = 0
        for u in bits(g.adj[v] & subset):
            row |= 1 << pos[u]
        rows.append(row)
    return _from_rows(len(verts), rows)


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


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[VertexSet, ...]
    cut_vertices: VertexSet
    end_block_count: int


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Biconnected components and cut vertices (Hopcroft-Tarjan).

    Requires a connected input.  A single vertex is its own (trivial) block;
    a nonseparable graph yields one block and zero end-blocks.
    """
    if not is_connected(g):
        raise DisconnectedInput("block decomposition needs a connected graph")
    n = g.n
    if n == 1:
        return BlockDecomposition(blocks=(1,), cut_vertices=0, end_block_count=0)

    disc = [0] * n
    low = [0] * n
    timer = 1
    cut = 0
    blocks: list[VertexSet] = []
    edge_stack: list[tuple[int, int]] = []

    # iterative DFS; stack entries are (vertex, parent, neighbor iterator)
    stack = [(0, -1, iter(list(bits(g.adj[0]))))]
    disc[0] = low[0] = timer
    timer += 1
    root_children = 0

    while stack:
        v, parent, it = stack[-1]
        advanced = False
        for u in it:
            if disc[u] == 0:
                edge_stack.append((v, u))
                disc[u] = low[u] = timer
                timer += 1
                if v == 0:
                    root_children += 1
                stack.append((u, v, iter(list(bits(g.adj[u])))))
                advanced = True
                break
            elif u != parent and disc[u] < disc[v]:
                edge_stack.append((v, u))
                if disc[u] < low[v]:
                    low[v] = disc[u]
        if advanced:
            continue
        stack.pop()
        if stack:
            pv = stack[-1][0]
            if low[v] < low[pv]:
                low[pv] = low[v]
            if low[v] >= disc[pv]:
                # edges above and including (pv, v) form one biconnected component
                if pv != 0:
                    cut |= 1 << pv
                block = 0
                while True:
                    a, b = edge_stack.pop()
                    block |= (1 << a) | (1 << b)
                    if (a, b) == (pv, v):
                        break
                blocks.append(block)

    # root is a cut vertex iff it has >= 2 DFS children
    if root_children > 1:
        cut |= 1

    end_blocks = 0
    if len(blocks) > 1:
        end_blocks = sum(1 for b in blocks if (b & cut).bit_count() == 1)
    return BlockDecomposition(
        blocks=tuple(blocks), cut_vertices=cut, end_block_count=end_blocks
    )


def is_block_chain(g: Graph) -> bool:
    """Nonseparable, or connectivity 1 with exactly two end-blocks."""
    if not is_connected(g):
        return False
    dec = block_decomposition(g)
    if dec.cut_vertices == 0:
        return True
    return dec.end_block_count == 2


def is_two_connected(g: Graph) -> bool:
    """Connected, at least 3 vertices, and no cut vertex."""
    if g.n < 3 or not is_connected(g):
        return False
    return block_decomposition(g).cut_vertices == 0


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
        for u in bits(row):
            out |= 1 << perm[u]
        rows[perm[v]] = out
    return Graph(n=g.n, adj=tuple(rows), m=g.m)
