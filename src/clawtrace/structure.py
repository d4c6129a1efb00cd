"""Forbidden-subgraph detection and the claw-free closure.

find_induced is the one induced-pattern search; the exhaustive sweep
anchors it at a child's new vertex, since the parent is pattern-free.  The
closure repeatedly completes the neighborhood of an eligible vertex (one
whose neighborhood induces a connected, non-complete subgraph) until no
eligible vertex remains.  The selection order is lowest index first so
step traces are reproducible; an alternative picker can be injected to
probe order-invariance of the final graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .errors import InvalidParams, NotClawFree
from .graph import (
    Graph,
    VertexSet,
    bits,
    mask_connected,
    mask_is_clique,
)

MAX_PATTERN = 10


@lru_cache(maxsize=64)
def _plans(pattern: Graph) -> list[tuple[int, list[list[tuple[int, int]]]]]:
    """For each pattern vertex p, its degree and a placement order from p:
    p's component breadth-first, then the other vertices by index.  Each
    position holds (i, 1 if adjacent else 0) for every earlier position i.
    Built once per pattern (a sweep asks about the same one thousands of
    times); callers only read the lists."""
    plans = []
    for p in range(pattern.n):
        order, placed = [p], 1 << p
        for q in order:  # the list grows while it is read: a queue
            order += bits(pattern.adj[q] & ~placed)
            placed |= pattern.adj[q]
        order += bits(pattern.vertex_mask & ~placed)
        steps = [
            [(i, pattern.adj[q] >> order[i] & 1) for i in range(j)] for j, q in enumerate(order)
        ]
        plans.append((pattern.degree(p), steps))
    return plans


def _place(
    adj: tuple[int, ...], steps: list[list[tuple[int, int]]], image: list[int], j: int, free: VertexSet
) -> bool:
    """Fill image[j:] from the free vertices, depth first; the candidates
    for position j are one bitset, the common neighbours of the images of
    its earlier pattern neighbours less the neighbours of the images of its
    earlier non-neighbours."""
    if j == len(image):
        return True
    cand = free
    for i, edge in steps[j]:
        cand &= adj[image[i]] if edge else ~adj[image[i]]
    for v in bits(cand):
        image[j] = v
        if _place(adj, steps, image, j + 1, free & ~(1 << v)):
            return True
    return False


def find_induced(
    g: Graph, pattern: Graph, anchors: Optional[VertexSet] = None
) -> Optional[VertexSet]:
    """Vertex set of g inducing a copy of pattern that meets anchors (any
    vertex of g when anchors is None), or None.

    Each anchor a is tried in turn, with the anchors before it excluded, so
    a copy is found at its lowest anchor: each pattern vertex of degree at
    most deg(a) is mapped to a, and _place places the rest.  Adjacency and
    non-adjacency are both enforced, so the match is induced.
    """
    if pattern.n > MAX_PATTERN:
        raise InvalidParams(f"pattern order {pattern.n} exceeds {MAX_PATTERN}")
    if pattern.n > g.n:
        return None
    plans = _plans(pattern)
    free = g.vertex_mask
    for a in bits(free if anchors is None else anchors & free):
        free &= ~(1 << a)
        for degree, steps in plans:
            image = [a] * pattern.n
            if degree <= g.degree(a) and _place(g.adj, steps, image, 1, free):
                return sum(1 << v for v in image)
    return None


def is_claw_free(g: Graph) -> bool:
    """True iff no vertex has three pairwise nonadjacent neighbors.

    Walks the non-edges, not the edges, so a dense graph costs little: each
    nonadjacent pair a < b with a common neighbor is tested against the
    vertices outside N[a] and N[b].
    """
    adj = g.adj
    full = g.vertex_mask
    for a in range(g.n):
        na = adj[a]
        for b in bits(full & ~na >> (a + 1) << (a + 1)):
            # a claw with leaves a, b, w and center c exists iff a, b are
            # nonadjacent, c is in N(a) & N(b), w lies outside N[a] | N[b]
            # and w is adjacent to c; every claw has such a leaf pair a < b
            common = na & adj[b]
            if not common:
                continue
            for w in bits(full & ~(na | adj[b]) & ~(1 << a | 1 << b)):
                if adj[w] & common:
                    return False
    return True


def is_eligible(g: Graph, x: int) -> bool:
    """True iff the neighborhood of x induces a connected non-complete
    subgraph."""
    mask = g.adj[x]
    if mask == 0:
        return False
    return mask_connected(g, mask) and not mask_is_clique(g, mask)


@dataclass(frozen=True)
class ClosureStep:
    vertex: int
    added: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ClosureResult:
    closed: Graph
    steps: tuple[ClosureStep, ...]


def closure(
    g: Graph, pick: Callable[[list[int]], int] | None = None
) -> ClosureResult:
    """Complete the neighborhood of an eligible vertex, in place in a list
    of adjacency rows, until no eligible vertex remains.

    pick chooses among the current eligible vertices (default: lowest
    index).  Each step records the pairs it added in lexicographic order.
    The step trace depends on pick; the closed graph should not, and the
    tests probe that rather than assume it.
    """
    if not is_claw_free(g):
        raise NotClawFree("closure is defined for claw-free graphs only")
    rows = list(g.adj)
    steps: list[ClosureStep] = []
    while True:
        cur = Graph(tuple(rows))
        eligible = [x for x in range(g.n) if is_eligible(cur, x)]
        if not eligible:
            return ClosureResult(closed=cur, steps=tuple(steps))
        x = eligible[0] if pick is None else pick(eligible)
        row = rows[x]
        added: list[tuple[int, int]] = []
        for u in bits(row):
            # each row of N(x) is completed in its own turn, so rows[u]
            # still holds its old bits when its missing pairs are read
            added += ((u, w) for w in bits(row & ~rows[u] >> (u + 1) << (u + 1)))
            rows[u] |= row & ~(1 << u)
        steps.append(ClosureStep(vertex=x, added=tuple(added)))


def is_closed(g: Graph) -> bool:
    if not is_claw_free(g):
        raise NotClawFree("closedness is defined for claw-free graphs only")
    return not any(is_eligible(g, x) for x in range(g.n))
