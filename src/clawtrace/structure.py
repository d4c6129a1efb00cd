"""Forbidden-subgraph detection and the claw-free closure.

The closure machinery repeatedly completes the neighborhood of an eligible
vertex (one whose neighborhood induces a connected, non-complete subgraph)
until no eligible vertex remains.  The selection order is lowest index first
so step traces are reproducible; an alternative picker can be injected to
probe order-invariance of the final graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import NotClawFree, NotEligible, PatternTooLarge
from .graph import (
    Graph,
    VertexSet,
    bits,
    from_edges,
    mask_connected,
    mask_is_clique,
    popcount,
)

MAX_PATTERN = 10


def _pattern_order(p: Graph) -> list[int]:
    # Highest-degree vertex first, then grow through neighbors when possible
    # so partial assignments are constrained early.
    order = [max(range(p.n), key=lambda v: p.degree(v))]
    placed = 1 << order[0]
    while len(order) < p.n:
        frontier = [
            v for v in range(p.n) if not placed >> v & 1 and p.adj[v] & placed
        ]
        pool = frontier or [v for v in range(p.n) if not placed >> v & 1]
        nxt = max(pool, key=lambda v: (popcount(p.adj[v] & placed), p.degree(v)))
        order.append(nxt)
        placed |= 1 << nxt
    return order


def find_induced(g: Graph, pattern: Graph) -> Optional[VertexSet]:
    """Vertex set of g inducing a copy of pattern, or None.

    Backtracking over degree-compatible assignments; both adjacency and
    non-adjacency are enforced, so the match is induced, not just a subgraph.
    """
    if pattern.n > MAX_PATTERN:
        raise PatternTooLarge(f"pattern order {pattern.n} exceeds {MAX_PATTERN}")
    if pattern.n > g.n:
        return None
    order = _pattern_order(pattern)
    host: list[int] = [0] * pattern.n
    pat_deg = [pattern.degree(v) for v in range(pattern.n)]

    def extend(k: int, used: int) -> bool:
        if k == pattern.n:
            return True
        pv = order[k]
        for cand in range(g.n):
            if used >> cand & 1 or g.degree(cand) < pat_deg[pv]:
                continue
            ok = True
            for j in range(k):
                want = pattern.adj[pv] >> order[j] & 1
                have = g.adj[cand] >> host[j] & 1
                if want != have:
                    ok = False
                    break
            if ok:
                host[k] = cand
                if extend(k + 1, used | 1 << cand):
                    return True
        return False

    if extend(0, 0):
        mask = 0
        for v in host:
            mask |= 1 << v
        return mask
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


def _missing_pairs(g: Graph, x: int) -> list[tuple[int, int]]:
    nbrs = list(bits(g.adj[x]))
    out = []
    for i, u in enumerate(nbrs):
        for w in nbrs[i + 1 :]:
            if not g.adj[u] >> w & 1:
                out.append((u, w))
    return out


def local_completion(g: Graph, x: int) -> tuple[Graph, ClosureStep]:
    """Add every missing edge between neighbors of x, turning N(x) into a
    clique.  Only defined at eligible vertices."""
    if not is_eligible(g, x):
        raise NotEligible(f"vertex {x} is not eligible")
    added = tuple(_missing_pairs(g, x))
    result = from_edges(g.n, list(g.edges()) + list(added))
    return result, ClosureStep(vertex=x, added=added)


def closure(
    g: Graph, pick: Callable[[list[int]], int] | None = None
) -> ClosureResult:
    """Iterate local completion until no eligible vertex remains.

    pick chooses among the current eligible vertices (default: lowest
    index).  The step trace depends on pick; the closed graph should not,
    and the tests probe that rather than assume it.
    """
    if not is_claw_free(g):
        raise NotClawFree("closure is defined for claw-free graphs only")
    cur = g
    steps: list[ClosureStep] = []
    while True:
        eligible = [x for x in range(cur.n) if is_eligible(cur, x)]
        if not eligible:
            break
        x = eligible[0] if pick is None else pick(eligible)
        cur, step = local_completion(cur, x)
        steps.append(step)
    return ClosureResult(closed=cur, steps=tuple(steps))


def is_closed(g: Graph) -> bool:
    if not is_claw_free(g):
        raise NotClawFree("closedness is defined for claw-free graphs only")
    return not any(is_eligible(g, x) for x in range(g.n))
