"""Exact Hamilton path and cycle decision with witness extraction.

The core is a subset dynamic program over the paths that start at vertex 0:
for each set S of the other vertices it stores, as one int32 bitmask, the
endpoints of the paths that start at 0 and cover exactly {0} and S.  Sets
are processed layer by layer in order of size, so every transition flows
from one layer to the next, and each layer costs one vectorized pass per
target vertex w: every live set that misses w and has an endpoint adjacent
to w gains w as an endpoint of the set with w added.  The sets of each size
are built once per order and cached, so a sweep over many graphs of one
order never rebuilds them.

A Hamilton cycle passes through vertex 0, so the cycle test runs the DP on
g itself.  g has a Hamilton path exactly when g plus an apex joined to every
vertex has one that starts at the apex, so the path tests run the same DP
on that graph, with the apex as vertex 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OrderTooLargeForExact
from .graph import Graph, bits, is_connected

MAX_EXACT = 24


def _check_order(g: Graph) -> None:
    if g.n > MAX_EXACT:
        raise OrderTooLargeForExact(
            f"exact search capped at {MAX_EXACT} vertices, got {g.n}"
        )


@lru_cache(maxsize=1)
def _layers(m: int) -> tuple[np.ndarray, ...]:
    """Entry k holds every k-subset of m bits as an ascending uint32 array.
    The k-subsets of b + 1 bits are those of b bits followed by the
    (k - 1)-subsets of b bits with bit b added."""
    empty = np.zeros(0, dtype=np.uint32)
    layers = [np.zeros(1, dtype=np.uint32)]
    for b in range(m):
        bit = np.uint32(1 << b)
        layers = [
            np.concatenate((low, high | bit))
            for low, high in zip(layers + [empty], [empty] + layers)
        ]
    for layer in layers:
        layer.setflags(write=False)  # shared by every call at this order
    return tuple(layers)


def _run_dp(g: Graph) -> np.ndarray:
    """dp[visited] = bitmask of the endpoints of the paths that start at
    vertex 0 and cover exactly {0} plus the visited set.  Vertex v is bit
    v - 1 of the index, so the table has 2^(n-1) entries, entry 0 being
    the path {0}; endpoint masks use the vertex numbers."""
    n = g.n
    dp = np.zeros(1 << (n - 1), dtype=np.int32)
    dp[0] = 1
    layers = _layers(n - 1)
    for k in range(n - 1):
        sets = layers[k]
        ends = dp[sets]
        live = ends != 0
        if not live.any():
            break
        sets = sets[live]
        ends = ends[live]
        for w in range(1, n):
            bit = 1 << (w - 1)
            hit = ((ends & g.adj[w]) != 0) & ((sets & bit) == 0)
            # distinct sets stay distinct once w is added, so the fancy
            # OR below never drops a write
            tgt = sets[hit] | bit
            dp[tgt] |= 1 << w
    return dp


def _with_apex(g: Graph) -> Graph:
    """g shifted up one label, plus vertex 0 joined to every vertex.  Its
    _run_dp table, shifted right one bit, is indexed by the sets of g and
    holds the endpoints of the paths of g covering each set."""
    rows = tuple(r << 1 | 1 for r in g.adj)
    return Graph(g.n + 1, (g.vertex_mask << 1,) + rows, g.m + g.n)


def has_hamilton_path(g: Graph) -> bool:
    """True iff some path visits every vertex once.  Disconnected graphs
    are never traceable."""
    _check_order(g)
    if not is_connected(g):
        return False
    return bool(_run_dp(_with_apex(g))[-1] != 0)


def has_hamilton_cycle(g: Graph) -> bool:
    """True iff some cycle visits every vertex once (needs n >= 3).
    Success means a spanning path from 0 whose far endpoint sees 0."""
    _check_order(g)
    if g.n < 3 or not is_connected(g) or g.min_degree() < 2:
        return False
    return bool(_run_dp(g)[-1] & g.adj[0])


@dataclass(frozen=True)
class HamiltonWitness:
    kind: str  # "Path" or "Cycle"
    order: tuple[int, ...]


def find_hamilton_path(g: Graph) -> HamiltonWitness | None:
    """A concrete spanning path, or None.

    The sequence is rebuilt backwards from the DP table itself: from a full
    set with live endpoint e, the predecessor state is (set minus e) with
    some live endpoint adjacent to e, which exists by construction.
    """
    _check_order(g)
    if not is_connected(g):
        return None
    dp = _run_dp(_with_apex(g))
    full = g.vertex_mask
    ends = int(dp[full]) >> 1
    if ends == 0:
        return None
    e = next(bits(ends))
    seq = [e]
    mask = full
    while mask != 1 << seq[-1]:
        mask ^= 1 << seq[-1]
        prev = int(dp[mask]) >> 1 & g.adj[seq[-1]] & mask
        seq.append(next(bits(prev)))
    seq.reverse()
    return HamiltonWitness("Path", tuple(seq))
