"""Exact Hamilton path and cycle decision with witness extraction.

The core is a subset dynamic program over (visited set, endpoint) states.
States are stored as one endpoint bitmask per visited set in a flat numpy
int32 array indexed by the set.  Sets are processed layer by layer in order
of size, so every transition flows from one layer to the next, and each
layer costs one vectorized pass per target vertex w: every live set that
misses w and has an endpoint adjacent to w gains w as an endpoint of the
set with w added.  The sets of each size are built once per order and
cached, so a sweep over many graphs of one order never rebuilds them.

The cycle DP is anchored: a Hamilton cycle passes through vertex 0, so it
only tracks paths that start at 0 and indexes only the sets over vertices
1..n-1, half the states of the path DP.
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


def _run_dp(g: Graph, anchored: bool = False) -> np.ndarray:
    """dp[visited] = bitmask of endpoints reachable by a path covering
    exactly the visited set.  Unanchored, paths start anywhere and the
    table has 2^n entries; anchored, paths start at vertex 0, vertex v is
    bit v - 1 of the index, and the table has 2^(n-1) entries, entry 0
    being the path {0}.  Endpoint masks always use the vertex numbers."""
    n = g.n
    shift = 1 if anchored else 0
    m = n - shift
    dp = np.zeros(1 << m, dtype=np.int32)
    if anchored:
        dp[0] = 1
    else:
        for v in range(n):
            dp[1 << v] = 1 << v
    layers = _layers(m)
    # the first layer that holds a path: the singletons, or anchored {0}
    for k in range(1 - shift, m):
        sets = layers[k]
        ends = dp[sets]
        live = ends != 0
        if not live.any():
            break
        sets = sets[live]
        ends = ends[live]
        for w in range(shift, n):
            bit = 1 << (w - shift)
            hit = ((ends & g.adj[w]) != 0) & ((sets & bit) == 0)
            # distinct sets stay distinct once w is added, so the fancy
            # OR below never drops a write
            tgt = sets[hit] | bit
            dp[tgt] |= 1 << w
    return dp


def has_hamilton_path(g: Graph) -> bool:
    """True iff some path visits every vertex once.  Disconnected graphs
    are never traceable."""
    _check_order(g)
    if not is_connected(g):
        return False
    if g.n == 1:
        return True
    dp = _run_dp(g)
    return bool(dp[(1 << g.n) - 1] != 0)


def has_hamilton_cycle(g: Graph) -> bool:
    """True iff some cycle visits every vertex once (needs n >= 3).  The
    DP is anchored at vertex 0; success means a spanning path from 0 whose
    far endpoint sees 0."""
    _check_order(g)
    if g.n < 3 or not is_connected(g) or g.min_degree() < 2:
        return False
    dp = _run_dp(g, anchored=True)
    return bool(dp[-1] & g.adj[0])


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
    if g.n == 1:
        return HamiltonWitness("Path", (0,))
    dp = _run_dp(g)
    full = (1 << g.n) - 1
    ends = int(dp[full])
    if ends == 0:
        return None
    e = next(bits(ends))
    seq = [e]
    mask = full
    while mask != 1 << seq[-1]:
        mask ^= 1 << seq[-1]
        prev = int(dp[mask]) & g.adj[seq[-1]] & mask
        seq.append(next(bits(prev)))
    seq.reverse()
    return HamiltonWitness("Path", tuple(seq))
