"""Exact Hamilton path and cycle decision with witness extraction.

The core is a subset dynamic program over (visited set, endpoint) states.
States are stored as one endpoint bitmask per visited set in a flat numpy
array indexed by the set, and layers are processed in order of set size so
every transition flows from one layer to the next.  That keeps the whole
solver a handful of vectorized scatter updates per (vertex, neighbor) pair
instead of a Python loop over 2^n states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderTooLargeForExact
from .graph import Graph, bits, is_connected

MAX_EXACT = 24


def _check_order(g: Graph) -> None:
    if g.n > MAX_EXACT:
        raise OrderTooLargeForExact(
            f"exact search capped at {MAX_EXACT} vertices, got {g.n}"
        )


def _popcount_table(size: int) -> np.ndarray:
    x = np.arange(size, dtype=np.uint32)
    x = x - ((x >> 1) & 0x55555555)
    x = (x & 0x33333333) + ((x >> 2) & 0x33333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F
    return ((x * 0x01010101) >> 24).astype(np.uint8)


def _run_dp(g: Graph, start_mask: int | None = None) -> np.ndarray:
    """dp[visited] = bitmask of endpoints reachable by a path covering
    exactly the visited set.  start_mask restricts the allowed one-vertex
    starts (None means any vertex)."""
    n = g.n
    size = 1 << n
    dp = np.zeros(size, dtype=np.int32)
    starts = range(n) if start_mask is None else bits(start_mask)
    for v in starts:
        dp[1 << v] = 1 << v
    popcnt = _popcount_table(size)
    for k in range(1, n):
        layer = np.nonzero(popcnt == k)[0]
        ends = dp[layer]
        live = ends != 0
        if not live.any():
            break
        layer = layer[live]
        ends = ends[live]
        for v in range(n):
            src = layer[(ends >> v) & 1 == 1]
            if src.size == 0:
                continue
            for w in bits(g.adj[v]):
                tgt = src[(src >> w) & 1 == 0] + (1 << w)
                if tgt.size:
                    dp[tgt] = dp[tgt] | (1 << w)
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
    dp = _run_dp(g, start_mask=1)
    return bool(dp[(1 << g.n) - 1] & g.adj[0])


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
