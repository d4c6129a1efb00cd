"""Exact Hamilton path and cycle decision.

The core is a subset dynamic program over the paths that start at vertex 0,
run over true-twin classes instead of vertices.  Vertices 1..n-1 with equal
closed neighbourhoods are interchangeable in any path, so they form one
class, and a state records how many members of each class the path has
used, not which ones.  Vertex 0 is always a class of its own.  For each
count vector the DP stores, as one int32 bitmask over the classes, the
classes in which a path from 0 with those counts can end.  States are
processed layer by layer in order of the number of vertices used, so every
transition flows from one layer to the next.  Each layer is one
vectorized step for all classes at once, taken over its live states in
fixed-size chunks: every live state with fewer than |w| members of a class
w used and an endpoint class adjacent to w gains w as an endpoint of the
state with one more member of w.  The states of each layer are built once
per tuple of class sizes and cached, so a sweep over many graphs of one
shape never rebuilds them.  On a twin-free graph every class is one vertex
and the DP is the plain subset DP.

A Hamilton cycle passes through vertex 0, so the cycle test runs the DP on
g itself.  g has a Hamilton path exactly when g plus an apex joined to every
vertex has one that starts at the apex, so the path tests run the same DP
on that graph, with the apex as vertex 0.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import OrderOutOfRange
from .graph import Graph, is_connected

MAX_EXACT = 24
# live states per step of _run_dp; a step's temporaries take at most about
# 20 bytes per class and state, so about 4 MiB at 24 classes
_CHUNK = 8192


def _check_order(g: Graph) -> None:
    if g.n > MAX_EXACT:
        raise OrderOutOfRange(
            f"exact search capped at {MAX_EXACT} vertices, got {g.n}"
        )


class _Layout(NamedTuple):
    """How _run_dp indexes g.  Class 0 is {0}; classes 1.. group vertices
    1..n-1 by closed neighbourhood, numbered in order of their smallest
    member.  Class c >= 1 owns the index field of sizes[c - 1].bit_length()
    bits at offsets[c - 1], which counts its members used so far."""

    members: tuple[int, ...]  # vertex mask of each class
    nbrs: tuple[int, ...]  # mask of the classes adjacent to each class
    sizes: tuple[int, ...]
    offsets: tuple[int, ...]
    width: int  # bits in an index
    full: int  # the index with every field at its class size


def _layout(g: Graph) -> _Layout:
    groups: dict[int, int] = {}
    for v in range(1, g.n):
        key = g.adj[v] | 1 << v
        groups[key] = groups.get(key, 0) | 1 << v
    members = (1,) + tuple(groups.values())
    # two classes are adjacent entirely or not at all, and a class sees
    # itself exactly when it has two or more members, because true twins are
    # adjacent; so one member's row gives the neighbours of its class
    rows = [g.adj[m.bit_length() - 1] for m in members]
    nbrs = tuple(
        sum(1 << d for d, other in enumerate(members) if row & other) for row in rows
    )
    sizes = tuple(m.bit_count() for m in members[1:])
    offsets, full, off = [], 0, 0
    for s in sizes:
        offsets.append(off)
        full |= s << off
        off += s.bit_length()
    return _Layout(members, nbrs, sizes, tuple(offsets), off, full)


@lru_cache(maxsize=1)
def _layers(sizes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Entry k holds, as an ascending uint32 array, every index whose
    fields add up to k, field i counting 0..sizes[i] in
    sizes[i].bit_length() bits.  A field of size s at offset off turns the
    layers L into those whose entry k joins L[k - c] | c << off for
    c = 0..s; each part lies above the last, so the entry stays ascending.
    With every size 1 entry k is the k-subsets of len(sizes) bits."""
    layers = [np.zeros(1, dtype=np.uint32)]
    off = 0
    for s in sizes:
        layers = [
            np.concatenate([
                layers[k - c] | np.uint32(c << off)
                for c in range(s + 1)
                if 0 <= k - c < len(layers)
            ])
            for k in range(len(layers) + s)
        ]
        off += s.bit_length()
    for layer in layers:
        layer.setflags(write=False)  # shared by every call of this shape
    return tuple(layers)


def _run_dp(g: Graph, lay: _Layout) -> np.ndarray:
    """dp[index] = bitmask of the classes in which a path can end that
    starts at vertex 0 and uses exactly the member counts of the index
    (see _Layout), entry 0 being the path {0}.  Indices with a field above
    its class size stay 0.  On a twin-free graph class v is vertex v, so
    vertex v is bit v - 1 of the index and the table has 2^(n-1) entries;
    it is never larger, because s.bit_length() <= s.

    This is exact.  A path from 0 maps to the sequence of its vertices'
    classes: consecutive classes are adjacent, a class follows itself only
    when it has two or more members, and no class occurs more often than it
    has members.  Conversely any such sequence from class 0 lifts to a path
    from 0 by handing out each class's members in any order: two vertices
    of adjacent classes are adjacent, and two members of one class of size
    two or more are adjacent twins.  So dp[index] holds exactly the classes
    of the endpoints of the paths from 0 with those counts, and a Hamilton
    path is a live class at the index with every field full.

    Each layer is one step for every class at once: a [classes, states]
    hit matrix marks where class w extends a live state, and np.add.at
    adds bit w to the entry at state + step_w.  Adding is ORing here.  A
    state whose field is below its class size gains one member without a
    carry into the next field, so the target of (state, w) is another index
    of the next layer, and state = target - step_w is the only source of
    bit w at that target; and a target's entry is still 0 when its
    predecessor layer runs, because nothing else writes to it.  So every
    entry receives distinct bits once each, over any split of the layer
    into chunks of _CHUNK states, which keep the temporaries small."""
    dp = np.zeros(1 << lay.width, dtype=np.int32)
    dp[0] = 1
    # row w - 1 holds the values of class w, broadcast against a chunk of
    # states
    def column(values):
        return np.array(values, dtype=np.uint32)[:, None]

    step = column([1 << off for off in lay.offsets])
    limit = column(lay.sizes) * step
    field = column([(1 << s.bit_length()) - 1 for s in lay.sizes]) * step
    nbrs = np.array(lay.nbrs[1:], dtype=np.int32)[:, None]
    bit = np.array([1 << w for w in range(1, len(lay.members))], dtype=np.int32)
    for states in _layers(lay.sizes)[:-1]:
        ends = dp[states]
        live = ends != 0
        if not live.any():
            break
        states = states[live]
        ends = ends[live]
        for lo in range(0, len(states), _CHUNK):
            chunk = states[lo:lo + _CHUNK]
            hit = ((ends[lo:lo + _CHUNK] & nbrs) != 0) & ((chunk & field) < limit)
            # a boolean index runs row by row, so the targets come class by
            # class and bit w repeats once per hit of row w - 1
            np.add.at(dp, (chunk + step)[hit], bit.repeat(hit.sum(1)))
    return dp


def _with_apex(g: Graph) -> Graph:
    """g shifted up one label, plus vertex 0 joined to every vertex.  The
    apex lies in every closed neighbourhood, so the other vertices form the
    twin classes of g, and the _run_dp table of this graph holds, for each
    count vector of those classes, the classes in which the paths of g with
    those counts end (entry 0 being the path {apex})."""
    rows = tuple(r << 1 | 1 for r in g.adj)
    return Graph((g.vertex_mask << 1,) + rows)


def has_hamilton_path(g: Graph) -> bool:
    """True iff some path visits every vertex once.  Disconnected graphs
    are never traceable."""
    _check_order(g)
    if not is_connected(g):
        return False
    h = _with_apex(g)
    lay = _layout(h)
    return bool(_run_dp(h, lay)[lay.full] != 0)


def has_hamilton_cycle(g: Graph) -> bool:
    """True iff some cycle visits every vertex once (needs n >= 3).
    Success means a spanning path from 0 whose far endpoint sees 0."""
    _check_order(g)
    if g.n < 3 or not is_connected(g) or g.min_degree() < 2:
        return False
    lay = _layout(g)
    return bool(_run_dp(g, lay)[lay.full] & lay.nbrs[0])
