"""Exact canonical labelling for graphs on at most 16 vertices.

Individualization-refinement search: an equitable partition is refined from a
degree/triangle invariant, then the first non-singleton cell is split on each
candidate vertex in turn.  A partition is a list of vertex masks, and each
refinement round keys a vertex by one integer, its neighbour counts into the
cells that just split packed four bits each (see _refine).  Leaves of the
search tree are complete labellings; the canonical form is the
lexicographically smallest upper-triangle encoding over all leaves.  Two
exact prunings keep the tree small: branch-and-bound on the already
determined encoding prefix, and twin pruning, which branches on only the
first member of each twin class in the branching cell (swapping two twins
is an automorphism; see canonical_labeling).

The search needs no other check, because every partition it visits comes
out of _refine and so is equitable.  Each vertex of the fixed prefix is a
singleton cell, so all candidates of a branching cell have the same row
against the prefix: a node has one next encoding column, and no candidate
is worse on it than another.  And the cells before the branching position
are singletons, which never split, so each candidate v is still the
singleton {v} at that position after refinement: no two children refine to
the same partition.

Exponential in the worst case, which the n <= 16 cap makes acceptable.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import OrderOutOfRange
from .graph import Graph, relabel
from .graph6 import encode

MAX_CANONICAL = 16


def vertex_keys(g: Graph) -> list[tuple[int, int]]:
    """(degree, triangles through v) for each vertex v.  The initial
    partition sorts by this key and the search only ever splits cells in
    place, so canonical labels increase with it."""
    adj = g.adj
    # each edge uw adds its common neighbours to both ends, so a triangle
    # through v is counted once for each of its two edges at v
    twice = [0] * g.n
    for u, row in enumerate(adj):
        rest = row >> (u + 1) << (u + 1)
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            common = (row & adj[w]).bit_count()
            twice[u] += common
            twice[w] += common
            rest ^= low
    return [(row.bit_count(), t // 2) for row, t in zip(adj, twice)]


def _initial_cells(g: Graph) -> list[int]:
    groups: dict[tuple[int, int], int] = {}
    for v, key in enumerate(vertex_keys(g)):
        groups[key] = groups.get(key, 0) | 1 << v
    return [groups[key] for key in sorted(groups)]


def _refine(g: Graph, cells: list[int], fresh: Sequence[int]) -> list[int]:
    """Equitable refinement of an ordered partition, given as a list of
    vertex masks; cell order is an isomorphism invariant.

    Each round splits every cell by its vertices' neighbour counts into the
    fresh cells, taken in cell order, and puts the parts in ascending order
    of those counts; the parts of the cells it split, except the last part
    of each, are the next round's fresh cells, and a round that splits
    nothing ends.  The caller names the fresh cells of its input: every
    cell of the initial partition, and cell k after a vertex of cell k of
    an equitable partition is individualised into cell k (the rest of the
    old cell, cell k + 1, is that split's last part).

    This gives the same cells, in the same order, as recounting every
    vertex against every cell on every round; by induction both rules pass
    through the same partitions.  A cell Y that is not fresh is a cell of
    the partition the last round split (in the first round after an
    individualisation, of the equitable partition before it), or the last
    part of a cell X of that partition which the round split.  In the first
    case the vertices of each current cell agree on their count into Y:
    the full rule's last round split its cells by that count, and an
    equitable partition's cells already agree on it.  In the second case
    the count into Y is the count into X, constant within each cell by the
    first case, minus the counts into X's other parts, which are fresh and
    come before Y in cell order.  Either way that position of the full
    signature is constant within each cell or follows from earlier
    positions, so it neither splits a cell nor reorders its parts under
    the lexicographic sort."""
    adj = g.adj
    while fresh:
        targets = [cells[i] for i in fresh]
        new_cells: list[int] = []
        fresh = []
        for cell in cells:
            if cell & (cell - 1):  # a singleton cannot split
                parts: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    row = adj[low.bit_length() - 1]
                    # four bits per count, first target highest: a count is
                    # at most n - 1 <= 15, so keys sort as the count tuples
                    key = 0
                    for t in targets:
                        key = key << 4 | (row & t).bit_count()
                    parts[key] = parts.get(key, 0) | low
                    rest ^= low
                if len(parts) > 1:
                    fresh.extend(range(len(new_cells), len(new_cells) + len(parts) - 1))
                    new_cells.extend(parts[key] for key in sorted(parts))
                    continue
            new_cells.append(cell)
        cells = new_cells
    return cells


def earlier_twins(g: Graph) -> list[int]:
    """For each vertex v, the mask of its twins u < v, the u with
    N(u) - v = N(v) - u: equal open neighbourhoods when u and v are
    nonadjacent, equal closed ones when they are adjacent.  Twinship is an
    equivalence, since no vertex has both kinds of twin: if N(u) = N(v) and
    N[u] = N[w], then w ~ u, so w ~ v, so v lies in N[w] = N[u] and v ~ u,
    a contradiction."""
    # nonadjacent twins share their row, adjacent ones their row plus self
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    out = []
    for v, row in enumerate(g.adj):
        closed = row | 1 << v
        same_open, same_closed = by_open.get(row, 0), by_closed.get(closed, 0)
        out.append(same_open | same_closed)
        by_open[row] = same_open | 1 << v
        by_closed[closed] = same_closed | 1 << v
    return out


def canonical_labeling(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (encoding, labels): labels[v] is v's canonical label, and the
    encoding is the key of the leaf the search minimises.  When the refined
    initial partition starts with a singleton cell, encoding[j-1] is column
    j of the canonical adjacency (bit to label 0 most significant).
    Otherwise the first entry is a 0 standing for the first branching step
    and one column is left out, so the entries are not the columns: K3
    gives (0, 1) against columns (1, 3), C5 gives (0, 0, 5, 12) against
    (0, 1, 5, 12)."""
    if g.n > MAX_CANONICAL:
        raise OrderOutOfRange(
            f"canonical labelling capped at n <= {MAX_CANONICAL}, got {g.n}"
        )
    n = g.n
    adj = g.adj
    twins = earlier_twins(g)
    best_enc: list[int] | None = None
    best_cells: list[int] | None = None

    def visit(cells: list[int], prefix: list[int]) -> None:
        nonlocal best_enc, best_cells
        run = []
        for cell in cells:
            if cell & (cell - 1):
                break
            run.append(cell.bit_length() - 1)
        k = len(run)
        # extend this call's own prefix list by the determined columns, for
        # labels 1..k-1: a vertex's row against the run, first label highest
        for j in range(len(prefix) + 1, k):
            row, col = adj[run[j]], 0
            for u in run[:j]:
                col = col << 1 | row >> u & 1
            prefix.append(col)
        if best_enc is not None and prefix > best_enc[: len(prefix)]:
            return
        if k == n:
            if best_enc is None or prefix < best_enc:
                best_enc = prefix
                best_cells = cells
            return
        cell = cells[k]
        # the cell has one row against the run, the next encoding column of
        # every completion; if the prefix ties the best leaf, a column worse
        # than the best's column k loses
        row, col = adj[cell.bit_length() - 1], 0
        for u in run:
            col = col << 1 | row >> u & 1
        tied = best_enc is not None and prefix == best_enc[: len(prefix)]
        if k > 0 and tied and col > best_enc[k - 1]:
            return
        # Twins u < v of one cell: the transposition (u v) fixes every other
        # vertex, so it is an automorphism that maps this partition to itself
        # and the subtree of v onto the subtree of u, leaf for leaf with equal
        # encodings.  Cells are kept in ascending order and twinship is an
        # equivalence, so the first member u of v's class in the cell is
        # branched on before v, and u's subtree already holds the first
        # minimal leaf of the two; skipping v changes neither the encoding
        # nor the labels.
        for v in range(n):
            if cell >> v & 1 and not twins[v] & cell:
                split = cells[:k] + [1 << v, cell & ~(1 << v)] + cells[k + 1:]
                visit(_refine(g, split, (k,)), prefix + [col])

    initial = _initial_cells(g)
    visit(_refine(g, initial, range(len(initial))), [])
    assert best_enc is not None and best_cells is not None
    labels = [0] * n
    for pos, cell in enumerate(best_cells):
        labels[cell.bit_length() - 1] = pos
    return tuple(best_enc), tuple(labels)


@lru_cache(maxsize=1 << 16)
def canonical_form(g: Graph) -> str:
    """graph6 string of the canonically relabelled graph."""
    _, labels = canonical_labeling(g)
    return encode(relabel(g, labels))
