"""The two graph sources: isomorph-free exhaustive generation at small
orders (exhaustive_orders) and seeded dense samples at larger ones
(_run_sample).  Each checks its own arguments and raises InfeasibleSpec on a
request it cannot serve; _check_sample checks a sampled request whole, and
verify calls it once before drawing at its first order.

The exhaustive sweep is canonical augmentation: graphs of order k+1 are
built by attaching one new vertex to each parent of order k, and a child is
kept only when deleting its canonically chosen removable vertex gives back
exactly that parent.  Each isomorphism class therefore appears once,
produced from one parent class, and hereditary predicates (claw-free,
net-free, M-free) prune the tree at every level.  The attachment masks of
a parent meet the cheap tests first: one pass over bitsets of all 2^n masks
drops each mask that repeats an earlier one up to twins of the parent or
that would close a claw; a (degree, triangle) key test, read off tables of
the parent behind a degree floor, rejects most of the rest; only then is
the child built, screened for an induced net or M through its new vertex
(the parent has none), and labelled once.  A kept child travels to the
next level as a Graph together with its canonical adjacency rows, which
dedup its siblings and, when the child is expanded, stand for the parent in
the removal-rule check, so no parent is labelled twice; graph6 is written
and read only for checkpoints.
Non-hereditary predicates (closed, two-connected) only gate emission.  One
sweep builds every level once and yields the classes of each requested
order in turn.

The sampler (sample_dense_claw_free) deletes uniformly chosen edges of the
complete graph while the graph stays connected and claw-free, which
concentrates samples near the dense regimes the spectral verifiers probe.
"""
from __future__ import annotations

from contextlib import ExitStack
from functools import cache
from multiprocessing import Pool
from typing import Callable, Iterator, TextIO

import numpy as np

from .canon import canonical_labeling, earlier_twins, vertex_keys
from .errors import InfeasibleSpec, InvalidParams
from .families import graph_m, net
from .graph import (
    Graph,
    bits,
    from_edges,
    induced,
    is_connected,
    is_two_connected,
    relabel,
    separations,
)
from . import graph6
from .structure import find_induced, is_claw_free, is_closed

MAX_EXHAUSTIVE = 9
MAX_SAMPLE = 30

HEREDITARY_FILTERS = ("claw-free", "net-free", "m-free")
EMISSION_FILTERS = ("closed", "two-connected")
KNOWN_FILTERS = HEREDITARY_FILTERS + EMISSION_FILTERS + ("connected",)

_NET = net()
_M = graph_m()

# a graph of the sweep and its canonical adjacency rows (None once read
# back from a checkpoint)
Node = tuple[Graph, tuple[int, ...] | None]


def _check_chain(chain: tuple[str, ...]) -> None:
    for name in chain:
        if name not in KNOWN_FILTERS:
            raise InfeasibleSpec(f"unknown predicate {name!r}")
    if "closed" in chain and "claw-free" not in chain:
        raise InfeasibleSpec("'closed' filter requires 'claw-free' in the chain")


def _attach(parent: Graph, mask: int) -> Graph:
    rows = [row | (mask >> v & 1) << parent.n for v, row in enumerate(parent.adj)]
    return Graph((*rows, mask))


def _viable_masks(parent: Graph, chain: tuple[str, ...]) -> int:
    """The attachment masks worth a child, as a set of 2^n bits: bit `mask`
    is set when the mask survives.  col[v], the set of masks that contain
    v, is a run of 2^v ones every 2^(v+1) bits, starting at bit 2^v; each
    screen below drops one boolean combination of columns, so the whole
    screen is a few big-integer operations per parent instead of a test per
    mask.  A connected sweep drops the empty mask.

    Twins: a mask that leaves out an earlier twin u of a vertex v it takes
    is dropped.  Swapping two twins u < v of the parent is an automorphism
    of it, so the children of mask and of mask with v traded for u are
    isomorphic by a map that fixes the new vertex.  Every filter, the
    removal rule and the `seen` dedup are isomorphism-invariant, so the two
    children are kept or dropped alike, and at most the first can be kept.
    Repeating the trade reaches the mask that takes the lowest members of
    each twin class, which is the smallest mask of its orbit and so the one
    reached first.

    Claws (every parent of a claw-free sweep is claw-free): any claw of the child uses the new
    vertex, as the centre of an independent triple inside the mask or as a
    leaf of a claw centred at some u in the mask whose other two leaves are
    nonadjacent neighbours of u outside it."""
    n = parent.n
    adj = parent.adj
    full = (1 << (1 << n)) - 1
    col = [
        full // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v))
        for v in range(n)
    ]
    dropped = 1 if "connected" in chain else 0
    for v, twins in enumerate(earlier_twins(parent)):
        for u in bits(twins):
            dropped |= col[v] & ~col[u]
    if "claw-free" in chain:
        for a in range(n):
            for b in bits(~adj[a] & parent.vertex_mask & ~((2 << a) - 1)):
                for c in bits(~(adj[a] | adj[b]) & parent.vertex_mask & ~((2 << b) - 1)):
                    dropped |= col[a] & col[b] & col[c]
                for u in bits(adj[a] & adj[b]):
                    dropped |= col[u] & ~(col[a] | col[b])
    return full & ~dropped


def _rule_filter(parent: Graph, connected: bool) -> Callable[[int], list[int]]:
    """candidates(mask) lists, for the child of the parent plus a vertex
    joined to mask, the allowed vertices (non-cut ones when generating
    connected graphs) with the new vertex's key; the removal-rule vertex r,
    the allowed vertex of highest canonical label, is one of them whenever
    the child can be kept, and [] means reject.

    Canonical labels increase with the (degree, triangle) key, so r has the
    largest key among the allowed vertices; child - r ~ parent = child - new
    forces key(r) = key(new).  This is the cheap-invariant step of McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26 (1998).

    The child's keys and cut vertices come from tables of the parent, built
    once.  An old vertex v gains one degree and |N(v) & mask| triangles when
    v is in mask, and nothing otherwise; the new vertex has degree |mask|
    and one triangle per parent edge inside mask.  child - v is the parent
    minus v plus the new vertex, joined to mask, so it is connected exactly
    when mask meets every component of parent - v; child - new is the
    parent, which is connected whenever connectivity is required, because a
    connected sweep starts from K1 and joins each new vertex to a nonempty
    mask.  So when |mask| >= floor (2 in a connected sweep, 0 otherwise),
    every non-cut vertex of the parent (every vertex, when connectivity is
    not required) stays allowed with at least its parent degree; top is
    the largest such degree, and floor <= |mask| < top rejects the mask
    before any key is formed.
    """
    n = parent.n
    adj = parent.adj
    keys = vertex_keys(parent)
    pieces = separations(parent)
    floor = 2 if connected else 0
    top = max(d for (d, _), comps in zip(keys, pieces) if not connected or len(comps) <= 1)

    def candidates(mask: int) -> list[int]:
        size = mask.bit_count()
        if floor <= size < top:
            return []
        inner = [(row & mask).bit_count() if mask >> v & 1 else 0 for v, row in enumerate(adj)]
        key = (size, sum(inner) // 2)
        out = []
        for v, (degree, triangles) in enumerate(keys):
            k = (degree + 1, triangles + inner[v]) if mask >> v & 1 else (degree, triangles)
            if k < key or connected and not all(comp & mask for comp in pieces[v]):
                continue
            if k > key:
                return []
            out.append(v)
        return out + [n]

    return candidates


def _expand_parent(
    parent: Graph, parent_rows: tuple[int, ...], chain: tuple[str, ...]
) -> list[Node]:
    """All accepted children of one parent, deterministically ordered, each
    with its canonical adjacency rows; parent_rows are the parent's.

    A child is kept when deleting its removal-rule vertex gives back a graph
    isomorphic to the parent, and it is not isomorphic to a sibling already
    kept.  The masks of _viable_masks are taken in ascending order, and
    each passes the key test of _rule_filter before its child is built and
    screened by the pattern filters; all these only reject, so their order
    keeps the same children.  Each child left is labelled once; the
    labelling gives both the rule vertex and the child's canonical rows,
    which dedup the siblings and become parent_rows when the child is
    expanded in turn, so no parent is labelled again.  child - rule is
    labelled only when its sorted degree sequence equals the parent's: an
    isomorphism invariant, so the check stays exact.
    """
    connected = "connected" in chain
    degrees = sorted(parent.degrees())
    rule_candidates = _rule_filter(parent, connected)
    seen: set[tuple[int, ...]] = set()
    out: list[Node] = []
    for mask in bits(_viable_masks(parent, chain)):
        candidates = rule_candidates(mask)
        if not candidates:
            continue
        child = _attach(parent, mask)
        if "net-free" in chain and find_induced(child, _NET, 1 << parent.n) is not None:
            continue
        if "m-free" in chain and find_induced(child, _M, 1 << parent.n) is not None:
            continue
        labels = canonical_labeling(child)[1]
        rule = max(candidates, key=labels.__getitem__)
        if rule != parent.n:
            rest = induced(child, child.vertex_mask & ~(1 << rule))
            if sorted(rest.degrees()) != degrees:
                continue
            if relabel(rest, canonical_labeling(rest)[1]).adj != parent_rows:
                continue
        rows = relabel(child, labels).adj
        if rows in seen:
            continue
        seen.add(rows)
        out.append((child, rows))
    return out


def _expand_task(args: tuple[Graph, tuple[int, ...], tuple[str, ...]]) -> list[Node]:
    return _expand_parent(*args)


def _emission_ok(g: Graph, chain: tuple[str, ...]) -> bool:
    if "two-connected" in chain and not is_two_connected(g):
        return False
    if "closed" in chain and not is_closed(g):
        return False
    return True


CHECKPOINT_VERSION = 2


def _open_checkpoint(
    path: str, n: int, chain: tuple[str, ...]
) -> tuple[dict[str, list[str]], TextIO]:
    """Read the finished parents of a checkpoint and open it for appending.

    The first line names the format version, the order and the predicate
    chain; a file written for another run raises InfeasibleSpec.  Each
    parent line ends with its child count, so a line torn by an interrupted
    write fails the count and is ignored (its parent is expanded again).
    """
    header = f"clawtrace-checkpoint v{CHECKPOINT_VERSION} n={n} chain={','.join(sorted(chain))}"
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
    except FileNotFoundError:
        text = ""
    except UnicodeDecodeError:
        raise InfeasibleSpec(f"checkpoint {path!r} is not a clawtrace checkpoint") from None
    lines = text.splitlines()
    if lines and lines[0] != header:
        raise InfeasibleSpec(
            f"checkpoint {path!r} belongs to another run: "
            f"found {lines[0][:80]!r}, expected {header!r}"
        )
    done: dict[str, list[str]] = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) >= 2 and parts[-1].isdigit() and int(parts[-1]) == len(parts) - 2:
            done[parts[0]] = parts[1:-1]
    fh = open(path, "a", encoding="ascii")
    if not lines:
        print(header, file=fh, flush=True)
    elif not text.endswith("\n"):
        print(file=fh, flush=True)  # keep the torn line on a line of its own
    return done, fh


def _expand_level(
    parents: list[Node],
    chain: tuple[str, ...],
    imap: Callable[..., Iterator[list[Node]]],
    done: dict[str, list[str]],
    ck: TextIO | None,
) -> list[Node]:
    """One augmentation level: the children of each parent in turn.  With a
    checkpoint file `ck`, parents whose graph6 is in `done` are read back
    instead of expanded, and each newly finished parent is appended as one
    line: its graph6, its children's graph6 and their count.  A child read
    back carries no rows; the checkpointed level is the last one, so it is
    never expanded."""
    names = [graph6.encode(p) for p, _ in parents] if ck else [None] * len(parents)
    tasks = [(*node, chain) for node, name in zip(parents, names) if name not in done]
    expanded = imap(_expand_task, tasks)
    merged: list[Node] = []
    for name in names:
        if name in done:
            merged.extend((graph6.decode(k), None) for k in done[name])
            continue
        kids = next(expanded)
        if ck:
            print(name, *(graph6.encode(c) for c, _ in kids), len(kids), file=ck, flush=True)
        merged.extend(kids)
    return merged


def exhaustive_orders(
    chain: tuple[str, ...],
    n_min: int,
    n_max: int,
    workers: int = 1,
    checkpoint: str | None = None,
) -> Iterator[list[Graph]]:
    """The emitted classes of each order n_min..n_max in turn, one
    representative per isomorphism class in a deterministic order, from one
    augmentation sweep: every level is built once, however many orders are
    read, and one worker pool serves all levels.  The checkpoint applies to
    the last (most expensive) level only.  An unknown predicate, 'closed'
    without 'claw-free', n_min < 1, n_max > MAX_EXHAUSTIVE or workers < 1
    raises InfeasibleSpec at the first step, before any pool starts or
    checkpoint opens; so does a checkpoint written for another run, at any
    order, before any pool starts or level is built."""
    _check_chain(chain)
    if n_min < 1:
        raise InfeasibleSpec(f"order must be positive, got {n_min}")
    if n_max > MAX_EXHAUSTIVE:
        raise InfeasibleSpec(f"exhaustive mode capped at n <= {MAX_EXHAUSTIVE}, got {n_max}")
    if workers < 1:
        raise InfeasibleSpec(f"workers must be >= 1, got {workers}")
    with ExitStack() as stack:
        done, ck = {}, None
        if checkpoint is not None:
            done, ck = _open_checkpoint(checkpoint, n_max, chain)
            stack.enter_context(ck)
        imap = stack.enter_context(Pool(workers)).imap if workers > 1 else map
        k1 = from_edges(1, ())
        frontier: list[Node] = [(k1, k1.adj)]  # K1 is its own canonical form
        for order in range(1, n_max + 1):
            if order > 1:
                resume = (done, ck) if order == n_max else ({}, None)
                frontier = _expand_level(frontier, chain, imap, *resume)
            if order >= n_min:
                yield [g for g, _ in frontier if _emission_ok(g, chain)]


@cache
def _complete_edges(n: int) -> tuple[tuple[int, int], ...]:
    """The edges of K_n in lexicographic order, built on first use."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def sample_dense_claw_free(n: int, target_m: int, seed: int) -> Graph:
    """Delete uniformly chosen edges from K_n down to target_m, rejecting
    any deletion that creates an induced claw or disconnects the graph.
    Deterministic for a fixed seed.  When no deletable edge remains, returns
    the graph reached, which is denser than asked but connected and
    claw-free."""
    if not 1 <= n <= MAX_SAMPLE:
        raise InvalidParams(f"sampler needs 1 <= n <= {MAX_SAMPLE}, got {n}")
    if target_m > n * (n - 1) // 2 or target_m < 0:
        raise InvalidParams(f"target_m {target_m} outside 0..C({n},2)")
    if seed < 0:
        raise InvalidParams(f"sampler seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    full = (1 << n) - 1
    rows = [full & ~(1 << v) for v in range(n)]

    def deletable(u: int, v: int) -> bool:
        # with u-v gone, a common neighbour c of u and v keeps them joined,
        # and any new claw has the fresh non-edge as a leaf pair, so it is
        # such a c plus a third leaf w outside N[u] | N[v] adjacent to c;
        # without a common neighbour there is no new claw, and the graph,
        # connected with u-v, stays connected iff u still reaches v
        nu, nv = rows[u], rows[v]
        common = nu & nv
        if common:
            rest = full & ~(nu | nv) & ~(1 << u | 1 << v)
            while rest:
                low = rest & -rest
                if rows[low.bit_length() - 1] & common:
                    return False
                rest ^= low
            return True
        seen = frontier = 1 << u
        while frontier:
            if frontier & nv:
                return True
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        return False

    # the current edges in lexicographic order, which a deletion keeps; each
    # draw permutes this list
    edges = list(_complete_edges(n))
    while len(edges) > target_m:
        for idx in rng.permutation(len(edges)):
            u, v = edges[idx]
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
            if not deletable(u, v):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                continue
            del edges[idx]
            break
        else:
            break  # stuck: no deletion keeps the graph connected and claw-free
    return Graph(tuple(rows))


def _sample_ok(g: Graph, chain: tuple[str, ...]) -> bool:
    # the sampler only returns connected claw-free graphs; testing both
    # again re-checks that invariant on every sample, on purpose
    if "connected" in chain and not is_connected(g):
        return False
    if "claw-free" in chain and not is_claw_free(g):
        return False
    if "net-free" in chain and find_induced(g, _NET) is not None:
        return False
    if "m-free" in chain and find_induced(g, _M) is not None:
        return False
    return _emission_ok(g, chain)


def _check_sample(
    n: int, chain: tuple[str, ...], count: int | None, seed: int | None, density: float
) -> None:
    """Raise InfeasibleSpec unless a sampled request at orders up to n can
    be served: count and seed given, a known chain, n <= MAX_SAMPLE, density
    in [0, 1], count >= 0 and seed >= 0.  Callers pass their largest order,
    smallest seed and whole count, so it is refused before its first draw."""
    if count is None or seed is None:
        raise InfeasibleSpec("sample mode needs --count and --seed")
    if seed < 0:
        raise InfeasibleSpec(f"sample seeds must be >= 0, the first would be {seed}")
    _check_chain(chain)
    if not 1 <= n <= MAX_SAMPLE:
        raise InfeasibleSpec(f"sample mode needs 1 <= n <= {MAX_SAMPLE}, got {n}")
    if not 0.0 <= density <= 1.0:
        raise InfeasibleSpec(f"density must lie in [0, 1], got {density}")
    if count < 0:
        raise InfeasibleSpec(f"sample count must be >= 0, got {count}")


def _run_sample(
    n: int,
    chain: tuple[str, ...],
    count: int,
    seed: int,
    density: float,
    consumer: Callable[[Graph], None],
) -> int:
    """Feed `count` seeded samples of order n that pass the chain to
    consumer; return how many.  Attempt i draws sample_dense_claw_free with
    seed + i at the given edge density, so classes may repeat."""
    _check_sample(n, chain, count, seed, density)
    target_m = round(density * (n * (n - 1) // 2))
    emitted = 0
    attempts = 0
    limit = 200 * max(count, 1)
    while emitted < count:
        if attempts >= limit:
            raise InfeasibleSpec(
                f"sampler rejected {attempts} candidates before reaching count={count}"
            )
        g = sample_dense_claw_free(n, target_m, seed + attempts)
        attempts += 1
        if _sample_ok(g, chain):
            consumer(g)
            emitted += 1
    return emitted
