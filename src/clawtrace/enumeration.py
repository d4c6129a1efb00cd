"""Isomorph-free exhaustive generation at small orders, plus seeded dense
samplers for larger ones.

Exhaustive mode is canonical augmentation: graphs of order k+1 are built by
attaching one new vertex to each parent of order k, and a child is kept only
when deleting its canonically chosen removable vertex gives back exactly that
parent.  Each isomorphism class therefore appears once, produced from one
parent class, and hereditary predicates (claw-free, net-free, and the
extended-net filter) prune the tree at every level.  A (degree, triangle)
key rejects most children before any canonical search, and each remaining
child is labelled once.  Non-hereditary predicates (closed, two-connected)
only gate emission.  One sweep builds every level once and yields the
classes of each requested order in turn.

Sample mode starts from the complete graph and deletes uniformly chosen
edges, rejecting deletions that create an induced claw or disconnect the
graph, which concentrates samples near the dense regimes the spectral
verifiers probe.  The sampler works in place: it keeps one lexicographic
edge list and drops an edge from it only once its deletion is accepted.
A deletion is tested locally: a new claw must use the removed pair as two
of its leaves, so only the common non-neighbours of the pair are scanned
for its third leaf, few on a dense graph; and the graph stays connected
iff one endpoint still reaches the other.
"""
from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Callable, Iterator, TextIO

import numpy as np

from .canon import canonical_form, canonical_labeling, vertex_keys
from .errors import InfeasibleSpec, InvalidParams, TargetUnreachable
from .families import graph_m, net
from .graph import (
    Graph,
    bits,
    from_edges,
    induced,
    is_connected,
    is_two_connected,
    mask_connected,
    popcount,
    relabel,
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


@dataclass(frozen=True)
class Exhaustive:
    pass


@dataclass(frozen=True)
class Sample:
    count: int
    seed: int
    density: float


@dataclass(frozen=True)
class EnumSpec:
    n: int
    predicate_chain: tuple[str, ...] = ("connected", "claw-free")
    mode: Exhaustive | Sample = field(default_factory=Exhaustive)


def _validate(spec: EnumSpec) -> None:
    for name in spec.predicate_chain:
        if name not in KNOWN_FILTERS:
            raise InfeasibleSpec(f"unknown predicate {name!r}")
    if "closed" in spec.predicate_chain and "claw-free" not in spec.predicate_chain:
        raise InfeasibleSpec("'closed' filter requires 'claw-free' in the chain")
    if spec.n < 1:
        raise InfeasibleSpec(f"order must be positive, got {spec.n}")
    if isinstance(spec.mode, Exhaustive):
        if spec.n > MAX_EXHAUSTIVE:
            raise InfeasibleSpec(
                f"exhaustive mode capped at n <= {MAX_EXHAUSTIVE}, got {spec.n}"
            )
    else:
        if spec.n > MAX_SAMPLE:
            raise InfeasibleSpec(f"sample mode capped at n <= {MAX_SAMPLE}, got {spec.n}")
        if not 0.0 <= spec.mode.density <= 1.0:
            raise InfeasibleSpec(f"density must lie in [0, 1], got {spec.mode.density}")
        if spec.mode.count < 0:
            raise InfeasibleSpec(f"sample count must be >= 0, got {spec.mode.count}")


def _attach(parent: Graph, mask: int) -> Graph:
    rows = list(parent.adj)
    new_bit = 1 << parent.n
    for v in bits(mask):
        rows[v] |= new_bit
    rows.append(mask)
    return Graph(n=parent.n + 1, adj=tuple(rows), m=parent.m + popcount(mask))


def _claw_free_extension_ok(p: Graph, attach_mask: int) -> bool:
    """For a claw-free parent, decide whether adding a vertex adjacent to
    attach_mask keeps the child claw-free.  Any new claw must involve the
    new vertex: either as center (independent triple inside the mask) or as
    a leaf (some u in the mask with two nonadjacent old neighbors outside
    the mask)."""
    verts = list(bits(attach_mask))
    for i, a in enumerate(verts):
        na = p.adj[a]
        for b in verts[i + 1 :]:
            if na >> b & 1:
                continue
            if attach_mask & ~na & ~p.adj[b] & ~(1 << a | 1 << b):
                return False
    for u in verts:
        outside = p.adj[u] & ~attach_mask
        for a in bits(outside):
            if outside & ~p.adj[a] & ~(1 << a):
                return False
    return True


def _rule_candidates(child: Graph, connected: bool) -> list[int]:
    """The allowed vertices (non-cut ones when generating connected graphs)
    with the new vertex's key; the removal-rule vertex r, the allowed vertex
    of highest canonical label, is one of them whenever the child can be
    kept, and [] means reject.

    Canonical labels increase with the (degree, triangle) key, so r has the
    largest key among the allowed vertices; child - r ~ parent = child - new
    forces key(r) = key(new).  This is the cheap-invariant step of McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26 (1998).
    """
    keys = vertex_keys(child)
    key = keys[-1]

    def allowed(v: int) -> bool:
        return not connected or mask_connected(child, child.vertex_mask & ~(1 << v))

    if any(k > key and allowed(v) for v, k in enumerate(keys)):
        return []
    return [v for v, k in enumerate(keys) if k == key and allowed(v)]


def _expand_parent(parent: Graph, chain: tuple[str, ...]) -> list[Graph]:
    """All accepted children of one parent, deterministically ordered.

    A child is kept when deleting its removal-rule vertex gives back a graph
    isomorphic to the parent, and it is not isomorphic to a sibling already
    kept.  Each surviving child is labelled once; the labelling gives both
    the rule vertex and the child's canonical form.
    """
    connected = "connected" in chain
    claw = "claw-free" in chain
    lo = 1 if connected else 0
    parent_form = canonical_form(parent)
    seen: set[str] = set()
    out: list[Graph] = []
    for mask in range(lo, 1 << parent.n):
        if claw and not _claw_free_extension_ok(parent, mask):
            continue
        child = _attach(parent, mask)
        if "net-free" in chain and find_induced(child, _NET) is not None:
            continue
        if "m-free" in chain and find_induced(child, _M) is not None:
            continue
        candidates = _rule_candidates(child, connected)
        if not candidates:
            continue
        labels = canonical_labeling(child)[1]
        rule = max(candidates, key=labels.__getitem__)
        if rule != parent.n:
            kept = child.vertex_mask & ~(1 << rule)
            if canonical_form(induced(child, kept)) != parent_form:
                continue
        cf = graph6.encode(relabel(child, labels))
        if cf in seen:
            continue
        seen.add(cf)
        out.append(child)
    return out


def _expand_task(args: tuple[str, tuple[str, ...]]) -> list[str]:
    parent_g6, chain = args
    return [graph6.encode(c) for c in _expand_parent(graph6.decode(parent_g6), chain)]


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
    parents: list[Graph],
    chain: tuple[str, ...],
    imap: Callable[..., Iterator[list[str]]],
    done: dict[str, list[str]],
    ck: TextIO | None,
) -> list[Graph]:
    """One augmentation level.  Parents in `done` (read from a checkpoint)
    are not expanded again; with a checkpoint file `ck`, each newly finished
    parent is appended as one line: its graph6, its children's graph6 and
    their count."""
    parent_lines = [graph6.encode(p) for p in parents]
    todo = [line for line in parent_lines if line not in done]
    results: dict[str, list[str]] = dict(done)
    for line, kids in zip(todo, imap(_expand_task, [(line, chain) for line in todo])):
        results[line] = kids
        if ck:
            print(line, *kids, len(kids), file=ck, flush=True)
    merged: list[Graph] = []
    for line in parent_lines:
        merged.extend(graph6.decode(k) for k in results[line])
    return merged


def exhaustive_orders(
    chain: tuple[str, ...],
    n_min: int,
    n_max: int,
    workers: int = 1,
    checkpoint: str | None = None,
) -> Iterator[list[Graph]]:
    """The emitted classes of each order n_min..n_max in turn, from one
    augmentation sweep: every level is built once, however many orders are
    read, and one worker pool serves all levels.  The checkpoint applies to
    the last (most expensive) level only."""
    with ExitStack() as stack:
        imap = stack.enter_context(Pool(workers)).imap if workers > 1 else map
        frontier = [from_edges(1, ())]
        for order in range(1, n_max + 1):
            if order > 1:
                done, ck = {}, None
                if checkpoint is not None and order == n_max:
                    done, ck = _open_checkpoint(checkpoint, n_max, chain)
                    stack.enter_context(ck)
                frontier = _expand_level(frontier, chain, imap, done, ck)
            if order >= n_min:
                yield [g for g in frontier if _emission_ok(g, chain)]


def enumerate_graphs(
    spec: EnumSpec,
    consumer: Callable[[Graph], None],
    workers: int = 1,
    checkpoint: str | None = None,
) -> int:
    """Feed every graph matching spec to consumer; return how many.

    Exhaustive mode emits one representative per isomorphism class in a
    deterministic order.  Sample mode emits seeded random graphs and may
    repeat classes.  The checkpoint only applies to the last (most
    expensive) exhaustive level; sample mode refuses one.
    """
    _validate(spec)
    if isinstance(spec.mode, Sample):
        if checkpoint is not None:
            raise InfeasibleSpec("checkpoint applies to exhaustive mode only")
        return _run_sample(spec, consumer)
    count = 0
    for graphs in exhaustive_orders(spec.predicate_chain, spec.n, spec.n, workers, checkpoint):
        for g in graphs:
            consumer(g)
            count += 1
    return count


def sample_dense_claw_free(n: int, target_m: int, seed: int) -> Graph:
    """Delete uniformly chosen edges from K_n down to target_m, rejecting
    any deletion that creates an induced claw or disconnects the graph.
    Deterministic for a fixed seed.  Raises TargetUnreachable, carrying the
    stuck graph and its edge count, when no deletable edge remains."""
    if not 1 <= n <= MAX_SAMPLE:
        raise InvalidParams(f"sampler needs 1 <= n <= {MAX_SAMPLE}, got {n}")
    if target_m > n * (n - 1) // 2 or target_m < 0:
        raise InvalidParams(f"target_m {target_m} outside 0..C({n},2)")
    rng = np.random.default_rng(seed)
    full = (1 << n) - 1
    rows = [full & ~(1 << v) for v in range(n)]

    def creates_claw(u: int, v: int) -> bool:
        # any new claw uses the fresh non-edge (u, v) as a leaf pair, so it
        # is a common neighbor c of u and v plus a third leaf w outside
        # N[u] | N[v] adjacent to c; on a dense graph few such w exist
        common = rows[u] & rows[v]
        if not common:
            return False
        for w in bits(full & ~(rows[u] | rows[v]) & ~(1 << u | 1 << v)):
            if rows[w] & common:
                return True
        return False

    def still_connected(u: int, v: int) -> bool:
        # the graph was connected with u-v, so it still is iff u reaches v
        nv = rows[v]
        seen = frontier = 1 << u
        while frontier:
            if frontier & nv:
                return True
            reach = 0
            for w in bits(frontier):
                reach |= rows[w]
            frontier = reach & ~seen
            seen |= frontier
        return False

    # the current edges in lexicographic order; a deletion keeps the order,
    # so each draw permutes the same list the graph's edges would give
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = len(edges)
    while m > target_m:
        removed = False
        for idx in rng.permutation(m):
            u, v = edges[idx]
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
            if creates_claw(u, v) or not still_connected(u, v):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                continue
            del edges[idx]
            m -= 1
            removed = True
            break
        if not removed:
            stuck = Graph(n, tuple(rows), m)
            raise TargetUnreachable(
                f"no deletable edge at m={m} (target {target_m})",
                graph=stuck,
                achieved_m=m,
            )
    return Graph(n, tuple(rows), m)


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


def _run_sample(spec: EnumSpec, consumer: Callable[[Graph], None]) -> int:
    mode = spec.mode
    assert isinstance(mode, Sample)
    total = spec.n * (spec.n - 1) // 2
    target_m = round(mode.density * total)
    emitted = 0
    attempts = 0
    limit = 200 * max(mode.count, 1)
    while emitted < mode.count:
        if attempts >= limit:
            raise InfeasibleSpec(
                f"sampler rejected {attempts} candidates before reaching "
                f"count={mode.count}"
            )
        try:
            g = sample_dense_claw_free(spec.n, target_m, mode.seed + attempts)
        except TargetUnreachable as exc:
            g = exc.graph  # denser than asked but valid; still near the regime
        attempts += 1
        if g is None or not _sample_ok(g, spec.predicate_chain):
            continue
        consumer(g)
        emitted += 1
    return emitted


def exhaustive_list(
    n: int,
    predicate_chain: tuple[str, ...] = ("connected", "claw-free"),
    workers: int = 1,
    checkpoint: str | None = None,
) -> list[Graph]:
    out: list[Graph] = []
    enumerate_graphs(
        EnumSpec(n, predicate_chain), out.append, workers=workers, checkpoint=checkpoint
    )
    return out
