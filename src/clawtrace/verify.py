"""Theorem verifiers: sweep a corpus, test hypothesis and conclusion on
each graph, and match conclusion violations against declared exception
families.

A verification run PASSES when every exception is matched; an Unmatched
entry is a potential counterexample and fails the run.  Each numeric
statement is declared once, as a signed margin that is positive on the
statement's side together with its error bound; verify and hunt judge every
graph by the same rule (_verdict), and cmp_tol reaches nothing else.  A
spectral margin also declares a lower bound on itself from degrees alone
(Hofmeister's sqrt(sum of d^2 / n) <= mu(g) above a threshold; the largest
complement degree n - 1 - delta(g) >= mu(complement) below one), and a
bound that clears the slack settles YES without the eigensolver; NO and
borderline verdicts always come from the margin itself.  Each
conclusion is a function of the graph alone; without a margin every graph
satisfies the hypothesis, so LBZ states its block-chain condition in its
conclusion.  For a theorem the margin is its hypothesis: borderline graphs
are listed separately while still being conclusion-checked, so
floating-point slack can hide nothing.  A constructed family sweep claims
its margin instead: a graph whose margin is borderline or fails is listed
as an exception, and a borderline one also as borderline.  A request that
verify or hunt cannot serve raises InfeasibleSpec, as the sources do.

Traceability is decided by an exact cascade, cheapest certificate first:
a degree-pair test (the two smallest degrees sum to n - 1, so the path
closure below is complete at once), the degree-sum path closure of the
graph itself, structural no-certificates, the claw-free closure followed
by the path closure, a rotation-extension path search, and the exact
solver up to order 24.  Both closures preserve traceability exactly, so
every cascade answer is a certificate; a graph the cascade cannot decide
(sampled orders above 24) is reported as Unmatched, which fails the run
rather than silently passing it.
"""
from __future__ import annotations

import math
import time
from contextlib import closing
from dataclasses import dataclass, fields
from itertools import combinations
from typing import Callable, Optional

from . import graph6 as g6
from .canon import MAX_CANONICAL, canonical_form
from .enumeration import MAX_EXHAUSTIVE, _check_sample, _run_sample, exhaustive_orders
from .errors import InfeasibleSpec, InvalidParams, NotClawFree, OrderOutOfRange
from .families import BROUSEK_BASES, FamilySpec, brousek_blown, make
from .graph import (
    Graph,
    bits,
    complement,
    is_block_chain,
    is_complete,
    is_connected,
    is_two_connected,
    separations,
)
from .hamilton import MAX_EXACT, has_hamilton_cycle, has_hamilton_path
from .spectral import (
    DEFAULT_CMP_TOL,
    hofmeister_bound,
    hong_bound,
    spectral_radius,
    triple_split_radius,
)
from .structure import closure, is_claw_free

BOUND_SLACK = 1e-9


# ---------------------------------------------------------------------------
# exact traceability cascade


def _path_closure(g: Graph) -> Graph:
    """Add edges between nonadjacent pairs with degree sum >= n-1 until a
    fixpoint; preserves the existence of a Hamilton path exactly.

    Each pass walks the non-edges only, which are few on a dense graph.
    """
    rows = list(g.adj)
    n = g.n
    full = g.vertex_mask
    # the (n-1)-closure is unique whatever order its edges are added in
    # (Bondy-Chvatal), so walking only the non-edges u < v of each pass,
    # with the degrees kept current, still returns the same graph
    degs = [r.bit_count() for r in rows]
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in bits(full & ~rows[u] >> (u + 1) << (u + 1)):
                if degs[u] + degs[v] >= n - 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    degs[u] += 1
                    degs[v] += 1
                    changed = True
    return Graph(tuple(rows))


def _rotation_path(g: Graph) -> Optional[list[int]]:
    """Deterministic rotation-extension search for a Hamilton path; None
    means gave up, never that no path exists."""
    n = g.n
    start = max(range(n), key=lambda v: (g.degree(v), -v))
    path = [start]
    in_path = 1 << start
    budget = 50 * n * n
    while len(path) < n:
        if budget <= 0:
            return None
        budget -= 1
        end = path[-1]
        ext = g.adj[end] & ~in_path
        if ext:
            v = next(bits(ext))
            path.append(v)
            in_path |= 1 << v
            continue
        rotated = False
        for i in range(len(path) - 2):
            if g.adj[end] >> path[i] & 1 and g.adj[path[i + 1]] & ~in_path:
                path[i + 1 :] = reversed(path[i + 1 :])
                rotated = True
                break
        if not rotated:
            for i in range(len(path) - 2):
                if g.adj[end] >> path[i] & 1:
                    path[i + 1 :] = reversed(path[i + 1 :])
                    rotated = True
                    break
        if not rotated:
            if g.adj[path[0]] & ~in_path:
                path.reverse()
            else:
                return None
    return path


def decide_traceable(g: Graph) -> Optional[bool]:
    """True/False with certainty, or None when undecided.

    The cascade runs in this order: the degree-pair test, the degree-sum
    path closure of g, the structural no-certificates, the claw-free
    closure followed by the path closure, a rotation-extension path search
    in the closed graph, and the exact solver for n <= 24.  Every answer is
    exact: the no-certificates are necessary conditions, and both closures
    preserve traceability, so a closure reaching the complete graph or a
    concrete path found in the closed graph certifies the original.
    """
    # The (n-1)-closure preserves Hamilton paths (Bondy-Chvatal) and is
    # monotone: G a subgraph of H gives cl(G) a subgraph of cl(H).  So when
    # cl(g) is complete, g is traceable, no no-certificate below can fire,
    # and the path closure of any supergraph of g, the claw-free closure
    # included, is complete too: the full cascade would answer True as
    # well, at every order.  Dense samples almost always stop here, most of
    # them before the closure adds an edge: when the two smallest degrees
    # sum to n - 1, so does every nonadjacent pair, and the first pass
    # completes the graph (K1 has no pair and is traceable).
    if g.n < 2 or sum(sorted(g.degrees())[:2]) >= g.n - 1:
        return True
    path_closed = _path_closure(g)
    if is_complete(path_closed):
        return True
    if not is_connected(g):
        return False
    if sum(1 for v in range(g.n) if g.degree(v) == 1) >= 3:
        return False
    # a Hamilton path less one vertex is at most two paths, so no g - v of a
    # traceable g has 3 components (below 3 vertices none can)
    if any(len(comps) >= 3 for comps in separations(g)):
        return False
    # cheap yes-certificates first: the exact solver is exponential in n
    try:
        h = _path_closure(closure(g).closed)
    except NotClawFree:
        h = path_closed
    if is_complete(h):
        return True
    if _rotation_path(h) is not None:
        return True
    if g.n <= MAX_EXACT:
        return has_hamilton_path(g)
    return None


# ---------------------------------------------------------------------------
# exception matching


def match_exception(g: Graph, families: list[FamilySpec]) -> Optional[FamilySpec]:
    """First family whose constructed graph is isomorphic to g; families
    whose construction fails at g's order are skipped.  canonical_form
    raises OrderOutOfRange above its cap of 16."""
    cf = canonical_form(g)
    for spec in families:
        try:
            h = make(spec)
        except (InvalidParams, OrderOutOfRange):
            continue
        if h.n == g.n and canonical_form(h) == cf:
            return spec
    return None


def is_spanning_subgraph_of_pendant_family(g: Graph) -> bool:
    """Same order and isomorphic to a spanning subgraph of the
    clique-with-three-pendant-edges graph: three pairwise nonadjacent
    vertices of degree <= 1 whose neighbors, where present, are distinct
    and outside the triple; everything else may sit inside the clique."""
    if g.n < 6:
        return False
    cand = [v for v in range(g.n) if g.degree(v) <= 1]
    if len(cand) < 3:
        return False
    for trio in combinations(cand, 3):
        tmask = sum(1 << v for v in trio)
        # a row of degree <= 1 is its one neighbour's bit, or 0
        rows = [g.adj[v] for v in trio if g.adj[v]]
        if not any(row & tmask for row in rows) and len(set(rows)) == len(rows):
            return True
    return False


# ---------------------------------------------------------------------------
# registry

YES = "yes"
NO = "no"
BORDER = "borderline"


def _verdict(margin: float, error: Optional[float], cmp_tol: float) -> str:
    """YES, NO or BORDER for a signed hypothesis margin, positive on the
    hypothesis side.  An exact margin (error None) holds when it is >= 0.
    A float margin holds when it exceeds slack = cmp_tol + error, fails when
    it falls short of -slack, and is borderline in between; borderline is a
    real outcome, never folded into the others."""
    if error is None:
        return YES if margin >= 0 else NO
    slack = cmp_tol + error
    if margin > slack:
        return YES
    if margin < -slack:
        return NO
    return BORDER


def _radius_above(threshold: Callable[[int], float]) -> dict:
    """The margin of mu(g) >= threshold(n), with the eigensolver's error
    bound, and a lower bound on it from degrees alone: Hofmeister's
    sqrt(sum of d^2 / n) <= mu(g)."""

    def margin(g: Graph) -> tuple[float, float]:
        est = spectral_radius(g)
        return est.value - threshold(g.n), est.residual

    return {"margin": margin, "bound": lambda g: hofmeister_bound(g) - threshold(g.n)}


def _complement_radius_below(threshold: Callable[[int], float]) -> dict:
    """The margin of mu(complement of g) <= threshold(n), and a lower bound
    on it from degrees alone: no radius exceeds the largest degree, which in
    the complement is n - 1 - delta(g)."""

    def margin(g: Graph) -> tuple[float, float]:
        est = spectral_radius(complement(g))
        return threshold(g.n) - est.value, est.residual

    return {"margin": margin, "bound": lambda g: threshold(g.n) - (g.n - 1 - g.min_degree())}


def _complement_threshold(n: int) -> float:
    """mu(complement of N_{n-3,3}), the MainComplement threshold at order n.

    The partition {pendants, their attachment vertices, the rest of the
    clique} is equitable in that complement, with quotient matrix
    [[2, 2, n-6], [2, 0, 0], [3, 0, 0]] (Godsil and Royle, Algebraic Graph
    Theory, ch. 9).  Its largest eigenvalue is the radius, the largest root
    of x^2 - 2x - (3n - 14).
    """
    return 1 + math.sqrt(3 * n - 13)


def _degree_sum_nonadjacent_max(g: Graph) -> Optional[int]:
    degs = g.degrees()
    return max(
        (degs[u] + degs[v] for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)),
        default=None,
    )


def _bounds_hold(g: Graph) -> bool:
    mu = spectral_radius(g).value
    hi = hong_bound(g)
    if mu > hi + BOUND_SLACK:
        return False
    extremal = is_complete(g) or _is_star(g)
    return (abs(mu - hi) < BOUND_SLACK) == extremal


def _is_star(g: Graph) -> bool:
    if g.n < 2 or g.m != g.n - 1:
        return False
    degs = sorted(g.degrees())
    return degs[-1] == g.n - 1 and all(d == 1 for d in degs[:-1])


def _hofmeister_holds(g: Graph) -> bool:
    return hofmeister_bound(g) <= spectral_radius(g).value + BOUND_SLACK


def _traceable_conclusion(g: Graph) -> Optional[bool]:
    # calls through the module global, so a wrapper set on the module
    # attribute (perfbench's tracer) sees every call
    return decide_traceable(g)


def _family_sweep_blown(n: int) -> list[Graph]:
    return [brousek_blown(*spec.params, n) for spec in BROUSEK_BASES]


def _blown_properties_hold(g: Graph) -> bool:
    return is_two_connected(g) and is_claw_free(g) and not has_hamilton_cycle(g)


def _no_families(_n: int) -> list[FamilySpec]:
    return []


@dataclass(frozen=True)
class TheoremSpec:
    id: str
    chain: tuple[str, ...]
    floor_n: int
    conclusion: Callable[[Graph], Optional[bool]] = _traceable_conclusion
    # the numeric hypothesis, or a family sweep's claim: (signed margin,
    # positive on the statement's side; its error bound, None when the
    # margin is an exact integer); without one, every graph of the corpus
    # satisfies the hypothesis
    margin: Callable[[Graph], tuple[float, Optional[float]]] | None = None
    # a lower bound on a float margin that needs no eigensolver; when it
    # clears the slack, the verdict is YES without the margin itself
    bound: Callable[[Graph], float] | None = None
    exception_families: Callable[[int], list[FamilySpec]] = _no_families
    exception_rule: str = "isomorphic"  # or "pendant-spanning-subgraph"
    # the graphs of a constructed family sweep at order n; such a sweep
    # claims its margin, so only a YES verdict goes on to the conclusion
    family_sweep: Callable[[int], list[Graph]] | None = None
    # the largest order at which the conclusion is decided; None for all
    max_n: int | None = None


def _judge(spec: TheoremSpec, g: Graph, cmp_tol: float) -> tuple[str, Optional[float]]:
    """The hypothesis verdict on g and its margin (None without a margin,
    and for a YES settled by the spec's bound).

    A bound above cmp_tol + BOUND_SLACK settles YES: BOUND_SLACK dwarfs the
    eigensolver's error EPS * mu (about 1.4e-14 at n = 64), so the margin
    would clear the slack of _verdict too.  NO and borderline verdicts
    always come from the margin itself.
    """
    if spec.margin is None:
        return YES, None
    if spec.bound is not None and spec.bound(g) > cmp_tol + BOUND_SLACK:
        return YES, None
    margin, error = spec.margin(g)
    return _verdict(margin, error, cmp_tol), margin


def _nn33_family(n: int) -> list[FamilySpec]:
    return [FamilySpec("Nn33", (n,))]


def _edge_lemma_families(n: int) -> list[FamilySpec]:
    return [FamilySpec("Nn33", (n,)), FamilySpec("GraphL")]


def _cpi_family(n: int) -> list[FamilySpec]:
    return [FamilySpec("CompletePlusIsolated", (n,))]


def _ning_ge_family(n: int) -> list[FamilySpec]:
    return [FamilySpec("NingGe", (n,))]


def _brousek_families(_n: int) -> list[FamilySpec]:
    return list(BROUSEK_BASES)


REGISTRY: dict[str, TheoremSpec] = {}


def _register(spec: TheoremSpec) -> None:
    REGISTRY[spec.id] = spec


_register(
    TheoremSpec(
        id="FiedlerNikiforov1",
        **_radius_above(lambda n: n - 2),
        chain=(),
        floor_n=2,
        exception_families=_cpi_family,
    )
)
_register(
    TheoremSpec(
        id="FiedlerNikiforov2",
        **_complement_radius_below(lambda n: math.sqrt(n - 1)),
        chain=(),
        floor_n=2,
        exception_families=_cpi_family,
    )
)
_register(
    TheoremSpec(
        id="LuLiuTian",
        **_radius_above(lambda n: math.sqrt((n - 3) ** 2 + 3)),
        chain=("connected",),
        floor_n=7,
    )
)
_register(
    TheoremSpec(
        id="NingGe",
        **_radius_above(lambda n: n - 3),
        chain=("connected",),
        floor_n=7,
        exception_families=_ning_ge_family,
    )
)
_register(
    TheoremSpec(
        id="MainMuG",
        **_radius_above(lambda n: n - 4),
        chain=("connected", "claw-free"),
        floor_n=2,
        exception_families=_nn33_family,
    )
)
_register(
    TheoremSpec(
        id="MainComplement",
        **_complement_radius_below(_complement_threshold),
        chain=("connected", "claw-free"),
        floor_n=24,
        exception_families=_nn33_family,
    )
)
_register(
    TheoremSpec(
        id="DGJ",
        chain=("connected", "claw-free", "net-free"),
        floor_n=1,
    )
)
_register(
    TheoremSpec(
        id="LBZ",
        chain=("connected", "claw-free", "m-free"),
        floor_n=1,
        # block-chains are traceable
        conclusion=lambda g: not is_block_chain(g) or _traceable_conclusion(g),
    )
)
_register(
    TheoremSpec(
        id="DegreeSumLemma",
        # a complete graph has no nonadjacent pair and fails the hypothesis
        margin=lambda g: (float((_degree_sum_nonadjacent_max(g) or -1) - (g.n - 1)), None),
        chain=("connected", "claw-free", "closed"),
        floor_n=1,
    )
)
_register(
    TheoremSpec(
        id="EdgeLemma",
        margin=lambda g: (float(g.m - math.comb(g.n - 3, 2) - 2), None),
        chain=("connected", "claw-free"),
        floor_n=6,
        exception_families=_edge_lemma_families,
    )
)
_register(
    TheoremSpec(
        id="EdgeLemmaPrime",
        # m >= C(n, 2) - t(n)^2 with t(n) the irrational triple-split radius
        margin=lambda g: (g.m - math.comb(g.n, 2) + triple_split_radius(g.n) ** 2, 0.0),
        chain=("connected", "claw-free"),
        floor_n=24,
        exception_families=_nn33_family,
        exception_rule="pendant-spanning-subgraph",
    )
)
_register(
    TheoremSpec(
        id="Hong",
        chain=("connected",),
        floor_n=1,
        conclusion=_bounds_hold,
    )
)
_register(
    TheoremSpec(
        id="Hofmeister",
        chain=(),
        floor_n=1,
        conclusion=_hofmeister_holds,
    )
)
_register(
    TheoremSpec(
        id="BrousekOrder9",
        chain=("connected", "claw-free", "two-connected"),
        floor_n=3,
        conclusion=has_hamilton_cycle,
        exception_families=_brousek_families,
        max_n=MAX_EXACT,
    )
)
_register(
    TheoremSpec(
        id="HamiltonianFamily",
        # the claim mu > n - 7 of each blown-up Brousek graph
        **_radius_above(lambda n: n - 7),
        chain=(),
        floor_n=9,
        conclusion=_blown_properties_hold,
        family_sweep=_family_sweep_blown,
        max_n=MAX_EXACT,
    )
)
_register(
    TheoremSpec(
        id="Dirac",
        margin=lambda g: (float(2 * g.min_degree() - (g.n - 1)), None),
        chain=(),
        floor_n=1,
    )
)
_register(
    TheoremSpec(
        id="MatthewsSumner",
        margin=lambda g: (float(3 * g.min_degree() - (g.n - 2)), None),
        chain=("connected", "claw-free"),
        floor_n=1,
    )
)

THEOREM_IDS = tuple(REGISTRY)


# ---------------------------------------------------------------------------
# report and driver


def _listed(value):
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


class _Report:
    def to_dict(self) -> dict:
        """The fields in declaration order, tuples as lists."""
        return {f.name: _listed(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class VerificationReport(_Report):
    theorem: str
    n_range: tuple[int, int]
    mode: str  # "Exhaustive" or "Sampled"
    checked: int
    exceptions: tuple[tuple[str, str], ...]  # (graph6, family label or Unmatched)
    borderline: tuple[str, ...]
    elapsed_ms: int
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return all(label != "Unmatched" for _, label in self.exceptions)


def _exception_label(g: Graph, spec: TheoremSpec) -> str:
    """Label of the declared exception family that accounts for g, a graph
    whose conclusion failed or is undecided; Unmatched when none does."""
    if spec.exception_rule == "pendant-spanning-subgraph":
        if is_spanning_subgraph_of_pendant_family(g):
            return "SpanningSubgraphOfPendantFamily"
    elif g.n <= MAX_CANONICAL:
        fam = match_exception(g, spec.exception_families(g.n))
        if fam is not None:
            return fam.label()
    else:
        # above the canonical range only N_{n-3,3} has an exact test, and
        # only a theorem that declares it may match it
        pendant = FamilySpec("Nn33", (g.n,))
        if pendant in spec.exception_families(g.n) and _is_pendant_family(g):
            return pendant.label()
    return "Unmatched"


def _render(g: Graph) -> str:
    if g.n <= MAX_CANONICAL:
        return canonical_form(g)
    return g6.encode(g)


def _checked_spec(
    theorem: str, n_min: int, n_max: int, cmp_tol: float, sampled: bool
) -> TheoremSpec:
    """The registry entry of a verify or hunt run over n_min..n_max whose
    arguments are in range; a sampled run cannot take a family sweep."""
    if theorem not in REGISTRY:
        raise InfeasibleSpec(f"unknown theorem id {theorem!r}")
    spec = REGISTRY[theorem]
    if n_min < spec.floor_n:
        raise InfeasibleSpec(f"{theorem} applies from n = {spec.floor_n}, got {n_min}")
    if not (math.isfinite(cmp_tol) and cmp_tol >= 0):
        raise InfeasibleSpec(f"cmp_tol must be finite and >= 0, got {cmp_tol}")
    if n_min > n_max:
        raise InfeasibleSpec(f"empty range {n_min}..{n_max}")
    if sampled and spec.family_sweep is not None:
        raise InfeasibleSpec(f"{theorem} sweeps a constructed family only")
    return spec


def _split_count(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def verify(
    theorem: str,
    n_min: int,
    n_max: int,
    mode: str = "exhaustive",
    count: int | None = None,
    seed: int | None = None,
    density: float = 0.9,
    workers: int = 1,
    cmp_tol: float = DEFAULT_CMP_TOL,
) -> VerificationReport:
    """Run one theorem verifier over [n_min, n_max].

    Exhaustive mode sweeps every isomorphism class of the theorem's corpus
    with `workers` processes; sample mode draws `count` seeded dense graphs
    split evenly across the orders (per-order seed is seed + n) in this
    process.  A draw that gets stuck above the requested density, with no
    edge left whose deletion keeps the graph connected and claw-free, is
    checked at the density it reached.  Counterexamples never raise; they
    land in the report as Unmatched exceptions.  cmp_tol (finite, >= 0) is
    the threshold comparison slack, to which each comparison adds the
    margin's own error bound; a graph whose margin lies within that slack is
    listed as borderline and still checked.  A sampled request is checked
    whole, every order and the total count, before its first draw, and a
    request past the order up to which the theorem's conclusion is decided
    is refused before its first graph.
    """
    sampling = mode == "sample"
    spec = _checked_spec(theorem, n_min, n_max, cmp_tol, sampling)
    if mode not in ("exhaustive", "sample"):
        raise InfeasibleSpec(f"unknown mode {mode!r}")
    if spec.floor_n > MAX_EXHAUSTIVE and not sampling:
        raise InfeasibleSpec(f"{theorem} is only checkable in sample mode")
    if sampling:
        # the whole request, before the split names a per-order share; its
        # smallest seed is the first order's
        _check_sample(n_max, spec.chain, count, None if seed is None else seed + n_min, density)
    claimed = spec.family_sweep is not None
    # an exhaustive corpus sweep refuses an order past MAX_EXHAUSTIVE, which
    # lies below every cap, at its first step with its own message
    if (sampling or claimed) and spec.max_n is not None and n_max > spec.max_n:
        raise InfeasibleSpec(
            f"{theorem} decides its conclusion for n <= {spec.max_n} only, got {n_max}"
        )

    t0 = time.perf_counter()
    checked = 0
    exceptions: list[tuple[str, str]] = []
    borderline: list[str] = []
    orders = range(n_min, n_max + 1)

    def consume(g: Graph) -> None:
        nonlocal checked
        checked += 1
        verdict, _ = _judge(spec, g, cmp_tol)
        if verdict == BORDER:
            borderline.append(_render(g))
        if verdict == NO and not claimed:
            return
        # a claimed margin that does not hold is an exception by itself;
        # otherwise a violated or undecided conclusion is one
        if (claimed and verdict != YES) or spec.conclusion(g) is not True:
            exceptions.append((_render(g), _exception_label(g, spec)))

    if claimed:
        for n in orders:
            for g in spec.family_sweep(n):
                consume(g)
    elif sampling:
        for n, share in zip(orders, _split_count(count, len(orders))):
            _run_sample(n, spec.chain, share, seed + n, density, consume)
    else:
        with closing(exhaustive_orders(spec.chain, n_min, n_max, workers)) as sweep:
            for graphs in sweep:
                for g in graphs:
                    consume(g)

    exceptions.sort()
    borderline.sort()
    return VerificationReport(
        theorem=theorem,
        n_range=(n_min, n_max),
        mode="Sampled" if sampling else "Exhaustive",
        checked=checked,
        exceptions=tuple(exceptions),
        borderline=tuple(borderline),
        elapsed_ms=int(round((time.perf_counter() - t0) * 1000)),
        seed=seed if sampling else None,
    )


@dataclass(frozen=True)
class HuntReport(_Report):
    theorem: str
    n: int
    checked: int
    counterexamples: tuple[tuple[str, str], ...]  # (graph6, label)
    near_misses: tuple[tuple[str, float], ...]  # (graph6, hypothesis margin)
    elapsed_ms: int
    seed: int

    @property
    def passed(self) -> bool:
        return not any(label == "Unmatched" for _, label in self.counterexamples)


def hunt(
    theorem: str,
    n: int,
    seed: int,
    count: int,
    density: float = 0.9,
    top: int = 10,
    cmp_tol: float = DEFAULT_CMP_TOL,
) -> HuntReport:
    """Sampled counterexample search at one order.

    Samples the theorem's corpus, flags hypothesis-satisfying graphs whose
    conclusion fails and that match no declared exception, and ranks
    conclusion-violating graphs that just miss the hypothesis by how close
    their margin comes to the threshold, keeping the `top` closest."""
    spec = _checked_spec(theorem, n, n, cmp_tol, sampled=True)
    if top < 0:
        raise InfeasibleSpec(f"top must be >= 0, got {top}")
    if spec.margin is None:
        raise InfeasibleSpec(f"{theorem} has no numeric hypothesis to hunt against")
    t0 = time.perf_counter()
    checked = 0
    counterexamples: set[tuple[str, str]] = set()
    # graph6 -> its largest margin: isomorphic relabelings can differ in the
    # last ulp
    misses: dict[str, float] = {}

    def consume(g: Graph) -> None:
        nonlocal checked
        checked += 1
        verdict, margin = _judge(spec, g, cmp_tol)
        concl = spec.conclusion(g)
        if concl is True:
            return
        if verdict == NO:
            if concl is False:
                s = _render(g)
                misses[s] = max(margin, misses.get(s, margin))
            return
        counterexamples.add((_render(g), _exception_label(g, spec)))

    _run_sample(n, spec.chain, count, seed, density, consume)
    ranked = sorted(misses.items(), key=lambda t: (-t[1], t[0]))
    return HuntReport(
        theorem=theorem,
        n=n,
        checked=checked,
        counterexamples=tuple(sorted(counterexamples)),
        near_misses=tuple(ranked[:top]),
        elapsed_ms=int(round((time.perf_counter() - t0) * 1000)),
        seed=seed,
    )


def _is_pendant_family(g: Graph) -> bool:
    """Exact structural test for the clique-with-three-pendant-edges graph
    at any order (used where canonical matching is out of range): a
    spanning subgraph of N_{n-3,3} with all of its edges is the graph
    itself."""
    return is_spanning_subgraph_of_pendant_family(g) and g.m == math.comb(g.n - 3, 2) + 3
