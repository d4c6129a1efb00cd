"""Theorem verifiers: sweep a corpus, test hypothesis and conclusion on
each graph, and match conclusion violations against declared exception
families.

A verification run PASSES when every exception is matched; an Unmatched
entry is a potential counterexample and fails the run.  Spectral hypotheses
go through compare_threshold, and Borderline graphs are listed separately
while still being conclusion-checked, so floating-point slack can hide
nothing.

Traceability is decided by an exact cascade, cheapest certificate first:
the degree-sum path closure of the graph itself, structural
no-certificates, the claw-free closure followed by the path closure, a
rotation-extension path search, and the exact solver up to order 24.  Both
closures preserve traceability exactly, so every cascade answer is a
certificate; a graph the cascade cannot decide (sampled orders above 24)
is reported as Unmatched, which fails the run rather than silently passing
it.
"""
from __future__ import annotations

import math
import time
from contextlib import closing
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from . import graph6 as g6
from .canon import MAX_CANONICAL, canonical_form
from .enumeration import (
    MAX_EXHAUSTIVE,
    EnumSpec,
    Sample,
    enumerate_graphs,
    exhaustive_orders,
)
from .errors import (
    InfeasibleRange,
    InvalidParams,
    NotClawFree,
    OrderOutOfRange,
    OrderTooLargeForCanonical,
)
from .families import BROUSEK_BASES, FamilySpec, brousek_blown, make, nn33
from .graph import (
    Graph,
    bits,
    complement,
    is_block_chain,
    is_complete,
    is_connected,
    is_two_connected,
    mask_components,
    popcount,
)
from .hamilton import MAX_EXACT, has_hamilton_cycle, has_hamilton_path
from .spectral import (
    DEFAULT_CMP_TOL,
    SpectralEstimate,
    ThresholdVerdict,
    compare_threshold,
    hofmeister_bound,
    hong_bound,
    spectral_radius,
    triple_split_radius,
)
from .structure import closure, is_claw_free

THEOREM_IDS = (
    "FiedlerNikiforov1",
    "FiedlerNikiforov2",
    "LuLiuTian",
    "NingGe",
    "MainMuG",
    "MainComplement",
    "DGJ",
    "LBZ",
    "DegreeSumLemma",
    "EdgeLemma",
    "EdgeLemmaPrime",
    "Hong",
    "Hofmeister",
    "BrousekOrder9",
    "HamiltonianFamily",
    "Dirac",
    "MatthewsSumner",
)

BOUND_SLACK = 1e-9


# ---------------------------------------------------------------------------
# exact traceability cascade


def _has_heavy_cut_vertex(g: Graph) -> bool:
    # removing one vertex of a traceable graph leaves at most 2 components
    for v in range(g.n):
        rest = g.vertex_mask & ~(1 << v)
        if len(mask_components(g, rest)) >= 3:
            return True
    return False


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
    degs = [popcount(r) for r in rows]
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
    return Graph(n, tuple(rows), sum(popcount(r) for r in rows) // 2)


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

    The cascade runs in this order: the degree-sum path closure of g, the
    structural no-certificates, the claw-free closure followed by the path
    closure, a rotation-extension path search in the closed graph, and the
    exact solver for n <= 24.  Every answer is exact: the no-certificates
    are necessary conditions, and both closures preserve traceability, so
    a closure reaching the complete graph or a concrete path found in the
    closed graph certifies the original.
    """
    # The (n-1)-closure preserves Hamilton paths (Bondy-Chvatal) and is
    # monotone: G a subgraph of H gives cl(G) a subgraph of cl(H).  So when
    # cl(g) is complete, g is traceable, no no-certificate below can fire,
    # and the path closure of any supergraph of g, the claw-free closure
    # included, is complete too: the full cascade would answer True as
    # well, at every order.  Dense samples almost always stop here.
    path_closed = _path_closure(g)
    if is_complete(path_closed):
        return True
    if not is_connected(g):
        return False
    if sum(1 for v in range(g.n) if g.degree(v) == 1) >= 3:
        return False
    if g.n >= 3 and _has_heavy_cut_vertex(g):
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
    whose construction fails at g's order are skipped."""
    if g.n > MAX_CANONICAL:
        raise OrderTooLargeForCanonical(
            f"isomorphism matching capped at n <= {MAX_CANONICAL}, got {g.n}"
        )
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
        tmask = 0
        for v in trio:
            tmask |= 1 << v
        nbrs: set[int] = set()
        ok = True
        for v in trio:
            row = g.adj[v]
            if row & tmask:
                ok = False
                break
            if row:
                w = next(bits(row))
                if w in nbrs:
                    ok = False
                    break
                nbrs.add(w)
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# registry

YES = "yes"
NO = "no"
BORDER = "borderline"


def _geq(est: SpectralEstimate, threshold: float, cmp_tol: float) -> str:
    v = compare_threshold(est, threshold, cmp_tol)
    if v == ThresholdVerdict.ABOVE:
        return YES
    if v == ThresholdVerdict.BORDERLINE:
        return BORDER
    return NO


def _leq(est: SpectralEstimate, threshold: float, cmp_tol: float) -> str:
    v = compare_threshold(est, threshold, cmp_tol)
    if v == ThresholdVerdict.BELOW:
        return YES
    if v == ThresholdVerdict.BORDERLINE:
        return BORDER
    return NO


def _exact(cond: bool) -> str:
    return YES if cond else NO


def _degree_sum_nonadjacent_max(g: Graph) -> Optional[int]:
    best = None
    degs = g.degrees()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                s = degs[u] + degs[v]
                if best is None or s > best:
                    best = s
    return best


def _bounds_hold(g: Graph, ctx) -> bool:
    mu = ctx.mu(g).value
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


def _hofmeister_holds(g: Graph, ctx) -> bool:
    return hofmeister_bound(g) <= ctx.mu(g).value + BOUND_SLACK


def _traceable_conclusion(g: Graph, _ctx) -> Optional[bool]:
    return decide_traceable(g)


def _family_sweep_blown(n: int) -> list[Graph]:
    return [brousek_blown(*spec.params, n) for spec in BROUSEK_BASES]


def _blown_properties_hold(g: Graph, ctx) -> bool:
    if not is_two_connected(g) or not is_claw_free(g):
        return False
    if has_hamilton_cycle(g):
        return False
    verdict = _geq(ctx.mu(g), g.n - 7, ctx.cmp_tol)
    if verdict == BORDER:
        ctx.borderline_hook(g)
        return False
    return verdict == YES


@dataclass(frozen=True)
class TheoremSpec:
    id: str
    chain: tuple[str, ...] | None  # None means a constructed family sweep
    floor_n: int
    hypothesis: Callable[[Graph, "_Context"], str]
    conclusion: Callable[[Graph, "_Context"], Optional[bool]]
    exception_families: Callable[[int], list[FamilySpec]]
    exception_rule: str = "isomorphic"  # or "pendant-spanning-subgraph"
    sampled_only: bool = False
    family_sweep: Callable[[int], list[Graph]] | None = None
    # signed hypothesis slack, positive on the hypothesis side; None when
    # the hypothesis has no numeric threshold to rank near misses by
    margin: Callable[[Graph, "_Context"], float] | None = None


class _Context:
    def __init__(self, n: int, cmp_tol: float, borderline_hook):
        self.n = n
        self.cmp_tol = cmp_tol
        self.borderline_hook = borderline_hook
        self._complement_threshold: float | None = None

    def mu(self, g: Graph) -> SpectralEstimate:
        return spectral_radius(g)

    def complement_threshold(self) -> float:
        # largest complement eigenvalue of the pendant family at this order
        if self._complement_threshold is None:
            self._complement_threshold = self.mu(complement(nn33(self.n))).value
        return self._complement_threshold


def _no_families(_n: int) -> list[FamilySpec]:
    return []


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
        margin=lambda g, c: c.mu(g).value - (g.n - 2),
        chain=(),
        floor_n=2,
        hypothesis=lambda g, c: _geq(c.mu(g), g.n - 2, c.cmp_tol),
        conclusion=_traceable_conclusion,
        exception_families=_cpi_family,
    )
)
_register(
    TheoremSpec(
        id="FiedlerNikiforov2",
        margin=lambda g, c: math.sqrt(g.n - 1) - c.mu(complement(g)).value,
        chain=(),
        floor_n=2,
        hypothesis=lambda g, c: _leq(
            c.mu(complement(g)), math.sqrt(g.n - 1), c.cmp_tol
        ),
        conclusion=_traceable_conclusion,
        exception_families=_cpi_family,
    )
)
_register(
    TheoremSpec(
        id="LuLiuTian",
        margin=lambda g, c: c.mu(g).value - math.sqrt((g.n - 3) ** 2 + 3),
        chain=("connected",),
        floor_n=7,
        hypothesis=lambda g, c: _geq(c.mu(g), math.sqrt((g.n - 3) ** 2 + 3), c.cmp_tol),
        conclusion=_traceable_conclusion,
        exception_families=_no_families,
    )
)
_register(
    TheoremSpec(
        id="NingGe",
        margin=lambda g, c: c.mu(g).value - (g.n - 3),
        chain=("connected",),
        floor_n=7,
        hypothesis=lambda g, c: _geq(c.mu(g), g.n - 3, c.cmp_tol),
        conclusion=_traceable_conclusion,
        exception_families=_ning_ge_family,
    )
)
_register(
    TheoremSpec(
        id="MainMuG",
        margin=lambda g, c: c.mu(g).value - (g.n - 4),
        chain=("connected", "claw-free"),
        floor_n=2,
        hypothesis=lambda g, c: _geq(c.mu(g), g.n - 4, c.cmp_tol),
        conclusion=_traceable_conclusion,
        exception_families=_nn33_family,
    )
)
_register(
    TheoremSpec(
        id="MainComplement",
        margin=lambda g, c: c.complement_threshold() - c.mu(complement(g)).value,
        chain=("connected", "claw-free"),
        floor_n=24,
        sampled_only=True,
        hypothesis=lambda g, c: _leq(
            c.mu(complement(g)), c.complement_threshold(), c.cmp_tol
        ),
        conclusion=_traceable_conclusion,
        exception_families=_nn33_family,
    )
)
_register(
    TheoremSpec(
        id="DGJ",
        chain=("connected", "claw-free", "net-free"),
        floor_n=1,
        hypothesis=lambda g, c: YES,
        conclusion=_traceable_conclusion,
        exception_families=_no_families,
    )
)
_register(
    TheoremSpec(
        id="LBZ",
        chain=("connected", "claw-free", "m-free"),
        floor_n=1,
        hypothesis=lambda g, c: _exact(is_block_chain(g)),
        conclusion=_traceable_conclusion,
        exception_families=_no_families,
    )
)
_register(
    TheoremSpec(
        id="DegreeSumLemma",
        margin=lambda g, c: float((_degree_sum_nonadjacent_max(g) or 0) - (g.n - 1)),
        chain=("connected", "claw-free", "closed"),
        floor_n=1,
        hypothesis=lambda g, c: _exact(
            (_degree_sum_nonadjacent_max(g) or -1) >= g.n - 1
        ),
        conclusion=_traceable_conclusion,
        exception_families=_no_families,
    )
)
_register(
    TheoremSpec(
        id="EdgeLemma",
        margin=lambda g, c: float(g.m - math.comb(g.n - 3, 2) - 2),
        chain=("connected", "claw-free"),
        floor_n=6,
        hypothesis=lambda g, c: _exact(g.m >= math.comb(g.n - 3, 2) + 2),
        conclusion=_traceable_conclusion,
        exception_families=_edge_lemma_families,
    )
)
_register(
    TheoremSpec(
        id="EdgeLemmaPrime",
        margin=lambda g, c: g.m - math.comb(g.n, 2) + triple_split_radius(g.n) ** 2,
        chain=("connected", "claw-free"),
        floor_n=24,
        sampled_only=True,
        hypothesis=lambda g, c: _geq(
            SpectralEstimate(float(g.m), 0, True, 0.0),
            math.comb(g.n, 2) - triple_split_radius(g.n) ** 2,
            c.cmp_tol,
        ),
        conclusion=_traceable_conclusion,
        exception_families=_nn33_family,
        exception_rule="pendant-spanning-subgraph",
    )
)
_register(
    TheoremSpec(
        id="Hong",
        chain=("connected",),
        floor_n=1,
        hypothesis=lambda g, c: YES,
        conclusion=_bounds_hold,
        exception_families=_no_families,
    )
)
_register(
    TheoremSpec(
        id="Hofmeister",
        chain=(),
        floor_n=1,
        hypothesis=lambda g, c: YES,
        conclusion=_hofmeister_holds,
        exception_families=_no_families,
    )
)
_register(
    TheoremSpec(
        id="BrousekOrder9",
        chain=("connected", "claw-free", "two-connected"),
        floor_n=3,
        hypothesis=lambda g, c: YES,
        conclusion=lambda g, c: has_hamilton_cycle(g),
        exception_families=_brousek_families,
    )
)
_register(
    TheoremSpec(
        id="HamiltonianFamily",
        chain=None,
        floor_n=9,
        hypothesis=lambda g, c: YES,
        conclusion=_blown_properties_hold,
        exception_families=_no_families,
        family_sweep=_family_sweep_blown,
    )
)
_register(
    TheoremSpec(
        id="Dirac",
        margin=lambda g, c: float(2 * g.min_degree() - (g.n - 1)),
        chain=(),
        floor_n=1,
        hypothesis=lambda g, c: _exact(2 * g.min_degree() >= g.n - 1),
        conclusion=_traceable_conclusion,
        exception_families=_no_families,
    )
)
_register(
    TheoremSpec(
        id="MatthewsSumner",
        margin=lambda g, c: float(3 * g.min_degree() - (g.n - 2)),
        chain=("connected", "claw-free"),
        floor_n=1,
        hypothesis=lambda g, c: _exact(3 * g.min_degree() >= g.n - 2),
        conclusion=_traceable_conclusion,
        exception_families=_no_families,
    )
)

assert tuple(REGISTRY) == THEOREM_IDS


# ---------------------------------------------------------------------------
# report and driver


@dataclass(frozen=True)
class VerificationReport:
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

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n_range": list(self.n_range),
            "mode": self.mode,
            "checked": self.checked,
            "exceptions": [list(e) for e in self.exceptions],
            "borderline": list(self.borderline),
            "elapsed_ms": self.elapsed_ms,
            "seed": self.seed,
        }


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
    elif _is_pendant_family(g):
        return FamilySpec("Nn33", (g.n,)).label()
    return "Unmatched"


def _render(g: Graph) -> str:
    if g.n <= MAX_CANONICAL:
        return canonical_form(g)
    return g6.encode(g)


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

    Exhaustive mode sweeps every isomorphism class of the theorem's corpus;
    sample mode draws `count` seeded dense graphs split evenly across the
    orders (per-order seed is seed + n).  Counterexamples never raise; they
    land in the report as Unmatched exceptions.  cmp_tol is the threshold
    comparison slack, to which each comparison adds the estimate's own error
    bound; a graph whose margin lies within that slack is listed as
    borderline and still checked.
    """
    if theorem not in REGISTRY:
        raise InfeasibleRange(f"unknown theorem id {theorem!r}")
    spec = REGISTRY[theorem]
    if n_min > n_max:
        raise InfeasibleRange(f"empty range {n_min}..{n_max}")
    if n_min < spec.floor_n:
        raise InfeasibleRange(
            f"{theorem} applies from n = {spec.floor_n}, got n_min = {n_min}"
        )
    sampling = mode == "sample"
    if mode not in ("exhaustive", "sample"):
        raise InfeasibleRange(f"unknown mode {mode!r}")
    if spec.sampled_only and not sampling:
        raise InfeasibleRange(f"{theorem} is only checkable in sample mode")
    if sampling:
        if spec.family_sweep is not None:
            raise InfeasibleRange(f"{theorem} sweeps a constructed family only")
        if count is None or seed is None:
            raise InfeasibleRange("sample mode needs --count and --seed")
    elif spec.family_sweep is None and n_max > MAX_EXHAUSTIVE:
        raise InfeasibleRange(
            f"exhaustive mode capped at n <= {MAX_EXHAUSTIVE}, got n_max = {n_max}"
        )

    t0 = time.perf_counter()
    checked = 0
    exceptions: list[tuple[str, str]] = []
    borderline: list[str] = []
    orders = list(range(n_min, n_max + 1))
    per_order = _split_count(count, len(orders)) if sampling else None
    # created unstarted: only the exhaustive branch ever advances it
    sweep = exhaustive_orders(spec.chain, n_min, n_max, workers)
    with closing(sweep):
        for idx, n in enumerate(orders):
            ctx = _Context(n, cmp_tol, lambda g: borderline.append(_render(g)))

            def consume(g: Graph, ctx=ctx) -> None:
                nonlocal checked
                checked += 1
                verdict = spec.hypothesis(g, ctx)
                if verdict == BORDER:
                    borderline.append(_render(g))
                if verdict == NO:
                    return
                if spec.conclusion(g, ctx) is not True:
                    # violated or undecided: match against the declared exceptions
                    exceptions.append((_render(g), _exception_label(g, spec)))

            if spec.family_sweep is not None:
                for g in spec.family_sweep(n):
                    consume(g)
            elif sampling:
                enum_spec = EnumSpec(
                    n, spec.chain, Sample(per_order[idx], seed + n, density)
                )
                enumerate_graphs(enum_spec, consume, workers=workers)
            else:
                for g in next(sweep):
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
class HuntReport:
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

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n": self.n,
            "checked": self.checked,
            "counterexamples": [list(e) for e in self.counterexamples],
            "near_misses": [[s, m] for s, m in self.near_misses],
            "elapsed_ms": self.elapsed_ms,
            "seed": self.seed,
        }


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
    their margin comes to the threshold."""
    if theorem not in REGISTRY:
        raise InfeasibleRange(f"unknown theorem id {theorem!r}")
    spec = REGISTRY[theorem]
    if spec.margin is None:
        raise InfeasibleRange(f"{theorem} has no numeric hypothesis to hunt against")
    if n < spec.floor_n:
        raise InfeasibleRange(f"{theorem} applies from n = {spec.floor_n}, got {n}")
    t0 = time.perf_counter()
    ctx = _Context(n, cmp_tol, lambda g: None)
    checked = 0
    counterexamples: list[tuple[str, str]] = []
    misses: list[tuple[float, str]] = []

    def consume(g: Graph) -> None:
        nonlocal checked
        checked += 1
        verdict = spec.hypothesis(g, ctx)
        concl = spec.conclusion(g, ctx)
        if concl is True:
            return
        if verdict == NO:
            if concl is False:
                misses.append((spec.margin(g, ctx), _render(g)))
            return
        counterexamples.append((_render(g), _exception_label(g, spec)))

    enumerate_graphs(EnumSpec(n, spec.chain, Sample(count, seed, density)), consume)
    counterexamples = sorted(set(counterexamples))
    # isomorphic relabelings can differ in the last ulp; dedup by graph only
    by_graph: dict[str, float] = {}
    for m, s in misses:
        if s not in by_graph or m > by_graph[s]:
            by_graph[s] = m
    misses = sorted(((m, s) for s, m in by_graph.items()), key=lambda t: (-t[0], t[1]))
    return HuntReport(
        theorem=theorem,
        n=n,
        checked=checked,
        counterexamples=tuple(counterexamples),
        near_misses=tuple((s, m) for m, s in misses[:top]),
        elapsed_ms=int(round((time.perf_counter() - t0) * 1000)),
        seed=seed,
    )


def _is_pendant_family(g: Graph) -> bool:
    """Exact structural test for the clique-with-three-pendant-edges graph
    at any order (used where canonical matching is out of range): a
    spanning subgraph of N_{n-3,3} with all of its edges is the graph
    itself."""
    return is_spanning_subgraph_of_pendant_family(g) and g.m == math.comb(g.n - 3, 2) + 3
