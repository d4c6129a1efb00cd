import hashlib
import importlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from clawtrace import enumeration
from clawtrace.canon import canonical_form
from clawtrace.errors import InfeasibleSpec, InvalidParams, OrderOutOfRange
from clawtrace.families import (
    FamilySpec,
    complete,
    complete_plus_isolated,
    complete_split,
    edgeless,
    graph_l,
    make,
    ning_ge,
    nn33,
)
from clawtrace.graph import disjoint_union, from_edges, is_complete, join, relabel
from clawtrace.hamilton import has_hamilton_path
from clawtrace.structure import is_claw_free
from clawtrace.enumeration import sample_dense_claw_free
from clawtrace.spectral import (
    DEFAULT_CMP_TOL,
    EPS,
    spectral_radius,
)
from clawtrace.verify import (
    BORDER,
    NO,
    THEOREM_IDS,
    REGISTRY,
    YES,
    _complement_threshold,
    _exception_label,
    _is_pendant_family,
    _judge,
    _path_closure,
    _verdict,
    decide_traceable,
    hunt,
    is_spanning_subgraph_of_pendant_family,
    match_exception,
    verify,
)

import frozen
from oracles import (
    adjacency,
    compare_threshold,
    edge_list,
    exhaustive_list,
    hamilton_path_brute,
    random_graph,
)


def cycle_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_registry_is_complete():
    assert len(THEOREM_IDS) == 17
    assert tuple(REGISTRY) == THEOREM_IDS
    assert "MainMuG" in REGISTRY and "Hong" in REGISTRY
    assert all(isinstance(spec.chain, tuple) for spec in REGISTRY.values())


# ---------------------------------------------------------------------------
# traceability decisions


def test_decide_traceable_matches_exact_solver():
    rng = np.random.default_rng(97)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        g = random_graph(rng, n, rng.random())
        assert decide_traceable(g) == has_hamilton_path(g)


def test_decide_traceable_beyond_exact_range():
    dense = sample_dense_claw_free(26, 276, seed=4)
    assert decide_traceable(dense) is True
    assert decide_traceable(nn33(26)) is False  # three pendant vertices
    hub = join(complete(1), disjoint_union(complete(12), complete(13)))
    assert decide_traceable(hub) is True
    spider = join(complete(1), disjoint_union(complete(9), disjoint_union(complete(8), complete(8))))
    assert decide_traceable(spider) is False  # cut vertex leaves 3 components
    assert decide_traceable(cycle_graph(30)) is True


def test_degree_pair_test_answers_only_when_the_closure_is_complete():
    # decide_traceable answers True before the path closure when the two
    # smallest degrees sum to n - 1: then every nonadjacent pair does, the
    # closure is complete at once, and g is traceable
    rng = np.random.default_rng(2323)
    fired = 0
    for n in range(1, 25):
        for p in (0.5, 0.7, 0.85, 0.95):
            g = random_graph(rng, n, p)
            if n > 1 and sum(sorted(g.degrees())[:2]) < n - 1:
                continue
            fired += 1
            assert is_complete(_path_closure(g)), g
            assert hamilton_path_brute(g), g
            if n <= 20:  # the exact solver slows down past this order
                assert has_hamilton_path(g), g
            assert decide_traceable(g) is True
    assert fired >= 40
    # at n - 2 the test must not fire: two disjoint copies of K_a are not
    # traceable, and the same copies joined by one edge are; the cascade
    # decides both, and random graphs at this boundary agree with the solver
    for a in range(1, 8):
        apart = disjoint_union(complete(a), complete(a))
        bridged = from_edges(2 * a, [*edge_list(apart), (a - 1, a)])
        for g, want in ((apart, False), (bridged, True)):
            assert decide_traceable(g) is want and has_hamilton_path(g) is want, (a, g)
            if a >= 3:
                assert sum(sorted(g.degrees())[:2]) == g.n - 2
    boundary = 0
    while boundary < 30:
        n = int(rng.integers(4, 15))
        g = random_graph(rng, n, rng.uniform(0.3, 0.9))
        if sum(sorted(g.degrees())[:2]) == n - 2:
            boundary += 1
            assert decide_traceable(g) == has_hamilton_path(g), g


# ---------------------------------------------------------------------------
# exception matching


def test_match_exception_cases():
    fams = [FamilySpec("Nn33", (8,)), FamilySpec("GraphL")]
    rng = np.random.default_rng(101)
    shuffled = relabel(nn33(8), list(rng.permutation(8)))
    assert match_exception(shuffled, fams).kind == "Nn33"
    assert match_exception(cycle_graph(9), [FamilySpec("Nn33", (9,)), FamilySpec("GraphL")]) is None
    assert match_exception(graph_l(), fams + [FamilySpec("GraphL")]) is not None
    # families that cannot be built at this order are skipped, not fatal
    assert match_exception(cycle_graph(5), [FamilySpec("Nn33", (5,))]) is None
    with pytest.raises(OrderOutOfRange, match=r"^canonical labelling capped at n <= 16, got 17$"):
        match_exception(complete(17), fams)


def test_declared_families_fail_only_on_their_parameters():
    # match_exception skips a family whose make() raises InvalidParams or
    # OrderOutOfRange; no declared family may get there through a malformed
    # edge list or an empty vertex set, which raise InvalidParams too
    declared = {fam for spec in REGISTRY.values() for n in range(0, 67)
                for fam in spec.exception_families(n)}
    refused = set()
    for fam in declared:
        try:
            make(fam)
        except (InvalidParams, OrderOutOfRange) as exc:
            assert not str(exc).startswith(("loop at", "edge (", "induced subgraph")), exc
            refused.add(fam)
    assert FamilySpec("Nn33", (5,)) in refused and FamilySpec("Nn33", (65,)) in refused


def test_spanning_subgraph_of_pendant_family():
    assert is_spanning_subgraph_of_pendant_family(nn33(10))
    assert is_spanning_subgraph_of_pendant_family(
        disjoint_union(complete(7), edgeless(3))
    )
    # losing a clique edge keeps it a spanning subgraph
    g = nn33(9)
    edges = [e for e in edge_list(g) if e != (0, 1)]
    assert is_spanning_subgraph_of_pendant_family(from_edges(9, edges))
    assert not is_spanning_subgraph_of_pendant_family(cycle_graph(10))
    assert not is_spanning_subgraph_of_pendant_family(complete(9))
    from clawtrace.families import star

    assert not is_spanning_subgraph_of_pendant_family(star(9))  # shared attach point


def test_pendant_family_test_agrees_with_canonical_matching():
    for n in (6, 7):
        target = canonical_form(nn33(n))
        for g in exhaustive_list(n, ()):
            assert _is_pendant_family(g) == (canonical_form(g) == target), g


def test_only_declared_families_match_above_canonical_range():
    # canonical matching at n = 12 and the structural test at n = 20 must
    # label N_{n-3,3} alike for every theorem: a theorem that does not
    # declare the family leaves it Unmatched at both orders
    for spec in REGISTRY.values():
        small = _exception_label(nn33(12), spec)
        assert _exception_label(nn33(20), spec) == small.replace("(12)", "(20)"), spec.id
    assert _exception_label(nn33(20), REGISTRY["MainMuG"]) == "Nn33(20)"
    for theorem in ("NingGe", "FiedlerNikiforov1", "LuLiuTian", "Dirac", "BrousekOrder9"):
        assert _exception_label(nn33(20), REGISTRY[theorem]) == "Unmatched", theorem


def test_pendant_family_test_beyond_canonical_range():
    rng = np.random.default_rng(103)
    for n in range(9, 31):
        g = relabel(nn33(n), list(rng.permutation(n)))
        assert _is_pendant_family(g)
        edges = edge_list(g)
        for e in edges:
            assert not _is_pendant_family(from_edges(n, [f for f in edges if f != e]))


# ---------------------------------------------------------------------------
# exhaustive verification runs


def test_pendant_exceptions_exact_small_orders():
    r = verify("MainMuG", 6, 7)
    assert r.passed and r.mode == "Exhaustive"
    assert r.exceptions == (
        (frozen.G6_NET, "Nn33(6)"),
        (frozen.G6_PENDANT_7, "Nn33(7)"),
    )
    assert r.checked == frozen.COUNTS[6][2] + frozen.COUNTS[7][2]


def test_edge_count_threshold_small_orders():
    r = verify("EdgeLemma", 6, 7)
    assert r.passed
    assert r.exceptions == (
        (frozen.G6_NET, "Nn33(6)"),
        (frozen.G6_PENDANT_7, "Nn33(7)"),
        (frozen.G6_GRAPH_L, "GraphL"),
    )


def test_minimum_degree_conditions_hold():
    assert verify("Dirac", 2, 7).passed
    assert verify("MatthewsSumner", 2, 8).passed
    assert verify("DegreeSumLemma", 2, 7).passed


def test_forbidden_subgraph_families_traceable():
    a = verify("DGJ", 2, 8)
    assert a.passed and a.exceptions == ()
    b = verify("LBZ", 2, 8)
    assert b.passed and b.exceptions == ()


def test_bound_certifications():
    assert verify("Hong", 2, 6).passed
    assert verify("Hofmeister", 1, 6).passed


def test_isolated_vertex_exception_family():
    r = verify("FiedlerNikiforov1", 2, 6)
    assert r.passed
    assert all(label.startswith("CompletePlusIsolated") for _, label in r.exceptions)
    assert verify("FiedlerNikiforov2", 2, 6).passed


def test_hub_family_exception_at_seven():
    r = verify("NingGe", 7, 7)
    assert r.passed
    assert r.exceptions == ((frozen.G6_HUB_SPLIT_7, "NingGe(7)"),)


def test_hub_threshold_boundary_exception_at_eight():
    # At n = 8 the split graph K_3 v 5K_1 sits exactly on the radius
    # threshold n-3 (the unique order where 1+sqrt(3n-8) equals n-3), is
    # not traceable, and is not the declared exception graph.  The verifier
    # must surface it as Unmatched and fail the run; anything else would be
    # the borderline routing hiding a counterexample.
    r = verify("NingGe", 8, 8)
    assert not r.passed
    assert r.exceptions == (
        (frozen.G6_SPLIT_38, "Unmatched"),
        (frozen.G6_HUB_SPLIT_8, "NingGe(8)"),
    )
    assert frozen.G6_SPLIT_38 in r.borderline
    g = complete_split(3, 8)
    assert abs(spectral_radius(g).value - 5.0) < 1e-12
    assert not has_hamilton_path(g)


def test_two_connected_hamilton_sweep_small():
    r = verify("BrousekOrder9", 3, 8)
    assert r.passed and r.exceptions == ()
    r8 = verify("BrousekOrder9", 8, 8)
    assert r8.checked == frozen.TWO_CONNECTED_CLAW_FREE[8]


def test_constructed_family_sweep():
    r = verify("HamiltonianFamily", 12, 13)
    assert r.passed and r.checked == 8
    assert r.borderline == ()
    # a tolerance wider than every mu - (n - 7) makes each graph borderline;
    # a borderline graph fails the family's properties, so it is listed as
    # borderline and as an Unmatched exception
    wide = verify("HamiltonianFamily", 12, 13, cmp_tol=50.0)
    assert wide.checked == 8 and len(wide.borderline) == 8
    assert wide.exceptions == tuple((s, "Unmatched") for s in wide.borderline)


def test_verify_reaches_decide_traceable_through_the_module(corpus, monkeypatch):
    # perfbench's tracer wraps the module attribute; a registry holding the
    # function itself would bypass the wrapper and read zero calls
    verify_module = importlib.import_module("clawtrace.verify")
    calls = []

    def counting(g):
        calls.append(g)
        return decide_traceable(g)

    monkeypatch.setattr(verify_module, "decide_traceable", counting)
    verify("MainMuG", 6, 6)
    spec = REGISTRY["MainMuG"]
    expected = sum(_judge(spec, g, DEFAULT_CMP_TOL)[0] != "no" for g in corpus(6))
    assert expected > 0 and len(calls) == expected


def test_sampled_modes():
    r = verify("MainComplement", 24, 25, mode="sample", count=10, seed=5)
    assert r.passed and r.mode == "Sampled" and r.checked == 10 and r.seed == 5
    r2 = verify("EdgeLemmaPrime", 24, 24, mode="sample", count=6, seed=11)
    assert r2.passed and r2.checked == 6


def test_sampled_mode_deterministic():
    a = verify("MainComplement", 24, 24, mode="sample", count=6, seed=7)
    b = verify("MainComplement", 24, 24, mode="sample", count=6, seed=7)
    assert a.exceptions == b.exceptions and a.borderline == b.borderline


def test_workers_do_not_change_reports():
    runs = (
        (("MainMuG", 6, 7), {}),
        # the net-free chain: its pattern filter runs inside the workers
        (("DGJ", 1, 8), {}),
        (("MainComplement", 24, 25), {"mode": "sample", "count": 6, "seed": 5}),
        (("HamiltonianFamily", 9, 12), {}),
    )
    for args, kwargs in runs:
        a = verify(*args, workers=1, **kwargs).to_dict()
        b = verify(*args, workers=2, **kwargs).to_dict()
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert a == b, args


def test_cmp_tol_widens_borderline():
    tight = verify("MainMuG", 7, 7)
    loose = verify("MainMuG", 7, 7, cmp_tol=0.5)
    assert tight.passed
    assert len(loose.borderline) > len(tight.borderline)
    # borderline graphs still get their conclusion checked, so widening the
    # tolerance pulls sub-threshold non-traceable graphs in as Unmatched
    extra = set(loose.exceptions) - set(tight.exceptions)
    assert extra and all(label == "Unmatched" for _, label in extra)


def test_report_serializes():
    r = verify("MainMuG", 6, 6)
    d = r.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["n_range"] == [6, 6] and d["mode"] == "Exhaustive"
    assert d["seed"] is None and d["elapsed_ms"] >= 0


def test_infeasible_ranges_rejected():
    with pytest.raises(InfeasibleSpec):
        verify("NoSuchTheorem", 5, 6)
    with pytest.raises(InfeasibleSpec):
        verify("MainMuG", 9, 7)
    with pytest.raises(InfeasibleSpec):  # the exhaustive source's own cap
        verify("MainMuG", 3, 12)
    with pytest.raises(InfeasibleSpec):
        verify("MainComplement", 24, 25)  # sampled-only theorem
    with pytest.raises(InfeasibleSpec):
        verify("MainMuG", 1, 4)  # below the statement floor
    with pytest.raises(InfeasibleSpec):
        verify("MainMuG", 7, 8, mode="sample", count=5)  # seed missing
    with pytest.raises(InfeasibleSpec):
        verify("HamiltonianFamily", 12, 12, mode="sample", count=5, seed=1)
    with pytest.raises(InfeasibleSpec):
        verify("MainMuG", 7, 7, mode="warp")
    # the caller's count, not the share of one order after the split
    with pytest.raises(InfeasibleSpec, match=r"sample count must be >= 0, got -4$"):
        verify("MainComplement", 24, 25, mode="sample", count=-4, seed=1)
    # the smallest per-order seed, seed + n_min: order 24 draws with seed 0
    # here, and with seed -1 one lower
    assert verify("MainComplement", 24, 25, mode="sample", count=2, seed=-24).passed
    with pytest.raises(InfeasibleSpec, match=r"the first would be -1$"):
        verify("MainComplement", 24, 25, mode="sample", count=2, seed=-25)
    for tol in (-0.5, math.nan, math.inf):
        with pytest.raises(InfeasibleSpec, match="cmp_tol"):
            verify("MainMuG", 7, 7, cmp_tol=tol)


def test_sample_request_refused_before_the_first_draw(monkeypatch):
    # order 31 is past MAX_SAMPLE; the whole request is checked before
    # orders 24..30 draw a single graph
    draws = []
    real = enumeration.sample_dense_claw_free

    def counting(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(enumeration, "sample_dense_claw_free", counting)
    with pytest.raises(InfeasibleSpec, match=r"1 <= n <= 30, got 31$"):
        verify("MainComplement", 24, 31, mode="sample", count=700, seed=1)
    assert draws == []


def test_request_past_the_exact_cycle_search_refused_before_its_first_graph(monkeypatch):
    # both conclusions call has_hamilton_cycle, which is capped at order 24;
    # the request is refused before a draw or a cycle search, not at order 25
    draws = []
    real_sample = enumeration.sample_dense_claw_free

    def counting_sample(*args):
        draws.append(args)
        return real_sample(*args)

    monkeypatch.setattr(enumeration, "sample_dense_claw_free", counting_sample)
    with pytest.raises(InfeasibleSpec, match=r"^BrousekOrder9 .* n <= 24 only, got 26$"):
        verify("BrousekOrder9", 24, 26, mode="sample", count=30, seed=0)
    assert draws == []

    searches = []
    verify_module = importlib.import_module("clawtrace.verify")
    real_cycle = verify_module.has_hamilton_cycle

    def counting_cycle(g):
        searches.append(g)
        return real_cycle(g)

    monkeypatch.setattr(verify_module, "has_hamilton_cycle", counting_cycle)
    with pytest.raises(InfeasibleSpec, match=r"^HamiltonianFamily .* n <= 24 only, got 30$"):
        verify("HamiltonianFamily", 9, 30)
    assert searches == []


def test_requests_up_to_the_exact_cycle_search_still_pass():
    family = verify("HamiltonianFamily", 9, 24)
    assert family.passed and family.checked == 4 * 16
    sampled = verify("BrousekOrder9", 20, 20, mode="sample", count=3, seed=0)
    assert sampled.passed and sampled.checked == 3


def test_exception_families_satisfy_hypothesis_violate_conclusion():
    for n in range(7, 11):
        g = nn33(n)
        assert spectral_radius(g).value >= n - 4 - 1e-9
        assert not has_hamilton_path(g)
        h = ning_ge(n)
        assert spectral_radius(h).value >= n - 3 - 1e-9
        assert not has_hamilton_path(h)
        k = complete_plus_isolated(n)
        assert abs(spectral_radius(k).value - (n - 2)) < 1e-9
        assert not has_hamilton_path(k)


# ---------------------------------------------------------------------------
# hunts


def test_hunt_clean_at_high_density():
    h = hunt("MainMuG", n=8, seed=3, count=40)
    assert h.passed and h.counterexamples == ()
    assert hunt("MainMuG", n=8, seed=3, count=40).near_misses == h.near_misses


def test_hunt_near_misses_sorted_and_deduplicated():
    h = hunt("MainMuG", n=10, seed=4, count=250, density=0.3)
    margins = [m for _, m in h.near_misses]
    assert margins == sorted(margins, reverse=True)
    assert all(m < 0 for m in margins)
    names = [s for s, _ in h.near_misses]
    assert len(names) == len(set(names))
    assert len(h.near_misses) <= 10


def test_hunt_rejects_margin_free_theorems():
    with pytest.raises(InfeasibleSpec):
        hunt("DGJ", n=8, seed=1, count=5)
    with pytest.raises(InfeasibleSpec):
        hunt("NoSuch", n=8, seed=1, count=5)
    with pytest.raises(InfeasibleSpec):
        hunt("MainMuG", n=1, seed=1, count=5)
    with pytest.raises(InfeasibleSpec, match="constructed family"):
        hunt("HamiltonianFamily", n=12, seed=1, count=5)


def test_hunt_rejects_out_of_range_numbers():
    # top=-1 would slice off the last near miss; a negative or non-finite
    # tolerance would turn clean graphs into counterexamples
    with pytest.raises(InfeasibleSpec, match="top"):
        hunt("MainMuG", 10, 4, 250, density=0.3, top=-1)
    for tol in (-0.5, math.nan, -math.inf):
        with pytest.raises(InfeasibleSpec, match="cmp_tol"):
            hunt("MainMuG", 8, 3, 40, density=0.3, cmp_tol=tol)
    assert hunt("MainMuG", 8, 3, 40, density=0.3, top=0).near_misses == ()


def test_hunt_computes_one_radius_per_graph(monkeypatch):
    # the package exports a function named verify, so fetch the module
    verify_module = importlib.import_module("clawtrace.verify")
    calls = []

    def counting(g):
        calls.append(g)
        return spectral_radius(g)

    monkeypatch.setattr(verify_module, "spectral_radius", counting)
    h = hunt("MainMuG", 10, 4, 250, density=0.3)
    assert h.checked == 250 and len(h.near_misses) == 10
    assert len(calls) == 250


def test_hunt_report_serializes():
    h = hunt("MainMuG", n=8, seed=2, count=10)
    d = h.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["theorem"] == "MainMuG" and d["n"] == 8 and d["seed"] == 2


# ---------------------------------------------------------------------------
# frozen report bytes

_SMALL_NUMERIC = ("FiedlerNikiforov1", "FiedlerNikiforov2", "LuLiuTian", "NingGe",
                  "MainMuG", "DegreeSumLemma", "EdgeLemma", "Dirac", "MatthewsSumner")

# one hunt with near misses for each numeric theorem that has them at
# small orders (the sampler's graphs at n >= 24 are all traceable, so the
# two sampled-only theorems contribute verdicts but no near miss), plus
# verify runs at wide tolerances that fill the borderline lists
FROZEN_RUNS = (
    [("hunt", (t, 9, 1, 40), {"density": 0.3}) for t in _SMALL_NUMERIC]
    + [("hunt", (t, 24, 1, 12), {"density": 0.5})
       for t in ("MainComplement", "EdgeLemmaPrime")]
    + [
        ("hunt", ("MainMuG", 8, 3, 40), {"density": 0.3, "cmp_tol": 1.0}),
        ("hunt", ("FiedlerNikiforov2", 9, 2, 40), {"density": 0.3, "cmp_tol": 2.0}),
        ("verify", ("MainMuG", 6, 8), {"cmp_tol": 0.5, "workers": 1}),
        ("verify", ("FiedlerNikiforov1", 6, 7), {"cmp_tol": 0.5, "workers": 1}),
        ("verify", ("FiedlerNikiforov2", 5, 7), {"cmp_tol": 0.5, "workers": 1}),
        ("verify", ("LuLiuTian", 7, 7), {"cmp_tol": 0.5, "workers": 1}),
        ("verify", ("NingGe", 7, 7), {"cmp_tol": 0.5, "workers": 1}),
        ("verify", ("DegreeSumLemma", 1, 7), {"workers": 1}),
        ("verify", ("EdgeLemma", 6, 8), {"cmp_tol": 3.0, "workers": 1}),
        ("verify", ("HamiltonianFamily", 9, 12), {"cmp_tol": 50.0}),
        ("verify", ("EdgeLemmaPrime", 24, 26), {"mode": "sample", "count": 12, "seed": 5}),
        ("verify", ("EdgeLemmaPrime", 24, 25),
         {"mode": "sample", "count": 8, "seed": 9, "density": 0.7, "cmp_tol": 3.0}),
        ("verify", ("MainComplement", 24, 25),
         {"mode": "sample", "count": 8, "seed": 5, "cmp_tol": 6.0}),
    ]
)


def test_report_bytes_are_frozen():
    reports = []
    for entry, args, kwargs in FROZEN_RUNS:
        d = (hunt if entry == "hunt" else verify)(*args, **kwargs).to_dict()
        d.pop("elapsed_ms")
        reports.append(d)
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == frozen.FROZEN_REPORTS_SHA256


# every statement without a margin, exhaustively at the orders it applies to
MARGIN_FREE_RUNS = (("DGJ", 1, 7), ("LBZ", 1, 7), ("Hong", 1, 7), ("Hofmeister", 1, 7),
                    ("BrousekOrder9", 3, 8))


def test_margin_free_report_bytes_are_frozen():
    reports = []
    for theorem, n_min, n_max in MARGIN_FREE_RUNS:
        d = verify(theorem, n_min, n_max).to_dict()
        d.pop("elapsed_ms")
        reports.append(d)
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == frozen.MARGIN_FREE_REPORTS_SHA256


# ---------------------------------------------------------------------------
# registry against the statements


def _mu(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a)[-1])


def _pendant_complement_mu(n: int) -> float:
    # N_{n-3,3}: a clique on 0..n-4 with pendants n-3, n-2, n-1 at 0, 1, 2
    a = np.zeros((n, n))
    a[: n - 3, : n - 3] = 1.0
    for i in range(3):
        a[i, n - 3 + i] = a[n - 3 + i, i] = 1.0
    np.fill_diagonal(a, 0.0)
    return _mu(1.0 - a - np.eye(n))


# the README's theorem registry, one row per numeric statement: the
# quantity, the direction of the hypothesis, the threshold at order n, and
# whether both sides are integers (exact) or floats
STATEMENTS = {
    "FiedlerNikiforov1": ("mu", ">=", lambda n: n - 2, "float"),
    "FiedlerNikiforov2": ("mu_complement", "<=", lambda n: math.sqrt(n - 1), "float"),
    "LuLiuTian": ("mu", ">=", lambda n: math.sqrt((n - 3) ** 2 + 3), "float"),
    "NingGe": ("mu", ">=", lambda n: n - 3, "float"),
    "MainMuG": ("mu", ">=", lambda n: n - 4, "float"),
    "MainComplement": ("mu_complement", "<=", _pendant_complement_mu, "float"),
    "DegreeSumLemma": ("nonadjacent_degree_sum", ">=", lambda n: n - 1, "exact"),
    "EdgeLemma": ("m", ">=", lambda n: math.comb(n - 3, 2) + 2, "exact"),
    # the complement threshold in edge-count form, t(n) = 1 + sqrt(3n - 8)
    "EdgeLemmaPrime": ("m", ">=", lambda n: math.comb(n, 2) - (1 + math.sqrt(3 * n - 8)) ** 2,
                       "float"),
    "Dirac": ("2delta", ">=", lambda n: n - 1, "exact"),
    "MatthewsSumner": ("3delta", ">=", lambda n: n - 2, "exact"),
    # a claim of the constructed family rather than a hypothesis
    "HamiltonianFamily": ("mu", ">=", lambda n: n - 7, "float"),
}


def test_complement_threshold_is_the_closed_form():
    for n in range(6, 65):
        assert _complement_threshold(n) == pytest.approx(_pendant_complement_mu(n), abs=1e-12), n


def _quantities(g) -> dict:
    a = adjacency(g)
    degs = a.sum(axis=1)
    apart = [degs[u] + degs[v] for u in range(g.n) for v in range(u + 1, g.n) if not a[u, v]]
    return {
        "mu": _mu(a),
        "mu_complement": _mu(1.0 - a - np.eye(g.n)),
        # a graph with no nonadjacent pair fails the degree-sum hypothesis
        "nonadjacent_degree_sum": max(apart) if apart else -math.inf,
        "m": float(len(edge_list(g))),
        "2delta": 2 * degs.min(),
        "3delta": 3 * degs.min(),
    }


def _statement_verdict(theorem: str, q: dict, n: int, cmp_tol: float):
    quantity, direction, threshold, kind = STATEMENTS[theorem]
    value, t = q[quantity], threshold(n)
    margin = value - t if direction == ">=" else t - value
    if kind == "exact":
        return ("yes" if margin >= 0 else "no"), margin
    error = EPS * value if quantity.startswith("mu") else 0.0
    if margin > cmp_tol + error:
        return "yes", margin
    if margin < -(cmp_tol + error):
        return "no", margin
    return "borderline", margin


def _samples_24_to_26():
    out = []
    for n in (24, 25, 26):
        for seed in range(4):
            target = int(math.comb(n, 2) * (0.6, 0.7, 0.8, 0.95)[seed])
            out.append(sample_dense_claw_free(n, target, seed=100 * n + seed))
    return out


def test_registry_matches_the_statement_table(corpus):
    assert set(STATEMENTS) == {t for t, spec in REGISTRY.items() if spec.margin is not None}
    graphs = [g for n in (6, 7, 8) for g in corpus(n)] + _samples_24_to_26()
    verdicts = set()
    for g in graphs:
        q = _quantities(g)
        for theorem in STATEMENTS:
            for tol in (1e-9, 0.5):
                want, want_margin = _statement_verdict(theorem, q, g.n, tol)
                verdict, _ = _judge(REGISTRY[theorem], g, tol)
                assert verdict == want, (theorem, g, tol)
                # a YES may come from a degree bound without a margin, so
                # the margin's value is checked on the margin itself
                margin, _ = REGISTRY[theorem].margin(g)
                assert isinstance(margin, float)
                if want_margin == -math.inf:  # the registry's K_n margin is -n
                    assert margin < 0
                else:
                    assert margin == pytest.approx(want_margin, abs=1e-9), (theorem, g)
                verdicts.add((theorem, verdict))
    # the graphs reach both sides of every threshold
    for theorem in STATEMENTS:
        assert {(theorem, "yes"), (theorem, "no")} <= verdicts, theorem


def _squared_cycle(n):
    return from_edges(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])


def test_degree_bounds_settle_only_what_the_eigensolver_would():
    # _judge settles a YES from a degree bound before it calls the
    # eigensolver; its verdict must equal the verdict of the margin itself
    spectral = [t for t, spec in REGISTRY.items() if spec.bound is not None]
    assert sorted(spectral) == sorted(
        ["FiedlerNikiforov1", "FiedlerNikiforov2", "LuLiuTian", "NingGe", "MainMuG",
         "MainComplement", "HamiltonianFamily"]
    )
    rng = np.random.default_rng(4141)
    graphs = [
        random_graph(rng, n, p) for n in range(2, 31) for p in (0.3, 0.6, 0.8, 0.9, 0.97, 1.0)
    ]
    settled = {t: 0 for t in spectral}
    computed = {t: 0 for t in spectral}
    for g in graphs:
        for t in spectral:
            spec = REGISTRY[t]
            if g.n < spec.floor_n:
                continue
            margin, error = spec.margin(g)
            for tol in (0.0, 1e-9, 0.5, 3.0):
                verdict, got = _judge(spec, g, tol)
                assert verdict == _verdict(margin, error, tol), (t, g, tol)
                if got is None:
                    settled[t] += 1
                else:
                    computed[t] += 1
                    assert got == margin
    # both paths are taken by every spectral statement
    assert all(settled.values()) and all(computed.values()), (settled, computed)
    # C8^2 is 4-regular and claw-free: its Hofmeister bound is exactly
    # n - 4, so it falls through to the eigensolver and is borderline
    c8 = _squared_cycle(8)
    assert c8.degrees() == [4] * 8 and is_claw_free(c8)
    spec = REGISTRY["MainMuG"]
    assert spec.bound(c8) == 0.0
    assert _judge(spec, c8, DEFAULT_CMP_TOL) == (BORDER, spec.margin(c8)[0])


def test_verdict_margins():
    # slack = cmp_tol + error, and both comparisons are strict
    assert _verdict(1.0, 0.0, DEFAULT_CMP_TOL) == YES
    assert _verdict(-1.0, 0.0, DEFAULT_CMP_TOL) == NO
    assert _verdict(0.0, 0.0, DEFAULT_CMP_TOL) == BORDER
    assert _verdict(0.5 * DEFAULT_CMP_TOL, 0.0, DEFAULT_CMP_TOL) == BORDER
    assert _verdict(1.0, 0.0, 2.0) == BORDER
    assert _verdict(0.75, 0.5, 0.25) == BORDER
    assert _verdict(-0.75, 0.5, 0.25) == BORDER
    assert _verdict(float(np.nextafter(0.75, 1.0)), 0.5, 0.25) == YES
    assert _verdict(float(np.nextafter(-0.75, -1.0)), 0.5, 0.25) == NO
    # the margin's own error bound widens the borderline band
    assert _verdict(0.4, 0.5, DEFAULT_CMP_TOL) == BORDER
    assert _verdict(-0.4, 0.5, DEFAULT_CMP_TOL) == BORDER
    assert _verdict(0.6, 0.5, DEFAULT_CMP_TOL) == YES
    assert _verdict(-0.6, 0.5, DEFAULT_CMP_TOL) == NO
    # an error bound that covers the margin certifies neither side
    assert _verdict(1.0, 1.0, DEFAULT_CMP_TOL) == BORDER
    assert _verdict(-1.0, 1.0, DEFAULT_CMP_TOL) == BORDER
    # an exact margin (error None) holds at 0 and ignores cmp_tol
    assert _verdict(0, None, DEFAULT_CMP_TOL) == YES
    assert _verdict(0, None, 2.0) == YES
    assert _verdict(1, None, 2.0) == YES
    assert _verdict(-1, None, 0.0) == NO


def test_edge_lemma_prime_verdicts_match_compare_threshold():
    # the registry judges m - C(n,2) + t^2 > tol; the reference compares m
    # with C(n,2) - t^2, which can differ in the last ulp
    spec = REGISTRY["EdgeLemmaPrime"]
    cases = 0
    for n in range(24, 31):
        threshold = math.comb(n, 2) - (1 + math.sqrt(3 * n - 8)) ** 2
        for m in range(math.comb(n, 2) + 1):
            g = SimpleNamespace(n=n, m=m)  # the margin reads n and m only
            for tol in (0.0, 1e-9, 1e-6, 0.5, 1.0, 3.0):
                ref = compare_threshold(float(m), threshold, tol, 0.0)
                assert _judge(spec, g, tol)[0] == ref, (n, m, tol)
                cases += 1
    assert cases == 14_868
