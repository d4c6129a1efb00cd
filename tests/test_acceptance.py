"""Acceptance suite: one test per published criterion, one summary line each.

Every test records [PASS]/[FAIL] via record_acceptance and then asserts, so a
red criterion is visible both in the test outcome and the terminal summary.
Tolerances and runtime gates are stated inline next to each check.
"""
import math
import os
import time

import numpy as np
import pytest

from clawtrace.canon import canonical_form
from clawtrace.enumeration import sample_dense_claw_free
from clawtrace.families import (
    BROUSEK_BASES,
    brousek_blown,
    complete,
    complete_split,
    graph_l,
    graph_m,
    make,
    nn33,
    star,
)
from clawtrace.graph import complement, induced, is_two_connected
from clawtrace.hamilton import has_hamilton_cycle, has_hamilton_path
from clawtrace.spectral import (
    complete_split_radius,
    hofmeister_bound,
    hong_bound,
    spectral_radius,
    triple_split_radius,
)
from clawtrace.structure import closure, find_induced, is_claw_free
from clawtrace.verify import decide_traceable, verify

import frozen
from conftest import record_acceptance
from oracles import (
    exhaustive_list,
    find_induced_brute,
    hamilton_path_brute,
    labeled_filter_counts,
    random_graph,
)


def _mu(g) -> float:
    return spectral_radius(g).value


def test_01_spectral_anchors():
    t0 = time.perf_counter()
    problems = []
    if abs(_mu(complete(8)) - 7.0) > 1e-9:
        problems.append("complete(8)")
    if abs(_mu(star(9)) - math.sqrt(8)) > 1e-9:
        problems.append("star(9)")
    # the 2.6935 anchor belongs to the order-7 edge-threshold exception graph;
    # the radius being < 3 is what keeps that graph out of scope at n = 7
    if abs(_mu(graph_l()) - 2.6935) > 1e-3 or not _mu(graph_l()) < 3:
        problems.append("graph_l anchor")
    if abs(_mu(graph_m()) - frozen.MU_M) > 1e-9:
        problems.append("graph_m frozen")
    for n in range(6, 51):
        if abs(_mu(complete_split(3, n)) - (1 + math.sqrt(3 * n - 8))) > 1e-8:
            problems.append(f"triple split n={n}")
        if abs(triple_split_radius(n) - (1 + math.sqrt(3 * n - 8))) > 1e-12:
            problems.append(f"triple closed form n={n}")
    checks = 0
    for k in range(1, 7):
        for n in range(k + 1, 51):
            checks += 1
            if abs(_mu(complete_split(k, n)) - complete_split_radius(k, n)) > 1e-8:
                problems.append(f"split k={k} n={n}")
    dt = time.perf_counter() - t0
    if dt >= 1.0:
        problems.append(f"runtime {dt:.3f}s >= 1s")
    ok = not problems
    record_acceptance(
        "01 spectral anchors", ok,
        problems[0] if problems else
        f"4 fixed anchors and {checks + 45} closed-form radii in {dt:.3f}s",
    )
    assert ok, problems


def test_02_bound_sandwich(corpus):
    t0 = time.perf_counter()
    problems = []
    checked = 0
    equality = set()
    for n in range(1, 8):
        expected_eq = {canonical_form(complete(n))}
        if n >= 2:
            expected_eq.add(canonical_form(star(n)))
        found_eq = set()
        for g in corpus(n, "connected"):
            checked += 1
            mu = _mu(g)
            if hofmeister_bound(g) > mu + 1e-9:
                problems.append(f"lower bound above radius at n={n}")
            if mu > hong_bound(g) + 1e-9:
                problems.append(f"radius above upper bound at n={n}")
            if abs(mu - hong_bound(g)) <= 1e-9:
                found_eq.add(canonical_form(g))
        if found_eq != expected_eq:
            problems.append(f"upper-bound equality set wrong at n={n}")
        equality |= found_eq
    dt = time.perf_counter() - t0
    if dt >= 300:
        problems.append(f"runtime {dt:.1f}s >= 300s")
    ok = not problems
    record_acceptance(
        "02 bound sandwich", ok,
        problems[0] if problems else
        f"{checked} connected graphs n<=7, {len(equality)} equality classes, {dt:.1f}s",
    )
    assert ok, problems


def test_03_radius_threshold_exhaustive():
    problems = []
    r67 = verify("MainMuG", 6, 7, workers=os.cpu_count() or 1)
    r8 = verify("MainMuG", 8, 8, workers=os.cpu_count() or 1)
    if not (r67.passed and r8.passed):
        problems.append("unmatched exceptions")
    if r67.exceptions != ((frozen.G6_NET, "Nn33(6)"),
                          (frozen.G6_PENDANT_7, "Nn33(7)")):
        problems.append(f"n=6,7 exceptions {r67.exceptions}")
    if r8.exceptions != ((frozen.G6_PENDANT_8, "Nn33(8)"),):
        problems.append(f"n=8 exceptions {r8.exceptions}")
    if r67.checked != frozen.COUNTS[6][2] + frozen.COUNTS[7][2]:
        problems.append(f"n=6,7 corpus {r67.checked}")
    if r8.checked != frozen.CONNECTED_CLAW_FREE_8:
        problems.append(f"n=8 corpus {r8.checked}")
    if r67.elapsed_ms >= 120_000:
        problems.append(f"n<=7 runtime {r67.elapsed_ms}ms >= 2min")
    if r8.elapsed_ms >= 7_200_000:
        problems.append(f"n=8 runtime {r8.elapsed_ms}ms >= 2h")
    ok = not problems
    record_acceptance(
        "03 radius threshold exhaustive", ok,
        problems[0] if problems else
        f"{r67.checked + r8.checked} graphs n=6..8, pendant family only, "
        f"{(r67.elapsed_ms + r8.elapsed_ms) / 1000:.1f}s",
    )
    assert ok, problems


def test_04_edge_count_threshold():
    problems = []
    r = verify("EdgeLemma", 6, 8, workers=1)
    if not r.passed:
        problems.append("unmatched exceptions")
    expected = (
        (frozen.G6_NET, "Nn33(6)"),
        (frozen.G6_PENDANT_7, "Nn33(7)"),
        (frozen.G6_GRAPH_L, "GraphL"),
        (frozen.G6_PENDANT_8, "Nn33(8)"),
    )
    if r.exceptions != expected:
        problems.append(f"exceptions {r.exceptions}")
    if graph_l().m != 8 or graph_l().m != math.comb(4, 2) + 2:
        problems.append("order-7 exception edge count")
    ok = not problems
    record_acceptance(
        "04 edge count threshold", ok,
        problems[0] if problems else
        f"{r.checked} graphs n=6..8, exceptions pendant family + order-7 graph",
    )
    assert ok, problems


def test_05_closure_suite(corpus):
    t0 = time.perf_counter()
    problems = []

    # exhaustive part: every connected claw-free class n <= 8
    checked_exact = 0
    for n in range(1, 9):
        for g in corpus(n):
            checked_exact += 1
            c = closure(g).closed
            if not is_claw_free(c):
                problems.append(f"closure not claw-free at n={n}")
            if closure(c).steps:
                problems.append(f"closure not idempotent at n={n}")
            if has_hamilton_path(g) != has_hamilton_path(c):
                problems.append(f"traceability changed at n={n}")
        if problems:
            break

    # sampled part: 10,000 seeded claw-free graphs n <= 16
    checked_rand = 0
    if not problems:
        for i in range(10_000):
            n = 4 + (i % 13)
            target = (n - 1) + (i * 7919) % (math.comb(n, 2) - n + 2)
            g = sample_dense_claw_free(n, target, seed=500_000 + i)
            checked_rand += 1
            c = closure(g).closed
            if not is_claw_free(c) or closure(c).steps:
                problems.append(f"sampled closure broken at n={n} i={i}")
                break
            if decide_traceable(g) != decide_traceable(c):
                problems.append(f"sampled traceability changed at n={n} i={i}")
                break

    # order-invariance: 1,000 graphs x 10 random completion orders, n <= 12
    checked_orders = 0
    if not problems:
        rng = np.random.default_rng(20_260_823)
        for j in range(1_000):
            n = 4 + (j % 9)
            target = (n - 1) + (j * 104_729) % (math.comb(n, 2) - n + 2)
            g = sample_dense_claw_free(n, target, seed=700_000 + j)
            reference = closure(g).closed
            for _ in range(10):
                shuffled = closure(
                    g, pick=lambda elig: elig[rng.integers(len(elig))]
                ).closed
                checked_orders += 1
                if shuffled.adj != reference.adj:
                    problems.append(f"order-dependent closure at n={n} j={j}")
                    break
            if problems:
                break

    dt = time.perf_counter() - t0
    if dt >= 1800:
        problems.append(f"runtime {dt:.0f}s >= 30min")
    ok = not problems
    record_acceptance(
        "05 closure suite", ok,
        problems[0] if problems else
        f"{checked_exact} exhaustive + {checked_rand} sampled + "
        f"{checked_orders} shuffled runs, {dt:.0f}s",
    )
    assert ok, problems


def test_06_forbidden_subgraph_traceability():
    problems = []
    a = verify("DGJ", 1, 8, workers=1)
    b = verify("LBZ", 1, 8, workers=1)
    if not a.passed or a.exceptions != ():
        problems.append(f"net-free exceptions {a.exceptions}")
    if not b.passed or b.exceptions != ():
        problems.append(f"m-free block-chain exceptions {b.exceptions}")
    ok = not problems
    record_acceptance(
        "06 forbidden subgraph traceability", ok,
        problems[0] if problems else
        f"{a.checked} net-free + {b.checked} m-free graphs n<=8, zero exceptions",
    )
    assert ok, problems


def test_07_two_connected_sweep():
    problems = []
    r = verify("BrousekOrder9", 3, 8, workers=1)
    if not r.passed or r.exceptions != ():
        problems.append(f"non-hamiltonian class below n=9: {r.exceptions}")
    bases = [make(spec) for spec in BROUSEK_BASES]
    forms = {canonical_form(g) for g in bases}
    if len(bases) != 4 or len(forms) != 4:
        problems.append("base graphs not four distinct classes")
    for spec, g in zip(BROUSEK_BASES, bases):
        if not is_two_connected(g):
            problems.append(f"{spec.label()} not 2-connected")
        if not is_claw_free(g):
            problems.append(f"{spec.label()} not claw-free")
        if has_hamilton_cycle(g):
            problems.append(f"{spec.label()} hamiltonian")
    ok = not problems
    record_acceptance(
        "07 two-connected sweep", ok,
        problems[0] if problems else
        f"{r.checked} classes n<=8 all hamiltonian; 4 distinct base graphs check out",
    )
    assert ok, problems


@pytest.mark.slow
def test_07_stretch_order_nine(tmp_path):
    problems = []
    ck = tmp_path / "two_connected_9.ck"
    classes = exhaustive_list(
        9, ("connected", "claw-free", "two-connected"), checkpoint=str(ck)
    )
    if len(classes) != frozen.TWO_CONNECTED_CLAW_FREE[9]:
        problems.append(f"corpus size {len(classes)}")
    non_ham = [g for g in classes if not has_hamilton_cycle(g)]
    if len(non_ham) != 4:
        problems.append(f"{len(non_ham)} non-hamiltonian classes")
    found = {canonical_form(g) for g in non_ham}
    expected = {canonical_form(make(spec)) for spec in BROUSEK_BASES}
    if found != expected:
        problems.append("classes differ from the four base graphs")
    if not ck.exists() or not ck.read_text().strip():
        problems.append("checkpoint file not written")
    ok = not problems
    record_acceptance(
        "07-stretch order-9 classes", ok,
        problems[0] if problems else
        f"{len(classes)} classes, exactly the 4 base graphs non-hamiltonian",
    )
    assert ok, problems


def test_08_complement_threshold():
    t0 = time.perf_counter()
    problems = []
    for n in range(6, 61):
        if not _mu(complement(nn33(n))) < 1 + math.sqrt(3 * n - 8) - 1e-9:
            problems.append(f"complement bound fails at n={n}")
    for n in range(24, 31):
        bound = _mu(complement(nn33(n)))
        if abs(_mu(complement(nn33(n))) - bound) > 1e-12:
            problems.append(f"equality case drifts at n={n}")
        if decide_traceable(nn33(n)) is not False:
            problems.append(f"pendant family traceable at n={n}")
    rep = verify("MainComplement", 24, 28, mode="sample",
                 count=10_000, seed=823, workers=1)
    if not rep.passed or rep.checked != 10_000:
        problems.append(f"sampled run: checked={rep.checked} "
                        f"exceptions={rep.exceptions[:3]}")
    dt = time.perf_counter() - t0
    if dt >= 3600:
        problems.append(f"runtime {dt:.0f}s >= 1h")
    ok = not problems
    record_acceptance(
        "08 complement threshold", ok,
        problems[0] if problems else
        f"bound n=6..60, equality n=24..30, {rep.checked} dense samples, {dt:.0f}s",
    )
    assert ok, problems


def test_09_blown_family():
    t0 = time.perf_counter()
    problems = []
    checked = 0
    for n in range(12, 17):
        for spec in BROUSEK_BASES:
            g = brousek_blown(*spec.params, n)
            checked += 1
            tag = f"{spec.label()} n={n}"
            if not is_two_connected(g):
                problems.append(f"{tag} not 2-connected")
            if not is_claw_free(g):
                problems.append(f"{tag} not claw-free")
            if has_hamilton_cycle(g):
                problems.append(f"{tag} hamiltonian")
            if not _mu(g) > n - 7:
                problems.append(f"{tag} radius below n-7")
    dt = time.perf_counter() - t0
    if dt >= 60:
        problems.append(f"runtime {dt:.1f}s >= 60s")
    ok = not problems
    record_acceptance(
        "09 blown family", ok,
        problems[0] if problems else
        f"{checked} graphs n=12..16 x 4 bases, {dt:.1f}s",
    )
    assert ok, problems


def test_10_oracle_equivalence(corpus):
    problems = []
    checked_dp = 0
    for n in range(1, 8):
        for g in corpus(n, "connected"):
            checked_dp += 1
            if has_hamilton_path(g) != hamilton_path_brute(g):
                problems.append(f"path solvers disagree at n={n}")
                break
        if problems:
            break

    if not problems:
        for n in range(1, 8):
            expected = labeled_filter_counts(n)
            got = (
                len(exhaustive_list(n, ())),
                len(exhaustive_list(n, ("connected",))),
                len(exhaustive_list(n, ("connected", "claw-free"))),
            )
            if got != expected:
                problems.append(f"counts at n={n}: {got} != {expected}")

    checked_pairs = 0
    if not problems:
        rng = np.random.default_rng(20_260_824)
        for _ in range(1_000):
            host = random_graph(rng, int(rng.integers(5, 10)), rng.random())
            pattern = random_graph(rng, int(rng.integers(3, 6)), rng.random())
            checked_pairs += 1
            mine = find_induced(host, pattern)
            ref = find_induced_brute(host, pattern)
            if (mine is not None) != ref:
                problems.append("induced-subgraph searches disagree")
                break
            if mine is not None:
                if mine.bit_count() != pattern.n or canonical_form(
                    induced(host, mine)
                ) != canonical_form(pattern):
                    problems.append("invalid induced-subgraph witness")
                    break

    ok = not problems
    record_acceptance(
        "10 oracle equivalence", ok,
        problems[0] if problems else
        f"{checked_dp} path checks, 7 count rows, {checked_pairs} induced pairs",
    )
    assert ok, problems
