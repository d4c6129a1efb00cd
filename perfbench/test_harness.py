"""Smoke test of the benchmark harness at reduced sizes.

    python3 -m pytest -q perfbench/test_harness.py

It runs every workload shrunk to a second or less, untraced and traced,
through the same code path as run.py, and checks the span recorder's
wrapping and self-time arithmetic directly.
"""
from __future__ import annotations

import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import clawtrace  # noqa: E402
from clawtrace import canon, enumeration  # noqa: E402
from tracer import ROOT_SPAN, Probe, SpanRecorder  # noqa: E402
from run import Run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

verify_module = sys.modules["clawtrace.verify"]  # the package attribute is the function

SMALL = {
    "exhaustive-main-mu": dict(
        kwargs={"theorem": "MainMuG", "n_min": 6, "n_max": 7, "workers": 1},
        checked=50 + 191,
        exceptions=(("E@UW", "Nn33(6)"), ("F?L[w", "Nn33(7)")),
    ),
    "sampled-main-complement": dict(
        kwargs={"theorem": "MainComplement", "n_min": 24, "n_max": 25,
                "mode": "sample", "count": 6, "workers": 1},
        checked=6,
    ),
    "hunt-main-mu": dict(kwargs={"theorem": "MainMuG", "n": 20, "count": 10}, checked=10),
    "family-hamilton": dict(
        kwargs={"theorem": "HamiltonianFamily", "n_min": 9, "n_max": 12, "workers": 1},
        checked=16,
    ),
}
# layers a workload must never reach, as predicted in BENCHMARK.json
ZERO = {
    "exhaustive-main-mu": ["hamilton.dp_calls"],
    "sampled-main-complement": ["canon.labeling_calls", "hamilton.dp_calls"],
    "hunt-main-mu": ["canon.labeling_calls", "hamilton.dp_calls"],
    "family-hamilton": ["canon.labeling_calls"],
}


def small(name: str):
    return dataclasses.replace(WORKLOADS[name], expected={}, **SMALL[name])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_reduced_workload_runs_clean(name):
    run = Run(small(name), seed=5)
    found = run.end_to_end(seconds=0)
    assert run.errors == []
    assert set(found) == {"wall_s", "graphs_per_s", "setup_s", "peak_rss_mb"}
    assert all(v > 0 for samples, _ in found.values() for v in samples)

    layers = run.per_layer()  # fails the run unless the traced counts repeat
    assert run.errors == []
    values = {k: samples[0] for k, (samples, _) in layers.items()}
    for metric in ZERO[name]:
        assert values[metric] == 0, metric
    assert values["verify.decide_calls"] + values["hamilton.dp_calls"] > 0


def test_wrong_report_counts_as_failed():
    run = Run(dataclasses.replace(small("family-hamilton"), checked=17), seed=5)
    run.end_to_end(seconds=0)
    assert run.failed == run.attempted == 1


def test_recorder_wraps_every_import_site_and_restores():
    original = canon.canonical_labeling
    rec = SpanRecorder()
    rec.install([Probe("clawtrace.canon", "canonical_labeling", "canon.labeling")])
    try:
        for site in (canon, enumeration, clawtrace):
            assert site.canonical_labeling is not original
        clawtrace.canonical_labeling(clawtrace.decode("E@UW"))
        assert rec.calls["canon.labeling"] == 1
    finally:
        rec.uninstall()
    for site in (canon, enumeration, clawtrace):
        assert site.canonical_labeling is original


def test_self_time_subtracts_child_spans():
    rec = SpanRecorder()
    rec.install([
        Probe("clawtrace.verify", "decide_traceable", "verify.decide"),
        Probe("clawtrace.structure", "is_claw_free", "structure.is_claw_free"),
    ])
    try:
        cycle = clawtrace.from_edges(9, [(i, (i + 1) % 9) for i in range(9)])
        assert verify_module.decide_traceable(cycle) is True
    finally:
        rec.uninstall()
    names = [rec.names[i] for i in rec.name_id]
    assert names[0] == "verify.decide" and rec.parent[0] == ROOT_SPAN
    kids = [i for i in range(1, len(names)) if rec.parent[i] == 0]
    assert kids and all(names[i] == "structure.is_claw_free" for i in kids)
    own = rec.self_times()
    total = rec.end[0] - rec.start[0]
    covered = sum(rec.end[i] - rec.start[i] for i in kids)
    assert own["verify.decide"] == pytest.approx(total - covered)
    assert own["structure.is_claw_free"] == pytest.approx(
        sum(rec.end[i] - rec.start[i] for i in range(len(names)) if names[i] == "structure.is_claw_free")
    )
