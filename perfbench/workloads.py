"""The benchmark's workloads and the checks every report must pass.

Each workload is one call into the library entry point the CLI uses,
always with a single worker.  The exhaustive and family workloads have
fixed inputs, so the seed changes nothing there; the two sampled ones pass
the seed on to the sampler.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

DEFAULT_SEED = 1
# verify() seeds order n with seed + n and the sampler adds one per attempt,
# so consecutive library seeds share almost every sample; spacing them this
# far apart keeps the graphs of two benchmark seeds disjoint.
SEED_STRIDE = 1_000_000

# tests/frozen.py: connected claw-free classes at n = 6, 7, 8
CONNECTED_CLAW_FREE = {6: 50, 7: 191, 8: 881}
# canonical graph6 of N_{n-3,3} at n = 6, 7, 8 (tests/frozen.py, README)
PENDANT_G6 = {6: "E@UW", 7: "F?L[w", 8: "G?Cy{{"}
BLOWN_PER_ORDER = 4  # len(BROUSEK_BASES): one blown-up graph per base and order


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "verify" or "hunt"
    kwargs: dict
    checked: int
    # exact (graph6, label) list the report must carry, or None when any
    # exception is allowed as long as none is Unmatched
    exceptions: Optional[tuple] = None
    seeded: bool = False
    # the pinned expected/<name>.json; empty pins nothing
    expected: dict = field(default_factory=dict, compare=False)

    def job(self, seed: int) -> dict:
        kwargs = dict(self.kwargs)
        if self.seeded:
            kwargs["seed"] = seed * SEED_STRIDE
        return {"entry": self.entry, "kwargs": kwargs}

    def check(self, report: dict, seed: int) -> list[str]:
        """Every way the report fails; empty when it is correct."""
        problems = []
        if report.get("checked") != self.checked:
            problems.append(f"checked {report.get('checked')}, expected {self.checked}")
        found = report.get("exceptions", report.get("counterexamples"))
        if not isinstance(found, list):
            return problems + ["report has no exception list"]
        labels = [label for _, label in found]
        if "Unmatched" in labels:
            problems.append(f"Unmatched exceptions: {found}")
        if self.exceptions is not None and [tuple(e) for e in found] != list(self.exceptions):
            problems.append(f"exceptions {found}, expected {list(self.exceptions)}")
        # workloads with fixed inputs have a pinned report for every seed,
        # sampled ones for the default seed
        if self.expected and (not self.seeded or seed == DEFAULT_SEED):
            if self.expected["job"] != self.job(seed):
                problems.append("the pinned report was taken for another job")
            elif strip_timing(report) != self.expected["report"]:
                problems.append("report differs from the pinned report")
        return problems


def strip_timing(report: dict) -> dict:
    """The report without elapsed_ms, the one field allowed to vary."""
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


def _workload(**kw) -> Workload:
    with open(os.path.join(EXPECTED_DIR, kw["name"] + ".json"), encoding="utf-8") as fh:
        return Workload(expected=json.load(fh), **kw)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in [
        _workload(
            name="exhaustive-main-mu",
            entry="verify",
            kwargs={"theorem": "MainMuG", "n_min": 6, "n_max": 8, "workers": 1},
            checked=sum(CONNECTED_CLAW_FREE.values()),
            exceptions=tuple((PENDANT_G6[n], f"Nn33({n})") for n in (6, 7, 8)),
        ),
        _workload(
            name="sampled-main-complement",
            entry="verify",
            kwargs={
                "theorem": "MainComplement", "n_min": 24, "n_max": 26,
                "mode": "sample", "count": 600, "workers": 1,
            },
            checked=600,
            seeded=True,
        ),
        _workload(
            name="hunt-main-mu",
            entry="hunt",
            kwargs={"theorem": "MainMuG", "n": 20, "count": 1000},
            checked=1000,
            seeded=True,
        ),
        _workload(
            name="family-hamilton",
            entry="verify",
            kwargs={"theorem": "HamiltonianFamily", "n_min": 9, "n_max": 22, "workers": 1},
            checked=BLOWN_PER_ORDER * (22 - 9 + 1),
            exceptions=(),
        ),
    ]
}
