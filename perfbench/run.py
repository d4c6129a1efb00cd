"""clawtrace benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a checkout and measures the library from its `src/`.
Each repetition is one call into `verify()` or `hunt()` in a fresh
interpreter, so the canonical-form cache starts cold every time, as it does
for a CLI user.  Every report is checked (see workloads.py); a repetition
that raises, exits non-zero or returns a wrong report counts as failed.

With --trace 0 the run repeats the workload for about --seconds, set-up
starts included, and prints the end-to-end metrics: wall_s, graphs_per_s
and peak_rss_mb as medians over the repetitions, and setup_s as the median
over the repetitions and a few extra set-up-only starts.  With --trace 1
it makes one untraced and two traced repetitions, checks that the two
traced runs give identical counts, and prints the per-layer metrics of
layers.py.

Without --workload it runs every workload in turn.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 0 when every report was correct, 1 when one
was not, and 2 when the checkout has no clawtrace sources.  Raw samples go
to perfbench/out/, with the git sha, nproc and the Python and numpy
versions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

from layers import DETERMINISTIC, METRICS, UNITS
from workloads import DEFAULT_SEED, WORKLOADS, Workload, strip_timing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")

DEFAULT_SECONDS = 30
SETUP_STARTS = 5  # set-up-only starts per run, on top of the repetitions
REP_TIMEOUT = 150
END_TO_END = [
    ("wall_s", "s"),
    ("graphs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
# ambient settings the library reads; the benchmark measures the defaults
IGNORED_ENV = ("SPECTRAL_TOL", "CMP_TOL")


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "git_sha": sha or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def run_child(job: dict) -> tuple[dict | None, float, str]:
    """Start one fresh interpreter on job; return (its result or None,
    the monotonic time it was started at, an error message)."""
    env = {k: v for k, v in os.environ.items() if k not in IGNORED_ENV}
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(job)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, started, f"timed out after {REP_TIMEOUT} s"
    if proc.returncode != 0:
        return None, started, f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), started, ""
    except (IndexError, json.JSONDecodeError):
        return None, started, f"unreadable output: {proc.stdout[-2000:]!r}"


class Run:
    """The repetitions of one workload at one seed, and their checks."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.job = self.workload.job(seed)
        self.reps: list[dict] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.reference: dict | None = None

    @property
    def failed(self) -> int:
        return len(self.errors)

    def repeat(self, **extra) -> dict | None:
        """One checked repetition; None when it failed."""
        self.attempted += 1
        result, started, error = run_child({**self.job, **extra})
        if result is not None:
            report = result["report"]
            problems = self.workload.check(report, self.seed)
            # every repetition of one seed must give the same report bytes
            if self.reference is None:
                self.reference = strip_timing(report)
            elif strip_timing(report) != self.reference:
                problems.append("report differs from the first repetition's")
            if problems:
                error = "; ".join(problems)
        if error:
            self.errors.append(f"repetition {self.attempted}: {error}")
            return None
        result["setup_s"] = result["t_call"] - started
        self.reps.append(result)
        return result

    def setup_samples(self) -> list[float]:
        samples = []
        for _ in range(SETUP_STARTS):
            result, started, error = run_child({**self.job, "setup_only": True})
            if result is None:
                raise SystemExit(f"set-up failed: {error}")
            samples.append(result["t_call"] - started)
        return samples

    def end_to_end(self, seconds: float) -> dict:
        t0 = time.monotonic()
        run_child({**self.job, "setup_only": True})  # compiles bytecode once
        setup = self.setup_samples()
        # the set-up starts count against --seconds, and a repetition is
        # started only while at least half of a typical one still fits, so
        # a run ends within half a repetition of --seconds either way
        cycles = []
        while True:
            started = time.monotonic()
            self.repeat()
            cycles.append(time.monotonic() - started)
            if time.monotonic() - t0 + statistics.median(cycles) / 2 > seconds:
                break
        if not self.reps:
            return {}
        setup += [r["setup_s"] for r in self.reps]
        checked = self.reps[0]["report"]["checked"]
        samples = {
            "wall_s": [r["wall_s"] for r in self.reps],
            "graphs_per_s": [checked / r["wall_s"] for r in self.reps],
            "setup_s": setup,
            "peak_rss_mb": [r["peak_rss_mb"] for r in self.reps],
        }
        return {name: (samples[name], unit) for name, unit in END_TO_END}

    def per_layer(self) -> dict:
        os.makedirs(OUT_DIR, exist_ok=True)
        plain = self.repeat()
        traced = []
        for i in (1, 2):
            spans = os.path.join(OUT_DIR, f"spans-{self.workload.name}-seed{self.seed}-{i}.npz")
            rep = self.repeat(trace=True, spans_out=spans)
            if rep is not None:
                traced.append(rep)
        if plain is None or len(traced) < 2:
            return {}
        first, second = (t["layers"] for t in traced)
        differ = [f"{m} {first[m]} != {second[m]}" for m in DETERMINISTIC
                  if m in first and first[m] != second[m]]
        if differ:
            self.errors.append("counts differ across traced runs: " + ", ".join(differ))
        wall = statistics.median(t["wall_s"] for t in traced)
        values = {
            name: statistics.median([v, second[name]]) if UNITS[name] == "s" else v
            for name, v in first.items()
        }
        values["trace.overhead_s"] = wall - plain["wall_s"]
        return {name: ([values[name]], unit) for name, unit, _ in METRICS}


def describe(name: str, samples: list[float], unit: str) -> str:
    line = f"  {name:32s} {statistics.median(samples):.6g} {unit}"
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        line += f"   (q1 {q1:.6g}, q3 {q3:.6g}, {len(samples)} samples)"
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run unwinds through subprocess.run, which kills and reaps
    # the repetition it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "clawtrace", "__init__.py")):
        print(f"no clawtrace sources under {ROOT}/src", file=sys.stderr)
        return 2

    env = environment()
    names = [args.workload] if args.workload else list(WORKLOADS)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    metrics: dict = {}
    attempted = failed = 0
    records = []
    for name in names:
        run = Run(WORKLOADS[name], args.seed)
        found = run.per_layer() if args.trace else run.end_to_end(args.seconds)
        print(f"# workload={name} seed={args.seed} trace={args.trace}")
        for metric, (samples, unit) in found.items():
            print(describe(metric, samples, unit))
            key = metric if args.workload else f"{name}.{metric}"
            metrics[key] = {"value": statistics.median(samples), "unit": unit}
        share = run.failed / run.attempted
        print(f"  {'runs_failed':32s} {share:.6g} share   ({run.failed} of {run.attempted} repetitions)")
        for error in run.errors:
            print(f"  FAILED {error}", file=sys.stderr)
        attempted += run.attempted
        failed += run.failed
        records.append({
            "workload": name, "seed": args.seed, "trace": args.trace, "env": env,
            "job": run.job, "samples": {m: s for m, (s, _) in found.items()},
            "errors": run.errors,
        })
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = args.workload or "all"
    with open(os.path.join(OUT_DIR, f"result-{tag}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
