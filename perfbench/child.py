"""One benchmark repetition, run in a fresh interpreter.

    python3 perfbench/child.py '<json job>'

The job names a library entry point (`verify` or `hunt`) and its keyword
arguments.  The child imports clawtrace from the checkout's `src/`, builds
the call, and prints one JSON line: the monotonic clock reading just before
the call (the end of set-up), the call's wall time, the process's peak
resident set and the report.  With `setup_only` it stops before the call.
With `trace` it installs the span recorder first, reports the per-layer
metrics and writes the spans to `spans_out`.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import clawtrace

    entry = getattr(clawtrace, job["entry"])
    kwargs = dict(job["kwargs"])
    out: dict = {}
    rec = None
    if job.get("trace"):
        import layers
        from tracer import SpanRecorder

        rec = SpanRecorder()
        rec.install(layers.PROBES)
        cache_before = layers.form_cache_info()
    out["t_call"] = time.monotonic()
    if job.get("setup_only"):
        print(json.dumps(out))
        return
    t0 = time.perf_counter()
    report = entry(**kwargs)
    out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["report"] = report.to_dict()
    if rec is not None:
        rec.uninstall()
        out["layers"] = layers.layer_metrics(rec, cache_before, layers.form_cache_info())
        if job.get("spans_out"):
            rec.write(job["spans_out"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
