"""The per-layer metrics of the traced run, one layer per clawtrace module.

Every `_s` metric is a self time: the time inside that layer's spans minus
the time of the spans they opened, so a layer is never charged for the
layers it calls.
"""
from __future__ import annotations

import sys

from tracer import Probe, SpanRecorder

# Bytes per DP state that stay allocated for a whole _run_dp call: the
# int32 endpoint table and the uint8 popcount table.
DP_BYTES_PER_STATE = 4 + 1


def _add(counters: dict, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def _tally_children(counters, _args, result) -> None:
    _add(counters, "enumeration.children_accepted", len(result))


def _tally_emitted(counters, _args, result) -> None:
    _add(counters, "enumeration.sample_emitted", result)


def _tally_spectral(counters, _args, result) -> None:
    _add(counters, "spectral.iterations", result.iterations)
    counters["spectral.iterations_max"] = max(
        counters.get("spectral.iterations_max", 0), result.iterations
    )


def _tally_dp(counters, args, _result) -> None:
    states = 1 << args[0].n
    _add(counters, "hamilton.dp_states", states)
    counters["hamilton.dp_bytes"] = max(
        counters.get("hamilton.dp_bytes", 0), DP_BYTES_PER_STATE * states
    )


def _tally_decide(counters, _args, result) -> None:
    if result is None:
        _add(counters, "verify.decide_undecided", 1)


PROBES = [
    Probe("clawtrace.canon", "canonical_labeling", "canon.labeling"),
    Probe("clawtrace.enumeration", "_expand_parent", "enumeration.augment", tally=_tally_children),
    Probe("clawtrace.enumeration", "_attach", "enumeration.attach", timed=False),
    Probe("clawtrace.enumeration", "sample_dense_claw_free", "enumeration.sample"),
    Probe("clawtrace.enumeration", "_run_sample", "enumeration.run_sample", timed=False,
          tally=_tally_emitted),
    Probe("clawtrace.structure", "is_claw_free", "structure.is_claw_free"),
    Probe("clawtrace.structure", "closure", "structure.closure"),
    Probe("clawtrace.structure", "find_induced", "structure.find_induced"),
    Probe("clawtrace.spectral", "spectral_radius", "spectral.radius", tally=_tally_spectral),
    Probe("clawtrace.hamilton", "_run_dp", "hamilton.dp", tally=_tally_dp),
    Probe("clawtrace.verify", "decide_traceable", "verify.decide", tally=_tally_decide),
    Probe("clawtrace.verify", "match_exception", "verify.match"),
    Probe("clawtrace.verify", "_is_pendant_family", "verify.match"),
    Probe("clawtrace.verify", "is_spanning_subgraph_of_pendant_family", "verify.match"),
    Probe("clawtrace.graph6", "encode", "graph6.encode"),
    Probe("clawtrace.graph6", "decode", "graph6.decode"),
]

# (metric, unit, better): every per-layer metric, in report order
METRICS = [
    ("canon.labeling_calls", "count", "lower"),
    ("canon.labeling_s", "s", "lower"),
    ("canon.form_cache_hits", "count", "higher"),
    ("canon.form_cache_misses", "count", "lower"),
    ("enumeration.augment_s", "s", "lower"),
    ("enumeration.children_tried", "count", "lower"),
    ("enumeration.children_accepted", "count", "higher"),
    ("enumeration.accept_ratio", "ratio", "higher"),
    ("enumeration.sample_calls", "count", "lower"),
    ("enumeration.sample_s", "s", "lower"),
    ("enumeration.sample_accept_ratio", "ratio", "higher"),
    ("structure.is_claw_free_calls", "count", "lower"),
    ("structure.is_claw_free_s", "s", "lower"),
    ("structure.closure_calls", "count", "lower"),
    ("structure.closure_s", "s", "lower"),
    ("structure.find_induced_calls", "count", "lower"),
    ("spectral.radius_calls", "count", "lower"),
    ("spectral.radius_s", "s", "lower"),
    ("spectral.iterations", "count", "lower"),
    ("spectral.iterations_max", "count", "lower"),
    ("hamilton.dp_calls", "count", "lower"),
    ("hamilton.dp_s", "s", "lower"),
    ("hamilton.dp_states", "count", "lower"),
    ("hamilton.dp_bytes", "bytes_computed", "lower"),
    ("verify.decide_calls", "count", "lower"),
    ("verify.decide_s", "s", "lower"),
    ("verify.decide_dp_fallbacks", "count", "lower"),
    ("verify.decide_undecided", "count", "lower"),
    ("verify.match_calls", "count", "lower"),
    ("verify.match_s", "s", "lower"),
    ("graph6.encode_calls", "count", "lower"),
    ("graph6.decode_calls", "count", "lower"),
    ("graph6.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}
# metrics that must repeat exactly across two traced runs of one seed
DETERMINISTIC = [name for name, unit, _ in METRICS if unit != "s"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def form_cache_info():
    return sys.modules["clawtrace.canon"].canonical_form.cache_info()


def layer_metrics(rec: SpanRecorder, cache_before, cache_after) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, which needs an
    untraced run to compare against."""
    own = rec.self_times()
    calls = rec.calls
    c = rec.counters
    tried = calls["enumeration.attach"]
    accepted = c.get("enumeration.children_accepted", 0)
    return {
        "canon.labeling_calls": calls["canon.labeling"],
        "canon.labeling_s": own.get("canon.labeling", 0.0),
        "canon.form_cache_hits": cache_after.hits - cache_before.hits,
        "canon.form_cache_misses": cache_after.misses - cache_before.misses,
        "enumeration.augment_s": own.get("enumeration.augment", 0.0),
        "enumeration.children_tried": tried,
        "enumeration.children_accepted": accepted,
        "enumeration.accept_ratio": _ratio(accepted, tried),
        "enumeration.sample_calls": calls["enumeration.sample"],
        "enumeration.sample_s": own.get("enumeration.sample", 0.0),
        "enumeration.sample_accept_ratio": _ratio(
            c.get("enumeration.sample_emitted", 0), calls["enumeration.sample"]
        ),
        "structure.is_claw_free_calls": calls["structure.is_claw_free"],
        "structure.is_claw_free_s": own.get("structure.is_claw_free", 0.0),
        "structure.closure_calls": calls["structure.closure"],
        "structure.closure_s": own.get("structure.closure", 0.0),
        "structure.find_induced_calls": calls["structure.find_induced"],
        "spectral.radius_calls": calls["spectral.radius"],
        "spectral.radius_s": own.get("spectral.radius", 0.0),
        "spectral.iterations": c.get("spectral.iterations", 0),
        "spectral.iterations_max": c.get("spectral.iterations_max", 0),
        "hamilton.dp_calls": calls["hamilton.dp"],
        "hamilton.dp_s": own.get("hamilton.dp", 0.0),
        "hamilton.dp_states": c.get("hamilton.dp_states", 0),
        "hamilton.dp_bytes": c.get("hamilton.dp_bytes", 0),
        "verify.decide_calls": calls["verify.decide"],
        "verify.decide_s": own.get("verify.decide", 0.0),
        "verify.decide_dp_fallbacks": rec.count_children("hamilton.dp", "verify.decide"),
        "verify.decide_undecided": c.get("verify.decide_undecided", 0),
        "verify.match_calls": calls["verify.match"],
        "verify.match_s": own.get("verify.match", 0.0),
        "graph6.encode_calls": calls["graph6.encode"],
        "graph6.decode_calls": calls["graph6.decode"],
        "graph6.s": own.get("graph6.encode", 0.0) + own.get("graph6.decode", 0.0),
    }
