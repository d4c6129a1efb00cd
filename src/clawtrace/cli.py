"""Batch command line over the library: graphs travel as graph6 lines.

Subcommands: analyze, closure, construct, spectral, enumerate, verify, hunt.
`-` means stdin wherever a graph6 argument is expected.  Text output is
human-oriented; `--format json` is the stable machine contract.  Exit codes:
0 ok/pass, 1 a verification run or hunt found an unmatched counterexample,
2 usage error or infeasible request.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterator, Sequence

from . import graph6
from .enumeration import _run_sample, exhaustive_orders
from .errors import ClawtraceError, InfeasibleSpec
from .families import FamilySpec, make
from .families import graph_l, graph_m, net
from .graph import Graph, complement, components, is_block_chain, is_complete, separations
from .hamilton import MAX_EXACT, has_hamilton_cycle, has_hamilton_path
from .spectral import DEFAULT_CMP_TOL, hofmeister_bound, hong_bound, spectral_radius
from .structure import closure, find_induced, is_claw_free, is_closed
from .verify import REGISTRY, hunt, verify

_THEOREMS = {
    "fiedler-nikiforov-1": "FiedlerNikiforov1",
    "fiedler-nikiforov-2": "FiedlerNikiforov2",
    "lu-liu-tian": "LuLiuTian",
    "ning-ge": "NingGe",
    "main-mu": "MainMuG",
    "main-complement": "MainComplement",
    "dgj": "DGJ",
    "lbz": "LBZ",
    "degree-sum": "DegreeSumLemma",
    "edge-lemma": "EdgeLemma",
    "edge-lemma-prime": "EdgeLemmaPrime",
    "hong": "Hong",
    "hofmeister": "Hofmeister",
    "brousek-order-9": "BrousekOrder9",
    "hamiltonian-family": "HamiltonianFamily",
    "dirac": "Dirac",
    "matthews-sumner": "MatthewsSumner",
}

_FAMILIES = {
    "complete": "Complete",
    "star": "Star",
    "complete-split": "CompleteSplit",
    "n-graph": "Nn33",
    "net": "NetN",
    "graph-m": "GraphM",
    "graph-l": "GraphL",
    "claw": "Claw",
    "ning-ge": "NingGe",
    "brousek": "Brousek",
    "brousek-blown": "BrousekBlown",
    "complete-plus-k1": "CompletePlusIsolated",
}


def _resolve_theorem(name: str) -> str:
    if name in _THEOREMS:
        return _THEOREMS[name]
    if name in REGISTRY:
        return name
    raise InfeasibleSpec(
        f"unknown theorem {name!r}; choices: {', '.join(sorted(_THEOREMS))}"
    )


def _input_graphs(arg: str) -> Iterator[Graph]:
    if arg == "-":
        for line in sys.stdin:
            s = line.strip()
            if s:
                yield graph6.decode(s)
    else:
        yield graph6.decode(arg)


def _print_kv(info: dict) -> None:
    for key, value in info.items():
        print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# subcommands


def _block_counts(g: Graph) -> tuple[int, int]:
    """Blocks and cut vertices of a connected g.  The block-cut tree has one
    edge per component of g - c at each cut vertex c, and a tree has one
    node more than it has edges."""
    cuts = [len(comps) for comps in separations(g) if len(comps) >= 2]
    return 1 + sum(cuts) - len(cuts), len(cuts)


def _analyze_one(g: Graph) -> dict:
    comps = components(g)
    connected = len(comps) == 1
    info: dict = {
        "graph6": graph6.encode(g),
        "n": g.n,
        "m": g.m,
        "degrees": g.degrees(),
        "connected": connected,
        "components": len(comps),
    }
    info["blocks"], info["cut_vertices"] = _block_counts(g) if connected else (None, None)
    info["block_chain"] = is_block_chain(g)
    claw_free = is_claw_free(g)
    info["claw_free"] = claw_free
    info["spectral_radius"] = spectral_radius(g).value
    info["hong_bound"] = hong_bound(g) if connected else None
    info["hofmeister_bound"] = hofmeister_bound(g)
    exact = g.n <= MAX_EXACT
    info["traceable"] = has_hamilton_path(g) if exact else None
    info["hamiltonian"] = has_hamilton_cycle(g) if exact else None
    info["closed"] = is_closed(g) if claw_free else None
    info["induced_net"] = find_induced(g, net()) is not None
    info["induced_m"] = find_induced(g, graph_m()) is not None
    info["induced_l"] = find_induced(g, graph_l()) is not None
    return info


def _cmd_analyze(args: argparse.Namespace) -> int:
    first = True
    for g in _input_graphs(args.graph):
        info = _analyze_one(g)
        if args.format == "json":
            print(json.dumps(info))
        else:
            if not first:
                print()
            _print_kv(info)
        first = False
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    for g in _input_graphs(args.graph):
        result = closure(g)
        steps = [
            {"vertex": s.vertex, "added": [list(e) for e in s.added]}
            for s in result.steps
        ]
        if args.format == "json":
            print(json.dumps({
                "graph6": graph6.encode(g),
                "closed": graph6.encode(result.closed),
                "complete": is_complete(result.closed),
                "steps": steps,
            }))
        else:
            for i, s in enumerate(result.steps):
                edges = " ".join(f"({u},{w})" for u, w in s.added)
                print(f"step {i}: complete vertex {s.vertex}, add {edges}")
            if not result.steps:
                print("already closed")
            print(f"closed: {graph6.encode(result.closed)}")
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.family not in _FAMILIES:
        raise InfeasibleSpec(
            f"unknown family {args.family!r}; choices: {', '.join(sorted(_FAMILIES))}"
        )
    spec = FamilySpec(_FAMILIES[args.family], tuple(args.params))
    g = make(spec)
    if args.format == "json":
        print(json.dumps({"family": spec.label(), "graph6": graph6.encode(g)}))
    else:
        print(graph6.encode(g))
    return 0


def _cmd_spectral(args: argparse.Namespace) -> int:
    for g in _input_graphs(args.graph):
        target = complement(g) if args.complement else g
        est = spectral_radius(target)
        info = {
            "graph6": graph6.encode(g),
            "complement": args.complement,
            "value": est.value,
            "iterations": est.iterations,
            "converged": est.converged,
            "residual": est.residual,
        }
        if args.format == "json":
            print(json.dumps(info))
        else:
            which = "mu(complement)" if args.complement else "mu"
            print(f"{which} = {est.value:.12f}  "
                  f"(iterations={est.iterations}, converged={est.converged})")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    chain = tuple(args.predicates)

    def emit(g: Graph) -> None:
        s = graph6.encode(g)
        if args.format == "json":
            print(json.dumps({"graph6": s}))
        else:
            print(s)

    if args.mode == "sample":
        if args.checkpoint is not None:
            raise InfeasibleSpec("checkpoint applies to exhaustive mode only")
        _run_sample(args.n, chain, args.count, args.seed, args.density, emit)
    else:
        for graphs in exhaustive_orders(chain, args.n, args.n, args.workers, args.checkpoint):
            for g in graphs:
                emit(g)
    return 0


def _finish(args: argparse.Namespace, report, text: Callable[[dict], None]) -> int:
    """The tail verify and hunt share: the JSON report with its verdict, or
    the text lines and a result line; exit 1 when the run failed."""
    d = report.to_dict()
    if args.format == "json":
        d["passed"] = report.passed
        print(json.dumps(d))
    else:
        text(d)
        print(f"result: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _verify_lines(d: dict) -> None:
    for key in ("theorem", "n_range", "mode", "checked", "seed"):
        if d.get(key) is not None:
            print(f"{key}: {d[key]}")
    print(f"exceptions ({len(d['exceptions'])}):")
    for g6_str, label in d["exceptions"]:
        print(f"  {g6_str}  {label}")
    print(f"borderline ({len(d['borderline'])}):")
    for g6_str in d["borderline"]:
        print(f"  {g6_str}")
    print(f"elapsed_ms: {d['elapsed_ms']}")


def _hunt_lines(d: dict) -> None:
    print(f"theorem: {d['theorem']}")
    print(f"n: {d['n']}")
    print(f"checked: {d['checked']}")
    print(f"counterexamples ({len(d['counterexamples'])}):")
    for g6_str, label in d["counterexamples"]:
        print(f"  {g6_str}  {label}")
    print(f"near misses ({len(d['near_misses'])}):")
    for g6_str, margin in d["near_misses"]:
        print(f"  {g6_str}  margin={margin:+.6f}")


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify(
        _resolve_theorem(args.theorem),
        args.n_min,
        args.n_max,
        mode=args.mode,
        count=args.count,
        seed=args.seed,
        density=args.density,
        workers=args.workers,
        cmp_tol=args.cmp_tol,
    )
    return _finish(args, report, _verify_lines)


def _cmd_hunt(args: argparse.Namespace) -> int:
    report = hunt(
        _resolve_theorem(args.theorem),
        n=args.n,
        seed=args.seed,
        count=args.count,
        density=args.density,
        top=args.top,
        cmp_tol=args.cmp_tol,
    )
    return _finish(args, report, _hunt_lines)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    # only the subcommands that compare a spectrum with a threshold take
    # the tolerance
    tolerances = argparse.ArgumentParser(add_help=False)
    # the environment is read here only; argparse converts a string default
    # with `type`, so a malformed value is a usage error
    tolerances.add_argument("--cmp-tol", type=float,
                            default=os.environ.get("CMP_TOL", DEFAULT_CMP_TOL),
                            help="threshold comparison tolerance (default "
                                 "%(default)s; set by CMP_TOL when present)")
    # the graph source options that enumerate and verify share
    sources = argparse.ArgumentParser(add_help=False)
    sources.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    sources.add_argument("--count", type=int, default=None)
    sources.add_argument("--seed", type=int, default=None)
    sources.add_argument("--density", type=float, default=0.9)
    sources.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                         help="processes for the exhaustive sweep; every other "
                              "graph source ignores it")

    parser = argparse.ArgumentParser(
        prog="clawtrace",
        description="spectral traceability toolkit for claw-free graphs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="report structure and spectra of graph6 input")
    p.add_argument("graph", help="graph6 string, or - for stdin lines")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("closure", parents=[common],
                       help="claw-free closure with step trace")
    p.add_argument("graph", help="graph6 string, or - for stdin lines")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("construct", parents=[common],
                       help="emit a named family member as graph6")
    p.add_argument("family", help=", ".join(sorted(_FAMILIES)))
    p.add_argument("params", type=int, nargs="*")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("spectral", parents=[common],
                       help="spectral radius of the graph or its complement")
    p.add_argument("graph", help="graph6 string, or - for stdin lines")
    p.add_argument("--complement", action="store_true")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("enumerate", parents=[common, sources],
                       help="stream one graph6 line per isomorphism class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--predicates", nargs="*",
                   default=["connected", "claw-free"],
                   help="connected claw-free net-free m-free closed two-connected")
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", parents=[common, tolerances, sources],
                       help="run one theorem verifier over an order range")
    p.add_argument("theorem", help=", ".join(sorted(_THEOREMS)))
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hunt", parents=[common, tolerances],
                       help="sampled counterexample search at one order")
    p.add_argument("--theorem", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--density", type=float, default=0.9)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=_cmd_hunt)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except ClawtraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
