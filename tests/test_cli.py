import ast
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import clawtrace
from clawtrace import cli, errors, graph6
from clawtrace.enumeration import exhaustive_orders, sample_dense_claw_free
from clawtrace.errors import InfeasibleSpec, InvalidParams, NotClawFree, OrderOutOfRange
from clawtrace.families import brousek, claw, complete, nn33
from clawtrace.graph import complement, from_edges
from clawtrace.spectral import spectral_radius
from clawtrace.verify import hunt, verify

import frozen
from oracles import edge_list


def wheel6():
    spokes = [(0, i) for i in range(1, 6)]
    rim = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    return from_edges(6, spokes + rim)


# ---------------------------------------------------------------------------
# analyze


def test_construct_pipe_analyze(capsys, monkeypatch):
    assert cli.run(["construct", "n-graph", "8"]) == 0
    line = capsys.readouterr().out.strip()
    monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
    assert cli.run(["analyze", "-", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["claw_free"] is True
    assert d["traceable"] is False
    assert d["spectral_radius"] >= 4 - 1e-9
    assert d["n"] == 8 and d["connected"] is True
    assert d["induced_net"] is True


def test_analyze_json_key_order(capsys):
    assert cli.run(["analyze", frozen.G6_NET, "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert list(d) == [
        "graph6", "n", "m", "degrees", "connected", "components",
        "blocks", "cut_vertices", "block_chain", "claw_free",
        "spectral_radius", "hong_bound", "hofmeister_bound",
        "traceable", "hamiltonian", "closed",
        "induced_net", "induced_m", "induced_l",
    ]
    assert d["closed"] is True and d["induced_net"] is True
    assert d["traceable"] is False and d["hamiltonian"] is False


def test_analyze_disconnected_fields(capsys):
    assert cli.run(["analyze", "C?", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["connected"] is False and d["components"] == 4
    assert d["blocks"] is None and d["hong_bound"] is None
    assert d["block_chain"] is False


def test_analyze_structure_is_frozen():
    keys = ("connected", "components", "blocks", "cut_vertices", "block_chain")
    rows = [
        [cli._analyze_one(g)[k] for k in keys]
        for graphs in exhaustive_orders((), 1, 6)
        for g in graphs
    ]
    assert len(rows) == 208
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == frozen.ANALYZE_STRUCTURE_SHA256


def test_analyze_stdin_multiline(capsys, monkeypatch):
    text = frozen.G6_NET + "\n\n" + graph6.encode(complete(4)) + "\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.run(["analyze", "-", "--format", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["n"] == 4


def test_analyze_text_format(capsys):
    assert cli.run(["analyze", frozen.G6_NET]) == 0
    out = capsys.readouterr().out
    assert "claw_free: True" in out and "graph6: " in out


# ---------------------------------------------------------------------------
# closure


def test_closure_steps_replay(capsys):
    g = wheel6()
    assert cli.run(["closure", graph6.encode(g), "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["complete"] is True
    edges = set(edge_list(g))
    for step in d["steps"]:
        for u, v in step["added"]:
            edges.add((min(u, v), max(u, v)))
    replayed = from_edges(g.n, sorted(edges))
    assert replayed.adj == graph6.decode(d["closed"]).adj


def _closure_corpus():
    graphs = [g for level in exhaustive_orders(("connected", "claw-free"), 1, 8) for g in level]
    # every tenth of acceptance test 05's sampled graphs, same seeds and sizes
    for i in range(0, 10_000, 10):
        n = 4 + (i % 13)
        target = (n - 1) + (i * 7919) % (math.comb(n, 2) - n + 2)
        graphs.append(sample_dense_claw_free(n, target, seed=500_000 + i))
    return graphs


def test_closure_trace_is_frozen(capsys, monkeypatch):
    graphs = _closure_corpus()
    assert len(graphs) == 2145
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(graph6.encode(g) + "\n" for g in graphs)))
    assert cli.run(["closure", "-", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == frozen.CLOSURE_TRACE_SHA256


def test_closure_text_already_closed(capsys):
    assert cli.run(["closure", graph6.encode(complete(5))]) == 0
    assert "already closed" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# construct / spectral


def test_construct_families(capsys):
    assert cli.run(["construct", "complete-split", "3", "8"]) == 0
    g = graph6.decode(capsys.readouterr().out.strip())
    assert sorted(g.degrees()) == [3] * 5 + [7] * 3
    assert cli.run(["construct", "brousek", "0", "3", "3", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["family"] == "Brousek(T,3,3)"
    assert d["graph6"] == graph6.encode(brousek(0, 3, 3))


def test_construct_errors_exit_2(capsys):
    assert cli.run(["construct", "mystery-family", "4"]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.run(["construct", "complete-split", "3"]) == 2
    assert "CompleteSplit" in capsys.readouterr().err


# one request per error class, with the message the CLI prints for it
ERROR_CASES = [
    (InvalidParams, ["construct", "n-graph", "5"], "pendant family needs n >= 6, got 5"),
    (OrderOutOfRange, ["construct", "complete", "65"], "order 65 outside 1..64"),
    (NotClawFree, ["closure", graph6.encode(claw())],
     "closure is defined for claw-free graphs only"),
    (InfeasibleSpec, ["construct", "mystery-family", "4"],
     "unknown family 'mystery-family'; choices: brousek, brousek-blown, claw, complete, "
     "complete-plus-k1, complete-split, graph-l, graph-m, n-graph, net, ning-ge, star"),
    (InfeasibleSpec, ["verify", "nothing", "--n-min", "6", "--n-max", "7"],
     "unknown theorem 'nothing'; choices: brousek-order-9, degree-sum, dgj, dirac, "
     "edge-lemma, edge-lemma-prime, fiedler-nikiforov-1, fiedler-nikiforov-2, "
     "hamiltonian-family, hofmeister, hong, lbz, lu-liu-tian, main-complement, main-mu, "
     "matthews-sumner, ning-ge"),
    (InfeasibleSpec, ["enumerate", "--n", "12", "--mode", "sample", "--count", "3",
                      "--seed", "1", "--checkpoint", "F"],
     "checkpoint applies to exhaustive mode only"),
]


@pytest.mark.parametrize("cls, argv, message", ERROR_CASES,
                         ids=[f"{cls.__name__}-{argv[0]}" for cls, argv, _ in ERROR_CASES])
def test_each_error_class_exits_2_with_its_message(cls, argv, message, capsys,
                                                   monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as info:
        args.func(args)
    assert type(info.value) is cls
    capsys.readouterr()
    assert cli.run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_spectral_complement_flag(capsys):
    s = graph6.encode(nn33(8))
    assert cli.run(["spectral", s, "--format", "json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert cli.run(["spectral", s, "--complement", "--format", "json"]) == 0
    comp = json.loads(capsys.readouterr().out)
    assert abs(plain["value"] - spectral_radius(nn33(8)).value) < 1e-9
    assert abs(comp["value"] - spectral_radius(complement(nn33(8))).value) < 1e-9
    assert comp["complement"] is True and plain["converged"] is True


def test_spectral_accepts_order_64(capsys):
    assert cli.run(["spectral", graph6.encode(complete(64)), "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert abs(d["value"] - 63.0) < 1e-9
    assert d["iterations"] == 0 and d["converged"] is True


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_line_count(capsys):
    assert cli.run(["enumerate", "--n", "6", "--workers", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == frozen.COUNTS[6][2]
    assert len(set(lines)) == len(lines)
    assert all(graph6.decode(s).n == 6 for s in lines)


def test_enumerate_sample_bytes_deterministic(capsys):
    args = ["enumerate", "--n", "12", "--mode", "sample",
            "--count", "8", "--seed", "3"]
    outs = []
    for workers in ("1", "2", "2"):
        assert cli.run(args + ["--workers", workers]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert len(outs[0].splitlines()) == 8


def test_enumerate_sample_needs_count_and_seed(capsys):
    assert cli.run(["enumerate", "--n", "12", "--mode", "sample"]) == 2
    assert "count" in capsys.readouterr().err


def test_enumerate_sample_refuses_checkpoint(capsys, tmp_path):
    ck = tmp_path / "cks.txt"
    assert cli.run(["enumerate", "--n", "10", "--mode", "sample", "--count", "3",
                    "--seed", "1", "--checkpoint", str(ck)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "exhaustive mode only" in err
    assert not ck.exists()


@pytest.mark.parametrize("argv", sorted(frozen.SAMPLE_STREAM_SHA256))
def test_enumerate_sample_stream_is_frozen(argv, capsys):
    # regression-only: the graphs, and their order, of a sampled stream
    assert cli.run(["enumerate", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == frozen.SAMPLE_STREAM_SHA256[argv]


REFUSED = [
    ["enumerate", "--n", "10", "--checkpoint", "F"],
    ["enumerate", "--n", "0", "--checkpoint", "F"],
    ["enumerate", "--n", "31", "--mode", "sample", "--count", "1", "--seed", "0"],
    ["enumerate", "--n", "12", "--mode", "sample", "--count", "1", "--seed", "0",
     "--density", "1.5"],
    ["enumerate", "--n", "12", "--mode", "sample", "--count", "-1", "--seed", "0"],
    ["enumerate", "--n", "6", "--predicates", "bogus", "--checkpoint", "F"],
    ["enumerate", "--n", "6", "--predicates", "connected", "closed", "--checkpoint", "F"],
    ["enumerate", "--n", "12", "--mode", "sample"],
    ["enumerate", "--n", "12", "--mode", "sample", "--count", "3", "--seed", "1",
     "--checkpoint", "F"],
    ["verify", "main-mu", "--n-min", "6", "--n-max", "10"],
    ["verify", "main-complement", "--mode", "sample", "--n-min", "24", "--n-max", "31",
     "--count", "3", "--seed", "1"],
    ["hunt", "--theorem", "main-mu", "--n", "31", "--seed", "1", "--count", "1"],
    ["hunt", "--theorem", "main-mu", "--n", "8", "--seed", "1", "--count", "1",
     "--density", "2"],
    ["hunt", "--theorem", "main-mu", "--n", "12", "--seed", "-3", "--count", "2"],
    ["enumerate", "--n", "10", "--mode", "sample", "--count", "2", "--seed", "-1"],
    ["verify", "main-complement", "--mode", "sample", "--n-min", "24", "--n-max", "25",
     "--count", "2", "--seed", "-30"],
    ["verify", "hamiltonian-family", "--n-min", "9", "--n-max", "30"],
    ["verify", "brousek-order-9", "--mode", "sample", "--n-min", "24", "--n-max", "26",
     "--count", "3", "--seed", "0"],
    ["enumerate", "--n", "6", "--workers", "0", "--checkpoint", "F"],
]


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_refused_request_exits_2_and_writes_nothing(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("CMP_TOL", raising=False)
    monkeypatch.chdir(tmp_path)
    assert cli.run(argv) == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_foreign_checkpoint_refused_at_order_1(capsys, tmp_path):
    # order 1 expands no level, and the file is still checked and left as is
    ck = tmp_path / "F"
    ck.write_bytes(b"garbage\n")
    assert cli.run(["enumerate", "--n", "1", "--checkpoint", str(ck)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "another run" in err
    assert ck.read_bytes() == b"garbage\n"


# ---------------------------------------------------------------------------
# verify / hunt


def test_verify_pass_json(capsys):
    rc = cli.run(["verify", "main-mu", "--n-min", "6", "--n-max", "7",
                  "--format", "json", "--workers", "1"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d["passed"] is True
    assert d["exceptions"] == [[frozen.G6_NET, "Nn33(6)"],
                               [frozen.G6_PENDANT_7, "Nn33(7)"]]
    assert d["n_range"] == [6, 7] and d["seed"] is None


def test_verify_fail_exit_1(capsys, monkeypatch):
    # widened comparison tolerance admits sub-threshold non-traceable
    # graphs, so the run honestly fails with Unmatched entries
    monkeypatch.delenv("CMP_TOL", raising=False)
    rc = cli.run(["verify", "main-mu", "--n-min", "7", "--n-max", "7",
                  "--cmp-tol", "0.5", "--format", "json", "--workers", "1"])
    assert rc == 1
    d = json.loads(capsys.readouterr().out)
    assert d["passed"] is False
    assert any(label == "Unmatched" for _, label in d["exceptions"])
    # the flag reached verify() as an argument and left nothing behind for
    # a later library call in the same process
    assert "CMP_TOL" not in os.environ
    r = verify("MainMuG", 7, 7)
    assert r.passed and len(r.borderline) == 2


def test_cmp_tol_env_sets_cli_default_only(capsys, monkeypatch):
    args = ["verify", "main-mu", "--n-min", "7", "--n-max", "7",
            "--format", "json", "--workers", "1"]
    monkeypatch.delenv("CMP_TOL", raising=False)
    assert cli.run(args) == 0
    plain = json.loads(capsys.readouterr().out)
    monkeypatch.setenv("CMP_TOL", "0.5")
    assert cli.run(args) == 1
    widened = json.loads(capsys.readouterr().out)
    assert len(widened["borderline"]) > len(plain["borderline"])
    # the flag wins over the variable
    assert cli.run(args + ["--cmp-tol", "1e-9"]) == 0
    assert json.loads(capsys.readouterr().out)["borderline"] == plain["borderline"]
    # the library never reads the environment
    r = verify("MainMuG", 7, 7)
    assert r.passed and list(r.borderline) == plain["borderline"]


def test_verify_text_result_line(capsys):
    rc = cli.run(["verify", "dirac", "--n-min", "2", "--n-max", "6",
                  "--workers", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out and "exceptions (0):" in out


def test_verify_rejections_exit_2(capsys):
    assert cli.run(["verify", "mystery", "--n-min", "6", "--n-max", "7"]) == 2
    assert "unknown theorem" in capsys.readouterr().err
    assert cli.run(["verify", "main-mu", "--n-min", "1", "--n-max", "4"]) == 2
    assert "applies from" in capsys.readouterr().err
    assert cli.run(["verify", "main-complement", "--n-min", "24",
                    "--n-max", "24"]) == 2
    assert "sample" in capsys.readouterr().err


def test_out_of_range_numbers_exit_2(capsys, monkeypatch):
    # a negative or non-finite tolerance and a negative --top are usage
    # errors, never counterexamples or silently shortened lists
    monkeypatch.delenv("CMP_TOL", raising=False)
    assert cli.run(["verify", "main-mu", "--n-min", "7", "--n-max", "7",
                    "--cmp-tol", "-0.5", "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "cmp_tol" in err
    hunt_args = ["hunt", "--theorem", "main-mu", "--n", "8", "--seed", "3",
                 "--count", "40", "--density", "0.3"]
    assert cli.run(hunt_args + ["--cmp-tol", "nan"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "cmp_tol" in err
    assert cli.run(hunt_args + ["--top", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "top" in err
    monkeypatch.setenv("CMP_TOL", "inf")
    assert cli.run(hunt_args) == 2
    assert "cmp_tol" in capsys.readouterr().err


def test_bad_graph6_exit_2(capsys):
    assert cli.run(["analyze", "~~bogus~~"]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors_raise_systemexit():
    with pytest.raises(SystemExit) as ei:
        cli.run(["verify", "main-mu"])  # missing --n-min/--n-max
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        cli.run([])
    assert ei.value.code == 2


@pytest.mark.parametrize("flag", ["--spectral-tol", "--cmp-tol"])
def test_tolerances_only_where_spectra_are_computed(flag, capsys):
    # the eigensolver is direct, so no subcommand takes --spectral-tol;
    # only verify and hunt compare a spectrum with a threshold
    comparing = (["verify", "main-mu", "--n-min", "4", "--n-max", "4"],
                 ["hunt", "--theorem", "main-mu", "--n", "8", "--seed", "1",
                  "--count", "1"])
    plain = (["construct", "net"], ["closure", "A_"], ["enumerate", "--n", "3"],
             ["analyze", "A_"], ["spectral", "A_"])
    refusing = plain + comparing if flag == "--spectral-tol" else plain
    for argv in refusing:
        with pytest.raises(SystemExit) as ei:
            cli.run(argv + [flag, "5"])
        assert ei.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    if flag == "--cmp-tol":
        parser = cli.build_parser()
        for argv in comparing:
            assert parser.parse_args(argv + [flag, "5"]).cmp_tol == 5.0


def test_hunt_json(capsys):
    rc = cli.run(["hunt", "--theorem", "main-mu", "--n", "8",
                  "--seed", "3", "--count", "20", "--format", "json"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d["passed"] is True and d["checked"] == 20
    assert list(d) == ["theorem", "n", "checked", "counterexamples",
                       "near_misses", "elapsed_ms", "seed", "passed"]


def test_hunt_cmp_tol_reaches_hunt(capsys, monkeypatch):
    # at the default tolerance G@?Y[[ is a near miss, 0.756 below n - 4;
    # a comparison tolerance of 1 turns it borderline, so it is checked
    # and reported as an Unmatched counterexample
    monkeypatch.delenv("CMP_TOL", raising=False)
    args = ["hunt", "--theorem", "main-mu", "--n", "8", "--seed", "3",
            "--count", "40", "--density", "0.3", "--format", "json"]
    assert cli.run(args) == 0
    plain = json.loads(capsys.readouterr().out)
    assert cli.run(args + ["--cmp-tol", "1.0"]) == 1
    loose = json.loads(capsys.readouterr().out)
    assert plain["counterexamples"] == []
    assert loose["counterexamples"] == [["G@?Y[[", "Unmatched"]]
    want = hunt("MainMuG", 8, 3, 40, density=0.3, cmp_tol=1.0).to_dict()
    for d in (loose, want):
        d.pop("elapsed_ms")
    loose.pop("passed")
    assert loose == want


def test_hunt_rejects_margin_free_theorem(capsys):
    assert cli.run(["hunt", "--theorem", "dgj", "--n", "8",
                    "--seed", "1", "--count", "5"]) == 2
    assert "numeric hypothesis" in capsys.readouterr().err


def test_only_the_cli_reads_the_environment():
    # tolerances reach the library as arguments; the CLI alone turns
    # environment variables into flag defaults
    pkg = os.path.dirname(os.path.abspath(clawtrace.__file__))
    readers = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py") and name != "cli.py":
            with open(os.path.join(pkg, name)) as f:
                text = f.read()
            if "environ" in text or "getenv" in text:
                readers.append(name)
    assert readers == []


def test_library_imports_numpy_and_the_standard_library_only():
    # networkx and hypothesis are test extras; the package must run without
    pkg = os.path.dirname(os.path.abspath(clawtrace.__file__))
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    seen = set()
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                seen.update((name, a.name.split(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                seen.add((name, node.module.split(".")[0]))
    assert ("spectral.py", "numpy") in seen
    assert sorted((name, mod) for name, mod in seen if mod not in allowed) == []


def test_the_public_error_set():
    # one class per thing a caller can act on; each class below the base is
    # raised somewhere in the package, and no raise names the base itself
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert defined == {"ClawtraceError", "InvalidParams", "OrderOutOfRange",
                       "NotClawFree", "InfeasibleSpec"}
    pkg = os.path.dirname(os.path.abspath(clawtrace.__file__))
    raised = set()
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    assert raised & defined == defined - {"ClawtraceError"}


def test_every_imported_name_is_used():
    # no linter runs in CI; the package's __init__.py imports to re-export
    pkg = os.path.dirname(os.path.abspath(clawtrace.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    paths = [os.path.join(d, name) for d in (pkg, here) for name in sorted(os.listdir(d))
             if name.endswith(".py") and name != "__init__.py"]
    unused = []
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(os.path.basename(path), name) for name in sorted(imported - read)]
    assert unused == []


# ---------------------------------------------------------------------------
# console script


def test_console_script_roundtrip():
    # Run the [project.scripts] target the way pip's generated wrapper does,
    # in a separate interpreter, so no install step is needed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["clawtrace"]
    module, func = target.split(":")
    code = (f"import sys; sys.argv[0] = 'clawtrace'; "
            f"from {module} import {func}; sys.exit({func}())")
    # the child imports the same checkout as this process, never an
    # installed copy elsewhere on the path
    src = os.path.dirname(os.path.dirname(os.path.abspath(clawtrace.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])

    def clawtrace_cli(*args):
        return subprocess.run([sys.executable, "-c", code, *args],
                              capture_output=True, text=True, env=env)

    r = clawtrace_cli("construct", "net")
    assert r.returncode == 0
    assert sorted(graph6.decode(r.stdout.strip()).degrees()) == [1, 1, 1, 3, 3, 3]
    r = clawtrace_cli("verify", "mystery", "--n-min", "2", "--n-max", "3")
    assert r.returncode == 2
    assert "unknown theorem" in r.stderr


# ---------------------------------------------------------------------------
# text renderers


RENDERED = [
    (["closure", "D|c"], 0,
     "step 0: complete vertex 0, add (1,3) (1,4) (2,4)\n"
     "closed: D~{\n"),
    (["spectral", "E@UW"], 0,
     "mu = 2.414213562373  (iterations=0, converged=True)\n"),
    (["spectral", "E@UW", "--complement"], 0,
     "mu(complement) = 3.236067977500  (iterations=0, converged=True)\n"),
    (["hunt", "--theorem", "main-mu", "--n", "8", "--seed", "3", "--count", "40",
      "--density", "0.3"], 0,
     "theorem: MainMuG\n"
     "n: 8\n"
     "checked: 40\n"
     "counterexamples (0):\n"
     "near misses (2):\n"
     "  G@?Y[[  margin=-0.756076\n"
     "  G?KQKK  margin=-1.555766\n"
     "result: PASS\n"),
    # one Unmatched exception, also borderline, among eight borderline graphs
    (["verify", "ning-ge", "--n-min", "8", "--n-max", "8", "--workers", "1"], 1,
     "theorem: NingGe\n"
     "n_range: [8, 8]\n"
     "mode: Exhaustive\n"
     "checked: 11117\n"
     "exceptions (2):\n"
     "  G?B~~{  Unmatched\n"
     "  G@Kx~{  NingGe(8)\n"
     "borderline (8):\n"
     "  G?B~~{\n"
     "  G?\\||{\n"
     "  GBjF~{\n"
     "  GFznno\n"
     "  GJaN~{\n"
     "  GK~vno\n"
     "  GLvnno\n"
     "  G`K~~w\n"
     "elapsed_ms: _\n"
     "result: FAIL\n"),
    (["enumerate", "--n", "4", "--format", "json"], 0,
     "".join(f'{{"graph6": "{s}"}}\n' for s in ("Cq", "Cu", "Cr", "Cv", "C~"))),
]


@pytest.mark.parametrize("argv, code, want", RENDERED,
                         ids=[" ".join(argv) for argv, _, _ in RENDERED])
def test_rendered_output_is_frozen(argv, code, want, capsys, monkeypatch):
    # regression-only: the exact stdout, with the run time blanked
    monkeypatch.delenv("CMP_TOL", raising=False)
    assert cli.run(argv) == code
    out = re.sub(r"^elapsed_ms: \d+$", "elapsed_ms: _", capsys.readouterr().out, flags=re.M)
    assert out == want
