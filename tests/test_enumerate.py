import hashlib

import pytest

from clawtrace import enumeration
from clawtrace.canon import canonical_form, canonical_labeling
from clawtrace.enumeration import (
    MAX_EXHAUSTIVE,
    MAX_SAMPLE,
    _expand_level,
    _run_sample,
    exhaustive_orders,
    sample_dense_claw_free,
)
from clawtrace.errors import InfeasibleSpec, InvalidParams
from clawtrace.families import graph_m, net
from clawtrace.graph import from_edges, is_connected, is_two_connected, relabel
from clawtrace.graph6 import encode
from clawtrace.structure import find_induced, is_claw_free, is_closed

import frozen
from oracles import edge_list, exhaustive_list, find_induced_brute


def test_frozen_counts_default_chain(corpus):
    for n, (_, _, ccf) in frozen.COUNTS.items():
        assert len(corpus(n)) == ccf, n


def test_frozen_counts_all_and_connected(corpus):
    for n in range(1, 7):
        assert len(exhaustive_list(n, ())) == frozen.COUNTS[n][0], n
        assert len(exhaustive_list(n, ("connected",))) == frozen.COUNTS[n][1], n
    # n=7 asserted via the session corpus so later tests reuse it
    assert len(corpus(7, "connected")) == frozen.COUNTS[7][1]


def test_claw_free_only_chain_counts():
    # on 4 vertices the only graph containing an induced claw is the claw
    assert len(exhaustive_list(4, ("claw-free",))) == frozen.COUNTS[4][0] - 1


def test_no_duplicates_and_predicates_hold(corpus):
    for n in range(1, 8):
        graphs = corpus(n)
        forms = {canonical_form(g) for g in graphs}
        assert len(forms) == len(graphs)
        for g in graphs:
            assert g.n == n and is_connected(g) and is_claw_free(g)


def test_emission_filters_match_post_filtering(corpus):
    for n in range(2, 8):
        graphs = corpus(n)
        closed = exhaustive_list(n, ("connected", "claw-free", "closed"))
        assert len(closed) == sum(1 for g in graphs if is_closed(g))
        two_conn = exhaustive_list(n, ("connected", "claw-free", "two-connected"))
        assert len(two_conn) == sum(1 for g in graphs if is_two_connected(g))


def test_hereditary_filters_match_post_filtering(corpus):
    for n in range(2, 8):
        graphs = corpus(n)
        net_free = exhaustive_list(n, ("connected", "claw-free", "net-free"))
        want = sum(1 for g in graphs if n < 6 or find_induced(g, net()) is None)
        assert len(net_free) == want
        m_free = exhaustive_list(n, ("connected", "claw-free", "m-free"))
        want = sum(1 for g in graphs if n < 8 or find_induced(g, graph_m()) is None)
        assert len(m_free) == want


def test_consumer_count_matches_return():
    # one list per requested order, each the classes of that order alone
    per_order = list(exhaustive_orders(("connected", "claw-free"), 4, 6))
    assert [len(graphs) for graphs in per_order] == [frozen.COUNTS[n][2] for n in (4, 5, 6)]
    assert [{g.n for g in graphs} for graphs in per_order] == [{4}, {5}, {6}]


def test_workers_preserve_output_order():
    serial = [encode(g) for g in exhaustive_list(7)]
    parallel = [encode(g) for g in exhaustive_list(7, workers=2)]
    assert serial == parallel


def test_checkpoint_resume(tmp_path):
    ck = tmp_path / "level.ck"
    base = [encode(g) for g in exhaustive_list(7, checkpoint=str(ck))]
    lines = ck.read_text().splitlines()
    assert lines  # one line per completed parent of the last level
    # simulate an interrupted run: keep only the first half of the parents
    ck.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    resumed = [encode(g) for g in exhaustive_list(7, checkpoint=str(ck))]
    assert resumed == base
    # a completed checkpoint replays without changing the answer
    replay = [encode(g) for g in exhaustive_list(7, checkpoint=str(ck))]
    assert replay == base


def test_checkpoint_file_is_frozen(tmp_path):
    # regression-only: the checkpoint keeps its format v2 bytes
    ck = tmp_path / "level.ck"
    exhaustive_list(8, checkpoint=str(ck))
    assert hashlib.sha256(ck.read_bytes()).hexdigest() == frozen.CHECKPOINT_8_SHA256


def test_checkpoint_resume_with_workers_matches_a_serial_run(tmp_path):
    serial_ck = tmp_path / "serial.ck"
    base = [encode(g) for g in exhaustive_list(7, checkpoint=str(serial_ck))]
    ck = tmp_path / "level.ck"
    lines = serial_ck.read_text().splitlines()
    ck.write_text("\n".join(lines[: len(lines) // 3]) + "\n")
    resumed = [encode(g) for g in exhaustive_list(7, workers=2, checkpoint=str(ck))]
    assert resumed == base
    assert ck.read_bytes() == serial_ck.read_bytes()


@pytest.mark.parametrize(
    "column, chain", [(2, ("connected", "claw-free")), (1, ("connected",)), (0, ())]
)
def test_carried_rows_are_the_canonical_rows(column, chain):
    # each level hands its children on with the canonical rows their own
    # labelling gave; recompute them from scratch on every frontier, which
    # holds each class once
    counts = {n: row[column] for n, row in frozen.COUNTS.items()}
    counts[8] = frozen.CONNECTED_CLAW_FREE_8
    k1 = from_edges(1, ())
    frontier = [(k1, k1.adj)]
    for n in range(2, 9 if "claw-free" in chain else 8):
        frontier = _expand_level(frontier, chain, map, {}, None)
        assert len({rows for _, rows in frontier}) == len(frontier) == counts[n]
        for g, rows in frontier:
            assert rows == relabel(g, canonical_labeling(g)[1]).adj


def test_checkpoint_from_another_run_is_rejected(tmp_path):
    ck = tmp_path / "level.ck"
    exhaustive_list(6, checkpoint=str(ck))
    # before headers, this reuse returned 106 graphs instead of 112
    with pytest.raises(InfeasibleSpec, match="another run"):
        exhaustive_list(6, ("connected",), checkpoint=str(ck))
    with pytest.raises(InfeasibleSpec, match="another run"):
        exhaustive_list(7, checkpoint=str(ck))
    # a file without a header is not trusted either
    legacy = tmp_path / "legacy.ck"
    legacy.write_text("\n".join(ck.read_text().splitlines()[1:]) + "\n")
    with pytest.raises(InfeasibleSpec):
        exhaustive_list(6, checkpoint=str(legacy))
    legacy.write_bytes(b"\xff\xfe not a checkpoint\n")
    with pytest.raises(InfeasibleSpec):
        exhaustive_list(6, checkpoint=str(legacy))


@pytest.mark.parametrize("n", [1, 7])
def test_foreign_checkpoint_refused_before_any_level(n, tmp_path, monkeypatch):
    ck = tmp_path / "level.ck"
    ck.write_bytes(b"garbage\n")
    levels = []
    monkeypatch.setattr(enumeration, "_expand_level", lambda *args: levels.append(args))
    with pytest.raises(InfeasibleSpec, match="another run"):
        exhaustive_list(n, checkpoint=str(ck))
    assert levels == []
    assert ck.read_bytes() == b"garbage\n"


def test_checkpoint_torn_last_line_is_redone(tmp_path):
    ck = tmp_path / "level.ck"
    base = [encode(g) for g in exhaustive_list(7, checkpoint=str(ck))]
    header, *lines = ck.read_text().splitlines()
    whole = next(line for line in lines if len(line.split()) > 3)
    parent, first, *_ = whole.split()
    # the interrupted write was the last one: that parent's line is cut
    # inside its child list, with no newline, and a later child is cut to
    # look like a repeat, so trusting the line would change the answer
    torn = " ".join([parent, first, first])
    rest = [line for line in lines if line != whole]
    ck.write_text("\n".join([header, *rest, torn]))
    resumed = [encode(g) for g in exhaustive_list(7, checkpoint=str(ck))]
    assert resumed == base
    assert ck.read_text().splitlines()[-2:] == [torn, whole]


@pytest.mark.parametrize(
    "n, chain",
    [
        pytest.param(n, chain, marks=[pytest.mark.slow] if n == 9 else [])
        for n, chain in frozen.EXHAUSTIVE_ORDER_SHA256
    ],
)
def test_output_order_is_frozen(n, chain):
    # regression-only: pins the emission order, not just the class set
    graphs = exhaustive_list(n, chain)
    if (n, chain) == (9, ("connected", "claw-free")):
        assert len(graphs) == frozen.CONNECTED_CLAW_FREE_9
    seq = "\n".join(encode(g) for g in graphs)
    assert hashlib.sha256(seq.encode("ascii")).hexdigest() == frozen.EXHAUSTIVE_ORDER_SHA256[n, chain]


@pytest.mark.slow
def test_order_ten_sweep_is_frozen(monkeypatch):
    # regression-only: one order past the cap, which stays at 9; the sweep
    # reads the cap when it starts, so lifting it here reaches order 10
    assert MAX_EXHAUSTIVE == 9
    monkeypatch.setattr(enumeration, "MAX_EXHAUSTIVE", 10)
    (graphs,) = exhaustive_orders(("connected", "claw-free"), 10, 10)
    assert len(graphs) == frozen.CONNECTED_CLAW_FREE_10
    seq = "\n".join(encode(g) for g in graphs)
    assert hashlib.sha256(seq.encode("ascii")).hexdigest() == frozen.ORDER_10_SHA256


def test_validation_errors():
    with pytest.raises(InfeasibleSpec):
        exhaustive_list(5, ("totally-bogus",))
    with pytest.raises(InfeasibleSpec):
        exhaustive_list(5, ("connected", "closed"))  # closed needs claw-free
    with pytest.raises(InfeasibleSpec):
        exhaustive_list(MAX_EXHAUSTIVE + 1)
    with pytest.raises(InfeasibleSpec):
        exhaustive_list(0)
    for workers in (0, -3):
        with pytest.raises(InfeasibleSpec, match=rf"^workers must be >= 1, got {workers}$"):
            exhaustive_list(5, workers=workers)
    chain = ("connected", "claw-free")
    with pytest.raises(InfeasibleSpec):
        _run_sample(MAX_SAMPLE + 1, chain, 1, 0, 0.9, lambda g: None)
    with pytest.raises(InfeasibleSpec):
        _run_sample(8, chain, -1, 0, 0.9, lambda g: None)
    with pytest.raises(InfeasibleSpec):
        _run_sample(8, chain, 5, 0, 1.5, lambda g: None)
    with pytest.raises(InfeasibleSpec):
        _run_sample(8, ("connected", "closed"), 5, 0, 0.9, lambda g: None)
    with pytest.raises(InfeasibleSpec, match=r"^sample seeds must be >= 0, the first would be -1$"):
        _run_sample(8, chain, 5, -1, 0.9, lambda g: None)


def test_sampler_reaches_target_and_stays_feasible():
    for seed in range(5):
        g = sample_dense_claw_free(14, 60, seed)
        assert g.n == 14 and g.m == 60
        assert is_connected(g) and is_claw_free(g)


def test_sampler_deterministic():
    a = sample_dense_claw_free(16, 80, 12345)
    b = sample_dense_claw_free(16, 80, 12345)
    assert a == b
    c = sample_dense_claw_free(16, 80, 54321)
    assert a != c  # overwhelmingly likely for distinct seeds


def test_sampler_target_unreachable_payload():
    # below tree size the graph must disconnect first, so it always sticks;
    # the sampler returns the graph it stopped at, where every deletion
    # disconnects it or creates a claw
    g = sample_dense_claw_free(10, 5, seed=0)
    edges = edge_list(g)
    assert g.m == len(edges) >= 9
    assert is_connected(g) and is_claw_free(g)
    for e in edges:
        h = from_edges(g.n, [f for f in edges if f != e])
        assert not (is_connected(h) and is_claw_free(h)), e


SAMPLER_GRID = [
    (n, density, seed)
    for n in (8, 14, 20, 26, 30)
    for density in (0.35, 0.5, 0.7, 0.9)
    for seed in range(5)
]


def _sampler_grid_lines():
    # one line per grid point: the sample's graph6, or for a stuck run the
    # stuck graph's graph6 and the edge count it reached
    for n, density, seed in SAMPLER_GRID:
        target_m = round(density * (n * (n - 1) // 2))
        g = sample_dense_claw_free(n, target_m, seed)
        yield f"{encode(g)} stuck {g.m}" if g.m > target_m else encode(g)


def test_sampler_draws_are_frozen():
    # regression-only: pins every draw over the grid, stuck runs included
    lines = list(_sampler_grid_lines())
    assert sum(" stuck " in line for line in lines) == 38
    seq = "\n".join(lines)
    assert hashlib.sha256(seq.encode("ascii")).hexdigest() == frozen.SAMPLER_GRID_SHA256


def test_sampler_rejects_bad_arguments():
    with pytest.raises(InvalidParams):
        sample_dense_claw_free(40, 10, 0)
    with pytest.raises(InvalidParams):
        sample_dense_claw_free(10, 99, 0)
    with pytest.raises(InvalidParams, match=r"^sampler seed must be >= 0, got -1$"):
        sample_dense_claw_free(10, 30, -1)


def test_sample_mode_respects_chain():
    got = []
    total = _run_sample(10, ("connected", "claw-free", "two-connected"), 6, 3, 0.5, got.append)
    assert total == len(got) == 6
    for g in got:
        assert g.n == 10 and is_claw_free(g) and is_two_connected(g)


def test_sample_mode_deterministic_stream():
    def run():
        acc = []
        _run_sample(12, ("connected", "claw-free"), 8, 77, 0.7, acc.append)
        return [encode(g) for g in acc]

    assert run() == run()


def _counted_draws(monkeypatch) -> list:
    draws = []
    draw = enumeration.sample_dense_claw_free

    def counted(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(enumeration, "sample_dense_claw_free", counted)
    return draws


@pytest.mark.parametrize("name", ["net-free", "m-free"])
def test_sample_mode_rejects_draws_with_the_pattern(name, monkeypatch):
    # at density 0.2 the sampler draws a net for 18 of seeds 0..99 and an M
    # for 8, so both rejections run before the twentieth graph is emitted
    pattern = net() if name == "net-free" else graph_m()
    draws = _counted_draws(monkeypatch)
    got = []
    assert _run_sample(12, ("connected", "claw-free", name), 20, 0, 0.2, got.append) == 20
    assert len(got) == 20 and len(draws) > 20
    for g in got:
        assert not find_induced_brute(g, pattern)


def test_sample_mode_gives_up_after_its_rejection_limit(monkeypatch):
    # the sparse draws at n = 20 are never closed
    draws = _counted_draws(monkeypatch)
    with pytest.raises(InfeasibleSpec, match=r"^sampler rejected 200 candidates before reaching count=1$"):
        _run_sample(20, ("connected", "claw-free", "closed"), 1, 0, 0.3, lambda g: None)
    assert len(draws) == 200
