import numpy as np
import pytest

from clawtrace.errors import InvalidParams, OrderOutOfRange
from clawtrace.families import complete, net, star
from clawtrace.graph import from_edges
from clawtrace.graph6 import decode, encode

from oracles import edge_list, random_graph


def test_known_encodings():
    # standard encodings of tiny graphs
    assert encode(complete(1)) == "@"
    assert encode(complete(2)) == "A_"
    assert encode(from_edges(2, [])) == "A?"
    assert encode(complete(5)) == "D~{"
    assert decode("D~{").m == 10


def test_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        g = random_graph(rng, n, rng.random())
        assert decode(encode(g)) == g


def test_round_trip_large_orders():
    rng = np.random.default_rng(5)
    for n in (62, 63, 64):
        g = random_graph(rng, n, 0.3)
        s = encode(g)
        if n > 62:
            assert s.startswith("~")
        assert decode(s) == g


def test_optional_header_accepted():
    g = net()
    assert decode(">>graph6<<" + encode(g)) == g


def test_decode_rejects_malformed():
    with pytest.raises(InvalidParams):
        decode("")
    with pytest.raises(InvalidParams):
        decode("D~")  # truncated body
    with pytest.raises(InvalidParams):
        decode("A" + chr(30))  # byte below printable range
    with pytest.raises(InvalidParams):
        decode("A~")  # nonzero padding for n=2
    with pytest.raises(InvalidParams):
        decode("~~????")  # doubled escape unsupported


def test_decode_rejects_bad_order():
    with pytest.raises(OrderOutOfRange):
        decode("~???" )  # escaped order 0


def test_networkx_cross_check():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(1, 16))
        g = random_graph(rng, n, rng.random())
        gx = nx.from_graph6_bytes(encode(g).encode())
        assert gx.number_of_nodes() == g.n
        assert sorted(tuple(sorted(e)) for e in gx.edges()) == sorted(edge_list(g))
    # and the reverse direction: networkx-produced strings decode here
    for _ in range(30):
        n = int(rng.integers(1, 16))
        g = random_graph(rng, n, 0.5)
        gx = nx.empty_graph(n)
        gx.add_edges_from(edge_list(g))
        s = nx.to_graph6_bytes(gx, header=False).decode().strip()
        h = decode(s)
        assert h == g


def test_star_encoding_stable():
    # fixed anchors so silent format drift cannot pass
    assert encode(star(4)) == "Cs"
    assert decode("CF").degrees() == [1, 1, 1, 3]
