"""Independent oracles: brute force and dense linear algebra only.

Nothing here shares algorithmic code with the package.  Spectral radii come
from numpy's general eigensolver (the package uses the symmetric one),
Hamilton paths and cycles from depth-first search over simple paths,
induced-subgraph hits from subset enumeration, isomorphism from
permutation search, the path closure from an all-pairs fixpoint loop, and
isomorphism-class counts from permutation-orbit marking over all labeled
graphs, threshold verdicts from the margin rule written out on its own, and
block structure from networkx's biconnected components and articulation
points.

exhaustive_list, at the end, is no oracle: it collects the package's own
enumerator into a list for the tests that want one.
"""
import itertools

import networkx as nx
import numpy as np
from hypothesis import strategies as st

from clawtrace.enumeration import exhaustive_orders
from clawtrace.errors import OrderOutOfRange
from clawtrace.graph import Graph


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, in lexicographic order, read off the rows."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]


def adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in edge_list(g):
        a[u][v] = a[v][u] = 1.0
    return a


def mu_dense(g: Graph) -> float:
    # LAPACK geev, not the package's syevd: the two share no code path
    return float(np.linalg.eigvals(adjacency(g)).real.max())


def _extends_to_hamilton(g: Graph, path: list[int], closed: bool) -> bool:
    """Depth-first search over the simple paths that extend path."""
    if len(path) == g.n:
        return not closed or g.has_edge(path[-1], path[0])
    for v in range(g.n):
        if v not in path and g.has_edge(path[-1], v):
            path.append(v)
            if _extends_to_hamilton(g, path, closed):
                return True
            path.pop()
    return False


def hamilton_path_brute(g: Graph) -> bool:
    return any(_extends_to_hamilton(g, [s], False) for s in range(g.n))


def hamilton_cycle_brute(g: Graph) -> bool:
    if g.n < 3:
        return False
    # every Hamilton cycle passes through vertex 0, so start there
    return _extends_to_hamilton(g, [0], True)


def path_closure_brute(g: Graph) -> Graph:
    """Join nonadjacent pairs with degree sum >= n-1, all pairs per pass,
    until a pass adds nothing."""
    from clawtrace.graph import from_edges

    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    edges = {(u, v) for u, v in pairs if g.has_edge(u, v)}
    deg = [sum(g.has_edge(u, v) for v in range(g.n)) for u in range(g.n)]
    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            if (u, v) not in edges and deg[u] + deg[v] >= g.n - 1:
                edges.add((u, v))
                deg[u] += 1
                deg[v] += 1
                changed = True
    return from_edges(g.n, edges)


def compare_threshold(value: float, threshold: float, cmp_tol: float, error: float) -> str:
    """"yes" when value clears threshold by more than cmp_tol plus the
    value's error bound, "no" when it falls short by more than that,
    "borderline" in between."""
    margin = value - threshold
    slack = cmp_tol + error
    if margin > slack:
        return "yes"
    if margin < -slack:
        return "no"
    return "borderline"


def brute_force_isomorphic(g: Graph, h: Graph, cap: int = 8) -> bool:
    """Permutation search; only for tiny graphs."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    if g.n > cap:
        raise OrderOutOfRange(f"brute force isomorphism capped at {cap}")
    # equal edge counts: a map sending every edge onto an edge is a bijection
    edges = edge_list(g)
    return any(
        all(h.has_edge(perm[u], perm[v]) for u, v in edges)
        for perm in itertools.permutations(range(g.n))
    )


def _induced_matches(g: Graph, vertices: tuple[int, ...], pattern: Graph) -> bool:
    # an induced copy has the pattern's degrees: skip the orderings otherwise
    inside = sum(1 << v for v in vertices)
    if sorted(bin(g.adj[v] & inside).count("1") for v in vertices) != sorted(pattern.degrees()):
        return False
    for perm in itertools.permutations(vertices):
        if all(
            g.has_edge(perm[i], perm[j]) == pattern.has_edge(i, j)
            for i in range(pattern.n)
            for j in range(i + 1, pattern.n)
        ):
            return True
    return False


def find_induced_brute(g: Graph, pattern: Graph, anchors: int | None = None) -> bool:
    """Some pattern.n-subset of g, meeting anchors when given, induces
    pattern under some ordering of its vertices."""
    if pattern.n > g.n:
        return False
    return any(
        _induced_matches(g, combo, pattern)
        for combo in itertools.combinations(range(g.n), pattern.n)
        if anchors is None or any(anchors >> v & 1 for v in combo)
    )


def claw_free_brute(g: Graph) -> bool:
    for v in range(g.n):
        nbrs = [u for u in range(g.n) if g.has_edge(u, v)]
        for a, b, c in itertools.combinations(nbrs, 3):
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                return False
    return True


# ---------------------------------------------------------------------------
# the canonical search's vertex invariants, as canon first defined them


def earlier_twins_pairwise(g: Graph) -> list[int]:
    """For each vertex v, the mask of the u < v with N(u) - v = N(v) - u,
    found by comparing every pair."""
    adj = g.adj
    return [
        sum(1 << u for u in range(v) if adj[u] & ~(1 << v) == row & ~(1 << u))
        for v, row in enumerate(adj)
    ]


def vertex_keys_per_neighbour(g: Graph) -> list[tuple[int, int]]:
    """(degree, triangles through v): half the common neighbours of v and
    each of its neighbours."""
    adj = g.adj
    return [
        (
            bin(row).count("1"),
            sum(bin(row & adj[u]).count("1") for u in range(g.n) if row >> u & 1) // 2,
        )
        for row in adj
    ]


# ---------------------------------------------------------------------------
# labeled-filter enumeration oracle


def _edge_bit(i: int, j: int) -> int:
    # column order (0,1),(0,2),(1,2),(0,3),...: bit index of pair i < j
    return j * (j - 1) // 2 + i


def labeled_filter_counts(n: int) -> tuple[int, int, int]:
    """(all, connected, connected claw-free) isomorphism-class counts."""
    if n == 1:
        return 1, 1, 1
    nb = n * (n - 1) // 2
    masks = np.arange(1 << nb, dtype=np.uint32)

    claw = np.zeros(1 << nb, dtype=bool)
    for v in range(n):
        others = [u for u in range(n) if u != v]
        for a, b, c in itertools.combinations(others, 3):
            need = sum(1 << _edge_bit(*sorted((v, x))) for x in (a, b, c))
            forbid = (
                (1 << _edge_bit(*sorted((a, b))))
                | (1 << _edge_bit(*sorted((a, c))))
                | (1 << _edge_bit(*sorted((b, c))))
            )
            claw |= (masks & (need | forbid)) == need

    rows = [np.zeros(1 << nb, dtype=np.uint16) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bit = ((masks >> _edge_bit(i, j)) & 1).astype(np.uint16)
            rows[i] |= bit << j
            rows[j] |= bit << i
    reach = np.ones(1 << nb, dtype=np.uint16)  # start from vertex 0
    for _ in range(n):
        for v in range(n):
            reach |= rows[v] * ((reach >> v) & 1)
    connected = reach == (1 << n) - 1

    perms = list(itertools.permutations(range(n)))
    dest = np.zeros((len(perms), nb), dtype=np.uint32)
    for p, perm in enumerate(perms):
        for i in range(n):
            for j in range(i + 1, n):
                a, b = sorted((perm[i], perm[j]))
                dest[p][_edge_bit(i, j)] = _edge_bit(a, b)

    def count_classes(member: np.ndarray) -> int:
        seen = np.zeros(1 << nb, dtype=bool)
        classes = 0
        for m in np.flatnonzero(member):
            if seen[m]:
                continue
            classes += 1
            orbit = np.zeros(len(perms), dtype=np.uint32)
            mm = int(m)
            for b in range(nb):
                if mm >> b & 1:
                    orbit |= np.uint32(1) << dest[:, b]
            seen[orbit] = True
        return classes

    return (
        count_classes(np.ones(1 << nb, dtype=bool)),
        count_classes(connected),
        count_classes(connected & ~claw),
    )


def block_structure_nx(g: Graph) -> tuple:
    """(blocks, cut vertices, block chain, two-connected) from networkx; the
    counts are None for a disconnected g, as analyze reports them.  A block
    chain is a connected graph whose block-cut tree is a path, which for a
    tree means no node of degree 3 or more; K1 is one trivial block."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edge_list(g))
    if not nx.is_connected(h):
        return None, None, False, False
    blocks = [set(b) for b in nx.biconnected_components(h)] or [set(h)]
    cuts = set(nx.articulation_points(h))
    tree = nx.Graph()
    tree.add_nodes_from(range(len(blocks)))
    tree.add_edges_from((i, ("cut", c)) for i, b in enumerate(blocks) for c in b & cuts)
    assert nx.is_tree(tree)
    chain = max(d for _, d in tree.degree) <= 2
    return len(blocks), len(cuts), chain, g.n >= 3 and not cuts


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    from clawtrace.graph import from_edges

    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return from_edges(n, edges)


@st.composite
def graphs(draw, min_n=1, max_n=8):
    """Hypothesis strategy: a graph of order min_n..max_n, each pair an
    edge or not."""
    from clawtrace.graph import from_edges

    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [e for e, keep in zip(pairs, chosen) if keep])


@st.composite
def graphs_with_twins(draw, max_n=9):
    """Hypothesis strategy: a graphs() draw with one to three vertices
    blown up into cliques (true twins) or independent sets (false twins) of
    size 2..4, then relabelled at random; the order stays at most max_n."""
    from clawtrace.graph import from_edges

    g = draw(graphs(max_n=max_n - 1))
    adj = [{u for u in range(g.n) if g.has_edge(u, v)} for v in range(g.n)]
    picks = draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=3, unique=True))
    for v in picks:
        size = draw(st.integers(2, 4))
        clique = draw(st.booleans())
        for _ in range(min(size - 1, max_n - len(adj))):
            # a clique copy sees v, v's neighbours and the copies made so
            # far; an independent copy sees v's neighbours only
            new = len(adj)
            adj.append(adj[v] | {v} if clique else set(adj[v]))
            for u in adj[new]:
                adj[u].add(new)
    perm = draw(st.permutations(range(len(adj))))
    edges = [(perm[u], perm[v]) for u in range(len(adj)) for v in adj[u] if u < v]
    return from_edges(len(adj), edges)


def exhaustive_list(
    n: int,
    predicate_chain: tuple[str, ...] = ("connected", "claw-free"),
    workers: int = 1,
    checkpoint: str | None = None,
) -> list[Graph]:
    sweep = exhaustive_orders(predicate_chain, n, n, workers, checkpoint)
    return [g for graphs in sweep for g in graphs]
