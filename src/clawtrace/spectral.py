"""Spectral radius and the classical bounds built on it.

The radius comes from LAPACK's symmetric eigensolver on the dense adjacency
matrix.  Every graph here has at most 64 vertices, so the O(n^3) direct
solve is both faster and more accurate than an iterative method.  The
matrix of a disconnected graph is block-diagonal up to a relabelling, so
its largest eigenvalue is already the maximum over components.  The
arithmetic is float64 and deterministic, so repeated calls on the same
graph return bitwise-identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .graph import Graph, is_connected

DEFAULT_CMP_TOL = 1e-9
EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SpectralEstimate:
    value: float
    iterations: int
    converged: bool
    residual: float


def spectral_radius(g: Graph) -> SpectralEstimate:
    """Largest adjacency eigenvalue of g.

    The estimate is direct, so it takes no iterations and always converges.
    Its residual is LAPACK's eigenvalue error bound EPS * ||A||_2, and the
    2-norm of an adjacency matrix is its spectral radius.
    """
    n = g.n
    # uint64: rows of an order-64 graph overflow int64
    a = (np.array(g.adj, dtype=np.uint64)[:, None] >> np.arange(n, dtype=np.uint64)) & 1
    # eigvalsh, not eigh: on threaded OpenBLAS eigh is ~100x slower at n = 26
    value = float(np.linalg.eigvalsh(a)[-1])
    return SpectralEstimate(value, 0, True, EPS * value)


def hong_bound(g: Graph) -> float:
    """Upper bound sqrt(2m - n + 1); equality exactly on complete graphs
    and stars.  Connected input only."""
    if not is_connected(g):
        raise InvalidParams("bound requires a connected graph")
    return math.sqrt(2 * g.m - g.n + 1)


def hofmeister_bound(g: Graph) -> float:
    """Lower bound sqrt(mean of squared degrees)."""
    total = sum(d * d for d in g.degrees())
    return math.sqrt(total / g.n)


def complete_split_radius(k: int, n: int) -> float:
    """Closed-form radius of K_k joined to n-k isolated vertices:
    (k - 1 + sqrt(4kn - (3k-1)(k+1))) / 2."""
    if not 1 <= k < n:
        raise InvalidParams(f"needs 1 <= k < n, got k={k}, n={n}")
    return (k - 1 + math.sqrt(4 * k * n - (3 * k - 1) * (k + 1))) / 2


def triple_split_radius(n: int) -> float:
    """complete_split_radius(3, n) simplified to 1 + sqrt(3n - 8)."""
    if n < 4:
        raise InvalidParams(f"needs n >= 4, got {n}")
    return 1 + math.sqrt(3 * n - 8)
