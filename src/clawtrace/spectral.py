"""Spectral radius estimation and the classical bounds built on it.

The estimator is power iteration run per connected component from the
all-ones start vector.  Each step applies the shifted operator A + I: on a
connected component that operator is primitive, so the iterate cannot get
trapped by the -r end of a bipartite (or nearly bipartite) spectrum and
convergence is geometric for every input.  The reported value and residual
are the Rayleigh quotient and defect of the unshifted adjacency operator.
All arithmetic is float64 and the iteration order is fixed, so repeated
calls on the same graph return bitwise-identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedInput, InvalidParams
from .graph import Graph, bits, components, is_connected

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100000
DEFAULT_CMP_TOL = 1e-9


@dataclass(frozen=True)
class SpectralEstimate:
    value: float
    iterations: int
    converged: bool
    residual: float


def adjacency_matrix(g: Graph, mask: int | None = None) -> np.ndarray:
    """Dense float64 adjacency matrix of g, or of the induced subgraph on
    mask (rows ordered by ascending vertex label)."""
    verts = list(bits(g.vertex_mask if mask is None else mask))
    k = len(verts)
    a = np.zeros((k, k))
    index = {v: i for i, v in enumerate(verts)}
    for i, v in enumerate(verts):
        row = g.adj[v]
        for w in bits(row):
            j = index.get(w)
            if j is not None:
                a[i, j] = 1.0
    return a


def _component_estimate(a: np.ndarray, tol: float, max_iter: int):
    k = a.shape[0]
    if k == 1:
        return 0.0, 0, True, 0.0
    v = np.full(k, 1.0 / math.sqrt(k))
    for it in range(1, max_iter + 1):
        # the shift keeps v strictly positive, so ||w|| >= ||v|| = 1
        w = a @ v + v
        v = w / float(np.linalg.norm(w))
        op_v = a @ v
        lam = float(v @ op_v)
        residual = float(np.linalg.norm(op_v - lam * v))
        if residual <= tol:
            return lam, it, True, residual
    return lam, max_iter, False, residual


def spectral_radius(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SpectralEstimate:
    """Largest adjacency eigenvalue of g.

    Disconnected graphs take the max over components; iterations and
    residual report the worst component.  Non-convergence sets
    converged=False instead of raising.
    """
    value = 0.0
    iterations = 0
    converged = True
    residual = 0.0
    for comp in components(g):
        a = adjacency_matrix(g, comp)
        val, its, ok, res = _component_estimate(a, tol, max_iter)
        value = max(value, val)
        iterations = max(iterations, its)
        converged = converged and ok
        residual = max(residual, res)
    return SpectralEstimate(value, iterations, converged, residual)


def hong_bound(g: Graph) -> float:
    """Upper bound sqrt(2m - n + 1); equality exactly on complete graphs
    and stars.  Connected input only."""
    if not is_connected(g):
        raise DisconnectedInput("bound requires a connected graph")
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


class ThresholdVerdict:
    ABOVE = "Above"
    BELOW = "Below"
    BORDERLINE = "Borderline"


def compare_threshold(
    est: SpectralEstimate, threshold: float, cmp_tol: float = DEFAULT_CMP_TOL
) -> str:
    """Classify est.value against threshold: Above when the margin exceeds
    cmp_tol, Below when it falls short by more than cmp_tol, Borderline in
    between.  Borderline is a real outcome, never folded into the others,
    and an unconverged estimate is always Borderline: its value certifies
    neither side."""
    if not est.converged:
        return ThresholdVerdict.BORDERLINE
    margin = est.value - threshold
    if margin > cmp_tol:
        return ThresholdVerdict.ABOVE
    if margin < -cmp_tol:
        return ThresholdVerdict.BELOW
    return ThresholdVerdict.BORDERLINE
