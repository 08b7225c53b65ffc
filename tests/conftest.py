"""Shared oracles and helpers.

Oracles here are deliberately naive re-implementations (pure-Python loops,
dense matrix sweeps) kept independent of the library's vectorized paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from hetembed.graph import Graph, UNREACHABLE


def floyd_warshall(g: Graph) -> np.ndarray:
    """Dense all-pairs shortest paths, O(n^3)."""
    n = g.n
    inf = float("inf")
    d = np.full((n, n), inf)
    np.fill_diagonal(d, 0.0)
    for i, nbrs in enumerate(g.adj):
        for j in nbrs:
            d[i, j] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    out = np.where(np.isinf(d), UNREACHABLE, d).astype(np.int64)
    return out


def map_bruteforce(g: Graph, dist_matrix: np.ndarray) -> float:
    """Eq.-level mAP: explicit enumeration of every candidate set."""
    n = g.n
    ap_scores = []
    for i in range(n):
        nbrs = set(int(x) for x in g.adj[i])
        if not nbrs:
            continue
        ap = 0.0
        for j in nbrs:
            ball = [z for z in range(n) if z != i and dist_matrix[i][z] <= dist_matrix[i][j]]
            hits = sum(1 for z in ball if z in nbrs)
            ap += hits / len(ball)
        ap_scores.append(ap / len(nbrs))
    return float(np.mean(ap_scores))


def spearman(x, y) -> float:
    """Rank correlation with average ranks on ties."""
    def ranks(v):
        v = np.asarray(v, dtype=float)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        i = 0
        sv = v[order]
        while i < len(v):
            j = i
            while j < len(v) and sv[j] == sv[i]:
                j += 1
            r[order[i:j]] = 0.5 * (i + j - 1) + 1
            i = j
        return r
    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    return float((rx * ry).sum() / denom)


def simpson_grid(f, a: float, b: float, panels: int) -> float:
    """Composite Simpson on a fixed grid (independent quadrature oracle)."""
    if panels % 2:
        panels += 1
    xs = np.linspace(a, b, panels + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / panels
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def forman_reference(g: Graph, gamma: float, normalize: bool = False):
    """Forman curvature by the edge loop: edges in ``g.edges()`` order, each
    adding its value to both endpoints; triangles from neighbour sets.

    Returns (edge values, node values).
    """
    deg = g.degrees
    nbrs = [set(a.tolist()) for a in g.adj]
    edge_values = []
    node_values = np.zeros(g.n)
    for i, j in g.edges().tolist():
        val = 4.0 - deg[i] - deg[j] + 3.0 * gamma * len(nbrs[i] & nbrs[j])
        if normalize:
            val /= max(deg[i], deg[j])
        edge_values.append(val)
        node_values[i] += val
        node_values[j] += val
    nz = deg > 0
    node_values[nz] /= deg[nz]
    return np.array(edge_values), node_values


def curvature_correction_reference(emb, a_rho: Graph, rho: float, step: float,
                                   percentile: float = 90.0, gamma: float = 1.0,
                                   g_true: Graph | None = None):
    """The correction loop on an edge-tuple set: each candidate is rebuilt with
    ``from_edges`` and gets a full :func:`forman_reference` recompute, as does
    the current graph.

    Returns (correction_log, sorted edge list, mismatch, outcome per logged
    node: "accepted", "rejected" or "unchanged").
    """
    from hetembed.graph import from_edges
    from hetembed.manifold import pairwise_sq_distances
    from hetembed.metrics import reconstructed_forman

    proxy = reconstructed_forman(emb)
    dm = np.sqrt(pairwise_sq_distances(emb.spec, emb.blocks))
    n = a_rho.n
    edges = a_rho.edge_set()
    err = np.abs(proxy - forman_reference(a_rho, gamma)[1])
    err_total = float(err.sum())
    cutoff = float(np.percentile(err, percentile))
    worklist = [i for i in np.argsort(-err, kind="stable") if err[i] > cutoff]
    log, outcomes = [], []
    current = a_rho
    for i in worklist:
        f_now = forman_reference(current, gamma)[1]
        diff = proxy[i] - f_now[i]
        if diff == 0.0:
            continue
        if diff > 0:
            action, radius = "densify", rho + step
        else:
            action, radius = "sparsify", max(rho - step, 0.0)
        within = {j for j in range(n) if j != i and dm[i, j] <= radius}
        new_edges = {e for e in edges if i not in e} | {(min(i, j), max(i, j)) for j in within}
        if new_edges == edges:
            log.append((int(i), action, False))
            outcomes.append("unchanged")
            continue
        candidate = from_edges(n, new_edges)
        cand_total = float(np.abs(proxy - forman_reference(candidate, gamma)[1]).sum())
        accept = cand_total < err_total
        log.append((int(i), action, accept))
        outcomes.append("accepted" if accept else "rejected")
        if accept:
            current, edges, err_total = candidate, new_edges, cand_total
    mismatch = len(current.edge_set() ^ g_true.edge_set()) if g_true is not None else None
    return log, sorted(edges), mismatch, outcomes
