"""Graph reconstruction from embedded point clouds: distance thresholding,
validation-tuned thresholds, curvature-based triangle estimates, and the
local curvature-correction repair loop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, forman, from_edges, triangle_counts
from .manifold import pairwise_sq_distances
from .metrics import reconstructed_forman
from .optim import Embedding


@dataclass
class TriangleEstimates:
    """Curvature-decoded per-node triangle estimates plus the NN-only baseline."""

    raw: np.ndarray
    clamped: np.ndarray
    nn_baseline: np.ndarray


@dataclass
class ReconstructionResult:
    rho: float
    graph: Graph
    mismatch: int | None = None
    correction_log: list[tuple[int, str, bool]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho,
            "edges": [[int(i), int(j)] for i, j in self.graph.edges()],
            "mismatch": self.mismatch,
            "correction_log": [
                {"node": int(n), "action": a, "accepted": bool(ok)}
                for n, a, ok in self.correction_log
            ],
        }


def nn_graph(emb: Embedding, rho: float, sq: np.ndarray | None = None) -> Graph:
    """Edges between distinct nodes at embedded distance <= rho.

    ``sq``, if given, is the embedding's :func:`pairwise_sq_distances` matrix.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if sq is None:
        sq = pairwise_sq_distances(emb.spec, emb.blocks)
    n = sq.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    keep = sq[iu, ju] <= rho * rho
    return from_edges(n, zip(iu[keep].tolist(), ju[keep].tolist()))


def edge_mismatch(a: Graph, b: Graph) -> int:
    """Size of the symmetric difference of the edge sets."""
    return len(a.edge_set() ^ b.edge_set())


def tune_threshold(emb: Embedding, g_true: Graph, val_fraction: float = 0.10,
                   seed: int = 0, sq: np.ndarray | None = None) -> float:
    """Distance threshold minimizing adjacency disagreements on a node sample.

    Disagreements are counted over the adjacency rows of a random 10% node
    sample. Candidate thresholds are midpoints between consecutive observed
    distances of sample-involved pairs; ties resolve to the smaller rho.
    ``sq`` as in :func:`nn_graph`.
    """
    if not (0.0 < val_fraction < 1.0):
        raise ValueError("val_fraction must be in (0, 1)")
    n = g_true.n
    rng = np.random.default_rng(seed)
    k = max(1, int(round(val_fraction * n)))
    val = np.sort(rng.choice(n, size=k, replace=False))

    dm = np.sqrt(pairwise_sq_distances(emb.spec, emb.blocks) if sq is None else sq)
    adj = np.zeros((n, n), dtype=bool)
    for i, nbrs in enumerate(g_true.adj):
        adj[i, nbrs] = True

    # every (validation node, other node) entry, deduplicated inside the sample
    vi = np.repeat(val, n)
    vj = np.tile(np.arange(n), k)
    keep = vi != vj
    vi, vj = vi[keep], vj[keep]
    dists = dm[vi, vj]
    is_edge = adj[vi, vj]

    order = np.argsort(dists, kind="stable")
    dists, is_edge = dists[order], is_edge[order]
    uniq, starts = np.unique(dists, return_index=True)
    edge_cum = np.concatenate([[0], np.cumsum(is_edge)])
    bounds = np.concatenate([starts, [dists.size]])
    total_edges = int(is_edge.sum())

    # any rho strictly between consecutive observed distances is equivalent;
    # sweep those bands and keep the first (smallest-rho) minimizer
    best_mis, best_rho = None, None
    for t in range(uniq.size + 1):
        included = int(bounds[t])
        edges_in = int(edge_cum[included])
        mis = (total_edges - edges_in) + (included - edges_in)
        if t == 0:
            if uniq[0] <= 0:
                continue  # rho must be positive; the empty band is unreachable
            rho = float(uniq[0]) / 2.0
        elif t < uniq.size:
            rho = float(0.5 * (uniq[t - 1] + uniq[t]))
        else:
            rho = float(uniq[-1] * 1.0000001 + 1e-12)
        if best_mis is None or mis < best_mis:
            best_mis, best_rho = mis, rho
    return best_rho


def estimate_triangles_from_curvature(a_rho: Graph, node_curvature: np.ndarray,
                                      gamma: float = 4.0) -> np.ndarray:
    """Invert the node Forman identity 6*gamma*t(i) = d(i) F(i) - sum_j (4 - d_i - d_j).

    ``node_curvature`` plays the role of F on the reconstructed graph; exact
    Forman values give back exact triangle counts.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    deg = a_rho.degrees.astype(float)
    est = deg * np.asarray(node_curvature, dtype=float)
    for i, nbrs in enumerate(a_rho.adj):
        if nbrs.size:
            est[i] -= (4.0 - deg[i] - deg[nbrs]).sum()
    return est / (6.0 * gamma)


def estimate_triangles(emb: Embedding, a_rho: Graph, gamma: float = 4.0) -> TriangleEstimates:
    """Curvature-based triangle estimates on a reconstructed graph.

    The manifold curvature at each embedded node, shift-adjusted back to the
    Forman scale, substitutes for the (unknown) true node curvature; the
    NN-only baseline counts triangles of ``a_rho`` directly.
    """
    if a_rho.n != emb.n:
        raise ValueError("reconstructed graph and embedding node counts differ")
    proxy = reconstructed_forman(emb)
    raw = estimate_triangles_from_curvature(a_rho, proxy, gamma)
    _, nn_counts = triangle_counts(a_rho)
    return TriangleEstimates(
        raw=raw, clamped=np.maximum(raw, 0.0), nn_baseline=nn_counts.astype(float)
    )


def _forman_error(g: Graph, proxy: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
    f = forman(g, gamma)
    err = np.abs(proxy - f.node_values)
    return err, float(err.sum())


def curvature_correction(emb: Embedding, a_rho: Graph, rho: float, step: float,
                         percentile: float = 90.0, gamma: float = 1.0,
                         g_true: Graph | None = None,
                         sq: np.ndarray | None = None) -> ReconstructionResult:
    """Locally re-threshold the worst curvature-mismatch nodes, keeping only
    changes that reduce the total curvature error.

    Nodes whose |reconstructed-curvature - graph-Forman| error exceeds the
    given percentile are processed in descending error order. A node with
    too-low graph curvature gets its incident edges re-thresholded at
    rho + step (densify); too-high at rho - step (sparsify). Each change is
    accepted only if the summed error strictly decreases. ``sq`` as in
    :func:`nn_graph`.
    """
    if not (0.0 < percentile < 100.0):
        raise ValueError("percentile must be in (0, 100)")
    if step <= 0:
        raise ValueError("step must be positive")
    proxy = reconstructed_forman(emb)
    dm = np.sqrt(pairwise_sq_distances(emb.spec, emb.blocks) if sq is None else sq)
    n = a_rho.n

    edges = a_rho.edge_set()
    err, err_total = _forman_error(a_rho, proxy, gamma)
    cutoff = float(np.percentile(err, percentile))
    worklist = [i for i in np.argsort(-err, kind="stable") if err[i] > cutoff]

    log: list[tuple[int, str, bool]] = []
    current = a_rho
    for i in worklist:
        f_now = forman(current, gamma).node_values
        diff = proxy[i] - f_now[i]
        if diff == 0.0:
            continue
        if diff > 0:
            action = "densify"
            radius = rho + step
        else:
            action = "sparsify"
            radius = max(rho - step, 0.0)
        within = set(np.nonzero(dm[i] <= radius)[0].tolist()) - {i}
        new_edges = {e for e in edges if i not in e}
        new_edges |= {(min(i, j), max(i, j)) for j in within}
        if new_edges == edges:
            log.append((int(i), action, False))
            continue
        candidate = from_edges(n, new_edges)
        _, cand_total = _forman_error(candidate, proxy, gamma)
        accept = cand_total < err_total
        log.append((int(i), action, accept))
        if accept:
            current, edges, err_total = candidate, new_edges, cand_total

    mismatch = edge_mismatch(current, g_true) if g_true is not None else None
    return ReconstructionResult(rho=rho, graph=current, mismatch=mismatch, correction_log=log)
