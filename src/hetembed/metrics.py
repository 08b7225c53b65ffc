"""Embedding quality metrics: distance/curvature/triangle distortion, mAP,
Forman variance, and the annular volume-matching experiment."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .graph import UNREACHABLE, FormanSignal, Graph, bfs_apsp
from .manifold import annular_volume, pairwise_sq_distances, rotsym_curvature
from .optim import Embedding


@dataclass
class EvalReport:
    ad_d: float
    map: float
    ad_c: float | None
    forman_variance: float
    n_pairs_used: int
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def avg_distance_distortion(sq: np.ndarray, dist: np.ndarray) -> float:
    """Mean relative distance distortion |1 - d_M/d_G| over connected pairs.

    ``sq`` is the embedding's :func:`pairwise_sq_distances` matrix and ``dist``
    the graph's :func:`bfs_apsp` hop matrix.
    """
    connected = np.triu(dist != UNREACHABLE, 1)  # read in connected_pairs' row-major order
    if not connected.any():
        raise ValueError("graph has no connected pairs")
    d_m = np.sqrt(sq[connected])
    d_g = dist[connected].astype(np.float64)
    return float(np.abs(1.0 - d_m / d_g).mean())


def mean_average_precision(sq: np.ndarray, g: Graph) -> float:
    """Neighbor-retrieval mAP with ties counted (<= comparisons).

    For every node i and graph neighbor j, precision is the fraction of graph
    neighbors among all nodes embedded at least as close as j. Isolated nodes
    are skipped. ``sq`` as in :func:`avg_distance_distortion`.
    """
    ap_sum = 0.0
    rated = 0
    for i in range(g.n):
        nbrs = g.neighbors(i)
        if nbrs.size == 0:
            continue
        thresholds = sq[i, nbrs]
        # the row's own diagonal 0 is at or below every threshold: count it off
        sizes = np.searchsorted(np.sort(sq[i]), thresholds, side="right") - 1
        hits = np.searchsorted(np.sort(thresholds), thresholds, side="right")
        ap_sum += float((hits / sizes).mean())
        rated += 1
    if rated == 0:
        raise ValueError("graph has no non-isolated nodes")
    return ap_sum / rated


def reconstructed_forman(emb: Embedding) -> np.ndarray:
    """Per-node curvature proxy decoded from the radial coordinates.

    Inverts the training-time shift: R_a(r_i) + min F - delta_hat, using the
    constants recorded in the embedding.
    """
    shift = emb.shift_constants
    rot = emb.spec.rotsym_factor
    if shift is None or rot is None or rot.alpha is None:
        raise ValueError("embedding has no rotsym factor with recorded shift constants")
    r = emb.radii()
    return rotsym_curvature(rot.alpha, r) + shift.min_forman - shift.delta_hat


def avg_curvature_distortion(emb: Embedding, f_signal: FormanSignal) -> float:
    """Mean |F(i) - reconstructed F(i)| / (|F(i)| + 1)."""
    rec = reconstructed_forman(emb)
    f = f_signal.node_values
    return float((np.abs(f - rec) / (np.abs(f) + 1.0)).mean())


def forman_variance(f_signal: FormanSignal) -> float:
    """Population variance of the node curvature signal."""
    return float(np.var(f_signal.node_values))


def avg_triangle_distortion(true_counts: np.ndarray, est_counts: np.ndarray) -> float:
    """Mean |t(i) - t'(i)| / (t(i) + 1) over nodes."""
    t = np.asarray(true_counts, dtype=float)
    e = np.asarray(est_counts, dtype=float)
    if t.shape != e.shape:
        raise ValueError("count vectors must have equal length")
    return float((np.abs(t - e) / (t + 1.0)).mean())


def volume_match(emb: Embedding, g: Graph, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Max-normalized graph ball sizes vs manifold annular volumes, per node.

    Requires the exact H^3 x R layout the closed-form volume covers.
    """
    kinds = [f.kind for f in emb.spec.factors]
    dims = [f.dim for f in emb.spec.factors]
    if kinds != ["hyperbolic", "rotsym"] or dims[0] != 3:
        raise ValueError("volume matching needs the hyperbolic(3) x rotsym layout")
    if rho <= 0:
        raise ValueError("rho must be positive")
    rot = emb.spec.rotsym_factor
    dist = bfs_apsp(g)
    reachable = dist != UNREACHABLE
    ball = ((dist <= rho) & reachable).sum(axis=1).astype(float)
    radii = emb.radii()
    vols = np.array([annular_volume(rot.alpha, 3, float(r), rho) for r in radii])
    return ball / ball.max(), vols / vols.max()


def evaluate(emb: Embedding, g: Graph, f_signal: FormanSignal) -> EvalReport:
    """Assemble the full metric report for one embedding."""
    dist = bfs_apsp(g)
    n_pairs = int(np.count_nonzero(np.triu(dist != UNREACHABLE, 1)))
    notes = []
    total_pairs = g.n * (g.n - 1) // 2
    if n_pairs < total_pairs:
        notes.append(f"excluded {total_pairs - n_pairs} disconnected pairs")
    isolated = int((g.degrees == 0).sum())
    if isolated:
        notes.append(f"skipped {isolated} isolated nodes in mAP")
    ad_c = None
    if emb.shift_constants is not None and emb.spec.rotsym_index is not None:
        ad_c = avg_curvature_distortion(emb, f_signal)
        notes.append("ad_c uses the shifted reconstruction recorded at training time")
    if f_signal.normalized:
        notes.append("forman signal normalized by max endpoint degree")
    sq = pairwise_sq_distances(emb.spec, emb.blocks)
    return EvalReport(
        ad_d=avg_distance_distortion(sq, dist),
        map=mean_average_precision(sq, g),
        ad_c=ad_c,
        forman_variance=forman_variance(f_signal),
        n_pairs_used=n_pairs,
        notes=notes,
    )
