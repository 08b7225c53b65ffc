"""Embedding quality metrics: distance/curvature/triangle distortion, mAP,
Forman variance, and the annular volume-matching experiment."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .graph import (UNREACHABLE, FormanSignal, Graph, _connected_pair_count, _upper_connected,
                    bfs_apsp)
from .manifold import _Workspace, annular_volume, pairwise_sq_distances, rotsym_curvature
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
        return json.dumps(asdict(self), indent=2, sort_keys=True, allow_nan=False) + "\n"


def avg_distance_distortion(sq: np.ndarray, dist: np.ndarray) -> float:
    """Mean relative distance distortion |1 - d_M/d_G| over connected pairs.

    ``sq`` is the embedding's :func:`pairwise_sq_distances` matrix and
    ``dist`` the graph's :func:`bfs_apsp` hop matrix. One float64 per pair,
    in ``connected_pairs`` order, is written a row block at a time, and one
    mean is taken over them all.
    """
    dev = np.empty(_connected_pair_count(dist))
    if not dev.size:
        raise ValueError("graph has no connected pairs")
    end = 0
    for rows, block in _upper_connected(dist):
        part = dev[end:end + np.count_nonzero(block)]
        end += part.size
        np.sqrt(sq[rows, rows.start:][block], out=part)
        part /= dist[rows, rows.start:][block]
        np.subtract(1.0, part, out=part)
        np.abs(part, out=part)
    return float(dev.mean())


def mean_average_precision(sq: np.ndarray, g: Graph) -> float:
    """Neighbor-retrieval mAP with ties counted (<= comparisons).

    For every node i and graph neighbor j, precision is the fraction of graph
    neighbors among all nodes embedded at least as close as j. Isolated nodes
    are skipped. ``sq`` as in :func:`avg_distance_distortion`.

    One pass over the neighbour entries (i, j) in CSR order, with threshold
    t = sq[i, j]: the nodes at or below t come from a bisection on row i
    sorted, a block of rows at a time, and the neighbours at or below t from
    one lexsort of the (i, t) entries. The rows of each degree are averaged
    as one (rows, degree) array, and the row means are added in node order.
    """
    n, deg, indptr = g.n, g.degrees, g.indptr
    rows = np.repeat(np.arange(n), deg)
    if rows.size == 0:
        raise ValueError("graph has no non-isolated nodes")
    thresholds = sq[rows, g.indices]
    # neighbours of the same row at or below each threshold: the end of its
    # run of ties in (row, threshold) order, counted from the row's start
    order = np.lexsort((thresholds, rows))
    r, t = rows[order], thresholds[order]
    run_end = np.ones(rows.size, dtype=bool)
    run_end[:-1] = (r[1:] != r[:-1]) | (t[1:] != t[:-1])
    ends = np.flatnonzero(run_end)
    hits = np.empty(rows.size, dtype=np.int64)
    hits[order] = ends[np.cumsum(run_end) - run_end] + 1 - indptr[r]
    # nodes at or below each threshold, less the row's own diagonal 0
    sizes = np.empty(rows.size, dtype=np.int64)
    blocks = _Workspace(n).tiles
    buf = np.empty((max(blk.stop - blk.start for blk in blocks), n))
    for blk in blocks:
        lo, hi = indptr[blk.start], indptr[blk.stop]
        sorted_rows = buf[: blk.stop - blk.start]
        sorted_rows[...] = sq[blk]
        sorted_rows.sort(axis=1)
        flat = sorted_rows.ravel()
        before = (rows[lo:hi] - blk.start) * n - 1  # flat index of a row's item 0, less 1
        thr = thresholds[lo:hi]
        count = np.zeros(hi - lo, dtype=np.int64)
        step = 1 << (n.bit_length() - 1)
        while step:  # keeps count the length of the row's prefix at or below thr
            probe = count + step
            ok = probe <= n
            ok &= flat[before + np.minimum(probe, n)] <= thr
            np.copyto(count, probe, where=ok)
            step >>= 1
        sizes[lo:hi] = count - 1
    precision = hits / sizes
    # a row's mean over its degree d is numpy's pairwise sum of its d
    # precisions, as a mean over a (rows, d) array takes it row by row
    means = np.empty(n)
    for d in np.unique(deg[deg > 0]):
        nodes = np.flatnonzero(deg == d)
        means[nodes] = precision[indptr[nodes, None] + np.arange(d)].mean(axis=1)
    rated = means[deg > 0]
    # the row means added in node order, one rounding per addition
    return float(np.cumsum(rated)[-1] / rated.size)


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
    if not (rho > 0):
        raise ValueError("rho must be positive")
    rot = emb.spec.rotsym_factor
    dist = bfs_apsp(g)
    ball = np.empty(g.n)
    for rows in _Workspace(g.n).tiles:
        block = dist[rows]
        ball[rows] = np.count_nonzero((block <= rho) & (block != UNREACHABLE), axis=1)
    radii = emb.radii()
    vols = np.array([annular_volume(rot.alpha, float(r), rho) for r in radii])
    return ball / ball.max(), vols / vols.max()


def evaluate(emb: Embedding, g: Graph, f_signal: FormanSignal) -> EvalReport:
    """Assemble the full metric report for one embedding."""
    dist = bfs_apsp(g)
    n_pairs = _connected_pair_count(dist)
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
    sq = pairwise_sq_distances(emb.spec, emb.blocks)
    return EvalReport(
        ad_d=avg_distance_distortion(sq, dist),
        map=mean_average_precision(sq, g),
        ad_c=ad_c,
        forman_variance=forman_variance(f_signal),
        n_pairs_used=n_pairs,
        notes=notes,
    )
