"""Graph reconstruction from embedded point clouds: distance thresholding,
validation-tuned thresholds, curvature-based triangle estimates, and the
local curvature-correction repair loop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (Graph, _common_neighbours, _forman_entries, _from_upper_rows, _unpack_bits,
                    triangle_counts)


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
            "edges": self.graph.edges().tolist(),
            "mismatch": self.mismatch,
            "correction_log": [
                {"node": int(n), "action": a, "accepted": bool(ok)}
                for n, a, ok in self.correction_log
            ],
        }


def nn_graph(sq: np.ndarray, rho: float) -> Graph:
    """Edges between distinct nodes at embedded distance <= rho.

    ``sq`` is the embedding's (n, n) ``manifold.pairwise_sq_distances`` matrix;
    it is compared a row block at a time.
    """
    if not (rho > 0):
        raise ValueError("rho must be positive")
    return _from_upper_rows(sq.shape[0], lambda rows: sq[rows, rows.start:] <= rho * rho)


def edge_mismatch(a: Graph, b: Graph) -> int:
    """Size of the symmetric difference of the edge sets."""
    n = max(a.n, b.n)
    return int(np.setxor1d(_edge_keys(a, n), _edge_keys(b, n), assume_unique=True).size)


def _edge_keys(g: Graph, n: int) -> np.ndarray:
    """The key i * n + j of every edge (i, j), i < j, of ``g``."""
    rows, cols = g.entries()
    upper = rows < cols
    return rows[upper] * n + cols[upper]


def tune_threshold(sq: np.ndarray, g_true: Graph, val_fraction: float = 0.10,
                   seed: int = 0) -> float:
    """Distance threshold minimizing adjacency disagreements on a node sample.

    Disagreements are counted over the adjacency rows of a random 10% node
    sample. Candidate thresholds are midpoints between consecutive observed
    distances of sample-involved pairs; ties resolve to the smaller rho.
    ``sq`` as in :func:`nn_graph`.

    The sample rows' distances are sorted once, in place, with their self
    cells set to inf and cut off the end; the E edge distances among them
    are sorted apart. The band that keeps the first p sorted distances keeps
    the c(p) edge distances below the p-th, so it misses E + p - 2 c(p)
    cells. That count grows with p wherever c stays the same, so its first
    minimizer is the first band or one where c steps up: the first distance
    above an edge distance, which ``searchsorted`` finds. c stays the same
    inside a run of equal distances, so this is also the band that a sweep
    over the distinct distances picks first.
    """
    if not (0.0 < val_fraction < 1.0):
        raise ValueError("val_fraction must be in (0, 1)")
    n = g_true.n
    if n < 2:
        raise ValueError("the validation sample has no node pairs")
    rng = np.random.default_rng(seed)
    k = max(1, int(round(val_fraction * n)))
    val = np.sort(rng.choice(n, size=k, replace=False))

    # every (validation node, other node) distance of the sample rows; a pair
    # with both ends in the sample is counted once from each row. sqrt is
    # monotone, so it commutes with the sort
    dists = np.take(sq, val, axis=0)
    dists[np.arange(k), val] = np.inf
    dists = dists.ravel()
    dists.sort()
    dists = np.sqrt(dists[:k * (n - 1)], out=dists[:k * (n - 1)])
    edge_dists = np.sqrt(sq[np.repeat(val, g_true.degrees[val]),
                            np.concatenate([g_true.neighbors(v) for v in val.tolist()])])
    edge_dists.sort()

    # rho must be positive, so a band of zero distances alone is out
    start = int(dists.searchsorted(0.0, side="right"))
    steps = dists.searchsorted(edge_dists, side="right")  # where c steps up, in order
    bands = np.concatenate([[start], steps])
    best = int(bands[np.argmin(bands - 2 * steps.searchsorted(bands, side="right"))])
    if best == 0:
        return float(dists[0]) / 2.0
    if best < dists.size:
        return float(0.5 * (dists[best - 1] + dists[best]))
    return float(dists[-1] * 1.0000001 + 1e-12)


def estimate_triangles_from_curvature(a_rho: Graph, node_curvature: np.ndarray,
                                      gamma: float) -> np.ndarray:
    """Invert the node Forman identity 6*gamma*t(i) = d(i) F(i) - sum_j (4 - d_i - d_j).

    ``node_curvature`` plays the role of F on the reconstructed graph; exact
    Forman values give back exact triangle counts.
    """
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    deg = a_rho.degrees.astype(float)
    rows, cols = a_rho.entries()
    est = deg * np.asarray(node_curvature, dtype=float)
    est -= np.bincount(rows, weights=4.0 - deg[rows] - deg[cols], minlength=a_rho.n)
    return est / (6.0 * gamma)


def estimate_triangles(proxy: np.ndarray, a_rho: Graph, gamma: float) -> TriangleEstimates:
    """Curvature-based triangle estimates on a reconstructed graph.

    ``proxy`` is the manifold curvature at each embedded node, shift-adjusted
    back to the Forman scale (``metrics.reconstructed_forman``); it substitutes
    for the (unknown) true node curvature, and ``gamma`` is the Forman gamma
    the embedding was trained at. The NN-only baseline counts triangles of
    ``a_rho`` directly.
    """
    if a_rho.n != proxy.size:
        raise ValueError("reconstructed graph and curvature proxy node counts differ")
    raw = estimate_triangles_from_curvature(a_rho, proxy, gamma)
    _, nn_counts = triangle_counts(a_rho)
    return TriangleEstimates(
        raw=raw, clamped=np.maximum(raw, 0.0), nn_baseline=nn_counts.astype(float)
    )


def curvature_correction(proxy: np.ndarray, a_rho: Graph, sq: np.ndarray, rho: float,
                         step: float, percentile: float = 90.0,
                         gamma: float = 1.0) -> ReconstructionResult:
    """Locally re-threshold the worst curvature-mismatch nodes, keeping only
    changes that reduce the total curvature error.

    Nodes whose |reconstructed-curvature - graph-Forman| error exceeds the
    given percentile are processed in descending error order. A node with
    too-low graph curvature gets its incident edges re-thresholded at
    rho + step (densify); too-high at rho - step (sparsify). Each change is
    accepted only if the summed error strictly decreases. ``proxy`` is as in
    :func:`estimate_triangles` and ``sq`` as in :func:`nn_graph`.

    A candidate at node i moves only the Forman values of i, of its old and
    new neighbours and of the neighbours of its toggled partners; only those
    are recomputed. The state is the degrees and packed rows, edited in
    place, an (n, n) table holding the common-neighbour count of every
    adjacency entry, and per-node neighbour lists. A toggle of (i, j) changes
    only the rows of i and j, so only the rows of S = {i} ∪ partners are
    unpacked, only the table cells with an end in S are recounted (and
    restored on rejection), and only the lists of S are renewed (on
    acceptance). The lists stay sorted and current, so the repaired graph is
    their CSR.
    """
    if not (0.0 < percentile < 100.0):
        raise ValueError("percentile must be in (0, 100)")
    if not (step > 0):
        raise ValueError("step must be positive")
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    n = a_rho.n
    deg, bits = a_rho.degrees, a_rho.adjacency_bits()
    rows, cols = a_rho.entries()
    tri = _common_neighbours(bits, rows, cols)
    common = _common_table(n, rows, cols, tri)
    _, f_now = _forman_entries(deg, tri, rows, cols, gamma)
    err = np.abs(proxy - f_now)
    err_total = float(err.sum())
    cutoff = float(np.percentile(err, percentile))
    worklist = [i for i in np.argsort(-err, kind="stable") if err[i] > cutoff]

    nbrs = [a_rho.neighbors(j) for j in range(n)]  # sorted neighbours in the current graph
    changed = False
    log: list[tuple[int, str, bool]] = []
    for i in worklist:
        diff = proxy[i] - f_now[i]
        if diff == 0.0:
            continue
        if diff > 0:
            action = "densify"
            radius = rho + step
        else:
            action = "sparsify"
            radius = max(rho - step, 0.0)
        row = np.sqrt(sq[i]) <= radius
        row[i] = False
        old = _unpack_bits(bits[i:i + 1], n)[0].view(bool)
        partners = np.flatnonzero(row != old)
        if partners.size == 0:
            log.append((int(i), action, False))
            continue
        _toggle_edges(deg, bits, i, partners, row)
        # the ends S of the toggled edges first, then the other nodes whose
        # neighbours' degrees or edge triangles moved: the neighbours of S
        ends = np.append(partners, i)
        ends_adj = _unpack_bits(bits[ends], n).view(bool)
        others = ends_adj.any(axis=0)
        others[ends] = False
        others = np.flatnonzero(others)
        moved = np.concatenate([ends, others])
        # every entry of the moved rows, row by row in column order: the rows
        # of S unpacked, the others' unchanged rows from the lists
        ends_flat = np.flatnonzero(ends_adj)
        rows = np.repeat(moved, deg[moved])
        cols = np.concatenate([ends_flat % n, *[nbrs[j] for j in others.tolist()]])
        flat = rows * n + cols
        # only the counts of entries with an end in S moved: the rows of S
        # and their mirror cells
        k = ends_flat.size
        cells, mirror = flat[:k], cols[:k] * n + rows[:k]
        saved = np.take(common, cells)
        counts = _common_neighbours(bits, rows[:k], cols[:k])
        np.put(common, cells, counts)
        np.put(common, mirror, counts)
        _, f_moved = _forman_entries(deg, np.take(common, flat), rows, cols, gamma)
        f_old = f_now[moved]
        f_now[moved] = f_moved[moved]
        cand_total = float(np.abs(proxy - f_now).sum())
        accept = cand_total < err_total
        log.append((int(i), action, accept))
        if accept:
            err_total, changed = cand_total, True
            for j, adj_j in zip(ends.tolist(), ends_adj):
                nbrs[j] = np.flatnonzero(adj_j)
        else:
            _toggle_edges(deg, bits, i, partners, old)
            np.put(common, cells, saved)
            np.put(common, mirror, saved)
            f_now[moved] = f_old

    current = a_rho
    if changed:  # the lists' lengths are the degrees
        current = Graph(n=n, indptr=np.concatenate([[0], np.cumsum(deg)]),
                        indices=np.concatenate(nbrs))
    return ReconstructionResult(rho=rho, graph=current, correction_log=log)


def _common_table(n: int, rows: np.ndarray, cols: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(n, n) table with ``counts[k]`` at (rows[k], cols[k]) and 0 elsewhere.

    A common-neighbour count is at most n - 2, so int16 holds it up to
    n = 32,769, past ``MAX_DENSE_NODES``; a larger n takes int32."""
    table = np.zeros((n, n), dtype=np.int16 if n - 2 <= np.iinfo(np.int16).max else np.int32)
    table[rows, cols] = counts
    return table


def _toggle_edges(deg: np.ndarray, bits: np.ndarray, i: int, partners: np.ndarray,
                  row: np.ndarray) -> None:
    """Flips the edges (i, j), j in ``partners``, in place in the degrees and
    the packed rows; ``row`` is row i's (n,) bool adjacency after the flip.
    Called again with row i's old adjacency, it undoes the first call."""
    delta = np.where(row[partners], 1, -1)
    deg[partners] += delta
    deg[i] += delta.sum()
    # row i packed again: byte k of a little-endian word row holds columns 8k..8k+7
    bits.view(np.uint8)[i, :(row.size + 7) // 8] = np.packbits(row, bitorder="little")
    bits[partners, i // 64] ^= np.uint64(1) << np.uint64(i % 64)
