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


def save_edge_list_reference(g: Graph) -> str:
    """The edge-list text by a per-edge appearance scan and one line per edge."""
    edges = g.edges()
    appearance: list[int] = []
    seen: set[int] = set()
    for i, j in edges:
        for v in (int(i), int(j)):
            if v not in seen:
                seen.add(v)
                appearance.append(v)
    lines = []
    if appearance != list(range(g.n)):
        lines += [f"{v} {v}\n" for v in range(g.n)]
    lines += [f"{i} {j}\n" for i, j in edges]
    return "".join(lines)


def tune_threshold_reference(emb, g_true: Graph, val_fraction: float = 0.10,
                             seed: int = 0) -> float:
    """The threshold band sweep as a loop over every band between consecutive
    distinct distances of the validation rows, first minimizer kept."""
    from hetembed.manifold import pairwise_sq_distances

    n = g_true.n
    rng = np.random.default_rng(seed)
    k = max(1, int(round(val_fraction * n)))
    val = np.sort(rng.choice(n, size=k, replace=False))
    dm = np.sqrt(pairwise_sq_distances(emb.spec, emb.blocks))
    adj = g_true.adjacency_mask()
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

    best_mis, best_rho = None, None
    for t in range(uniq.size + 1):
        included = int(bounds[t])
        edges_in = int(edge_cum[included])
        mis = (total_edges - edges_in) + (included - edges_in)
        if t == 0:
            if uniq[0] <= 0:
                continue
            rho = float(uniq[0]) / 2.0
        elif t < uniq.size:
            rho = float(0.5 * (uniq[t - 1] + uniq[t]))
        else:
            rho = float(uniq[-1] * 1.0000001 + 1e-12)
        if best_mis is None or mis < best_mis:
            best_mis, best_rho = mis, rho
    return best_rho


def max_clique_reference(g: Graph, time_budget: float = 10.0) -> tuple[int, bool]:
    """Max clique by a multi-start greedy lower bound, then a recursive
    branch and bound with greedy-coloring bounds over vertices in index order.

    Returns (size, exact); the clock is read on entry to every branch.
    """
    import time

    n = g.n
    if n == 0:
        return 0, True
    masks = [0] * n
    for i, nbrs in enumerate(g.adj):
        for j in nbrs:
            masks[i] |= 1 << int(j)
    if all(m == 0 for m in masks):
        return 1, True

    def color_order(p):
        order, bounds, color, remaining = [], [], 0, p
        while remaining:
            color += 1
            available = remaining
            while available:
                v = (available & -available).bit_length() - 1
                available &= available - 1
                order.append(v)
                bounds.append(color)
                remaining &= ~(1 << v)
                available &= ~masks[v]
        return order, bounds

    order = sorted(range(n), key=lambda v: masks[v].bit_count(), reverse=True)
    best = 1
    for start in order[: max(8, n // 16)]:
        size, candidates = 1, masks[start]
        while candidates:
            # the candidate with most neighbors inside the candidate set
            best_v, best_deg, m = -1, -1, candidates
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                d = (masks[v] & candidates).bit_count()
                if d > best_deg:
                    best_v, best_deg = v, d
            size += 1
            candidates &= masks[best_v]
        best = max(best, size)
    deadline = time.monotonic() + time_budget
    timed_out = False

    def expand(r_size, p):
        nonlocal best, timed_out
        if timed_out:
            return
        if time.monotonic() > deadline:
            timed_out = True
            return
        verts, bounds = color_order(p)
        for idx in range(len(verts) - 1, -1, -1):
            if r_size + bounds[idx] <= best:
                return
            v = verts[idx]
            best = max(best, r_size + 1)
            nxt = p & masks[v]
            if nxt:
                expand(r_size + 1, nxt)
                if timed_out:
                    return
            p &= ~(1 << v)

    expand(0, (1 << n) - 1)
    return best, not timed_out


def quadric_sq_dw_reference(factor, w: np.ndarray):
    """d(sq)/dw of a unit-scale quadric and its regular mask, from its own
    arccos or arccosh of regular stand-ins (0 on the sphere, 2 on the
    hyperboloid) at the branch point."""
    sphere = factor.kind == "sphere"
    ok = np.abs(w) <= 1.0 - 1e-14 if sphere else w >= 1.0 + 1e-14
    dsq = np.where(ok, w, 0.0 if sphere else 2.0)
    root = np.sqrt(1.0 - dsq * dsq if sphere else dsq * dsq - 1.0)
    (np.arccos if sphere else np.arccosh)(dsq, out=dsq)
    dsq /= root
    dsq *= -2.0 if sphere else 2.0
    dsq[~ok] = 0.0
    return dsq, ok


def train_reference(g: Graph, spec, cfg):
    """The training loop with the loss taken after every step by its own
    ``loss_distance`` call: gradients, step, loss, every epoch.

    Returns (embedding blocks, loss_d list, loss_c list).
    """
    import math
    from dataclasses import replace

    from hetembed.graph import bfs_apsp, connected_pairs, forman
    from hetembed.manifold import (alpha_from_range, resolve_spec, rotsym_curvature,
                                   rotsym_curvature_inverse)
    from hetembed.optim import (ShiftConstants, _resolve_batch, gradients, initialize,
                                loss_curvature, loss_distance, rsgd_step)

    dist = bfs_apsp(g)
    all_pairs = connected_pairs(dist)
    rot, tau, f_signal, shift = spec.rotsym_factor, cfg.tau, None, None
    if rot is None:
        tau, spec_resolved = 0.0, spec
    else:
        if tau > 0 or rot.alpha is None:
            f_signal = forman(g, cfg.gamma)
            alpha, delta_hat = alpha_from_range(f_signal.max_node, f_signal.min_node,
                                                cfg.delta, cfg.ell_plus)
        spec_resolved = resolve_spec(spec, alpha=alpha if rot.alpha is None else rot.alpha,
                                     rot_scale=cfg.lambda_rot)
        if tau > 0:
            shift = ShiftConstants(f_signal.min_node, delta_hat, spec_resolved.rotsym_factor.lam,
                                   spec_resolved.homogeneous_curvature)
    radial_init = cfg.radial_init
    if radial_init == "auto":
        radial_init = (0.1, 1.0)
        if shift is not None:
            a = spec_resolved.rotsym_factor.alpha
            top = rotsym_curvature(a, 0.0)
            lo = rotsym_curvature_inverse(a, min(f_signal.max_node - shift.min_forman
                                                 + shift.delta_hat, top))
            hi = rotsym_curvature_inverse(a, shift.delta_hat)
            radial_init = (lo, hi if hi - lo >= 1e-9 else lo + max(a * 0.1, 1e-3))
    emb = initialize(spec_resolved, g, replace(cfg, radial_init=radial_init))
    emb.shift_constants = shift
    cfg_run = replace(cfg, tau=tau)
    batch_size = _resolve_batch(cfg.batch_pairs, all_pairs.shape[0], g.n)
    batch_rng = np.random.default_rng((cfg.seed, 0xBA7C4))
    decay1, decay2 = int(math.floor(0.8 * cfg.epochs)), int(math.floor(0.9 * cfg.epochs))
    loss_d, loss_c = [], []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (0.01 if epoch >= decay2 else 0.1 if epoch >= decay1 else 1.0)
        batch = all_pairs
        if batch_size != all_pairs.shape[0]:
            idx = batch_rng.choice(all_pairs.shape[0], size=batch_size, replace=False)
            batch = all_pairs[np.sort(idx)]
        emb = rsgd_step(emb, gradients(emb, dist, f_signal, cfg_run, batch), lr)
        loss_d.append(loss_distance(emb, dist, all_pairs))
        loss_c.append(loss_curvature(emb, f_signal, cfg_run) if tau > 0 else 0.0)
    return emb.blocks, loss_d, loss_c
