"""Shared oracles and helpers.

Oracles here are deliberately naive re-implementations (pure-Python loops,
dense matrix sweeps) kept independent of the library's vectorized paths.
"""

from __future__ import annotations

import decimal
import tracemalloc

import numpy as np
import pytest

from hetembed.graph import Graph, UNREACHABLE

# tolerance of the sphere and hyperboloid constraints in the geometry tests
CONSTRAINT_TOL = 1e-9


def mink_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minkowski form of matching rows, time coordinate last: sum x_i y_i - x_last y_last."""
    return (x[..., :-1] * y[..., :-1]).sum(axis=-1) - x[..., -1] * y[..., -1]


def base_point(spec) -> list[np.ndarray]:
    """A canonical point: origin / last-coordinate pole / r = 0."""
    blocks = []
    for f in spec.factors:
        b = np.zeros(f.block_dim)
        if f.kind in ("sphere", "hyperbolic"):
            b[-1] = 1.0
        blocks.append(b)
    return blocks


def edge_set(g: Graph) -> set[tuple[int, int]]:
    """The edges of ``g`` as a set of (i, j) tuples with i < j."""
    return {(int(i), int(j)) for i, j in g.edges()}


def sq_distances(emb) -> np.ndarray:
    """The embedding's (n, n) squared product distances, as the CLI builds them."""
    from hetembed.manifold import pairwise_sq_distances

    return pairwise_sq_distances(emb.spec, emb.blocks)


def distance_distortion(emb, g: Graph) -> float:
    """AD_d of an embedding against its graph, from the matrices ``evaluate`` builds."""
    from hetembed.graph import bfs_apsp
    from hetembed.metrics import avg_distance_distortion

    return avg_distance_distortion(sq_distances(emb), bfs_apsp(g))


def floyd_warshall(g: Graph) -> np.ndarray:
    """Dense all-pairs shortest paths, O(n^3)."""
    n = g.n
    inf = float("inf")
    d = np.full((n, n), inf)
    np.fill_diagonal(d, 0.0)
    for i in range(n):
        for j in g.neighbors(i):
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
        nbrs = set(int(x) for x in g.neighbors(i))
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


def three_block_case(seed: int = 0):
    """(graph, e2 embedding) on 400 nodes, three row blocks of the all-pairs
    passes. The graph has components of 300 and 80 nodes and 20 isolated
    nodes, numbered in a random order. The points lie on a 20 x 20 integer
    grid, so many coincide and many distances are equal, all exact in float64
    (a threshold of 2.0 falls exactly on a distance)."""
    from hetembed.graph import from_edges
    from hetembed.optim import Embedding
    from hetembed.manifold import parse_manifold
    from synthetic import random_connected_graph

    rng = np.random.default_rng(seed)
    edges = np.concatenate([random_connected_graph(300, 0.01, seed).edges(),
                            random_connected_graph(80, 0.05, seed + 1).edges() + 300])
    g = from_edges(400, rng.permutation(400)[edges])
    points = rng.integers(0, 20, size=(400, 2)).astype(float)
    return g, Embedding(spec=parse_manifold("e2"), blocks=[points])


def traced_peak(call, *args, **kwargs):
    """(the tracemalloc peak in bytes of ``call(*args, **kwargs)``, its result)."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def forman_reference(g: Graph, gamma: float):
    """Forman curvature by the edge loop: edges in ``g.edges()`` order, each
    adding its value to both endpoints; triangles from neighbour sets.

    Returns (edge values, node values).
    """
    deg = g.degrees
    nbrs = [set(g.neighbors(i).tolist()) for i in range(g.n)]
    edge_values = []
    node_values = np.zeros(g.n)
    for i, j in g.edges().tolist():
        val = 4.0 - deg[i] - deg[j] + 3.0 * gamma * len(nbrs[i] & nbrs[j])
        edge_values.append(val)
        node_values[i] += val
        node_values[j] += val
    nz = deg > 0
    node_values[nz] /= deg[nz]
    return np.array(edge_values), node_values


def pairwise_sq_distances_reference(spec, blocks, tiles=None) -> np.ndarray:
    """The all-pairs squared product distance summed from 0.0, one weighted
    factor at a time: flat factors by the broadcast row kernel, quadrics by a
    Gram matrix of their own, clamped and put through arccos or arccosh. With
    ``tiles`` (row ranges) each block (I, J), lower ones too, takes a Gram call
    of its own; by default the whole matrix takes one. The sphere's Gram
    operands share x's buffer, as the library's do, so a diagonal block goes
    through the same BLAS routine."""
    from hetembed.manifold import factor_sq_distance

    n = blocks[0].shape[0]
    tiles = tiles or [slice(0, n)]
    total = np.zeros((n, n))
    for f, x in zip(spec.factors, blocks):
        if f.kind in ("euclidean", "rotsym"):
            sq = factor_sq_distance(f, x[:, None], x[None, :])
        else:
            # w = <x,y> on the sphere, -<x,y>_M on the hyperboloid
            lhs = x if f.kind == "sphere" else x * np.append(-np.ones(f.dim), 1.0)
            w = np.empty((n, n))
            for rows in tiles:
                for cols in tiles:
                    w[rows, cols] = lhs[rows] @ x[cols].T
            if f.kind == "sphere":
                sq = np.arccos(np.clip(w, -1.0, 1.0)) ** 2
            else:
                sq = np.arccosh(np.maximum(w, 1.0)) ** 2
        total += f.lam**2 * sq
    np.fill_diagonal(total, 0.0)
    return total


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
    edges = edge_set(a_rho)
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
    mismatch = len(edge_set(current) ^ edge_set(g_true)) if g_true is not None else None
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


def connected_pairs_reference(dist: np.ndarray) -> np.ndarray:
    """The (P, 2) int64 pair list from the full upper-triangle index arrays,
    masked by reachability."""
    iu, ju = np.triu_indices(dist.shape[0], k=1)
    mask = dist[iu, ju] != UNREACHABLE
    return np.column_stack([iu[mask], ju[mask]]).astype(np.int64)


def avg_distance_distortion_reference(sq: np.ndarray, dist: np.ndarray) -> float:
    """AD_d from whole (n, n) masks: the connected upper cells in row-major order."""
    connected = np.triu(dist != UNREACHABLE, 1)
    dev = np.sqrt(sq[connected])
    dev /= dist[connected].astype(np.float64)
    np.subtract(1.0, dev, out=dev)
    return float(np.abs(dev, out=dev).mean())


def embedding_to_json_reference(emb) -> str:
    """Format 1 text as one dict payload through ``json.dumps(indent=1)``."""
    import json

    from hetembed.fileio import FORMAT_VERSION

    shift = None
    if emb.shift_constants is not None:
        s = emb.shift_constants
        shift = {"min_forman": s.min_forman, "delta_hat": s.delta_hat, "lambda": s.lam,
                 "r_h": s.r_h}
    payload = {
        "format_version": FORMAT_VERSION,
        "manifold": emb.spec.to_string(),
        "shift_constants": shift,
        "config_digest": emb.config_digest,
        "seed": emb.seed,
        "epochs": emb.epochs,
        "nodes": [
            {"id": i, "blocks": [b[i].tolist() for b in emb.blocks]}
            for i in range(emb.n)
        ],
    }
    return json.dumps(payload, indent=1, allow_nan=False) + "\n"


def load_edge_list_reference(source) -> Graph:
    """The edge-list parse by a per-line loop: an id dict in first-appearance
    order and a set of edge tuples, duplicates and self-loops counted as met;
    a ``v v`` line in the file's leading run of such lines that first names
    ``v`` declares ``v``."""
    from hetembed.graph import EdgeListParseError, from_edges

    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw

    id_map: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    duplicates = 0
    self_loops = 0
    preamble = True
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#%":
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, line, f"expected 2 integer tokens, got {len(tokens)}")
        try:
            u_raw, v_raw = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(line_no, line, "non-integer token") from None
        declares = preamble and u_raw == v_raw and u_raw not in id_map
        preamble = preamble and u_raw == v_raw
        for raw in (u_raw, v_raw):
            if raw not in id_map:
                id_map[raw] = len(id_map)
        u, v = id_map[u_raw], id_map[v_raw]
        if u == v:
            self_loops += not declares
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)

    g = from_edges(len(id_map), seen)
    g.meta.update(
        duplicates_dropped=duplicates,
        self_loops_dropped=self_loops,
        id_map={str(k): v for k, v in id_map.items()},
    )
    return g


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
    adj = np.zeros((n, n), dtype=bool)
    adj[g_true.entries()] = True
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


def tune_threshold_sorted_reference(sq: np.ndarray, g_true: Graph, val_fraction: float = 0.10,
                                    seed: int = 0) -> float:
    """The band sweep over the distinct distances of the validation rows, from
    one argsort of their (k, n) cells and np.unique, first minimizer kept."""
    n = g_true.n
    rng = np.random.default_rng(seed)
    k = max(1, int(round(val_fraction * n)))
    val = np.sort(rng.choice(n, size=k, replace=False))
    keep = np.ones((k, n), dtype=bool)
    keep[np.arange(k), val] = False
    dists = np.sqrt(sq[val][keep])
    is_edge = np.zeros((k, n), dtype=bool)
    is_edge[np.repeat(np.arange(k), g_true.degrees[val]),
            np.concatenate([g_true.neighbors(v) for v in val.tolist()])] = True
    is_edge = is_edge[keep]
    order = np.argsort(dists)
    dists, is_edge = dists[order], is_edge[order]
    uniq, starts = np.unique(dists, return_index=True)
    edge_cum = np.concatenate([[0], np.cumsum(is_edge)])
    bounds = np.concatenate([starts, [dists.size]])
    edges_in = edge_cum[bounds]
    mis = (int(is_edge.sum()) - edges_in) + (bounds - edges_in)
    first = 1 if uniq[0] <= 0 else 0
    t = first + int(np.argmin(mis[first:]))
    if t == 0:
        return float(uniq[0]) / 2.0
    if t < uniq.size:
        return float(0.5 * (uniq[t - 1] + uniq[t]))
    return float(uniq[-1] * 1.0000001 + 1e-12)


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
    for i in range(n):
        for j in g.neighbors(i):
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


def tile_gradient_reference(spec, blocks, weight: np.ndarray, rows, cols, diag: bool):
    """The ambient derivatives of one weighted tile, assembled factor by factor
    from zeros: a flat factor's 2 (rowsum(W) x - W x) with W the lambda^2-scaled
    weights, and onto the columns 2 (colsum(W) x - W^T x) off the diagonal; a
    quadric's T = d(sq)/dw * W (:func:`quadric_sq_dw_reference` of its Gram
    tile) as ``T @ x[cols]`` onto the rows and ``T.T @ x[rows]`` onto the
    columns off the diagonal, with the hyperboloid's space coordinates
    negated after, since there w = -<x,y>_M."""
    ambient = []
    for f, x in zip(spec.factors, blocks):
        amb = np.zeros_like(x)
        w = weight * f.lam**2
        if f.kind in ("euclidean", "rotsym"):
            amb[rows] += 2.0 * (w.sum(axis=1)[:, None] * x[rows] - w @ x[cols])
            if not diag:
                amb[cols] += 2.0 * (w.sum(axis=0)[:, None] * x[cols] - w.T @ x[rows])
        else:
            lhs = x if f.kind == "sphere" else x * np.append(-np.ones(f.dim), 1.0)
            tile = quadric_sq_dw_reference(f, lhs[rows] @ x[cols].T)[0] * w
            amb[rows] += tile @ x[cols]
            if not diag:
                amb[cols] += tile.T @ x[rows]
            if f.kind == "hyperbolic":
                amb[:, :-1] *= -1.0
        ambient.append(amb)
    return ambient


def hyperboloid_distance_oracle(x_space: np.ndarray, y_space: np.ndarray) -> float:
    """The hyperboloid distance of two stored points, from their space
    coordinates alone, in 80-digit decimal arithmetic: each time coordinate is
    sqrt(1 + |x_space|^2), the value on the surface, not the stored float
    (far out, the stored floats give w < 1, where arccosh is undefined), and
    d = arccosh(w) = ln(w + sqrt(w^2 - 1))."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        xs = [decimal.Decimal(float(v)) for v in x_space]
        ys = [decimal.Decimal(float(v)) for v in y_space]
        x_t = (1 + sum(v * v for v in xs)).sqrt()
        y_t = (1 + sum(v * v for v in ys)).sqrt()
        w = x_t * y_t - sum(a * b for a, b in zip(xs, ys))
        return float((w + (w * w - 1).sqrt()).ln())


def pair_sq_distances(emb, pairs: np.ndarray) -> np.ndarray:
    """Squared product distances for an explicit (P, 2) pair array, by gathered rows."""
    from hetembed.manifold import factor_sq_distance

    total = np.zeros(pairs.shape[0])
    for f, x in zip(emb.spec.factors, emb.blocks):
        total += f.lam**2 * factor_sq_distance(f, x[pairs[:, 0]], x[pairs[:, 1]])
    return total


def graph_sq_distances(dist: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Squared hop distances of distinct connected pairs, gathered from the hop matrix."""
    hops = dist[pairs[:, 0], pairs[:, 1]].astype(np.float64)
    if np.any(hops == UNREACHABLE) or np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("pairs must be distinct and graph-connected")
    return hops**2


def _factor_sq_distance_grad_reference(factor, x: np.ndarray, y: np.ndarray, weight: np.ndarray):
    """``weight`` times the derivatives of the unit-scale squared distance between
    matching rows by x and by y, and the count of quadric rows at the branch
    point, whose 0/0 derivative contributes 0."""
    if factor.kind in ("euclidean", "rotsym"):
        gx = (2.0 * weight)[:, None] * (x - y)
        return gx, -gx, 0
    # d(sq)/dw, then dw/dx = y on the sphere and y with its space part negated
    # on the hyperboloid, where w = -<x,y>_M
    sphere = factor.kind == "sphere"
    dsq, ok = quadric_sq_dw_reference(factor, (x * y).sum(axis=1) if sphere else -mink_inner(x, y))
    dsq *= weight
    gx, gy = dsq[:, None] * y, dsq[:, None] * x
    if not sphere:
        gx[:, :-1] *= -1.0
        gy[:, :-1] *= -1.0
    return gx, gy, int((~ok).sum())


def gradients_reference(emb, dist: np.ndarray, f_signal, cfg, pairs: np.ndarray):
    """Gradients of the total loss over the given pairs from gathered rows: each
    pair's derivatives are scattered onto its two nodes with ``np.add.at``.
    Returns a GradientResult whose loss is over the given pairs."""
    from hetembed.manifold import riemannian_gradient, rotsym_curvature_derivative
    from hetembed.optim import GradientResult, _curvature_residuals

    d_g2 = graph_sq_distances(dist, pairs)
    dev = pair_sq_distances(emb, pairs) / d_g2 - 1.0
    base = np.sign(dev) / d_g2
    skipped, ambient = 0, []
    for f, x in zip(emb.spec.factors, emb.blocks):
        gi, gj, singular = _factor_sq_distance_grad_reference(
            f, x[pairs[:, 0]], x[pairs[:, 1]], f.lam**2 * base)
        amb = np.zeros_like(x)
        np.add.at(amb, pairs[:, 0], gi)
        np.add.at(amb, pairs[:, 1], gj)
        skipped += singular
        ambient.append(amb)
    if cfg.tau > 0:
        res, weights, rot = _curvature_residuals(emb, f_signal, cfg)
        d_lc = -2.0 * res * rotsym_curvature_derivative(rot.alpha, emb.radii()) / weights
        ambient[emb.spec.rotsym_index][:, 0] += cfg.tau * d_lc
    return GradientResult(blocks=riemannian_gradient(emb.spec, emb.blocks, ambient),
                          skipped_pairs=skipped, loss_distance=float(np.abs(dev).sum()))


def anchor_batch_reference(dist: np.ndarray, anchors) -> np.ndarray:
    """Every connected pair with an end in ``anchors``, anchor first, by a loop
    over the sorted anchors and then the columns; a pair with both ends among
    them is listed once, from its smaller end."""
    chosen = set(int(a) for a in anchors)
    listed = [(a, j) for a in sorted(chosen) for j in range(dist.shape[0])
              if dist[a, j] > 0 and not (j in chosen and j < a)]
    return np.array(listed, dtype=np.int64).reshape(-1, 2)


def train_reference(g: Graph, spec, cfg):
    """The training loop with every loss taken after its step by its own
    ``loss_distance`` / ``loss_curvature`` call: gradients, step, loss, every
    epoch. The minibatches are drawn up front (the draws read no state). A
    minibatch run logs the next epoch's batch loss scaled by P / B, and the
    loss over all pairs on every 10th epoch and the last.

    Returns (embedding blocks, loss_d list, loss_c list).
    """
    import math
    from dataclasses import replace

    from hetembed.graph import bfs_apsp, forman
    from hetembed.manifold import (alpha_from_range, resolve_spec, rotsym_curvature,
                                   rotsym_curvature_inverse)
    from hetembed.optim import (DistanceTarget, ShiftConstants, gradients, initialize,
                                loss_curvature, loss_distance, rsgd_step)

    target = DistanceTarget.from_hops(bfs_apsp(g))
    all_pairs = target.pairs
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
            hi = rotsym_curvature_inverse(a, min(shift.delta_hat, top))
            radial_init = (lo, hi if hi - lo >= 1e-9 else lo + max(a * 0.1, 1e-3))
    emb = initialize(spec_resolved, g, replace(cfg, radial_init=radial_init))
    emb.shift_constants = shift
    cfg_run = replace(cfg, tau=tau)
    n_pairs = all_pairs.shape[0]
    if cfg.batch_pairs == "all" or (cfg.batch_pairs == "auto" and g.n <= 2000):
        batch_size = n_pairs
    else:
        batch_size = min(n_pairs, 200_000 if cfg.batch_pairs == "auto" else cfg.batch_pairs)
    batch_rng = np.random.default_rng((cfg.seed, 0xBA7C4))
    candidates = np.array([i for i in range(g.n) if (target.hops[i] > 0).any()])
    k = math.ceil(batch_size / (g.n - 1))
    minibatch = batch_size < n_pairs
    batches = [anchor_batch_reference(target.hops, batch_rng.choice(candidates, size=k,
                                                                     replace=False))
               if minibatch else all_pairs for _ in range(cfg.epochs)]
    decay1, decay2 = int(math.floor(0.8 * cfg.epochs)), int(math.floor(0.9 * cfg.epochs))
    loss_d, loss_c = [], []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (0.01 if epoch >= decay2 else 0.1 if epoch >= decay1 else 1.0)
        emb = rsgd_step(emb, gradients(emb, target, f_signal, cfg_run, batches[epoch]), lr)
        if minibatch and (epoch + 1) % 10 and epoch + 1 < cfg.epochs:
            nxt = batches[epoch + 1]
            loss_d.append(loss_distance(emb, target, nxt) * n_pairs / nxt.shape[0])
        else:
            loss_d.append(loss_distance(emb, target, all_pairs))
        loss_c.append(loss_curvature(emb, f_signal, cfg_run) if tau > 0 else 0.0)
    return emb.blocks, loss_d, loss_c


def rotsym_phi(alpha: float, r):
    """Profile of the radial factor, phi_a(r) = a * arctan(r / a)."""
    return alpha * np.arctan(np.asarray(r, dtype=float) / alpha)


def tangent_basis(factor, p: np.ndarray) -> list[np.ndarray]:
    """A basis of the tangent space at a single point of one factor.

    Used by gradient checks: directions paired with the factor's metric give
    coordinate-wise directional derivatives.
    """
    import math

    if factor.kind == "euclidean":
        return [e for e in np.eye(factor.dim)]
    if factor.kind == "rotsym":
        return [np.ones(1)]
    inner = (lambda a, b: float(a @ b)) if factor.kind == "sphere" else (
        lambda a, b: float(mink_inner(a, b))
    )
    basis: list[np.ndarray] = []
    for e in np.eye(factor.block_dim):
        if factor.kind == "sphere":
            v = e - (e @ p) * p
        else:
            h = e.copy()
            h[-1] = -h[-1]
            v = h + mink_inner(h, p) * p
        for b in basis:
            v = v - inner(v, b) * b
        norm2 = inner(v, v)
        if norm2 > 1e-12:
            basis.append(v / math.sqrt(norm2))
        if len(basis) == factor.dim:
            break
    return basis


def initialize_blocks_reference(spec, n: int, cfg) -> list[np.ndarray]:
    """Start blocks drawn by a tangent-ball loop of its own: per space-form
    factor a direction, a radius, the pole and the zero-padded tangent."""
    from hetembed.manifold import factor_exp

    rng = np.random.default_rng(cfg.seed)
    blocks: list[np.ndarray] = []
    for f in spec.factors:
        if f.kind == "rotsym":
            lo, hi = cfg.radial_init
            blocks.append(rng.uniform(lo, hi, size=(n, 1)))
            continue
        d = f.dim
        direction = rng.standard_normal((n, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radii = 0.1 * rng.random(n) ** (1.0 / d)
        tangent = direction * radii[:, None]
        if f.kind == "euclidean":
            blocks.append(tangent)
        else:
            # tangent at the pole (0,..,0,1) keeps the last coordinate zero
            base = np.zeros((n, d + 1))
            base[:, -1] = 1.0
            amb = np.concatenate([tangent, np.zeros((n, 1))], axis=1)
            blocks.append(factor_exp(f, base, amb))
    return blocks


def sample_points_reference(cfg, with_radial: bool, seed: int | None = None) -> list[np.ndarray]:
    """The generator's H^3 (x R) cloud drawn by a tangent-ball sampler of its own."""
    from hetembed.manifold import Factor, factor_exp

    cfg.validate()
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    direction = rng.standard_normal((cfg.n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = cfg.tangent_radius * rng.random(cfg.n) ** (1.0 / 3.0)
    tangent = np.concatenate([direction * radii[:, None], np.zeros((cfg.n, 1))], axis=1)
    base = np.zeros((cfg.n, 4))
    base[:, -1] = 1.0
    blocks = [factor_exp(Factor("hyperbolic", dim=3), base, tangent)]
    if with_radial:
        lo, hi = cfg.radial_interval
        blocks.append(rng.uniform(lo, hi, size=(cfg.n, 1)))
    return blocks


def degree_order_masks_reference(g: Graph) -> list[int]:
    """Neighbour bitmasks in descending-degree numbering, packed into
    little-endian byte rows of their own."""
    n = g.n
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(-g.degrees, kind="stable")] = np.arange(n)
    rows, cols = g.entries()
    rows, cols = rank[rows], rank[cols]
    width = (n + 7) // 8
    packed = np.zeros(n * width, dtype=np.uint8)
    np.bitwise_or.at(packed, rows * width + cols // 8, (1 << (cols % 8)).astype(np.uint8))
    data = packed.tobytes()
    return [int.from_bytes(data[k * width:(k + 1) * width], "little") for k in range(n)]


def degree_barycenter_reference(histograms) -> np.ndarray:
    """Quantile-averaged barycenter by a loop over the breakpoints, one
    searchsorted per histogram and breakpoint, masses summed in a dict."""
    probs = [np.asarray(h, dtype=float) / np.sum(h) for h in histograms]
    cums = [np.cumsum(p) for p in probs]
    breaks = np.unique(np.concatenate([c for c in cums] + [np.array([0.0])]))
    breaks = breaks[(breaks > 0) & (breaks <= 1.0 + 1e-12)]
    out: dict[int, float] = {}
    prev = 0.0
    for c in breaks:
        mid = 0.5 * (prev + c)
        level = 0.0
        for cum in cums:
            level += float(np.searchsorted(cum, mid, side="left"))
        avg = level / len(cums)
        degree = int(np.floor(avg + 0.5))
        out[degree] = out.get(degree, 0.0) + (c - prev)
        prev = c
    result = np.zeros(max(out) + 1)
    for d, m in out.items():
        result[d] = m
    return result


def mean_average_precision_loop(sq: np.ndarray, g: Graph) -> float:
    """mAP by a per-row loop: each row sorted whole, its neighbours' thresholds
    sorted on their own, the row means added as Python floats in node order."""
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
