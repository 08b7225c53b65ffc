"""Workload inputs and command lines for the hetembed benchmark.

Every workload runs the researcher's pipeline on one graph, one command at a
time: ``embed``, ``eval``, ``reconstruct --correct --triangles`` and
``generate``. The graphs are fixed; the workload seed only draws the labels
written for their nodes, so the program sees new bytes on every seed while the
work per command stays the same.

The graphs and point clouds are built here with numpy alone, mirroring
``randgraph.generate_heterogeneous`` and ``synthetic.random_connected_graph``
draw for draw: the inputs must not move when a change to the program moves
the last bits of its own geometry code.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the acceptance suite's TWIN_CFG_GAMMA1 / TWIN_CFG_GAMMA4, as CLI flags
TWIN_GAMMA1_FLAGS = (
    "--tau", "1.0", "--seed", "11", "--learning-rate", "0.01", "--lambda-rot", "0.5",
    "--delta", "1.0", "--ell-plus", "1.0", "--gamma", "1.0", "--curvature-residuals", "raw",
)
TWIN_GAMMA4_FLAGS = (
    "--tau", "2.5e-5", "--seed", "11", "--learning-rate", "0.01", "--lambda-rot", "1.0",
    "--delta", "100.0", "--ell-plus", "100.0", "--gamma", "4.0", "--curvature-residuals", "raw",
    "--radial-init", "auto", "--batch-pairs", "100",
)
TWIN_MANIFOLD = "h5,h5,rot(a=auto)"


@dataclass(frozen=True)
class Cloud:
    """Parameters of one H^3 x R point cloud and its curvature-gated graph."""

    n: int
    tangent_radius: float
    rho: float
    ell: float
    seed: int
    alpha: float = 1.0
    radial: tuple[float, float] = (0.0, 2.0)


TWIN = Cloud(n=131, tangent_radius=1.6, rho=4.5, ell=10.8, seed=7)
TWIN_400 = Cloud(n=400, tangent_radius=1.6, rho=4.5, ell=10.8, seed=7)


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str                    # "twin", "tree1k" or "cloud400"
    embed: tuple[str, ...]        # manifold and flags after the graph path
    eval: tuple[str, ...]
    reconstruct: tuple[str, ...]  # flags besides --correct --triangles
    generate: tuple[str, ...]     # flags besides --mode, --runs, --out-dir
    generate_runs: int
    # eval and reconstruct read the generator's own point cloud instead of
    # the trained embedding
    reference_cloud: bool = False


TWIN_GENERATE = ("--n", "131", "--tangent-radius", "1.6", "--rho", "4.5", "--ell", "10.8",
                 "--seed", "7")
# Table 3 of the paper: n = 500, rho = 7, ell = 11.45, alpha = 1
TABLE3_GENERATE = ("--n", "500", "--rho", "7", "--ell", "11.45", "--alpha", "1", "--seed", "1")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="twin_full", graph="twin",
            embed=("-m", TWIN_MANIFOLD, *TWIN_GAMMA1_FLAGS, "--epochs", "100"),
            eval=(), reconstruct=("--seed", "4"),
            generate=TWIN_GENERATE, generate_runs=4,
        ),
        Workload(
            name="twin_batch", graph="twin",
            embed=("-m", TWIN_MANIFOLD, *TWIN_GAMMA4_FLAGS, "--epochs", "300"),
            eval=("--gamma", "4.0"), reconstruct=("--seed", "4", "--forman-gamma", "4.0"),
            generate=TWIN_GENERATE, generate_runs=4,
        ),
        Workload(
            name="tree1k_full", graph="tree1k",
            embed=("-m", TWIN_MANIFOLD, *TWIN_GAMMA1_FLAGS, "--radial-init", "auto",
                   "--epochs", "2"),
            eval=(), reconstruct=("--seed", "4", "--percentile", "99"),
            generate=("--n", "1025", "--rho", "7", "--ell", "11.45", "--seed", "3"),
            generate_runs=1,
        ),
        Workload(
            name="cloud_recon", graph="cloud400",
            # the twin's learning rate 0.01 diverges on this graph; 0.001 completes
            embed=("-m", TWIN_MANIFOLD, *TWIN_GAMMA1_FLAGS, "--learning-rate", "0.001",
                   "--epochs", "2"),
            eval=(), reconstruct=("--seed", "4"),
            generate=TABLE3_GENERATE, generate_runs=4,
            reference_cloud=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# graph construction (numpy only)

def sample_cloud(c: Cloud) -> tuple[np.ndarray, np.ndarray]:
    """Hyperboloid points (n, 4) and radii (n,), drawn as randgraph.sample_points draws them."""
    rng = np.random.default_rng(c.seed)
    direction = rng.standard_normal((c.n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = c.tangent_radius * rng.random(c.n) ** (1.0 / 3.0)
    # exp map at the pole (0, 0, 0, 1), in the same floating-point steps
    tangent = direction * radii[:, None]
    norm = np.sqrt((tangent * tangent).sum(axis=1))[:, None]
    space = np.sinh(norm) * (tangent / norm)
    points = np.concatenate([space, np.sqrt(1.0 + (space**2).sum(axis=1))[:, None]], axis=1)
    lo, hi = c.radial
    return points, rng.uniform(lo, hi, size=(c.n, 1))[:, 0]


def radial_curvature(alpha: float, r: np.ndarray) -> np.ndarray:
    """Scalar curvature of the radial factor, 2(-2 phi''/phi + (1 - phi'^2)/phi^2)."""
    u = r / alpha
    safe = np.where(u < 1e-3, 1.0, u)
    t = np.where(u < 1e-3, 1.0 + u * u / 3.0 - 4.0 * u**4 / 45.0, safe / np.arctan(safe))
    return 2.0 / (alpha * alpha * (1.0 + u * u) ** 2) * (4.0 * t + (2.0 + u * u) * t * t)


def cloud_graph(c: Cloud, points: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Curvature-gated threshold graph of the cloud, as an (m, 2) edge array with i < j."""
    flipped = points.copy()
    flipped[:, -1] = -flipped[:, -1]
    sq = np.arccosh(np.maximum(-(flipped @ points.T), 1.0)) ** 2
    sq += (radii[:, None] - radii[None, :]) ** 2
    np.fill_diagonal(sq, 0.0)
    curved = radial_curvature(c.alpha, radii) > c.ell
    mask = (sq <= 1.0) | (curved[:, None] & curved[None, :] & (sq <= c.rho**2))
    iu, ju = np.triu_indices(c.n, k=1)
    keep = mask[iu, ju]
    return np.column_stack([iu[keep], ju[keep]])


def tree_graph(n: int, extra_edge_prob: float, seed: int) -> np.ndarray:
    """Random spanning tree plus sparse extra edges, as random_connected_graph builds them."""
    rng = np.random.default_rng(seed)
    tree = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < extra_edge_prob
    edges = {(min(i, j), max(i, j)) for i, j in tree}
    edges.update(zip(iu[mask].tolist(), ju[mask].tolist()))
    return np.array(sorted(edges), dtype=np.int64)


def connected(n: int, edges: np.ndarray) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


# ---------------------------------------------------------------------------
# inputs on disk

@dataclass
class Inputs:
    graph_path: Path
    n: int
    edges: set[tuple[int, int]]   # in the program's node ids (first appearance)
    pairs: int                    # connected node pairs
    cloud_path: Path | None = None


def base_graph(kind: str) -> tuple[int, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    if kind == "twin":
        points, radii = sample_cloud(TWIN)
        return TWIN.n, cloud_graph(TWIN, points, radii), None
    if kind == "tree1k":
        return 1025, tree_graph(1025, 3.45e-5, seed=3), None
    if kind == "cloud400":
        points, radii = sample_cloud(TWIN_400)
        return TWIN_400.n, cloud_graph(TWIN_400, points, radii), (points, radii)
    raise ValueError(f"unknown graph {kind!r}")


def prepare(w: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's edge list (and reference embedding) for one seed.

    The seed draws the node label written for each node; the lines keep the
    graph's sorted edge order. The CLI numbers nodes by first appearance, so
    every seed gives the program the same graph under the same numbering: the
    work and the quality metrics stay the same, bit for bit, across seeds.
    """
    directory.mkdir(parents=True, exist_ok=True)
    n, edges, cloud = base_graph(w.graph)
    if not connected(n, edges):
        raise RuntimeError(f"{w.graph} graph is not connected")
    labels = np.random.default_rng(seed).choice(10 * n * n, size=n, replace=False)
    graph_path = directory / f"{w.graph}.edges"
    graph_path.write_text("".join(f"{labels[i]} {labels[j]}\n" for i, j in edges.tolist()))

    program_id: dict[int, int] = {}
    for v in edges.ravel().tolist():
        program_id.setdefault(v, len(program_id))
    mapped = {tuple(sorted((program_id[i], program_id[j]))) for i, j in edges.tolist()}
    inputs = Inputs(graph_path=graph_path, n=n, edges=mapped, pairs=n * (n - 1) // 2)
    if w.reference_cloud:
        order = np.array(sorted(program_id, key=program_id.get))
        inputs.cloud_path = directory / "cloud.json"
        write_reference_embedding(inputs.cloud_path, cloud[0][order], cloud[1][order],
                                  np.array(sorted(mapped)))
    return inputs


def forman_nodes(n: int, edges: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """Node Forman curvature: degree average of 4 - d_i - d_j + 3 gamma t(i, j)."""
    adj = np.zeros((n, n))  # float64 so the product runs in BLAS; counts stay exact
    adj[edges[:, 0], edges[:, 1]] = 1.0
    adj[edges[:, 1], edges[:, 0]] = 1.0
    deg = adj.sum(axis=1)
    tri = (adj @ adj)[edges[:, 0], edges[:, 1]]
    vals = 4.0 - deg[edges[:, 0]] - deg[edges[:, 1]] + 3.0 * gamma * tri
    node = np.bincount(edges[:, 0], vals, n) + np.bincount(edges[:, 1], vals, n)
    return node / np.maximum(deg, 1)


def write_reference_embedding(path: Path, points: np.ndarray, radii: np.ndarray,
                              edges: np.ndarray) -> None:
    """The generator's own H^3 x R cloud as an embedding file, rows in program order.

    Its shift constants decode R_a(r) + c as Forman curvature, with the offset
    c = median(F - R_a(r)) fitted over the nodes. This fit leaves the
    correction loop both accepting and rejecting repairs, which the train-time
    constants of a fixed alpha do not (they accept every one).
    """
    from hetembed import fileio
    from hetembed.manifold import parse_manifold
    from hetembed.optim import Embedding, ShiftConstants

    f = forman_nodes(len(radii), edges)
    offset = float(np.median(f - radial_curvature(TWIN_400.alpha, radii)))
    lowest = float(f.min())
    emb = Embedding(
        spec=parse_manifold(f"h3,rot(a={TWIN_400.alpha!r})"),
        blocks=[points, radii[:, None]],
        shift_constants=ShiftConstants(min_forman=lowest, delta_hat=lowest - offset,
                                       lam=1.0, r_h=-1.0),
    )
    fileio.write_embedding(emb, path)


def flag(args: tuple[str, ...], name: str) -> str | None:
    return args[args.index(name) + 1] if name in args else None


def working_set_bytes(w: Workload, n: int, pairs: int) -> dict[str, int]:
    """Computed sizes of the arrays the hot paths touch (not measured)."""
    batch = min(pairs, int(flag(w.embed, "--batch-pairs") or pairs))
    return {
        "hop_matrix_int16": 2 * n * n,
        "pair_index_array": 16 * pairs,
        # h5,h5,rot(a=auto): blocks of 6, 6 and 1 coordinates, xi and xj per factor
        "gradient_gather_per_call": 2 * 8 * batch * (6 + 6 + 1),
        "widest_gathered_block": 8 * batch * 6,
        "dense_float64_matrix": 8 * n * n,
    }
