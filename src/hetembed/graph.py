"""Undirected graphs: edge-list IO, hop distances, triangles, Forman curvature."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

UNREACHABLE = -1
MAX_DENSE_NODES = 20000
# bound on the per-level temporaries of bfs_apsp
_BFS_BLOCK_BYTES = 1 << 26


class EdgeListParseError(ValueError):
    """Raised for a malformed edge-list line; carries the 1-based line number."""

    def __init__(self, line_no: int, line: str, reason: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {reason}: {line!r}")


@dataclass
class Graph:
    """Simple undirected graph on nodes 0..n-1 with sorted adjacency arrays.

    Invariants: adjacency is symmetric, has no self-loops and no duplicates.
    Use :func:`from_edges` / :func:`from_mask` / :func:`load_edge_list` rather
    than building the adjacency by hand.
    """

    n: int
    adj: list[np.ndarray]
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def degrees(self) -> np.ndarray:
        return np.array([a.size for a in self.adj], dtype=np.int64)

    @property
    def num_edges(self) -> int:
        return int(sum(a.size for a in self.adj)) // 2

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) int array with i < j, lexicographically sorted."""
        rows, cols = self.entries()
        upper = rows < cols
        return np.column_stack([rows[upper], cols[upper]])

    def has_edge(self, i: int, j: int) -> bool:
        nbrs = self.adj[i]
        pos = np.searchsorted(nbrs, j)
        return pos < nbrs.size and nbrs[pos] == j

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(i), int(j)) for i, j in self.edges()}

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) arrays of the adjacency in CSR layout."""
        degs = self.degrees
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        indices = (
            np.concatenate(self.adj) if self.n and indptr[-1] else np.empty(0, dtype=np.int64)
        )
        return indptr, indices.astype(np.int64, copy=False)

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) arrays of every adjacency entry, in CSR order."""
        indptr, indices = self.csr()
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr)), indices

    def adjacency_mask(self) -> np.ndarray:
        """(n, n) boolean adjacency matrix; :func:`from_mask` inverts it."""
        mask = np.zeros((self.n, self.n), dtype=bool)
        mask[self.entries()] = True
        return mask

    def adjacency_bits(self) -> np.ndarray:
        """Adjacency rows packed into uint64 words, for fast set intersection."""
        rows, cols = self.entries()
        bits = np.zeros((self.n, (self.n + 63) // 64), dtype=np.uint64)
        np.bitwise_or.at(bits, (rows, cols // 64), np.uint64(1) << (cols % 64).astype(np.uint64))
        return bits


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge iterable; self-loops and duplicates are dropped."""
    pairs = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            continue
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        pairs.add((min(i, j), max(i, j)))
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
    return Graph(n=n, adj=[np.array(sorted(a), dtype=np.int64) for a in adj])


def from_mask(mask: np.ndarray) -> Graph:
    """Build a Graph from an (n, n) boolean mask: edge (i, j) for every True
    cell with i < j. The diagonal and the lower triangle are not read."""
    n = mask.shape[0]
    if mask.shape != (n, n):
        raise ValueError(f"mask must be square, got shape {mask.shape}")
    upper = np.triu(mask, k=1)
    rows, cols = np.nonzero(upper | upper.T)
    bounds = np.searchsorted(rows, np.arange(n + 1))
    cols = cols.astype(np.int64, copy=False)
    return Graph(n=n, adj=[cols[a:b] for a, b in zip(bounds[:-1], bounds[1:])])


def load_edge_list(source: str | bytes | IO) -> Graph:
    """Parse an edge list (two integer tokens per line, '#'/'%' comments).

    Node ids are remapped to a dense 0..n-1 range in first-appearance order.
    Counts of dropped duplicates/self-loops and the id map are stored in
    ``Graph.meta``.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw

    id_map: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    duplicates = 0
    self_loops = 0
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
        for raw in (u_raw, v_raw):
            if raw not in id_map:
                id_map[raw] = len(id_map)
        u, v = id_map[u_raw], id_map[v_raw]
        if u == v:
            self_loops += 1
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        edges.append(key)

    g = from_edges(len(id_map), edges)
    g.meta.update(
        duplicates_dropped=duplicates,
        self_loops_dropped=self_loops,
        id_map={str(k): v for k, v in id_map.items()},
    )
    return g


def save_edge_list(g: Graph, out: IO[str] | None = None) -> str:
    """Serialize to the edge-list format; returns the text (also written to ``out``).

    Reloading applies the dense first-appearance id remap, so when the plain
    edge order would permute ids (or lose isolated nodes) a preamble of
    ``i i`` witness lines pins every id; those lines reload as dropped
    self-loops and keep the round trip exact.
    """
    edges = g.edges()
    appearance: list[int] = []
    seen: set[int] = set()
    for i, j in edges:
        for v in (int(i), int(j)):
            if v not in seen:
                seen.add(v)
                appearance.append(v)
    buf = io.StringIO()
    if appearance != list(range(g.n)):
        for v in range(g.n):
            buf.write(f"{v} {v}\n")
    for i, j in edges:
        buf.write(f"{i} {j}\n")
    text = buf.getvalue()
    if out is not None:
        out.write(text)
    return text


def bfs_apsp(g: Graph) -> np.ndarray:
    """Exact hop-distance matrix by a breadth-first search from every node at once.

    Each node keeps a bitset of the sources whose search has reached it; one
    level ORs the last level's new bits over every node's neighbours, and adds
    1 to the distance of every (node, source) pair still unreached. Sources go
    in blocks that bound the per-level temporaries. Returns an (n, n) int16
    matrix; unreachable pairs hold ``UNREACHABLE``.
    """
    n = g.n
    if n > MAX_DENSE_NODES:
        raise ValueError(f"dense distance matrix limited to n <= {MAX_DENSE_NODES}, got {n}")
    indptr, indices = g.csr()
    if indices.size == 0:
        dist = np.full((n, n), UNREACHABLE, dtype=np.int16)
        np.fill_diagonal(dist, 0)
        return dist
    dist = np.zeros((n, n), dtype=np.int16)
    linked = indptr[:-1] < indptr[1:]
    starts = indptr[:-1][linked]  # reduceat needs nonempty, in-range segments
    # bytes per 64-source word: the gathered neighbour rows plus the unpacked bits
    block = max(1, _BFS_BLOCK_BYTES // (8 * indices.size + 64 * n))
    for s0 in range(0, n, 64 * block):
        s1 = min(n, s0 + 64 * block)
        src = np.arange(s0, s1)
        frontier = np.zeros((n, (s1 - s0 + 63) // 64), dtype="<u8")
        frontier[src, (src - s0) // 64] = np.uint64(1) << ((src - s0) % 64).astype(np.uint64)
        reached = frontier.copy()
        while True:
            gathered = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
            frontier = np.zeros_like(reached)
            frontier[linked] = gathered & ~reached[linked]
            if not frontier.any():
                break
            dist[:, s0:s1] += _unpack_bits(~reached, s1 - s0)
            reached |= frontier
        dist[:, s0:s1][_unpack_bits(~reached, s1 - s0).view(bool)] = UNREACHABLE
    return dist


def _unpack_bits(words: np.ndarray, count: int) -> np.ndarray:
    """(rows, count) uint8 0/1 matrix of the first ``count`` bits of each row."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=count, bitorder="little")


def connected_pairs(dist: np.ndarray) -> np.ndarray:
    """Unordered node pairs (i<j) at finite positive hop distance, as a (P, 2) array."""
    iu, ju = np.triu_indices(dist.shape[0], k=1)
    mask = dist[iu, ju] != UNREACHABLE
    return np.column_stack([iu[mask], ju[mask]]).astype(np.int64)


def triangle_counts(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge and per-node triangle counts, as int arrays.

    ``edge_counts[k]`` is |adj(i) ∩ adj(j)| for the k-th edge (i, j) of
    ``g.edges()``; node counts obey 2·t(i) = Σ_{j~i} t(i,j) since every
    triangle at i is seen by two of its edges.
    """
    edges = g.edges()
    bits = g.adjacency_bits()
    edge_counts = np.bitwise_count(bits[edges[:, 0]] & bits[edges[:, 1]]).sum(
        axis=1, dtype=np.int64)
    node_counts = np.zeros(g.n, dtype=np.int64)
    np.add.at(node_counts, edges, edge_counts[:, None])
    # each triangle at a node is counted once per incident edge pair
    assert np.all(node_counts % 2 == 0)
    return edge_counts, node_counts // 2


@dataclass
class FormanSignal:
    """Edge- and node-level discrete curvature for one value of gamma.

    Edge value: 4 - d_i - d_j + 3*gamma*t(i,j), one per row of ``g.edges()``;
    node value: degree average of incident edge values (0 for isolated nodes,
    which are excluded from min/max).
    """

    gamma: float
    edge_values: np.ndarray
    node_values: np.ndarray
    normalized: bool = False

    # degrees are frozen at construction so the signal stays self-contained
    _degrees: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def min_node(self) -> float:
        """Minimum node value over non-isolated nodes."""
        return float(self.node_values[self._degrees > 0].min())

    @property
    def max_node(self) -> float:
        """Maximum node value over non-isolated nodes."""
        return float(self.node_values[self._degrees > 0].max())


def forman(g: Graph, gamma: float = 1.0, normalize_by_max_degree: bool = False) -> FormanSignal:
    """Gamma-augmented Forman curvature of every edge plus its node-wise trace.

    With ``normalize_by_max_degree`` each edge value is divided by the larger
    endpoint degree before the node average (variant used for scale-free
    graphs whose raw values are dominated by hubs). Each node sums its edge
    values in adjacency order.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    deg = g.degrees
    rows, cols = g.entries()
    upper = rows < cols
    i, j = rows[upper], cols[upper]  # the rows of g.edges()
    edge_tri, _ = triangle_counts(g)
    edge_values = 4.0 - deg[i] - deg[j] + 3.0 * gamma * edge_tri
    if normalize_by_max_degree:
        edge_values /= np.maximum(deg[i], deg[j])
    # edge index of every adjacency entry: entries above the diagonal list the
    # edges in order, those below list them sorted by (j, i)
    edge_of = np.empty(rows.size, dtype=np.int64)
    edge_of[upper] = np.arange(i.size)
    edge_of[~upper] = np.lexsort((i, j))
    node_values = np.bincount(rows, weights=edge_values[edge_of], minlength=g.n)
    node_values = node_values / np.maximum(deg, 1)  # isolated nodes stay 0
    return FormanSignal(
        gamma=gamma,
        edge_values=edge_values,
        node_values=node_values,
        normalized=normalize_by_max_degree,
        _degrees=deg,
    )


def forman_dirichlet_energy(g: Graph, f: FormanSignal) -> float:
    """Dirichlet energy (1/2) Σ_{i~j} (F_i/√d_i - F_j/√d_j)² over ordered adjacent pairs."""
    deg = g.degrees
    scaled = np.where(deg > 0, f.node_values / np.sqrt(np.maximum(deg, 1)), 0.0)
    edges = g.edges()
    # the 1/2 cancels against each edge appearing twice in i~j
    return float(((scaled[edges[:, 0]] - scaled[edges[:, 1]]) ** 2).sum())
