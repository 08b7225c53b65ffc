"""Undirected graphs: edge-list IO, hop distances, triangles, Forman curvature."""

from __future__ import annotations

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


@dataclass(eq=False)
class Graph:
    """Simple undirected graph on nodes 0..n-1 in CSR layout.

    The neighbours of node i are ``indices[indptr[i]:indptr[i + 1]]``, sorted;
    both arrays are int64. Invariants: adjacency is symmetric, has no
    self-loops and no duplicates. Use :func:`from_edges` / :func:`from_mask` /
    :func:`load_edge_list` rather than building the arrays by hand.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    meta: dict = field(default_factory=dict, repr=False)

    def __eq__(self, other: object) -> bool:
        """Same node count and edges; ``meta`` is not compared."""
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbours of node i (a view into ``indices``)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) int array with i < j, lexicographically sorted."""
        rows, cols = self.entries()
        upper = rows < cols
        return np.column_stack([rows[upper], cols[upper]])

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) arrays of every adjacency entry, in CSR order."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees), self.indices

    def adjacency_mask(self) -> np.ndarray:
        """(n, n) boolean adjacency matrix; :func:`from_mask` inverts it."""
        mask = np.zeros((self.n, self.n), dtype=bool)
        mask[self.entries()] = True
        return mask

    def adjacency_bits(self) -> np.ndarray:
        """Adjacency rows packed into uint64 words, for fast set intersection."""
        return _pack_rows(self.n, *self.entries())


def _pack_rows(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(n, ceil(n / 64)) little-endian uint64 words with bit ``col % 64`` of
    word ``col // 64`` set in row ``row`` for every entry."""
    bits = np.zeros((n, (n + 63) // 64), dtype="<u8")
    np.bitwise_or.at(bits, (rows, cols // 64), np.uint64(1) << (cols % 64).astype(np.uint64))
    return bits


def _from_keys(n: int, keys: np.ndarray) -> Graph:
    """Build a Graph on n nodes from the distinct int64 keys i * n + j of its
    edges (i < j), in any order: both directions sorted, rows bounded by search."""
    rows, cols = np.divmod(keys, n)
    both = np.concatenate([keys, cols * n + rows])
    both.sort()
    rows, cols = np.divmod(both, n)
    return Graph(n=n, indptr=np.searchsorted(rows, np.arange(n + 1)), indices=cols)


def from_edges(n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an (m, 2) array or an edge iterable; self-loops and
    duplicates are dropped."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    ends = ends[ends[:, 0] != ends[:, 1]]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    bad = (lo < 0) | (hi >= n)
    if bad.any():
        i, j = ends[np.argmax(bad)].tolist()
        raise ValueError(f"edge ({i},{j}) out of range for n={n}")
    return _from_keys(n, np.unique(lo * n + hi))


def from_mask(mask: np.ndarray) -> Graph:
    """Build a Graph from an (n, n) boolean mask: edge (i, j) for every True
    cell with i < j. The diagonal and the lower triangle are not read."""
    n = mask.shape[0]
    if mask.shape != (n, n):
        raise ValueError(f"mask must be square, got shape {mask.shape}")
    return _from_keys(n, np.flatnonzero(np.triu(mask, k=1)).astype(np.int64, copy=False))


def load_edge_list(source: str | bytes | IO) -> Graph:
    """Parse an edge list (two integer tokens per line, '#'/'%' comments).

    Node ids are remapped to a dense 0..n-1 range in first-appearance order.
    A ``v v`` line before the first edge between two nodes that first names
    ``v`` declares the node, as the witness preamble of :func:`save_edge_list`
    does; any other ``v v`` line is a dropped self-loop.
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

    labels: list[int] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0][0] in "#%":
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, line, f"expected 2 integer tokens, got {len(tokens)}")
        try:
            labels += int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(line_no, line, "non-integer token") from None

    try:
        values = np.array(labels, dtype=np.int64)
    except OverflowError:  # labels past int64 stay Python ints
        values = np.array(labels, dtype=object)
    uniq, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct labels in first-appearance order
    ids = np.empty(uniq.size, dtype=np.int64)
    ids[order] = np.arange(uniq.size)
    ends = ids[inverse].reshape(-1, 2)
    g = from_edges(uniq.size, ends)
    loops = ends[:, 0] == ends[:, 1]
    lead = loops.size if loops.all() else int(np.argmin(loops))  # the leading v v lines
    token = 2 * np.arange(lead)  # the first token of each
    self_loops = int(np.count_nonzero(loops)) - int(np.count_nonzero(first[inverse[token]] == token))
    g.meta.update(
        duplicates_dropped=ends.shape[0] - int(np.count_nonzero(loops)) - g.num_edges,
        self_loops_dropped=self_loops,
        id_map=dict(zip(map(str, uniq[order].tolist()), range(uniq.size))),
    )
    return g


def save_edge_list(g: Graph, out: IO[str] | None = None) -> str:
    """Serialize to the edge-list format; returns the text (also written to ``out``).

    Reloading applies the dense first-appearance id remap, so when the plain
    edge order would permute ids (or lose isolated nodes) a preamble of
    ``i i`` witness lines pins every id; those lines reload as node
    declarations, not self-loops, and keep the round trip exact.
    """
    edges = g.edges()
    ids, first = np.unique(edges.ravel(), return_index=True)
    # ids reload unchanged when every node appears, each before any larger id
    witness = ids.size != g.n or bool((np.diff(first) < 0).any())
    preamble = "".join(f"{v} {v}\n" for v in range(g.n)) if witness else ""
    text = preamble + "".join(f"{i} {j}\n" for i, j in edges.tolist())
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
    indptr, indices = g.indptr, g.indices
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
    entry_values, node_values = _forman_entries(
        deg, g.adjacency_bits(), rows, cols, gamma, normalize_by_max_degree)
    return FormanSignal(
        edge_values=entry_values[rows < cols],  # the rows of g.edges()
        node_values=node_values,
        normalized=normalize_by_max_degree,
        _degrees=deg,
    )


def _forman_entries(deg: np.ndarray, bits: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    gamma: float, normalize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Forman value of every adjacency entry (rows[k], cols[k]) and the node values.

    ``deg`` and ``bits`` (packed adjacency rows, as :meth:`Graph.adjacency_bits`)
    describe the whole graph; the entries list whole rows, each in column
    order. A node value is its entries' sum, in entry order, over its degree;
    nodes whose row is not listed read 0.
    """
    tri = np.bitwise_count(bits[rows] & bits[cols]).sum(axis=1, dtype=np.int64)
    values = 4.0 - deg[rows] - deg[cols] + 3.0 * gamma * tri
    if normalize:
        values /= np.maximum(deg[rows], deg[cols])
    node_values = np.bincount(rows, weights=values, minlength=deg.size)
    return values, node_values / np.maximum(deg, 1)  # isolated nodes stay 0


def forman_dirichlet_energy(g: Graph, f: FormanSignal) -> float:
    """Dirichlet energy (1/2) Σ_{i~j} (F_i/√d_i - F_j/√d_j)² over ordered adjacent pairs."""
    deg = g.degrees
    scaled = np.where(deg > 0, f.node_values / np.sqrt(np.maximum(deg, 1)), 0.0)
    edges = g.edges()
    # the 1/2 cancels against each edge appearing twice in i~j
    return float(((scaled[edges[:, 0]] - scaled[edges[:, 1]]) ** 2).sum())
