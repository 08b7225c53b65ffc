"""Undirected graphs: edge-list IO, hop distances, triangles, Forman curvature."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

from .manifold import _TILE, _Workspace

UNREACHABLE = -1
MAX_DENSE_NODES = 20000
# bound on the per-level temporaries of bfs_apsp
_BFS_BLOCK_BYTES = 1 << 26
# bound on each packed-row array _common_neighbours gathers at once
_GATHER_BLOCK_BYTES = 1 << 20
# edge-list lines tokenized at once
_PARSE_BLOCK = 1024


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
    """Build a Graph on n nodes from the int64 keys i * n + j (i < j) of its edges, in any
    order and with repeats. Both directions share one key array, sorted with repeats
    dropped: row i is the keys from i * n on, and their remainders are its columns."""
    both = np.concatenate([keys, keys % n * n])
    both[keys.size:] += keys // n  # the mirror j * n + i of each key
    both.sort()
    fresh = np.concatenate([[True], both[1:] != both[:-1]])
    if not fresh.all():  # a copy only when there are repeats to drop
        both = both[fresh]
    indptr = np.searchsorted(both, np.arange(n + 1) * n)
    return Graph(n=n, indptr=indptr, indices=np.remainder(both, n, out=both))


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
    return _from_keys(n, lo * n + hi)


def from_mask(mask: np.ndarray) -> Graph:
    """Build a Graph from an (n, n) boolean mask: edge (i, j) for every True
    cell with i < j. The diagonal and the lower triangle are not read."""
    n = mask.shape[0]
    if mask.shape != (n, n):
        raise ValueError(f"mask must be square, got shape {mask.shape}")
    return _from_upper_rows(n, lambda rows: mask[rows, rows.start:].astype(bool))


def _from_upper_rows(n: int, cells) -> Graph:
    """Build a Graph on n nodes from the True cells of :func:`_upper_blocks`
    of ``cells``; only the edges' keys are kept from block to block."""
    parts = [np.empty(0, dtype=np.int64)]
    for rows, block in _upper_blocks(n, cells):
        i, j = np.divmod(np.flatnonzero(block), block.shape[1])
        parts.append((i + rows.start) * n + (j + rows.start))
    keys = np.concatenate(parts)
    del parts  # freed before _from_keys copies the keys
    return _from_keys(n, keys)


def _upper_blocks(n: int, cells):
    """The cells above the diagonal of an (n, n) bool, by row blocks of at
    most ``_TILE`` rows. ``cells(rows)`` gives a new (rows, n - rows.start)
    bool of the cells (i, j), j >= rows.start, of a block; it is yielded as
    (rows, block) with its cells j <= i set False. So the True cells, block
    after block in row-major order, are the upper triangle's in row-major
    order."""
    for rows in _Workspace(n).tiles:
        block, b = cells(rows), rows.stop - rows.start
        block[:, :b] &= np.tri(b, k=-1, dtype=bool).T
        yield rows, block


def load_edge_list(source: str | bytes) -> Graph:
    """Parse an edge list (two integer tokens per line, '#'/'%' comments).

    Node ids are remapped to a dense 0..n-1 range in first-appearance order.
    A ``v v`` line before the first edge between two nodes that first names
    ``v`` declares the node, as the witness preamble of :func:`save_edge_list`
    does; any other ``v v`` line is a dropped self-loop.
    Counts of dropped duplicates/self-loops and the id map are stored in
    ``Graph.meta``.
    """
    text = source.decode("utf-8") if isinstance(source, bytes) else source
    lines = text.splitlines()
    comments = "#" in text or "%" in text
    labels: list[int] = []
    try:
        # blocks of lines bound the token lists held at once
        for start in range(0, len(lines), _PARSE_BLOCK):
            split = list(map(str.split, lines[start:start + _PARSE_BLOCK]))
            if comments:
                split = [tokens for tokens in split if tokens and tokens[0][0] not in "#%"]
            if not set(map(len, split)) <= {0, 2}:  # 0: a blank line
                raise ValueError
            labels += map(int, chain.from_iterable(split))
    except ValueError:
        raise _first_bad_line(lines) from None

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


def _first_bad_line(lines: list[str]) -> EdgeListParseError:
    """The error for the first line that is neither blank, a comment nor two
    integer tokens."""
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0][0] in "#%":
            continue
        if len(tokens) != 2:
            return EdgeListParseError(line_no, line, f"expected 2 integer tokens, got {len(tokens)}")
        try:
            int(tokens[0]), int(tokens[1])
        except ValueError:
            return EdgeListParseError(line_no, line, "non-integer token")
    raise AssertionError("every line parses")


def save_edge_list(g: Graph) -> str:
    """The graph's text in the edge-list format.

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
    return preamble + "%d %d\n" * len(edges) % tuple(edges.ravel().tolist())


def bfs_apsp(g: Graph) -> np.ndarray:
    """Exact hop-distance matrix by a breadth-first search from every node at once.

    Each node keeps a bitset of the sources whose search has not reached it;
    one level ORs the last level's new bits over every node's neighbours, and
    the bits it newly reaches at level L are ORed into packed bit planes, plane
    b for each set bit b of L. At the end each plane is unpacked one row block
    at a time, shifted by its bit and added. An isolated node reads an
    all-zero sentinel row as its one neighbour, so every node has a neighbour
    segment. Sources go in blocks that bound the per-level temporaries.
    Returns an (n, n) int16 matrix; unreachable pairs hold ``UNREACHABLE``.
    """
    n = g.n
    if n > MAX_DENSE_NODES:
        raise ValueError(f"dense distance matrix limited to n <= {MAX_DENSE_NODES}, got {n}")
    # each isolated node gets the one neighbour n, the sentinel row
    isolated = np.flatnonzero(g.degrees == 0)
    indices = np.insert(g.indices, g.indptr[isolated], n)
    starts = g.indptr[:-1] + isolated.searchsorted(np.arange(n))
    dist = np.empty((n, n), dtype=np.int16)
    # bytes per 64-source word: the gathered neighbour rows, then 8 B per node
    # for each of the frontier, the unreached bits and at most 15 bit planes
    # (a hop count fits int16), then a row block's unpacked bits, their int16
    # shift and its unreached mask
    block = max(1, _BFS_BLOCK_BYTES // (8 * indices.size + 136 * n + 256 * _TILE))
    for s0 in range(0, n, 64 * block):
        s1 = min(n, s0 + 64 * block)
        count, src = s1 - s0, np.arange(s0, s1)
        frontier = np.zeros((n + 1, (count + 63) // 64), dtype="<u8")  # row n stays 0
        frontier[src, (src - s0) // 64] = np.uint64(1) << ((src - s0) % 64).astype(np.uint64)
        new, unreached = frontier[:n], ~frontier[:n]
        gathered = np.empty((indices.size, frontier.shape[1]), dtype="<u8")
        planes: list[np.ndarray] = []
        level = 0
        while True:
            # indices are in range; "clip" lets take write to its out unbuffered
            np.take(frontier, indices, axis=0, out=gathered, mode="clip")
            np.bitwise_or.reduceat(gathered, starts, axis=0, out=new)
            new &= unreached
            if not new.any():
                break
            level += 1
            unreached ^= new
            if level == 1 << len(planes):
                planes.append(np.zeros_like(new))
            for b, plane in enumerate(planes):
                if level >> b & 1:
                    plane |= new
        shifted = np.empty((_TILE, count), dtype=np.int16)
        for rows in _Workspace(n).tiles:
            out, tile = dist[rows, s0:s1], shifted[:rows.stop - rows.start]
            out[...] = 0
            for b, plane in enumerate(planes):
                out += np.left_shift(_unpack_bits(plane[rows], count), b, out=tile, dtype=np.int16)
            out[_unpack_bits(unreached[rows], count).view(bool)] = UNREACHABLE
    return dist


def _unpack_bits(words: np.ndarray, count: int) -> np.ndarray:
    """(rows, count) uint8 0/1 matrix of the first ``count`` bits of each row."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=count, bitorder="little")


def connected_pairs(dist: np.ndarray) -> np.ndarray:
    """Unordered node pairs (i<j) at finite positive hop distance, as a (P, 2)
    int64 array in row-major order. The list is allocated once and filled one
    row block of :func:`_upper_connected` at a time."""
    counts = [np.count_nonzero(block) for _, block in _upper_connected(dist)]
    pairs = np.empty((sum(counts), 2), dtype=np.int64)
    end = 0
    for (rows, block), count in zip(_upper_connected(dist), counts):
        part = pairs[end:end + count]
        flat = np.flatnonzero(block)
        np.floor_divide(flat, block.shape[1], out=part[:, 0])
        np.remainder(flat, block.shape[1], out=part[:, 1])
        part += rows.start
        del flat  # freed before the next block's is taken
        end += count
    return pairs


def _connected_pair_count(dist: np.ndarray) -> int:
    """The number of rows of :func:`connected_pairs`, counted without the list."""
    return sum(int(np.count_nonzero(block)) for _, block in _upper_connected(dist))


def _upper_connected(dist: np.ndarray):
    """:func:`_upper_blocks` of the finite cells of the hop matrix ``dist``:
    their True cells are the connected pairs, in :func:`connected_pairs` order."""
    return _upper_blocks(dist.shape[0], lambda rows: dist[rows, rows.start:] != UNREACHABLE)


def triangle_counts(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge and per-node triangle counts, as int64 arrays.

    ``edge_counts[k]`` is |adj(i) ∩ adj(j)| for the k-th edge (i, j) of
    ``g.edges()``, the k-th upper adjacency entry; node counts obey
    2·t(i) = Σ_{j~i} t(i,j) since every triangle at i is seen by two of its
    edges. Only the upper entries are counted: the lower ones repeat them.
    """
    rows, cols = g.entries()
    upper = rows < cols
    rows, cols = rows[upper], cols[upper]
    counts = _common_neighbours(g.adjacency_bits(), rows, cols)
    twice = (np.bincount(rows, counts, g.n) + np.bincount(cols, counts, g.n)).astype(np.int64)
    assert np.all(twice % 2 == 0)
    return counts, twice // 2


@dataclass
class FormanSignal:
    """Edge- and node-level discrete curvature for one value of gamma.

    Edge value: 4 - d_i - d_j + 3*gamma*t(i,j), one per row of ``g.edges()``;
    node value: degree average of incident edge values (0 for isolated nodes,
    which are excluded from min/max).
    """

    edge_values: np.ndarray
    node_values: np.ndarray

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


def forman(g: Graph, gamma: float = 1.0) -> FormanSignal:
    """Gamma-augmented Forman curvature of every edge plus its node-wise trace.
    Each node sums its edge values in adjacency order."""
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    deg = g.degrees
    rows, cols = g.entries()
    entry_values, node_values = _forman_entries(
        deg, _common_neighbours(g.adjacency_bits(), rows, cols), rows, cols, gamma)
    return FormanSignal(
        edge_values=entry_values[rows < cols],  # the rows of g.edges()
        node_values=node_values,
        _degrees=deg,
    )


def _common_neighbours(bits: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """|adj(rows[k]) ∩ adj(cols[k])| for every k, as int64, from the packed
    adjacency rows ``bits`` (as :meth:`Graph.adjacency_bits`). For an edge
    (i, j) this is its triangle count. The rows are gathered in blocks of
    entries that bound each gathered array to ``_GATHER_BLOCK_BYTES``."""
    counts = np.empty(rows.size, dtype=np.int64)
    ones = np.ones(bits.shape[1])
    block = _GATHER_BLOCK_BYTES // (8 * bits.shape[1] or 1)  # entries per block
    for k in range(0, rows.size, block):
        both = np.take(bits, rows[k:k + block], axis=0)
        both &= np.take(bits, cols[k:k + block], axis=0)
        # each word counts at most 64, so the float64 product adds them
        # exactly, and faster than an integer sum along the short axis
        counts[k:k + block] = np.bitwise_count(both) @ ones
    return counts


def _forman_entries(deg: np.ndarray, tri: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Forman value of every adjacency entry (rows[k], cols[k]) and the node values.

    ``deg`` holds the degrees of the whole graph and ``tri[k]`` the entry's
    triangle count (:func:`_common_neighbours`); the entries list whole rows,
    each in column order. A node value is its entries' sum, in entry order,
    over its degree; nodes whose row is not listed read 0.
    """
    values = 4.0 - deg[rows] - deg[cols] + 3.0 * gamma * tri
    node_values = np.bincount(rows, weights=values, minlength=deg.size)
    return values, node_values / np.maximum(deg, 1)  # isolated nodes stay 0


def forman_dirichlet_energy(g: Graph, f: FormanSignal) -> float:
    """Dirichlet energy (1/2) Σ_{i~j} (F_i/√d_i - F_j/√d_j)² over ordered adjacent pairs."""
    deg = g.degrees
    scaled = np.where(deg > 0, f.node_values / np.sqrt(np.maximum(deg, 1)), 0.0)
    edges = g.edges()
    # the 1/2 cancels against each edge appearing twice in i~j
    return float(((scaled[edges[:, 0]] - scaled[edges[:, 1]]) ** 2).sum())
