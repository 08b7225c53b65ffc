"""Exact maximum clique by branch and bound with greedy-coloring bounds.

Vertex sets are Python integers used as bitmasks, which keeps the inner loop
allocation-free. Bit k stands for the k-th vertex by descending degree, so
greedy coloring takes high-degree vertices first and the search branches on
the highest color classes (Tomita & Kameda, J. Global Optim. 2007; San Segundo
et al., Comput. Oper. Res. 2011). The search runs on an explicit stack, so its
depth is not bounded by the interpreter's recursion limit.
"""

from __future__ import annotations

import time

import numpy as np

from .graph import Graph


def _color_order(p: int, masks: list[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set; returns vertices and color bounds
    in nondecreasing color order."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    remaining = p
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


def _degree_order_masks(g: Graph) -> list[int]:
    """Neighbor bitmask of each vertex, vertices and bits both numbered by
    descending degree (ties in index order)."""
    n = g.n
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(-g.degrees, kind="stable")] = np.arange(n)
    rows, cols = g.entries()
    rows, cols = rank[rows], rank[cols]
    # one little-endian byte row per vertex; never an (n, n) bool matrix
    width = (n + 7) // 8
    packed = np.zeros(n * width, dtype=np.uint8)
    np.bitwise_or.at(packed, rows * width + cols // 8, (1 << (cols % 8)).astype(np.uint8))
    data = packed.tobytes()
    return [int.from_bytes(data[k * width:(k + 1) * width], "little") for k in range(n)]


def max_clique(g: Graph, time_budget: float = 10.0) -> tuple[int, bool]:
    """Maximum clique size and whether the search finished exactly.

    The first descent always extends the clique to a maximal one before the
    clock is read, and the clock is read again each time a branch is closed.
    On budget expiry the largest clique found so far is returned (at least
    that maximal clique's size) with the exact flag cleared.
    """
    n = g.n
    if n == 0:
        return 0, True
    masks = _degree_order_masks(g)
    best = 1
    deadline = time.monotonic() + time_budget

    # the current frame: clique size, candidates not yet branched on, and the
    # colored candidates with their bounds, tried from index ``idx`` down
    size, p = 0, (1 << n) - 1
    verts, bounds = _color_order(p, masks)
    idx = len(verts) - 1
    stack: list[tuple[int, int, list[int], list[int], int]] = []
    while True:
        if idx >= 0 and size + bounds[idx] > best:
            v = verts[idx]
            idx -= 1
            best = max(best, size + 1)
            nxt = p & masks[v]
            p &= ~(1 << v)
            if nxt:
                stack.append((size, p, verts, bounds, idx))
                size, p = size + 1, nxt
                verts, bounds = _color_order(p, masks)
                idx = len(verts) - 1
            continue
        if not stack:
            return best, True
        size, p, verts, bounds, idx = stack.pop()
        if time.monotonic() > deadline:
            return best, False
