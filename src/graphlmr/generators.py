"""Synthetic test graphs: paths, 2-D grids, and random geometric graphs."""

from __future__ import annotations

import math
import operator

import numpy as np

from .graph import Graph, is_connected

__all__ = ["path_graph", "grid_graph", "random_geometric_graph"]

_MAX_TRIES = 64  # point sets random_geometric_graph draws before it gives up


def path_graph(n: int) -> Graph:
    """Path on n vertices: 0 - 1 - ... - (n-1)."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be positive")
    v = np.arange(n - 1)
    return Graph.from_edges(n, np.stack([v, v + 1], axis=1))


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols lattice, vertex (r, c) numbered r * cols + c."""
    rows, cols = operator.index(rows), operator.index(cols)
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    idx = np.arange(rows * cols).reshape(rows, cols)
    horizontal = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    vertical = np.stack([idx[:-1].ravel(), idx[1:].ravel()], axis=1)
    return Graph.from_edges(rows * cols, np.concatenate([horizontal, vertical]))


def _close_pairs(pts: np.ndarray, radius: float) -> np.ndarray:
    """Each unordered pair of points within ``radius`` once, as ``(m, 2)``
    rows in no particular orientation.

    Points in the unit square are binned into square cells no smaller than
    ``radius`` (and about one point per cell at most), so every close pair
    lies in one cell or two adjacent ones; only those candidates get their
    squared distance ``dx*dx + dy*dy`` compared with ``radius**2``.
    """
    n = len(pts)
    # 0.999 keeps cells strictly wider than the radius despite rounding
    g = max(1, min(int(0.999 / radius), math.isqrt(n) + 1))
    cell = np.minimum((pts * g).astype(np.intp), g - 1)
    cell_id = cell[:, 0] * g + cell[:, 1]
    by_cell = np.argsort(cell_id, kind="stable")
    count = np.bincount(cell_id, minlength=g * g)
    first = np.cumsum(count) - count
    rank = np.empty(n, dtype=np.intp)
    rank[by_cell] = np.arange(n)
    i_parts, j_parts = [], []
    # each unordered pair of cells once: the point's own cell, then the
    # neighbors above and to the right
    for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
        cx, cy = cell[:, 0] + dx, cell[:, 1] + dy
        src = np.flatnonzero((cx < g) & (cy >= 0) & (cy < g))
        other = cx[src] * g + cy[src]
        lo, hi = first[other], first[other] + count[other]
        if dx == dy == 0:
            lo = rank[src] + 1  # later points of the same cell
        span = hi - lo
        i = np.repeat(src, span)
        pos = np.arange(len(i)) + np.repeat(lo - (np.cumsum(span) - span), span)
        i_parts.append(i)
        j_parts.append(by_cell[pos])
    i, j = np.concatenate(i_parts), np.concatenate(j_parts)
    dx = pts[i, 0] - pts[j, 0]
    dy = pts[i, 1] - pts[j, 1]
    close = dx * dx + dy * dy <= radius * radius
    return np.stack([i[close], j[close]], axis=1)


def random_geometric_graph(n: int, radius: float, rng: np.random.Generator) -> Graph:
    """Connected random geometric graph on the unit square.

    Vertices are uniform points; edges join pairs within ``radius``.
    Redraws the point set until connected (common for reasonable n / radius
    combinations), raising after ``_MAX_TRIES`` failures.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be positive")
    if not radius > 0:  # NaN fails too
        raise ValueError("radius must be positive")
    for _ in range(_MAX_TRIES):
        pts = rng.random((n, 2))
        g = Graph.from_edges(n, _close_pairs(pts, radius))
        if is_connected(g):
            return g
    raise ValueError(
        f"no connected geometric graph in {_MAX_TRIES} tries "
        f"(n={n}, radius={radius}); increase the radius"
    )
