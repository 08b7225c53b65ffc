"""Random geometric graphs from H^3 and H^3 x R, their statistics, and the
quantile-averaged degree-histogram barycenter."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .clique import max_clique
from .graph import Graph, _from_upper_rows, triangle_counts
from .manifold import (Factor, ManifoldSpec, pairwise_sq_distances, rotsym_curvature,
                       sample_tangent_ball)
from .optim import _is_int
from .reconstruct import nn_graph


@dataclass
class SampleConfig:
    n: int = 500
    tangent_radius: float = 2.75
    radial_interval: tuple[float, float] = (0.0, 2.0)
    alpha: float = 1.0
    rho: float = 1.0
    ell: float | None = None
    runs: int = 1
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("float") and value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        for name in ("n", "runs", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        if self.n < 1 or self.runs < 1:
            raise ValueError("n and runs must be positive")
        if self.tangent_radius <= 0 or self.alpha <= 0 or self.rho <= 0:
            raise ValueError("tangent_radius, alpha and rho must be positive")
        lo, hi = self.radial_interval
        if not (0 <= lo < hi < math.inf):
            raise ValueError("radial_interval must satisfy 0 <= lo < hi < inf")


@dataclass
class GraphStats:
    degree_mean: float
    degree_var: float
    clustering_mean: float
    clustering_var: float
    max_clique_size: int
    clique_exact: bool


_H3 = Factor("hyperbolic", dim=3)


def sample_points(cfg: SampleConfig, with_radial: bool, seed: int | None = None) -> list[np.ndarray]:
    """Uniform tangent-ball sampling at the base point, pushed through exp.

    Radial coordinates (for the heterogeneous cloud) are uniform on the
    configured interval, independent of the hyperbolic part.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    blocks = [sample_tangent_ball(_H3, cfg.n, cfg.tangent_radius, rng)]
    if with_radial:
        lo, hi = cfg.radial_interval
        blocks.append(rng.uniform(lo, hi, size=(cfg.n, 1)))
    return blocks


def generate_homogeneous(cfg: SampleConfig, seed: int | None = None) -> Graph:
    """Nearest-neighbor graph of a tangent-uniform H^3 cloud at threshold rho."""
    blocks = sample_points(cfg, with_radial=False, seed=seed)
    return nn_graph(pairwise_sq_distances(ManifoldSpec((_H3,)), blocks), cfg.rho)


def generate_heterogeneous(cfg: SampleConfig, seed: int | None = None) -> Graph:
    """Curvature-gated generator on H^3 x R.

    Every pair within unit distance connects; pairs whose both endpoints sit
    in the high-curvature region (R_a(r) > ell) connect up to the larger
    threshold rho.
    """
    if cfg.ell is None:
        raise ValueError("heterogeneous generation needs the curvature threshold ell")
    blocks = sample_points(cfg, with_radial=True, seed=seed)
    spec = ManifoldSpec((_H3, Factor("rotsym", alpha=cfg.alpha)))
    sq = pairwise_sq_distances(spec, blocks)
    curved = rotsym_curvature(cfg.alpha, blocks[1][:, 0]) > cfg.ell

    def upper(rows: slice) -> np.ndarray:
        block = sq[rows, rows.start:]
        gate = curved[rows, None] & curved[rows.start:]
        return (block <= 1.0) | (gate & (block <= cfg.rho * cfg.rho))  # as nn_graph squares

    return _from_upper_rows(cfg.n, upper)


def graph_stats(g: Graph, clique_budget: float = 10.0) -> GraphStats:
    """Degree and clustering moments plus the (exact if affordable) max clique."""
    deg = g.degrees.astype(float)
    _, tri = triangle_counts(g)
    possible = deg * (deg - 1) / 2.0
    clustering = np.where(possible > 0, tri / np.maximum(possible, 1.0), 0.0)
    size, exact = max_clique(g, time_budget=clique_budget)
    return GraphStats(
        degree_mean=float(deg.mean()),
        degree_var=float(deg.var()),
        clustering_mean=float(clustering.mean()),
        clustering_var=float(clustering.var()),
        max_clique_size=size,
        clique_exact=exact,
    )


def run_generator(mode: str, cfg: SampleConfig,
                  clique_budget: float = 10.0) -> tuple[list[Graph], list[GraphStats]]:
    """cfg.runs independent graphs with per-run derived seeds (seed + index)."""
    gen = {"homogeneous": generate_homogeneous, "heterogeneous": generate_heterogeneous}[mode]
    graphs = [gen(cfg, seed=cfg.seed + k) for k in range(cfg.runs)]
    stats = [graph_stats(g, clique_budget=clique_budget) for g in graphs]
    return graphs, stats


def degree_histogram(g: Graph) -> np.ndarray:
    """Degree counts indexed by degree."""
    deg = g.degrees
    return np.bincount(deg, minlength=int(deg.max(initial=0)) + 1).astype(float)


def degree_barycenter(histograms: list[np.ndarray]) -> np.ndarray:
    """1-D Wasserstein barycenter of degree histograms by exact quantile averaging.

    The averaged quantile function is a step function whose breakpoints are
    the union of all input cumulative masses; each step's mass lands on the
    nearest integer degree.
    """
    if not histograms:
        raise ValueError("need at least one histogram")
    probs = []
    for h in histograms:
        h = np.asarray(h, dtype=float)
        total = h.sum()
        if h.ndim != 1 or total <= 0 or (h < 0).any():
            raise ValueError("histograms must be 1-D, nonnegative, with positive mass")
        probs.append(h / total)
    cums = [np.cumsum(p) for p in probs]
    breaks = np.unique(np.concatenate([c for c in cums] + [np.array([0.0])]))
    breaks = breaks[(breaks > 0) & (breaks <= 1.0 + 1e-12)]
    mids = 0.5 * (np.concatenate([[0.0], breaks[:-1]]) + breaks)
    level = np.zeros(breaks.size)
    for cum in cums:
        level += np.searchsorted(cum, mids, side="left")
    degree = np.floor(level / len(cums) + 0.5).astype(np.int64)
    return np.bincount(degree, weights=np.diff(breaks, prepend=0.0))
