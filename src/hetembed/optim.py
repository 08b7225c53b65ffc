"""Loss functions, analytic Riemannian gradients, and the RSGD training loop."""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .graph import Graph, bfs_apsp, connected_pairs, forman
from .manifold import (
    ManifoldSpec,
    TangencyError,
    _Buffers,
    _neg_space,
    _product_sq_tile,
    _tile_operand,
    alpha_from_range,
    exp_map,
    resolve_spec,
    riemannian_gradient,
    rotsym_curvature,
    rotsym_curvature_derivative,
    rotsym_curvature_inverse,
    sample_tangent_ball,
)

# default pair-batch size for graphs too large for full-batch steps
_BIG_GRAPH_BATCH = 200_000
# most rows per tile edge of the all-pairs passes: a gradient pass keeps about
# seven (b, b) float64 tile buffers, 1.6 MiB at b = 171 (n = 1,025), inside a
# 2 MiB L2; 131 nodes fit one tile
_TILE = 192


class NumericAbortError(RuntimeError):
    """Training broke down numerically; carries a diagnostic state dump."""

    def __init__(self, message: str, state: dict):
        super().__init__(message)
        self.state = state


@dataclass
class TrainConfig:
    """Hyperparameters of one training run (flat key=value file format)."""

    tau: float = 0.1
    epsilon: float = 1.0
    gamma: float = 1.0
    ell_plus: float = 10.0
    delta: float = 1.0
    lambda_rot: float = 1.0
    learning_rate: float = 0.05
    epochs: int = 3000
    batch_pairs: int | str = "auto"
    seed: int = 0
    # "auto" places initial radii inside the band of curvature targets,
    # avoiding the flat far region and the stationary origin of the profile
    radial_init: tuple[float, float] | str = (0.1, 1.0)
    curvature_residuals: str = "normalized"  # or "raw"

    def validate(self) -> None:
        # every float field is finite, and positive except tau
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
            if f.type == "float" and f.name != "tau" and value <= 0:
                raise ValueError(f"{f.name} must be positive")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (isinstance(self.batch_pairs, int) and self.batch_pairs > 0) and self.batch_pairs not in ("all", "auto"):
            raise ValueError("batch_pairs must be a positive integer, 'all' or 'auto'")
        if self.radial_init != "auto":
            lo, hi = self.radial_init
            if not (0 <= lo < hi < math.inf):
                raise ValueError("radial_init must satisfy 0 <= lo < hi < inf or be 'auto'")
        if self.curvature_residuals not in ("normalized", "raw"):
            raise ValueError("curvature_residuals must be 'normalized' or 'raw'")

    def digest(self) -> str:
        text = "\n".join(f"{k}={v}" for k, v in sorted(to_flat(self).items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def to_flat(cfg) -> dict[str, str]:
    """Every field of a config dataclass as the text a config line or CLI flag gives for it."""
    return {f.name: _flat_text(getattr(cfg, f.name)) for f in fields(cfg)}


def _flat_text(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class ShiftConstants:
    """Constants baked into the curvature loss; evaluation must reuse them."""

    min_forman: float
    delta_hat: float
    lam: float
    r_h: float


@dataclass
class Embedding:
    """Per-factor coordinate arrays for all nodes plus training provenance."""

    spec: ManifoldSpec
    blocks: list[np.ndarray]
    shift_constants: ShiftConstants | None = None
    seed: int = 0
    epochs: int = 0
    config_digest: str = ""

    @property
    def n(self) -> int:
        return self.blocks[0].shape[0]

    def radii(self) -> np.ndarray | None:
        i = self.spec.rotsym_index
        return None if i is None else self.blocks[i][:, 0]

    def copy(self) -> "Embedding":
        return replace(self, blocks=[b.copy() for b in self.blocks])


@dataclass
class GradientResult:
    blocks: list[np.ndarray]
    skipped_pairs: int = 0
    loss_distance: float = 0.0  # over all connected pairs, where it was taken


@dataclass
class TrainHistory:
    epochs: list[int] = field(default_factory=list)
    loss_d: list[float] = field(default_factory=list)
    loss_c: list[float] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)

    def append(self, epoch: int, loss_d: float, loss_c: float, wall_ms: float) -> None:
        self.epochs.append(epoch)
        self.loss_d.append(loss_d)
        self.loss_c.append(loss_c)
        self.wall_ms.append(wall_ms)


def initialize(spec: ManifoldSpec, g: Graph, cfg: TrainConfig) -> Embedding:
    """Seeded start: small uniform tangent kicks from the base point, radii
    uniform on ``cfg.radial_init`` ('auto' is resolved by :func:`train`)."""
    cfg.validate()
    if cfg.radial_init == "auto":
        raise ValueError("radial_init 'auto' must be resolved before initialize")
    rng = np.random.default_rng(cfg.seed)
    blocks: list[np.ndarray] = []
    for f in spec.factors:
        if f.kind == "rotsym":
            lo, hi = cfg.radial_init
            blocks.append(rng.uniform(lo, hi, size=(g.n, 1)))
        else:
            blocks.append(sample_tangent_ball(f, g.n, 0.1, rng))
    return Embedding(
        spec=spec, blocks=blocks, seed=cfg.seed, epochs=0, config_digest=cfg.digest()
    )


class _Workspace(_Buffers):
    """The tiles of one :class:`DistanceTarget`'s all-pairs passes and their
    buffers, which every pass reuses. The row ranges split 0..n evenly into
    the fewest tiles of at most ``_TILE`` rows."""

    def __init__(self, n: int):
        k = max(-(-n // _TILE), 1)
        edges = [n * t // k for t in range(k + 1)]
        self.tiles = [slice(a, b) for a, b in zip(edges, edges[1:])]
        super().__init__((-(-n // k)) ** 2)


@dataclass(frozen=True, eq=False)
class DistanceTarget:
    """The graph distances one :func:`train` call fits, built once from the hop
    matrix: the (n, n) hop matrix itself, whose squares each tile reads as
    d_G^2, the mask of connected pairs, those pairs in :func:`connected_pairs`
    order, and the tile buffers of the passes over them."""

    hops: np.ndarray
    connected: np.ndarray
    pairs: np.ndarray
    workspace: _Workspace = field(repr=False)

    @classmethod
    def from_hops(cls, dist: np.ndarray) -> "DistanceTarget":
        return cls(hops=dist, connected=dist > 0, pairs=connected_pairs(dist),
                   workspace=_Workspace(dist.shape[0]))

    def mask(self, pairs: np.ndarray) -> np.ndarray:
        """(n, n) mask of a (P, 2) pair array: the connected mask itself for
        ``self.pairs``, else a new symmetric mask of distinct connected pairs."""
        if pairs is self.pairs:
            return self.connected
        pi, pj = pairs[:, 0], pairs[:, 1]
        if not self.connected[pi, pj].all():
            raise ValueError("pairs must be distinct and graph-connected")
        mask = np.zeros_like(self.connected)
        mask[pi, pj] = mask[pj, pi] = True
        if np.count_nonzero(mask) != 2 * pairs.shape[0]:
            raise ValueError("pairs must not repeat or mirror a pair")
        return mask


def _pair_pass(emb: Embedding, target: DistanceTarget, mask: np.ndarray, grad: bool):
    """One walk over the upper-triangle tiles (rows I <= columns J) of the pair
    matrix, in the target's buffers.

    Per tile: the squared product distances, the deviation d_M^2 / d_G^2 - 1 of
    the connected pairs (0 elsewhere) and its absolute sum, which a diagonal
    tile holds twice. Without ``grad`` that sum is over the pairs of ``mask``,
    and the pass returns it. With ``grad`` it is over all connected pairs, and
    the weights sign(dev) / d_G^2 on ``mask`` give each factor's ambient
    derivatives: row i gets d/dx_i of sum_j weight_ij * lambda^2 * sq(x_i, x_j),
    as ``T @ x[J]`` onto rows I and ``T.T @ x[I]`` onto rows J of an off-diagonal
    tile. Quadric pairs at the branch point (coincident, or antipodal on the
    sphere) have a 0/0 derivative and contribute 0; those in ``mask`` are
    counted. Returns (loss, skipped pairs, ambient derivatives).
    """
    spec, blocks, ws = emb.spec, emb.blocks, target.workspace
    ops = [_tile_operand(f, x) for f, x in zip(spec.factors, blocks)]
    quadric = [f.kind in ("sphere", "hyperbolic") for f in spec.factors]
    # -0.0 is the additive identity: a row block's first tile keeps its bits
    ambient = [np.full_like(x, -0.0) for x in blocks] if grad else None
    batch = mask is not target.connected
    loss, skipped = 0.0, 0
    for t, rows in enumerate(ws.tiles):
        for cols in ws.tiles[t:]:
            diag = rows == cols
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            dws = [(ws.view(("dsq", k), shape), ws.view(("bad", k), shape, bool)) if q else None
                   for k, q in enumerate(quadric)] if grad else None
            dev = _product_sq_tile(spec, blocks, ops, rows, cols, ws.view("dev", shape),
                                   lambda name: ws.view(name, shape), dws)
            off = np.logical_not(target.connected[rows, cols], out=ws.view("off", shape, bool))
            d_g2 = np.square(target.hops[rows, cols], dtype=np.float64, out=ws.view("d_g2", shape))
            d_g2[off] = 1.0
            dev /= d_g2
            dev[off] = 1.0
            dev -= 1.0
            if grad:
                base = np.sign(dev, out=ws.view("base", shape))
                base /= d_g2  # 0 off the connected pairs
                if batch:
                    base *= mask[rows, cols]
            np.abs(dev, out=dev)
            if batch and not grad:
                dev *= mask[rows, cols]
            part = float(dev.sum())
            loss += part / 2.0 if diag else part
            if grad:
                skipped += _tile_gradient(spec, blocks, ambient, dws, base, mask, rows, cols,
                                          diag, ws)
    if grad:
        for f, amb in zip(spec.factors, ambient):
            if f.kind == "hyperbolic":
                _neg_space(amb)  # dw/dx of -<x,y>_M
    return loss, skipped, ambient


def _tile_gradient(spec, blocks, ambient, dws, base, mask, rows, cols, diag, ws) -> int:
    """Adds one tile's terms to every factor's ambient derivatives, and returns
    the singular pairs of ``mask`` it holds (see :func:`_pair_pass`)."""
    skipped = 0
    for f, x, amb, dw in zip(spec.factors, blocks, ambient, dws):
        lam2 = f.lam**2
        weight = base if lam2 == 1.0 else np.multiply(base, lam2, out=ws.view("weight", base.shape))
        if dw is None:  # flat: d/dx_i of |x_i - x_j|^2 is 2 (x_i - x_j)
            amb[rows] += 2.0 * (weight.sum(axis=1)[:, None] * x[rows] - weight @ x[cols])
            if not diag:
                amb[cols] += 2.0 * (weight.sum(axis=0)[:, None] * x[cols] - weight.T @ x[rows])
            continue
        dsq, bad = dw
        tile = np.multiply(dsq, weight, out=dsq)
        amb[rows] += tile @ x[cols]
        if not diag:
            amb[cols] += tile.T @ x[rows]
        count = int(np.count_nonzero(np.logical_and(bad, mask[rows, cols], out=bad)))
        skipped += count // 2 if diag else count  # a diagonal tile holds each pair twice
    return skipped


def loss_distance(emb: Embedding, target: DistanceTarget, pairs: np.ndarray) -> float:
    """Relative squared-distance distortion summed over the given pairs."""
    return _pair_pass(emb, target, target.mask(pairs), grad=False)[0]


def _curvature_residuals(emb: Embedding, f_signal, cfg: TrainConfig):
    shift = emb.shift_constants
    if shift is None:
        raise ValueError("embedding has no shift constants; curvature loss undefined")
    rot = emb.spec.rotsym_factor
    if rot is None or rot.alpha is None:
        raise ValueError("curvature loss needs a resolved rotsym factor")
    r = emb.radii()
    targets = f_signal.node_values - shift.min_forman + shift.delta_hat
    res = targets - rotsym_curvature(rot.alpha, r)
    if cfg.curvature_residuals == "normalized":
        weights = (np.abs(f_signal.node_values) + cfg.epsilon) ** 2
    else:
        weights = np.ones_like(res)
    return res, weights, rot


def loss_curvature(emb: Embedding, f_signal, cfg: TrainConfig) -> float:
    """Shifted curvature mismatch, normalized per node unless cfg says raw."""
    res, weights, _ = _curvature_residuals(emb, f_signal, cfg)
    return float((res**2 / weights).sum())


def loss_total(emb: Embedding, target: DistanceTarget, f_signal, cfg: TrainConfig,
               pairs: np.ndarray) -> float:
    total = loss_distance(emb, target, pairs)
    if cfg.tau > 0:
        total += cfg.tau * loss_curvature(emb, f_signal, cfg)
    return total


def gradients(emb: Embedding, target: DistanceTarget, f_signal, cfg: TrainConfig,
              pairs: np.ndarray) -> GradientResult:
    """Analytic Riemannian gradients of the total loss over ``pairs`` at the
    current state, and the distance loss over all connected pairs there.

    One walk over the upper-triangle tiles of the pair matrix (:func:`_pair_pass`):
    the weights of the connected pairs, times the 0/1 mask of ``pairs`` unless
    they are ``target.pairs``, give each factor's ambient coordinate
    derivatives, which are mapped through the inverse metric + tangent
    projection. Pairs whose space-form distance derivative is numerically
    singular (coincident points, antipodal sphere points) are dropped, and
    those inside ``pairs`` are counted.
    """
    loss_d, skipped, ambient = _pair_pass(emb, target, target.mask(pairs), grad=True)

    if cfg.tau > 0:
        res, weights, rot = _curvature_residuals(emb, f_signal, cfg)
        r = emb.radii()
        d_lc = -2.0 * res * rotsym_curvature_derivative(rot.alpha, r) / weights
        ambient[emb.spec.rotsym_index][:, 0] += cfg.tau * d_lc

    grads = riemannian_gradient(emb.spec, emb.blocks, ambient)
    return GradientResult(blocks=grads, skipped_pairs=skipped, loss_distance=loss_d)


def rsgd_step(emb: Embedding, grads: GradientResult | Sequence[np.ndarray], lr: float) -> Embedding:
    """Descent step: exponential map of -lr * grad on every factor.

    The radial factor's exponential map already applies the positive part, so
    r <- max(r - lr * dL/dr, 0).
    """
    blocks = grads.blocks if isinstance(grads, GradientResult) else list(grads)
    stepped = exp_map(emb.spec, emb.blocks, [-lr * gb for gb in blocks])
    return replace(emb, blocks=stepped)


def _resolve_batch(batch_pairs: int | str, n_pairs: int, n_nodes: int) -> int:
    if batch_pairs == "all":
        return n_pairs
    if batch_pairs == "auto":
        return n_pairs if n_nodes <= 2000 else min(n_pairs, _BIG_GRAPH_BATCH)
    return min(int(batch_pairs), n_pairs)


def train(g: Graph, spec: ManifoldSpec, cfg: TrainConfig) -> tuple[Embedding, TrainHistory]:
    """Embed a graph by Riemannian SGD on the distance + curvature loss.

    With an unresolved (auto) alpha, the radial profile is fitted to the
    graph's Forman range once, before the first epoch. Connected node pairs
    only; deterministic for a fixed seed. A homogeneous spec trains exactly
    like the tau = 0 special case and never touches curvature data.
    """
    cfg.validate()
    target = DistanceTarget.from_hops(bfs_apsp(g))
    all_pairs = target.pairs
    if all_pairs.shape[0] == 0:
        raise ValueError("graph has no connected node pairs")

    rot = spec.rotsym_factor
    f_signal = None
    shift = None
    tau = cfg.tau
    if rot is None:
        tau = 0.0  # homogeneous baseline: curvature loss is inactive
        spec_resolved = spec
    else:
        if tau > 0 or rot.alpha is None:
            f_signal = forman(g, cfg.gamma)
            fitted_alpha, delta_hat = alpha_from_range(
                f_signal.max_node, f_signal.min_node, cfg.delta, cfg.ell_plus
            )
        alpha = fitted_alpha if rot.alpha is None else rot.alpha
        spec_resolved = resolve_spec(spec, alpha=alpha, rot_scale=cfg.lambda_rot)
        if tau > 0:
            shift = ShiftConstants(
                min_forman=f_signal.min_node,
                delta_hat=delta_hat,
                lam=spec_resolved.rotsym_factor.lam,
                r_h=spec_resolved.homogeneous_curvature,
            )

    radial_init = cfg.radial_init
    if radial_init == "auto":
        if shift is not None:
            # the paper's curvature formula pins where each target lives; start
            # the radii inside that band to dodge the flat tail and the origin
            alpha_c = spec_resolved.rotsym_factor.alpha
            top = rotsym_curvature(alpha_c, 0.0)
            hi_target = min(f_signal.max_node - shift.min_forman + shift.delta_hat, top)
            lo = rotsym_curvature_inverse(alpha_c, hi_target)
            hi = rotsym_curvature_inverse(alpha_c, shift.delta_hat)
            if hi - lo < 1e-9:
                hi = lo + max(alpha_c * 0.1, 1e-3)
            radial_init = (lo, hi)
        else:
            radial_init = (0.1, 1.0)
    cfg_init = replace(cfg, radial_init=radial_init)

    emb = initialize(spec_resolved, g, cfg_init)
    emb.config_digest = cfg.digest()  # digest the config as given, not resolved
    emb.shift_constants = shift
    cfg_run = replace(cfg, tau=tau)

    batch_size = _resolve_batch(cfg.batch_pairs, all_pairs.shape[0], g.n)
    batch_rng = np.random.default_rng((cfg.seed, 0xBA7C4))
    # piecewise-constant decay; the late x0.01 tail damps the oscillation of
    # the nonsmooth distance loss around its optimum
    decay1 = int(math.floor(0.8 * cfg.epochs))
    decay2 = int(math.floor(0.9 * cfg.epochs))

    def draw_batch() -> np.ndarray:
        if batch_size == all_pairs.shape[0]:
            return all_pairs
        idx = batch_rng.choice(all_pairs.shape[0], size=batch_size, replace=False)
        return all_pairs[np.sort(idx)]

    # the loss after each step is read from the next epoch's gradient, taken
    # right after the step on the next batch; the last epoch has none
    history = TrainHistory()
    t0 = time.perf_counter()
    ahead = gradients(emb, target, f_signal, cfg_run, draw_batch())
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (0.01 if epoch >= decay2 else 0.1 if epoch >= decay1 else 1.0)
        grad, ahead, l_d, l_c = ahead, None, None, None
        try:  # rsgd_step raises TangencyError for a step too long for the tangent space
            emb = rsgd_step(emb, grad, lr)
            if epoch + 1 < cfg.epochs:
                ahead = gradients(emb, target, f_signal, cfg_run, draw_batch())
                l_d = ahead.loss_distance
            else:
                l_d = loss_distance(emb, target, all_pairs)
            l_c = loss_curvature(emb, f_signal, cfg_run) if tau > 0 else 0.0
            if not (np.isfinite(l_d) and np.isfinite(l_c)):
                raise FloatingPointError("non-finite loss")
        except (TangencyError, FloatingPointError) as exc:
            raise NumericAbortError(
                f"{exc} at epoch {epoch}",
                state={
                    "epoch": epoch,
                    "loss_distance": l_d,
                    "loss_curvature": l_c,
                    "learning_rate": lr,
                    "skipped_pairs": grad.skipped_pairs,
                    "max_radius": None if emb.radii() is None else float(emb.radii().max()),
                },
            ) from exc
        history.append(epoch, l_d, l_c, (time.perf_counter() - t0) * 1000.0)
    emb.epochs = cfg.epochs
    return emb, history

