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
    _Workspace,
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
# minibatch training logs the distance loss over all pairs on every this-many-th epoch
_FULL_LOSS_EVERY = 10


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
    # the losses where it was taken: distance over its pairs, curvature over all nodes
    loss_distance: float = 0.0
    loss_curvature: float = 0.0


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
        connected = dist > 0
        return cls(hops=dist, connected=connected, pairs=connected_pairs(dist, connected),
                   workspace=_Workspace(dist.shape[0]))

    def anchor_pairs(self, anchors: np.ndarray) -> np.ndarray:
        """The minibatch of the sorted node array ``anchors``: every connected
        pair with an end among them, as a (B, 2) array with an anchor first, in
        row-major order. A pair with both ends among them is listed once, from
        its smaller end."""
        rows = self.connected[anchors]
        rows[:, anchors] = np.triu(rows[:, anchors], 1)
        at, cols = np.nonzero(rows)
        return np.column_stack([anchors[at], cols])


def _batch_blocks(target: DistanceTarget, pairs) -> list:
    """The blocks that walk a (B, 2) pair list other than ``target.pairs``.

    The distinct first entries are the anchor rows, in chunks of at most
    ``side`` rows; the columns go in the tiles. Each block that holds a pair
    is (anchor rows, column slice, shape, (cells, d_G^2)): the flat cells of
    its pairs in the block, in list order, and their squared hop distances.
    Raises ValueError for a self, unreachable, repeated or mirrored pair."""
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must be a (B, 2) array of node indices")
    ws, n = target.workspace, target.hops.shape[0]
    first, second = pairs.T
    hops = target.hops[first, second]
    if hops.min(initial=1) < 1:
        raise ValueError("pairs must be distinct and graph-connected")
    key = np.minimum(first, second) * n + np.maximum(first, second)
    key.sort()
    if (key[1:] == key[:-1]).any():
        raise ValueError("pairs must not repeat or mirror a pair")
    d_g2 = np.square(hops, dtype=np.float64)
    held = np.bincount(first, minlength=n) > 0
    anchors = np.flatnonzero(held)
    rank = np.cumsum(held)[first] - 1
    tile = ws.tile_of[second]
    chunk, row = np.divmod(rank, ws.side)
    block = chunk * len(ws.tiles) + tile
    cells = row * ws.widths[tile] + (second - ws.starts[tile])
    order = np.argsort(block, kind="stable")
    cells, d_g2 = cells[order], d_g2[order]
    counts = np.bincount(block)
    ends = np.cumsum(counts)
    out = []
    for b in np.flatnonzero(counts):
        c, t = divmod(int(b), len(ws.tiles))
        rows, cols = anchors[c * ws.side:(c + 1) * ws.side], ws.tiles[t]
        span = slice(ends[b] - counts[b], ends[b])
        out.append((rows, cols, (rows.size, cols.stop - cols.start), (cells[span], d_g2[span])))
    return out


def _pair_pass(emb: Embedding, target: DistanceTarget, pairs, grad: bool):
    """One walk over the pairs of ``pairs``, in the target's buffers.

    ``target.pairs`` itself walks the upper-triangle tiles (rows I <= columns
    J) of the pair matrix; any other list walks the blocks of its anchor rows
    (:func:`_batch_blocks`). Per tile or block: the squared product distances,
    and the deviations d_M^2 / d_G^2 - 1 of its pairs, whose absolute values
    sum to the loss (a diagonal tile holds each pair twice). With ``grad`` the
    weights sign(dev) / d_G^2 of those pairs give each factor's ambient
    derivatives: row i gets d/dx_i of sum_j weight_ij * lambda^2 * sq(x_i, x_j),
    as ``T @ x[J]`` onto the rows and ``T.T @ x[I]`` onto the columns, except
    on a diagonal tile. Quadric pairs at the branch point (coincident, or
    antipodal on the sphere) have a 0/0 derivative and contribute 0; they are
    counted. Returns (loss, skipped pairs, ambient derivatives).
    """
    spec, blocks, ws = emb.spec, emb.blocks, target.workspace
    if pairs is target.pairs:
        walk = [(rows, cols, shape, None) for rows, cols, shape in ws.upper()]
    else:
        walk = _batch_blocks(target, pairs)
    ops = [_tile_operand(f, x) for f, x in zip(spec.factors, blocks)]
    # -0.0 is the additive identity: a row block's first tile keeps its bits
    ambient = [np.full_like(x, -0.0) for x in blocks] if grad else None
    loss, skipped = 0.0, 0
    for rows, cols, shape, cells in walk:
        dws = [(ws.view(("dsq", k), shape), ws.view(("bad", k), shape, bool)) if f.sign else None
               for k, f in enumerate(spec.factors)] if grad else None
        dev = _product_sq_tile(spec, blocks, ops, rows, cols, ws.view("dev", shape),
                               lambda name: ws.view(name, shape), dws)
        tile_pass = _connected_tile if cells is None else _batch_cells
        part, base, count = tile_pass(target, dev, rows, cols, cells, dws, ws)
        loss += part
        if grad:
            skipped += count
            _tile_gradient(spec, blocks, ambient, dws, base, rows, cols,
                           cells is None and rows == cols, ws)
    if grad:
        for f, amb in zip(spec.factors, ambient):
            if f.sign < 0:
                _neg_space(amb)  # dw/dx of -<x,y>_M
    return loss, skipped, ambient


def _connected_tile(target, dev, rows, cols, cells, dws, ws):
    """An upper tile of all connected pairs, with ``dev`` holding its squared
    distances and ``dws`` the quadrics' (dsq, bad) buffers, None without a
    gradient: (its loss, its weight tile or None, its singular pairs). A
    diagonal tile holds each pair twice."""
    diag = rows == cols
    off = np.logical_not(target.connected[rows, cols], out=ws.view("off", dev.shape, bool))
    d_g2 = np.square(target.hops[rows, cols], dtype=np.float64, out=ws.view("d_g2", dev.shape))
    d_g2[off] = 1.0
    dev /= d_g2
    dev[off] = 1.0
    dev -= 1.0
    base, count = None, 0
    if dws is not None:
        base = np.sign(dev, out=ws.view("base", dev.shape))
        base /= d_g2  # 0 off the connected pairs
        on = np.logical_not(off, out=off)
        for _, bad in filter(None, dws):
            singular = int(np.count_nonzero(np.logical_and(bad, on, out=bad)))
            count += singular // 2 if diag else singular
    np.abs(dev, out=dev)
    part = float(dev.sum())
    return part / 2.0 if diag else part, base, count


def _batch_cells(target, dev, rows, cols, cells, dws, ws):
    """A block of a pair list, with ``dev`` holding its squared distances,
    ``cells`` = (the flat cells of its pairs, their d_G^2) and ``dws`` as for
    :func:`_connected_tile`: (its loss, its weight tile or None, its singular
    pairs)."""
    at, d_g2 = cells
    pair_dev = dev.ravel()[at]
    pair_dev /= d_g2
    pair_dev -= 1.0
    base, count = None, 0
    if dws is not None:
        base = ws.view("base", dev.shape)
        base.fill(0.0)
        base.ravel()[at] = np.sign(pair_dev) / d_g2
        count = sum(int(np.count_nonzero(bad.ravel()[at])) for _, bad in filter(None, dws))
    return float(np.abs(pair_dev).sum()), base, count


def _tile_gradient(spec, blocks, ambient, dws, base, rows, cols, diag, ws) -> None:
    """Adds one tile's or block's terms to every factor's ambient derivatives
    (see :func:`_pair_pass`)."""
    for f, x, amb, dw in zip(spec.factors, blocks, ambient, dws):
        lam2 = f.lam**2
        weight = base if lam2 == 1.0 else np.multiply(base, lam2, out=ws.view("weight", base.shape))
        if dw is None:  # flat: d/dx_i of |x_i - x_j|^2 is 2 (x_i - x_j)
            amb[rows] += 2.0 * (weight.sum(axis=1)[:, None] * x[rows] - weight @ x[cols])
            if not diag:
                amb[cols] += 2.0 * (weight.sum(axis=0)[:, None] * x[cols] - weight.T @ x[rows])
            continue
        tile = np.multiply(dw[0], weight, out=dw[0])
        amb[rows] += tile @ x[cols]
        if not diag:
            amb[cols] += tile.T @ x[rows]


def loss_distance(emb: Embedding, target: DistanceTarget, pairs: np.ndarray) -> float:
    """Relative squared-distance distortion summed over the given pairs."""
    return _pair_pass(emb, target, pairs, grad=False)[0]


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
    current state, and the losses there: distance over ``pairs``, curvature
    over all nodes.

    One walk over the pairs (:func:`_pair_pass`): the upper-triangle tiles
    for ``target.pairs``, else the blocks of the list's anchor rows. The
    weights give each factor's ambient coordinate derivatives, which are
    mapped through the inverse metric + tangent projection. Pairs whose
    space-form distance derivative is numerically singular (coincident
    points, antipodal sphere points) are dropped and counted.
    """
    loss_d, skipped, ambient = _pair_pass(emb, target, pairs, grad=True)

    loss_c = 0.0
    if cfg.tau > 0:
        res, weights, rot = _curvature_residuals(emb, f_signal, cfg)
        loss_c = float((res**2 / weights).sum())  # loss_curvature's expression
        r = emb.radii()
        d_lc = -2.0 * res * rotsym_curvature_derivative(rot.alpha, r) / weights
        ambient[emb.spec.rotsym_index][:, 0] += cfg.tau * d_lc

    grads = riemannian_gradient(emb.spec, emb.blocks, ambient)
    return GradientResult(blocks=grads, skipped_pairs=skipped, loss_distance=loss_d,
                          loss_curvature=loss_c)


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

    n_pairs = all_pairs.shape[0]
    batch_size = _resolve_batch(cfg.batch_pairs, n_pairs, g.n)
    # a minibatch is every connected pair with an end among k random anchor
    # nodes, k the batch size over n - 1 rounded up; the draws take only the
    # c nodes that have a pair. k < c, since the batch is below P <= c(c - 1) / 2
    candidates = np.flatnonzero(target.connected.any(axis=1))
    n_anchors = -(-batch_size // (g.n - 1))
    minibatch = batch_size < n_pairs
    batch_rng = np.random.default_rng((cfg.seed, 0xBA7C4))
    # piecewise-constant decay; the late x0.01 tail damps the oscillation of
    # the nonsmooth distance loss around its optimum
    decay1 = int(math.floor(0.8 * cfg.epochs))
    decay2 = int(math.floor(0.9 * cfg.epochs))

    def draw_batch() -> np.ndarray:
        if not minibatch:
            return all_pairs
        return target.anchor_pairs(np.sort(batch_rng.choice(candidates, size=n_anchors,
                                                            replace=False)))

    # the losses after each step are read from the next epoch's gradient,
    # taken right after the step on the next batch; a minibatch's distance
    # loss is scaled to all pairs, except on every _FULL_LOSS_EVERY-th epoch,
    # which takes it over all pairs. The last epoch has no next gradient.
    history = TrainHistory()
    t0 = time.perf_counter()
    ahead = gradients(emb, target, f_signal, cfg_run, draw_batch())
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (0.01 if epoch >= decay2 else 0.1 if epoch >= decay1 else 1.0)
        grad, ahead, l_d, l_c = ahead, None, None, None
        try:  # rsgd_step raises TangencyError for a step too long for the tangent space
            emb = rsgd_step(emb, grad, lr)
            if epoch + 1 < cfg.epochs:
                batch = draw_batch()
                ahead = gradients(emb, target, f_signal, cfg_run, batch)
                l_d, l_c = ahead.loss_distance, ahead.loss_curvature
                if minibatch and (epoch + 1) % _FULL_LOSS_EVERY:
                    l_d = l_d * n_pairs / batch.shape[0]
                elif minibatch:
                    l_d = loss_distance(emb, target, all_pairs)
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

