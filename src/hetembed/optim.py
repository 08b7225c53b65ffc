"""Loss functions, analytic Riemannian gradients, and the RSGD training loop."""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .graph import Graph, bfs_apsp, connected_pairs, forman
from .manifold import (
    ManifoldSpec,
    TangencyError,
    _TileKernel,
    _Workspace,
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


def _is_int(value) -> bool:
    """An int that is not a bool, which subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        if not (_is_int(self.epochs) and self.epochs >= 1):
            raise ValueError("epochs must be an integer >= 1")
        if not _is_int(self.seed):
            raise ValueError("seed must be an integer")
        if not (_is_int(self.batch_pairs) and self.batch_pairs > 0) and self.batch_pairs not in ("all", "auto"):
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
    matrix: the (n, n) hop matrix itself, whose positive cells are the connected
    pairs and whose squares each tile reads as d_G^2, those pairs in
    :func:`connected_pairs` order, and the tile buffers of the passes over them."""

    hops: np.ndarray
    pairs: np.ndarray
    workspace: _Workspace = field(repr=False)

    @classmethod
    def from_hops(cls, dist: np.ndarray) -> "DistanceTarget":
        return cls(hops=dist, pairs=connected_pairs(dist), workspace=_Workspace(dist.shape[0]))

    def anchor_pairs(self, anchors: np.ndarray) -> np.ndarray:
        """The minibatch of the sorted node array ``anchors``: every connected
        pair with an end among them, as a (B, 2) array with an anchor first, in
        row-major order. A pair with both ends among them is listed once, from
        its smaller end."""
        rows = self.hops[anchors] > 0
        rows[:, anchors] = np.triu(rows[:, anchors], 1)
        at, cols = np.nonzero(rows)
        return np.column_stack([anchors[at], cols])


def _batch_blocks(target: DistanceTarget, pairs):
    """The blocks that walk a (B, 2) pair list other than ``target.pairs``.

    The distinct first entries are the anchor rows; the list is scattered
    once into an (anchors, n) bool that is False on its pairs. Yields each
    block of at most ``side`` anchor rows by one column tile that holds a
    pair as (anchor rows, column slice, shape, its slice of that bool).
    Raises ValueError for a non-integer list, an index outside 0..n-1, or a
    self, unreachable, repeated or mirrored pair."""
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or not np.issubdtype(pairs.dtype, np.integer):
        raise ValueError("pairs must be a (B, 2) integer array of node indices")
    ws, n = target.workspace, target.hops.shape[0]
    if pairs.min(initial=0) < 0 or pairs.max(initial=0) >= n:
        raise ValueError(f"pairs must hold node indices in 0..{n - 1}")
    first, second = pairs.astype(np.int64, copy=False).T
    if target.hops[first, second].min(initial=1) < 1:
        raise ValueError("pairs must be distinct and graph-connected")
    key = np.minimum(first, second) * n + np.maximum(first, second)
    key.sort()
    if (key[1:] == key[:-1]).any():
        raise ValueError("pairs must not repeat or mirror a pair")
    anchors = np.flatnonzero(np.bincount(first, minlength=n))
    off = np.ones((anchors.size, n), dtype=bool)
    off[np.searchsorted(anchors, first), second] = False
    for top in range(0, anchors.size, ws.side):
        for cols in ws.tiles:
            block = off[top:top + ws.side, cols]
            if not block.all():
                yield anchors[top:top + ws.side], cols, block.shape, block


def _pair_pass(emb: Embedding, target: DistanceTarget, pairs, grad: bool):
    """One walk over the pairs of ``pairs``, in the target's buffers.

    ``target.pairs`` itself walks the upper-triangle tiles (rows I <= columns
    J) of the pair matrix, each masked where its hop distance is below 1;
    any other list walks the blocks of its anchor rows (:func:`_batch_blocks`).
    Per tile or block: the squared product distances (:class:`_TileKernel`),
    and the deviations d_M^2 / d_G^2 - 1 of its pairs, whose absolute values
    sum to the loss (a diagonal tile holds each pair twice). With ``grad`` the
    weights sign(dev) / d_G^2 of those pairs give each factor's ambient
    derivatives (:meth:`_TileKernel.add_gradient`). Quadric pairs at the
    branch point (coincident, or antipodal on the sphere) have a 0/0
    derivative and contribute 0; they are counted. Returns (loss, skipped
    pairs, ambient derivatives).
    """
    ws = target.workspace
    if pairs is target.pairs:
        walk = ((rows, cols, shape, np.less(target.hops[rows, cols], 1,
                                            out=ws.view("off", shape, bool)))
                for rows, cols, shape in ws.upper())
    else:
        walk = _batch_blocks(target, pairs)
    kernel = _TileKernel(emb.spec, emb.blocks, ws)
    # -0.0 is the additive identity: a row block's first tile keeps its bits
    ambient = [np.full_like(x, -0.0) for x in emb.blocks] if grad else None
    loss, skipped = 0.0, 0
    for rows, cols, shape, off in walk:
        diag = rows is cols  # an upper walk's diagonal tile has one slice for both
        dev = kernel.sq(rows, cols, shape, grad)
        d_g2 = np.square(target.hops[rows, cols], dtype=np.float64, out=ws.view("d_g2", shape))
        d_g2[off] = 1.0
        dev /= d_g2
        dev[off] = 1.0
        dev -= 1.0
        if grad:
            weight = np.sign(dev, out=ws.view("base", shape))
            weight /= d_g2  # 0 off the pairs
            count = kernel.singular(np.logical_not(off, out=off))
            skipped += count // 2 if diag else count
            kernel.add_gradient(ambient, weight, rows, cols, diag)
        part = float(np.abs(dev, out=dev).sum())
        loss += part / 2.0 if diag else part
    return loss, skipped, ambient


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


def rsgd_step(emb: Embedding, grads: GradientResult, lr: float) -> Embedding:
    """Descent step: exponential map of -lr * grad on every factor.

    The radial factor's exponential map already applies the positive part, so
    r <- max(r - lr * dL/dr, 0).
    """
    stepped = exp_map(emb.spec, emb.blocks, [-lr * gb for gb in grads.blocks])
    return replace(emb, blocks=stepped)


def _start(g: Graph, spec: ManifoldSpec, cfg: TrainConfig):
    """The run's initial embedding and the Forman signal it fits (None when no
    curvature data is read). The embedding carries the resolved spec, the
    shift constants (set exactly when the spec has a radial factor and tau >
    0) and the digest of ``cfg`` as given."""
    rot, f_signal, shift = spec.rotsym_factor, None, None
    radial_init = (0.1, 1.0) if cfg.radial_init == "auto" else cfg.radial_init
    if rot is not None:
        if cfg.tau > 0 or rot.alpha is None:
            f_signal = forman(g, cfg.gamma)
            fitted_alpha, delta_hat = alpha_from_range(
                f_signal.max_node, f_signal.min_node, cfg.delta, cfg.ell_plus
            )
        spec = resolve_spec(spec, alpha=fitted_alpha if rot.alpha is None else rot.alpha,
                            rot_scale=cfg.lambda_rot)
        if cfg.tau > 0:
            shift = ShiftConstants(min_forman=f_signal.min_node, delta_hat=delta_hat,
                                   lam=spec.rotsym_factor.lam, r_h=spec.homogeneous_curvature)
        if shift is not None and cfg.radial_init == "auto":
            # the paper's curvature formula pins where each target lives; start
            # the radii inside that band, both ends clamped at R_a(0), to dodge
            # the flat tail and the origin
            alpha = spec.rotsym_factor.alpha
            targets = (delta_hat, f_signal.max_node - f_signal.min_node + delta_hat)
            if delta_hat <= 8.0 / (math.pi**2 * alpha**2):
                raise ValueError(f"radial_init auto: curvature targets {targets[0]:g}..{targets[1]:g}"
                                 f" reach the asymptote of the fixed alpha {alpha:g}")
            top = rotsym_curvature(alpha, 0.0)
            lo, hi = (rotsym_curvature_inverse(alpha, min(t, top)) for t in reversed(targets))
            radial_init = (lo, hi if hi - lo >= 1e-9 else lo + max(alpha * 0.1, 1e-3))
    emb = initialize(spec, g, replace(cfg, radial_init=radial_init))
    emb.config_digest = cfg.digest()  # digest the config as given, not resolved
    emb.shift_constants = shift
    return emb, f_signal


def _batches(target: DistanceTarget, g: Graph, cfg: TrainConfig):
    """Each epoch's batch, without end: ``target.pairs`` itself for the full
    batch, else a minibatch, every connected pair with an end among k random
    anchor nodes (:meth:`DistanceTarget.anchor_pairs`). k is the batch size
    over n - 1 rounded up, drawn from the c nodes with an edge (those with a
    pair); k < c, since the batch is below P <= c(c - 1) / 2."""
    n_pairs = target.pairs.shape[0]
    auto = n_pairs if g.n <= 2000 else _BIG_GRAPH_BATCH
    size = {"all": n_pairs, "auto": auto}.get(cfg.batch_pairs, cfg.batch_pairs)
    candidates, k = np.flatnonzero(g.degrees), -(-size // (g.n - 1))
    rng = np.random.default_rng((cfg.seed, 0xBA7C4))
    while True:
        yield target.pairs if size >= n_pairs else target.anchor_pairs(
            np.sort(rng.choice(candidates, size=k, replace=False)))


def train(g: Graph, spec: ManifoldSpec, cfg: TrainConfig) -> tuple[Embedding, TrainHistory]:
    """Embed a graph by Riemannian SGD on the distance + curvature loss.

    With an unresolved (auto) alpha, the radial profile is fitted to the
    graph's Forman range once, before the first epoch. Connected node pairs
    only; deterministic for a fixed seed. A homogeneous spec trains exactly
    like the tau = 0 special case and never touches curvature data.
    """
    cfg.validate()
    target = DistanceTarget.from_hops(bfs_apsp(g))
    n_pairs = target.pairs.shape[0]
    if n_pairs == 0:
        raise ValueError("graph has no connected node pairs")
    emb, f_signal = _start(g, spec, cfg)
    cfg_run = replace(cfg, tau=cfg.tau if emb.shift_constants else 0.0)
    batches = _batches(target, g, cfg)
    # piecewise-constant decay; the late x0.01 tail damps the oscillation of
    # the nonsmooth distance loss around its optimum
    decay1 = int(math.floor(0.8 * cfg.epochs))
    decay2 = int(math.floor(0.9 * cfg.epochs))

    def logged(emb: Embedding, index: int):
        """The gradient at the index-th point, on the next batch, and the losses
        logged there, read from its pass: a minibatch's distance loss is scaled
        to all pairs, except at every _FULL_LOSS_EVERY-th point, which takes it
        over all pairs. The last point has no gradient; both losses are taken
        there on their own, the distance loss over all pairs."""
        if index == cfg.epochs:
            l_d = loss_distance(emb, target, target.pairs)
            return None, l_d, loss_curvature(emb, f_signal, cfg_run) if cfg_run.tau > 0 else 0.0
        batch = next(batches)
        grad = gradients(emb, target, f_signal, cfg_run, batch)
        if batch is target.pairs:
            return grad, grad.loss_distance, grad.loss_curvature
        if index % _FULL_LOSS_EVERY:
            return grad, grad.loss_distance * n_pairs / batch.shape[0], grad.loss_curvature
        return grad, loss_distance(emb, target, target.pairs), grad.loss_curvature

    # the losses after each step are read from the next epoch's gradient,
    # taken right after the step on the next batch
    history = TrainHistory()
    t0 = time.perf_counter()
    ahead, l_d, l_c = logged(emb, 0)
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (0.01 if epoch >= decay2 else 0.1 if epoch >= decay1 else 1.0)
        grad = ahead
        # rsgd_step raises TangencyError for a step too long for the tangent
        # space; l_d and l_c then still hold the losses where the step started
        try:
            emb = rsgd_step(emb, grad, lr)
            ahead, l_d, l_c = logged(emb, epoch + 1)
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
