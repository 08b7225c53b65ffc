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
    alpha_from_range,
    exp_map,
    pairwise_sq_distance_grad,
    pairwise_sq_distances,
    resolve_spec,
    riemannian_gradient,
    rotsym_curvature,
    rotsym_curvature_derivative,
    rotsym_curvature_inverse,
    sample_tangent_ball,
)

# default pair-batch size for graphs too large for full-batch steps
_BIG_GRAPH_BATCH = 200_000


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


@dataclass(frozen=True, eq=False)
class DistanceTarget:
    """The graph distances one :func:`train` call fits, built once from the hop
    matrix: (n, n) d_G^2 (1 off the connected pairs), the mask of connected
    pairs and those pairs in :func:`connected_pairs` order."""

    d_g2: np.ndarray
    connected: np.ndarray
    pairs: np.ndarray

    @classmethod
    def from_hops(cls, dist: np.ndarray) -> "DistanceTarget":
        connected = dist > 0
        d_g2 = np.where(connected, np.square(dist, dtype=np.float64), 1.0)
        return cls(d_g2=d_g2, connected=connected, pairs=connected_pairs(dist))

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


def _deviation(sq: np.ndarray, target: DistanceTarget) -> np.ndarray:
    """d_M^2 / d_G^2 - 1 from the (n, n) d_M^2, in its memory: 0 off the connected pairs."""
    sq /= target.d_g2
    sq[~target.connected] = 1.0
    return np.subtract(sq, 1.0, out=sq)


def loss_distance(emb: Embedding, target: DistanceTarget, pairs: np.ndarray) -> float:
    """Relative squared-distance distortion summed over the given pairs."""
    mask = target.mask(pairs)
    dev = _deviation(pairwise_sq_distances(emb.spec, emb.blocks), target)
    np.abs(dev, out=dev)
    if mask is not target.connected:
        dev *= mask
    return float(dev.sum()) / 2.0  # each pair sits twice in (n, n)


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

    One all-pairs pass: the (n, n) weight matrix of every connected pair, times
    the 0/1 mask of ``pairs`` unless they are ``target.pairs``, gives each
    factor's ambient coordinate derivatives by one matmul; those are mapped
    through the inverse metric + tangent projection. Pairs whose space-form
    distance derivative is numerically singular (coincident points, antipodal
    sphere points) are dropped, and those inside ``pairs`` are counted.
    """
    mask = target.mask(pairs)
    sq, dws = pairwise_sq_distances(emb.spec, emb.blocks, return_dw=True)
    dev = _deviation(sq, target)
    base = np.sign(dev)
    base /= target.d_g2  # 0 off the connected pairs
    if mask is not target.connected:
        base *= mask
    loss_d = float(np.abs(dev, out=dev).sum()) / 2.0  # each pair sits twice in (n, n)
    del sq, dev
    skipped, ambient = 0, []
    for f, x in zip(emb.spec.factors, emb.blocks):
        # pop: each factor's (n, n) d(sq)/dw is freed once its matmul is done
        amb, singular = pairwise_sq_distance_grad(f, x, f.lam**2 * base, dws.pop(0), mask)
        skipped += singular
        ambient.append(amb)

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

