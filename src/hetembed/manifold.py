"""Embedding-space geometry: space forms, the radial factor, and their product.

Points live on a product of factors. Each factor owns a coordinate block:
Euclidean dim d -> d reals; sphere / hyperboloid dim d -> d+1 ambient reals on
the constraint surface; the rotationally symmetric factor -> one radial
coordinate (angles never enter distances or curvature and are not stored).
The hyperboloid uses the Minkowski form with the time coordinate LAST:
<x,y> = sum_i x_i y_i - x_last y_last, constraint <x,x> = -1, x_last > 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

# below this r/alpha the 0/0 forms switch to series expansions
_SERIES_U = 1e-3
_SPACE_FORMS = ("euclidean", "sphere", "hyperbolic")
_KIND_CODE = {"euclidean": "e", "sphere": "s", "hyperbolic": "h"}


class ShapeError(ValueError):
    """Point/tangent layout does not match the manifold spec."""


class TangencyError(ValueError):
    """A supposed tangent vector violates the tangency constraint."""


@dataclass(frozen=True)
class Factor:
    """One factor of the product: a space form or the radial factor.

    ``scale`` is the metric weight lambda (metric lambda^2 * g); ``None`` means
    "not pinned yet" and is treated as 1 until resolved by the training config.
    ``alpha`` is the radial-factor shape parameter; ``None`` means "auto",
    resolved from the graph's curvature range when training starts.
    """

    kind: str
    dim: int = 0
    alpha: float | None = None
    scale: float | None = None

    def __post_init__(self):
        if self.kind in _SPACE_FORMS:
            if self.dim < 1:
                raise ValueError(f"{self.kind} factor needs dim >= 1")
        elif self.kind == "rotsym":
            if self.alpha is not None and self.alpha <= 0:
                raise ValueError("alpha must be positive")
        else:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.scale is not None and self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def block_dim(self) -> int:
        if self.kind == "euclidean":
            return self.dim
        if self.kind == "rotsym":
            return 1
        return self.dim + 1

    @property
    def lam(self) -> float:
        return 1.0 if self.scale is None else self.scale

    def to_string(self) -> str:
        params = []
        if self.kind == "rotsym":
            params.append("a=auto" if self.alpha is None else f"a={self.alpha!r}")
            if self.scale is not None:
                params.append(f"l={self.scale!r}")
            return f"rot({','.join(params)})"
        atom = f"{_KIND_CODE[self.kind]}{self.dim}"
        if self.scale is not None:
            atom += f"(l={self.scale!r})"
        return atom


@dataclass(frozen=True)
class ManifoldSpec:
    """Ordered product of factors; at most one rotationally symmetric factor."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one factor")
        if sum(1 for f in self.factors if f.kind == "rotsym") > 1:
            raise ValueError("at most one rotsym factor is supported")

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(f.block_dim for f in self.factors)

    @property
    def rotsym_index(self) -> int | None:
        for i, f in enumerate(self.factors):
            if f.kind == "rotsym":
                return i
        return None

    @property
    def rotsym_factor(self) -> Factor | None:
        i = self.rotsym_index
        return None if i is None else self.factors[i]

    @property
    def homogeneous_curvature(self) -> float:
        """Scalar curvature contributed by the space-form factors (R_h)."""
        r_h = 0.0
        for f in self.factors:
            if f.kind == "sphere":
                r_h += f.dim * (f.dim - 1) / f.lam**2
            elif f.kind == "hyperbolic":
                r_h -= f.dim * (f.dim - 1) / f.lam**2
        return r_h

    def to_string(self) -> str:
        return ",".join(f.to_string() for f in self.factors)

    def base_point(self) -> list[np.ndarray]:
        """A canonical point: origin / last-coordinate pole / r = 0."""
        blocks = []
        for f in self.factors:
            b = np.zeros(f.block_dim)
            if f.kind in ("sphere", "hyperbolic"):
                b[-1] = 1.0
            blocks.append(b)
        return blocks


def _split_atoms(text: str) -> list[str]:
    atoms, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            atoms.append("".join(cur))
            cur = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur.append(ch)
    atoms.append("".join(cur))
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in manifold spec {text!r}")
    return [a.strip() for a in atoms if a.strip()]


def _parse_params(body: str, atom: str) -> dict[str, str]:
    params: dict[str, str] = {}
    if not body:
        return params
    for piece in body.split(","):
        if "=" not in piece:
            raise ValueError(f"bad parameter {piece!r} in factor {atom!r}")
        key, val = piece.split("=", 1)
        params[key.strip()] = val.strip()
    return params


def parse_manifold(text: str) -> ManifoldSpec:
    """Parse the textual encoding, e.g. ``"h5,h5,rot(a=auto,l=0.5)"``."""
    factors = []
    for atom in _split_atoms(text):
        m = re.fullmatch(r"(rot|[esh]\d+)\s*(?:\((.*)\))?", atom)
        if not m:
            raise ValueError(f"cannot parse factor atom {atom!r}")
        head, body = m.group(1), m.group(2) or ""
        params = _parse_params(body, atom)
        scale = float(params.pop("l")) if "l" in params else None
        if head == "rot":
            alpha_s = params.pop("a", "auto")
            alpha = None if alpha_s == "auto" else float(alpha_s)
            factor = Factor("rotsym", alpha=alpha, scale=scale)
        else:
            kind = {"e": "euclidean", "s": "sphere", "h": "hyperbolic"}[head[0]]
            factor = Factor(kind, dim=int(head[1:]), scale=scale)
        if params:
            raise ValueError(f"unknown parameters {sorted(params)} in factor {atom!r}")
        factors.append(factor)
    return ManifoldSpec(tuple(factors))


def resolve_spec(spec: ManifoldSpec, alpha: float | None = None,
                 rot_scale: float | None = None) -> ManifoldSpec:
    """Pin unresolved alpha / rotsym scale to concrete values."""
    factors = []
    for f in spec.factors:
        if f.kind == "rotsym":
            f = replace(
                f,
                alpha=f.alpha if f.alpha is not None else alpha,
                scale=f.scale if f.scale is not None else (rot_scale if rot_scale is not None else 1.0),
            )
        factors.append(f)
    return ManifoldSpec(tuple(factors))


# ---------------------------------------------------------------------------
# rotationally symmetric factor: phi_a(r) = a * arctan(r / a)

def _u_over_arctan(u: np.ndarray) -> np.ndarray:
    """u / arctan(u) with the removable singularity at 0 filled in."""
    small = np.abs(u) < _SERIES_U
    safe = np.where(small, 1.0, u)
    out = safe / np.arctan(safe)
    u2 = u * u
    series = 1.0 + u2 / 3.0 - 4.0 * u2 * u2 / 45.0
    return np.where(small, series, out)


def rotsym_curvature(alpha: float, r):
    """Scalar curvature R_a(r) = 2(-2 phi''/phi + (1 - phi'^2)/phi^2).

    Strictly decreasing from 12/a^2 at r = 0 to the asymptote 8/(pi^2 a^2).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    u = np.asarray(r, dtype=float) / alpha
    t = _u_over_arctan(u)
    u2 = u * u
    val = (2.0 / (alpha * alpha * (1.0 + u2) ** 2)) * (4.0 * t + (2.0 + u2) * t * t)
    return val if val.ndim else float(val)


def rotsym_curvature_derivative(alpha: float, r):
    """Closed-form dR_a/dr; nonpositive everywhere, 0 at r = 0."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    u = np.asarray(r, dtype=float) / alpha
    u2 = u * u
    small = np.abs(u) < _SERIES_U
    safe = np.where(small, 1.0, u)
    at = np.arctan(safe)
    phi = alpha * at
    phi1 = 1.0 / (1.0 + u2)
    phi3 = -(2.0 / (alpha * alpha)) * (1.0 - 3.0 * u2) / (1.0 + u2) ** 3
    one_minus = u2 * (2.0 + u2) / (1.0 + u2) ** 2
    direct = -4.0 * (phi * phi * phi3 + phi1 * one_minus) / phi**3
    # leading behavior -100/(3 a^3) * u near the origin (even extension)
    series = -(100.0 / (3.0 * alpha**3)) * u * (1.0 - 976.0 / 375.0 * u2)
    val = np.where(small, series, direct)
    return val if val.ndim else float(val)


def rotsym_sectional(alpha: float, r) -> tuple:
    """Sectional curvatures (K, L) of planes perpendicular / tangential to orbits.

    Both are nonnegative for the concave profile and satisfy R = 2(2K + L).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    u = np.asarray(r, dtype=float) / alpha
    t = _u_over_arctan(u)
    u2 = u * u
    k = (2.0 / (alpha * alpha)) * t / (1.0 + u2) ** 2
    el = ((2.0 + u2) / (alpha * alpha)) * t * t / (1.0 + u2) ** 2
    if k.ndim:
        return k, el
    return float(k), float(el)


def rotsym_curvature_inverse(alpha: float, value: float, tol: float = 1e-12) -> float:
    """Radius r with R_a(r) = value, by bisection on the monotone profile."""
    top = 12.0 / alpha**2
    bottom = 8.0 / (math.pi**2 * alpha**2)
    if value > top + 1e-12 or value <= bottom:
        raise ValueError(f"curvature {value} outside attainable range ({bottom}, {top}]")
    if value >= top:
        return 0.0
    hi = alpha
    while rotsym_curvature(alpha, hi) > value:
        hi *= 2.0
        if hi > 1e14:
            raise ValueError("bisection bound exceeded")
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if rotsym_curvature(alpha, mid) > value:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def alpha_from_range(max_f: float, min_f: float, delta: float, ell_plus: float) -> tuple[float, float]:
    """Pick alpha and the shift margin from the graph's curvature range.

    alpha is chosen so R_a(0) = (max_f - min_f) + delta + ell_plus; the shift
    delta_hat keeps the minimum-curvature anchor strictly above the horizontal
    asymptote 8/(pi^2 a^2).
    """
    if delta <= 0 or ell_plus <= 0:
        raise ValueError("delta and ell_plus must be positive")
    span = max_f - min_f
    if span < 0:
        raise ValueError("max_f must be >= min_f")
    total = span + delta + ell_plus
    alpha = math.sqrt(12.0 / total)
    delta_hat = 2.0 / (3.0 * math.pi**2 - 2.0) * (span + ell_plus) + delta
    assert delta_hat > 8.0 / (math.pi**2 * alpha**2)
    return alpha, delta_hat


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                      tol: float, max_depth: int = 30) -> float:
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def rec(x0, x2, f0, f1, f2, whole, tol, depth):
        x1 = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return rec(x0, x1, f0, flm, f1, left, 0.5 * tol, depth - 1) + rec(
            x1, x2, f1, frm, f2, right, 0.5 * tol, depth - 1
        )

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return rec(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, max_depth)


def annular_volume(alpha: float, hyperbolic_dim: int, center_r: float, rho: float,
                   tol: float = 1e-8) -> float:
    """Volume of the annular region of radius rho around a point with radial
    coordinate ``center_r`` in H^3 x R.

    Outer integral by adaptive Simpson at absolute tolerance ``tol``; the
    hyperbolic ball volume reduces to the closed form (sinh(2a)/2 - a)/2.
    """
    if hyperbolic_dim != 3:
        raise ValueError("volume formula is only available for a 3-dimensional hyperbolic factor")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if center_r < 0:
        raise ValueError("center_r must be nonnegative")
    omega2 = 4.0 * math.pi

    def integrand(r: float) -> float:
        t2 = rho * rho - (r - center_r) ** 2
        if t2 <= 0.0:
            return 0.0
        a = math.sqrt(t2)
        inner = (math.sinh(2.0 * a) / 2.0 - a) / 2.0
        phi = alpha * math.atan(r / alpha)
        return inner * phi * phi

    lo = max(center_r - rho, 0.0)
    hi = center_r + rho
    # large balls exceed double precision at a fixed 1e-8, so the tolerance is
    # absolute for O(1) volumes and relative beyond that
    coarse = abs(_adaptive_simpson(integrand, lo, hi, tol=1.0, max_depth=6))
    return omega2 * omega2 * _adaptive_simpson(integrand, lo, hi, tol * max(1.0, coarse))


# ---------------------------------------------------------------------------
# per-factor primitives; points are rows of shape (..., block_dim)

def _mink_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x[..., :-1] * y[..., :-1]).sum(axis=-1) - x[..., -1] * y[..., -1]


def _check_blocks(spec: ManifoldSpec, blocks: Sequence[np.ndarray], what: str) -> list[np.ndarray]:
    if len(blocks) != len(spec.factors):
        raise ShapeError(f"{what}: expected {len(spec.factors)} blocks, got {len(blocks)}")
    out = []
    for f, b in zip(spec.factors, blocks):
        b = np.asarray(b, dtype=float)
        if b.shape[-1] != f.block_dim:
            raise ShapeError(f"{what}: factor {f.to_string()} expects block dim {f.block_dim}, got {b.shape[-1]}")
        out.append(b)
    return out


def check_point(spec: ManifoldSpec, blocks: Sequence[np.ndarray], atol: float = 1e-7) -> None:
    """Validate finite coordinates and constraint-surface membership of every block."""
    blocks = _check_blocks(spec, blocks, "point")
    for f, b in zip(spec.factors, blocks):
        # every comparison below is false for NaN, so it would pass them
        if not np.isfinite(b).all():
            raise ValueError(f"factor {f.to_string()} has non-finite coordinates")
        if f.kind == "sphere":
            err = np.abs((b * b).sum(axis=-1) - 1.0).max()
            if err > atol:
                raise ValueError(f"sphere block off the unit sphere by {err:.3g}")
        elif f.kind == "hyperbolic":
            # measuring <x,x>+1 is conditioned by |x|^2, so scale the tolerance
            scale = np.maximum((b * b).sum(axis=-1), 1.0)
            err = (np.abs(_mink_inner(b, b) + 1.0) / scale).max()
            if err > atol or (b[..., -1] <= 0).any():
                raise ValueError("hyperboloid block violates <x,x> = -1, x_last > 0")
        elif f.kind == "rotsym":
            if (b < 0).any():
                raise ValueError("radial coordinate must be nonnegative")


def factor_exp(factor: Factor, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exponential map on a single factor, with re-projection for the quadrics."""
    if factor.kind == "euclidean":
        return p + v
    if factor.kind == "rotsym":
        return np.maximum(p + v, 0.0)
    if factor.kind == "sphere":
        nv = np.linalg.norm(v, axis=-1, keepdims=True)
        small = nv < 1e-300
        nv_safe = np.where(small, 1.0, nv)
        out = np.cos(nv) * p + np.sin(nv) * np.where(small, 0.0, v / nv_safe)
        return out / np.linalg.norm(out, axis=-1, keepdims=True)
    nv2 = np.maximum(_mink_inner(v, v), 0.0)[..., None]
    nv = np.sqrt(nv2)
    small = nv < 1e-300
    nv_safe = np.where(small, 1.0, nv)
    out = np.cosh(nv) * p + np.sinh(nv) * np.where(small, 0.0, v / nv_safe)
    # re-project by recomputing the time coordinate; unlike a quadratic-form
    # rescale this stays exact to ulp even for far points (coords ~ e^d)
    out[..., -1] = np.sqrt(1.0 + (out[..., :-1] ** 2).sum(axis=-1))
    return out


def sample_tangent_ball(factor: Factor, n: int, radius: float,
                        rng: np.random.Generator) -> np.ndarray:
    """n points of a space-form factor: tangent vectors uniform in the ball of
    ``radius`` at the base point, pushed through exp. The base point is the
    origin, or the pole (0,..,0,1) of a quadric, where tangents have last
    coordinate 0."""
    d = factor.dim
    direction = rng.standard_normal((n, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = radius * rng.random(n) ** (1.0 / d)
    tangent = direction * radii[:, None]
    if factor.kind == "euclidean":
        return tangent
    pole = np.zeros((n, d + 1))
    pole[:, -1] = 1.0
    return factor_exp(factor, pole, np.concatenate([tangent, np.zeros((n, 1))], axis=1))


def factor_tangency_error(factor: Factor, p: np.ndarray, v: np.ndarray) -> float:
    if factor.kind in ("euclidean", "rotsym"):
        return 0.0
    return float(np.abs(_quadric_inner(factor, p, v)).max())


def factor_rgrad(factor: Factor, p: np.ndarray, ambient: np.ndarray) -> np.ndarray:
    """Riemannian gradient of a single factor from raw coordinate derivatives.

    Inverse-metric rescale (Minkowski flip for the hyperboloid, 1/lambda^2 for
    the factor weight) followed by tangent projection.
    """
    lam2 = factor.lam**2
    if factor.kind in ("euclidean", "rotsym"):
        return ambient / lam2
    if factor.kind == "sphere":
        return (ambient - (ambient * p).sum(axis=-1, keepdims=True) * p) / lam2
    h = ambient.copy()
    h[..., -1] = -h[..., -1]
    return (h + _mink_inner(h, p)[..., None] * p) / lam2


# ---------------------------------------------------------------------------
# squared-distance kernel, shared by distance, loss, gradients and all pairs

# treat quadric inner products this close to the branch point as coincident
_COINCIDENT_EPS = 1e-14


def _neg_space(x: np.ndarray) -> np.ndarray:
    """Negates x's space coordinates in place: -<x,y>_M = <_neg_space(x), y>."""
    np.negative(x[..., :-1], out=x[..., :-1])
    return x


def _quadric_inner(factor: Factor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """w = <x,y> on the sphere, -<x,y>_M on the hyperboloid, for matching rows:
    the cos or cosh of their distance."""
    return (x * y).sum(axis=-1) if factor.kind == "sphere" else -_mink_inner(x, y)


def _angle_from_inner(factor: Factor, w: np.ndarray) -> np.ndarray:
    """Unit-scale quadric distance from w, clamped onto its domain. Computed in
    w's memory: callers pass a fresh array or a buffer they own."""
    w = np.asarray(w)  # single points give a numpy scalar, which has no out=
    if factor.kind == "sphere":
        return np.arccos(np.clip(w, -1.0, 1.0, out=w), out=w)
    return np.arccosh(np.maximum(w, 1.0, out=w), out=w)


def _quadric_sq_dw(factor: Factor, w: np.ndarray, dsq: np.ndarray, bad: np.ndarray) -> None:
    """Unit-scale squared quadric distance from w, in w's memory, with d(sq)/dw
    into ``dsq`` and the branch-point mask into the bool ``bad`` (both of w's
    shape), all from one arccos or arccosh.
    At the branch point (coincident, or antipodal on the sphere) d(sq)/dw is
    0/0: 0 there. On the regular cells the clamp onto the domain leaves w as it is."""
    sphere = factor.kind == "sphere"
    if sphere:
        np.less_equal(np.abs(w, out=dsq), 1.0 - _COINCIDENT_EPS, out=bad)
    else:
        np.greater_equal(w, 1.0 + _COINCIDENT_EPS, out=bad)
    np.logical_not(bad, out=bad)
    root = np.square(w, out=dsq)
    if sphere:
        np.subtract(1.0, root, out=root)
    else:
        root -= 1.0
    root[bad] = 1.0  # regular stand-in, zeroed below
    np.sqrt(root, out=root)
    theta = _angle_from_inner(factor, w)
    np.divide(theta, root, out=dsq)
    dsq *= -2.0 if sphere else 2.0
    dsq[bad] = 0.0
    np.square(theta, out=theta)


def factor_sq_distance(factor: Factor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unit-scale squared geodesic distance between matching (broadcast) rows."""
    if factor.kind == "euclidean":
        return ((x - y) ** 2).sum(axis=-1)
    if factor.kind == "rotsym":
        return (x[..., 0] - y[..., 0]) ** 2
    theta = _angle_from_inner(factor, _quadric_inner(factor, x, y))
    return np.square(theta, out=theta)


class _Buffers:
    """Flat arrays by name, each allocated at its first use and reused after;
    ``view`` gives a C-contiguous view of one's leading items."""

    def __init__(self, size: int):
        self._size = size
        self._flat: dict = {}

    def view(self, name, shape: tuple[int, int], dtype=np.float64) -> np.ndarray:
        flat = self._flat.get(name)
        if flat is None:
            flat = self._flat[name] = np.empty(self._size, dtype)
        return flat[: shape[0] * shape[1]].reshape(shape)


def _tile_operand(factor: Factor, x: np.ndarray) -> np.ndarray:
    """What :func:`_sq_tile` reads of a factor besides x, built once per pass:
    the squared row norms (Euclidean), x with its space coordinates negated
    (hyperboloid, so the Gram matmul gives w), else x itself."""
    if factor.kind == "euclidean":
        return (x * x).sum(axis=1)
    if factor.kind == "hyperbolic":
        return _neg_space(x.copy())
    return x


def _sq_tile(factor: Factor, x: np.ndarray, op: np.ndarray, rows: slice, cols: slice,
             out: np.ndarray, scratch, dw: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """Unit-scale squared distances between the rows ``rows`` and ``cols`` of x,
    into ``out``; ``op`` is :func:`_tile_operand` of x and ``scratch(name)``
    gives a spare buffer of out's shape by name. With ``dw`` = (dsq, bad) on a
    quadric, also d(sq)/dw and the branch-point mask, by :func:`_quadric_sq_dw`.
    A quadric takes one Gram matmul and one arccos or arccosh."""
    if factor.kind == "euclidean":
        np.matmul(2.0 * x[rows], x[cols].T, out=out)
        sums = np.add(op[rows, None], op[None, cols], out=scratch("sums"))
        np.maximum(np.subtract(sums, out, out=out), 0.0, out=out)
    elif factor.kind == "rotsym":
        np.square(np.subtract(x[rows], x[cols, 0], out=out), out=out)
    else:
        np.matmul(op[rows], x[cols].T, out=out)
        if dw is None:
            np.square(_angle_from_inner(factor, out), out=out)
        else:
            _quadric_sq_dw(factor, out, *dw)


def _product_sq_tile(spec: ManifoldSpec, blocks: Sequence[np.ndarray],
                     ops: Sequence[np.ndarray], rows: slice, cols: slice, out: np.ndarray,
                     scratch, dws: Sequence | None = None) -> np.ndarray:
    """Squared product distances between the rows ``rows`` and ``cols`` of the
    points, into ``out``: each factor's unit-scale tile (the first in out, the
    rest in ``scratch("sq")``) times lambda^2, summed from the first factor's.
    No factor's tile holds -0.0, so the bits are those of a sum that starts
    from 0.0. ``dws`` gives each quadric's (dsq, bad) buffers for :func:`_sq_tile`."""
    for k, (f, x, op) in enumerate(zip(spec.factors, blocks, ops)):
        sq = out if k == 0 else scratch("sq")
        _sq_tile(f, x, op, rows, cols, sq, scratch, None if dws is None else dws[k])
        if f.lam != 1.0:
            sq *= f.lam**2
        if k:
            out += sq
    return out


def distance(spec: ManifoldSpec, p: Sequence[np.ndarray], q: Sequence[np.ndarray]) -> float | np.ndarray:
    """Product distance: sqrt of the lambda^2-weighted sum of squared factor distances."""
    p = _check_blocks(spec, p, "point p")
    q = _check_blocks(spec, q, "point q")
    total = 0.0
    for f, bp, bq in zip(spec.factors, p, q):
        total = total + f.lam**2 * factor_sq_distance(f, bp, bq)
    out = np.sqrt(total)
    return float(out) if np.ndim(out) == 0 else out


def exp_map(spec: ManifoldSpec, p: Sequence[np.ndarray], v: Sequence[np.ndarray],
            tangency_tol: float = 1e-7) -> list[np.ndarray]:
    """Factor-wise exponential map; rejects clearly non-tangent inputs."""
    p = _check_blocks(spec, p, "point")
    v = _check_blocks(spec, v, "tangent")
    out = []
    for f, bp, bv in zip(spec.factors, p, v):
        err = factor_tangency_error(f, bp, bv)
        if err > tangency_tol * (1.0 + float(np.abs(bv).max(initial=0.0))):
            raise TangencyError(f"vector not tangent on factor {f.to_string()} (error {err:.3g})")
        out.append(factor_exp(f, bp, bv))
    return out


def riemannian_gradient(spec: ManifoldSpec, p: Sequence[np.ndarray],
                        ambient: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Map raw coordinate derivatives to the Riemannian gradient, factor by factor."""
    p = _check_blocks(spec, p, "point")
    ambient = _check_blocks(spec, ambient, "gradient")
    return [factor_rgrad(f, bp, bg) for f, bp, bg in zip(spec.factors, p, ambient)]


def scalar_curvature(spec: ManifoldSpec, p: Sequence[np.ndarray]) -> float | np.ndarray:
    """R_h plus the radial factor's R_a(r)/lambda^2 at the point's radius."""
    p = _check_blocks(spec, p, "point")
    total: float | np.ndarray = spec.homogeneous_curvature
    for f, b in zip(spec.factors, p):
        if f.kind == "rotsym":
            if f.alpha is None:
                raise ValueError("rotsym factor alpha is unresolved")
            total = total + rotsym_curvature(f.alpha, b[..., 0]) / f.lam**2
    if np.ndim(total) == 0:
        return float(total)
    return total


def pairwise_sq_distances(spec: ManifoldSpec, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """(n, n) matrix of squared product distances for stacked points: one tile
    over all row pairs, with one (n, n) scratch buffer per name."""
    blocks = _check_blocks(spec, blocks, "points")
    n = blocks[0].shape[0]
    every = slice(0, n)
    ops = [_tile_operand(f, x) for f, x in zip(spec.factors, blocks)]
    scratch = _Buffers(n * n)
    total = _product_sq_tile(spec, blocks, ops, every, every, np.empty((n, n)),
                             lambda name: scratch.view(name, (n, n)))
    np.fill_diagonal(total, 0.0)
    return total
