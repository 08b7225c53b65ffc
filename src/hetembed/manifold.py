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
# the bracket width at which rotsym_curvature_inverse stops, relative beyond 1
_INVERSE_TOL = 1e-12
# the largest |w(p, v)| / (1 + max |v|) exp_map accepts as tangent
_TANGENCY_TOL = 1e-7
# the curvature sign of each factor kind, the one place a kind picks its
# kernel: 0 flat (Euclidean, the radial line), +1 sphere, -1 hyperboloid
_SIGN = {"euclidean": 0, "rotsym": 0, "sphere": 1, "hyperbolic": -1}
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
    ``sign`` is the curvature sign, which picks the factor's kernel.
    """

    kind: str
    dim: int = 0
    alpha: float | None = None
    scale: float | None = None

    def __post_init__(self):
        if self.kind not in _SIGN:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.kind == "rotsym":
            if self.alpha is not None and self.alpha <= 0:
                raise ValueError("alpha must be positive")
        elif self.dim < 1:
            raise ValueError(f"{self.kind} factor needs dim >= 1")
        if self.scale is not None and self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def sign(self) -> int:
        return _SIGN[self.kind]

    @property
    def block_dim(self) -> int:
        """d coordinates, d + 1 ambient ones on a quadric, 1 on the radial line."""
        return 1 if self.kind == "rotsym" else self.dim + abs(self.sign)

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
            r_h += f.sign * f.dim * (f.dim - 1) / f.lam**2
        return r_h

    def to_string(self) -> str:
        return ",".join(f.to_string() for f in self.factors)


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


def rotsym_curvature_inverse(alpha: float, value: float) -> float:
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
    while hi - lo > _INVERSE_TOL * max(1.0, hi):
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
                      tol: float, max_depth: int = 30, min_depth: int = 0) -> float:
    """Adaptive Simpson at absolute tolerance ``tol``. No panel is accepted above
    ``min_depth`` halvings: a narrow peak that every sample of a coarser panel
    misses would pass its error test."""
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def rec(x0, x2, f0, f1, f2, whole, tol, depth):
        x1 = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        settled = max_depth - depth >= min_depth and abs(left + right - whole) <= 15.0 * tol
        if depth <= 0 or settled:
            return left + right + (left + right - whole) / 15.0
        return rec(x0, x1, f0, flm, f1, left, 0.5 * tol, depth - 1) + rec(
            x1, x2, f1, frm, f2, right, 0.5 * tol, depth - 1
        )

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return rec(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, max_depth)


# the fine pass of annular_volume halves every panel at least this often; the
# peak of its integrand narrows to about sqrt(rho) wide near rho = 350
_MIN_DEPTH = 6
# the quadrature tolerance of annular_volume's fine pass
_VOLUME_TOL = 1e-8


def annular_volume(alpha: float, center_r: float, rho: float) -> float:
    """Volume of the annular region of radius rho around a point with radial
    coordinate ``center_r`` in H^3 x R.

    Outer integral by adaptive Simpson at absolute tolerance ``_VOLUME_TOL``, with
    every panel halved at least ``_MIN_DEPTH`` times; the hyperbolic ball
    volume reduces to the closed form (sinh(2a)/2 - a)/2. Raises
    OverflowError when the volume leaves the float range.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if center_r < 0:
        raise ValueError("center_r must be nonnegative")
    omega2 = 4.0 * math.pi
    # the integrand peaks near sinh(2 rho) phi^2 / 4, past the float range from
    # rho ~ 354 while the volume need not be (phi is small for a small alpha).
    # So it is integrated times 2^-shift, the tolerances alike, with sinh(2a)
    # from exp(2a - shift ln 2) where it would overflow, and scaled back last
    top = 2.0 * rho / math.log(2.0) + 2.0 * math.log2(max(center_r + rho, 1.0))
    shift = min(max(math.ceil(top) - 1000, 0), 1000)
    scale = math.ldexp(1.0, -shift)

    def integrand(r: float) -> float:
        t2 = rho * rho - (r - center_r) ** 2
        if t2 <= 0.0:
            return 0.0
        a = math.sqrt(t2)
        if 2.0 * a < 709.0:
            sinh = math.sinh(2.0 * a) * scale
        else:  # sinh(2a) = exp(2a) / 2 to double precision here
            sinh = math.exp(2.0 * a - shift * math.log(2.0)) / 2.0
        inner = (sinh / 2.0 - a * scale) / 2.0
        phi = alpha * math.atan(r / alpha)
        return inner * phi * phi

    lo = max(center_r - rho, 0.0)
    hi = center_r + rho
    # large balls exceed double precision at a fixed _VOLUME_TOL, so it is
    # absolute for O(1) volumes and relative beyond that
    coarse = abs(_adaptive_simpson(integrand, lo, hi, tol=scale, max_depth=6))
    volume = math.inf
    if math.isfinite(coarse):  # an inf or nan sum would never meet the tolerance
        volume = omega2 * omega2 * _adaptive_simpson(integrand, lo, hi,
                                                     _VOLUME_TOL * max(scale, coarse),
                                                     min_depth=_MIN_DEPTH)
    if math.isfinite(volume) and math.frexp(volume)[1] + shift <= 1024:  # below 2^1024
        return math.ldexp(volume, shift)
    raise OverflowError(f"annular volume at rho={rho!r} exceeds the float range")


# ---------------------------------------------------------------------------
# per-factor kernels, chosen by the curvature sign; points are rows of shape
# (..., block_dim). A flat factor (sign 0) is R^d or the radial line. A quadric
# reads two points through w(x, y) = sign * <x, y>_space + x_last y_last, which
# is <x,y> on the sphere and -<x,y>_M on the hyperboloid: the cos or cosh of
# their distance, with w(x, x) = 1 on the surface.

def _quadric_inner(factor: Factor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """w(x, y) of matching (broadcast) rows of a quadric factor."""
    return factor.sign * (x[..., :-1] * y[..., :-1]).sum(axis=-1) + x[..., -1] * y[..., -1]


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


# check_point's bound on coordinates, which the embedding reader also puts on
# the shift constants: squares and products of such numbers, summed over a
# factor's coordinates, stay far inside the float range (a hyperboloid point
# this far out lies about 230 from the pole)
MAX_COORDINATE = 1e100
# the largest |w(x, x) - 1| / max(|x|^2, 1) check_point accepts on a quadric
_POINT_ATOL = 1e-7


def check_point(spec: ManifoldSpec, blocks: Sequence[np.ndarray]) -> None:
    """Validate finite coordinates of at most ``MAX_COORDINATE`` in magnitude and
    constraint-surface membership of every block, to ``_POINT_ATOL``."""
    blocks = _check_blocks(spec, blocks, "point")
    for f, b in zip(spec.factors, blocks):
        # every comparison below is false for NaN, so it would pass them
        if not np.isfinite(b).all():
            raise ValueError(f"factor {f.to_string()} has non-finite coordinates")
        if (np.abs(b) > MAX_COORDINATE).any():
            raise ValueError(f"factor {f.to_string()} has coordinates beyond {MAX_COORDINATE:g}")
        if f.sign:
            # measuring w(x,x) - 1 is conditioned by |x|^2, so scale the tolerance
            scale = np.maximum((b * b).sum(axis=-1), 1.0)
            err = (np.abs(_quadric_inner(f, b, b) - 1.0) / scale).max()
            if err > _POINT_ATOL or (f.sign < 0 and (b[..., -1] <= 0).any()):
                raise ValueError(f"factor {f.to_string()} is off w(x,x) = 1 by {err:.3g}"
                                 + (", or has x_last <= 0" if f.sign < 0 else ""))
        elif f.kind == "rotsym" and (b < 0).any():
            raise ValueError("radial coordinate must be nonnegative")


def factor_exp(factor: Factor, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exponential map on a single factor: p + v on a flat factor, clamped at 0
    on the radial line; the (cos, sin) or (cosh, sinh) geodesic on a quadric,
    re-projected onto it."""
    if not factor.sign:
        out = p + v
        return np.maximum(out, 0.0) if factor.kind == "rotsym" else out
    nv = np.sqrt(np.maximum(factor.sign * _quadric_inner(factor, v, v), 0.0))[..., None]
    cos, sin = (np.cos, np.sin) if factor.sign > 0 else (np.cosh, np.sinh)
    small = nv < 1e-300
    nv_safe = np.where(small, 1.0, nv)
    out = cos(nv) * p + sin(nv) * np.where(small, 0.0, v / nv_safe)
    if factor.sign > 0:
        return out / np.linalg.norm(out, axis=-1, keepdims=True)
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
    if not factor.sign:
        return tangent
    pole = np.zeros((n, d + 1))
    pole[:, -1] = 1.0
    return factor_exp(factor, pole, np.concatenate([tangent, np.zeros((n, 1))], axis=1))


def factor_rgrad(factor: Factor, p: np.ndarray, ambient: np.ndarray) -> np.ndarray:
    """Riemannian gradient of a single factor from raw coordinate derivatives.

    Inverse-metric rescale (the last coordinate times the sign on a quadric,
    1/lambda^2 for the factor weight) followed by tangent projection.
    """
    lam2 = factor.lam**2
    if not factor.sign:
        return ambient / lam2
    h = ambient.copy()
    h[..., -1] *= factor.sign
    return (h - _quadric_inner(factor, h, p)[..., None] * p) / lam2


# ---------------------------------------------------------------------------
# squared-distance kernel, shared by distance, loss, gradients and all pairs

# treat quadric inner products this close to the branch point as coincident
_COINCIDENT_EPS = 1e-14


def _angle_from_inner(factor: Factor, w: np.ndarray) -> np.ndarray:
    """Unit-scale quadric distance from w, clamped onto its domain. Computed in
    w's memory: callers pass a fresh array or a buffer they own."""
    w = np.asarray(w)  # single points give a numpy scalar, which has no out=
    if factor.sign > 0:
        return np.arccos(np.clip(w, -1.0, 1.0, out=w), out=w)
    return np.arccosh(np.maximum(w, 1.0, out=w), out=w)


def _quadric_sq_dw(factor: Factor, w: np.ndarray, dsq: np.ndarray, bad: np.ndarray) -> None:
    """Unit-scale squared quadric distance from w, in w's memory, with d(sq)/dw
    into ``dsq`` and the branch-point mask into the bool ``bad`` (both of w's
    shape), all from one arccos or arccosh.
    At the branch point (coincident, or antipodal on the sphere) d(sq)/dw is
    0/0: 0 there. On the regular cells the clamp onto the domain leaves w as it is."""
    # the sphere branches at w = +-1 (coincident or antipodal), the hyperboloid
    # at w = 1; root = sign (1 - w^2) is the sin^2 or sinh^2 of the distance,
    # each in two passes
    if factor.sign > 0:
        np.less_equal(np.abs(w, out=dsq), 1.0 - _COINCIDENT_EPS, out=bad)
        root = np.subtract(1.0, np.square(w, out=dsq), out=dsq)
    else:
        np.greater_equal(w, 1.0 + _COINCIDENT_EPS, out=bad)
        root = np.subtract(np.square(w, out=dsq), 1.0, out=dsq)
    np.logical_not(bad, out=bad)
    root[bad] = 1.0  # regular stand-in, zeroed below
    np.sqrt(root, out=root)
    theta = _angle_from_inner(factor, w)
    np.divide(theta, root, out=dsq)
    dsq *= -2.0 * factor.sign
    dsq[bad] = 0.0
    np.square(theta, out=theta)


def factor_sq_distance(factor: Factor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unit-scale squared geodesic distance between matching (broadcast) rows;
    a flat factor sums the squared differences column by column."""
    if not factor.sign:
        sq = np.square(x[..., 0] - y[..., 0])
        for k in range(1, x.shape[-1]):
            sq += np.square(x[..., k] - y[..., k])
        return sq
    theta = _angle_from_inner(factor, _quadric_inner(factor, x, y))
    return np.square(theta, out=theta)


# most rows per tile edge of the all-pairs passes: a gradient pass keeps about
# seven (b, b) float64 tile buffers, 1.6 MiB at b = 171 (n = 1,025), inside a
# 2 MiB L2; 131 nodes fit one tile
_TILE = 192


class _Workspace:
    """The tiles of the all-pairs passes over n points and their buffers. The
    row ranges split 0..n evenly into the fewest tiles of at most ``_TILE``
    rows; ``side`` is the longest length. ``view`` gives a C-contiguous
    buffer by name, allocated at its first use with room for a (side, side)
    block and reused after."""

    def __init__(self, n: int):
        k = max(-(-n // _TILE), 1)
        edges = [n * t // k for t in range(k + 1)]
        self.tiles = [slice(a, b) for a, b in zip(edges, edges[1:])]
        self.side = -(-n // k)
        self._size = self.side**2
        self._flat: dict = {}

    def upper(self):
        """Every tile with rows I <= columns J, row block by row block, as
        (rows, cols, shape)."""
        for t, rows in enumerate(self.tiles):
            for cols in self.tiles[t:]:
                yield rows, cols, (rows.stop - rows.start, cols.stop - cols.start)

    def view(self, name, shape: tuple[int, int], dtype=np.float64) -> np.ndarray:
        flat = self._flat.get(name)
        if flat is None:
            flat = self._flat[name] = np.empty(self._size, dtype)
        return flat[: shape[0] * shape[1]].reshape(shape)


class _TileKernel:
    """Each factor kind's tile geometry for one pass over n points, in the
    buffers of a :class:`_Workspace`. A flat factor sums squared differences
    column by column, with the bits of :func:`factor_sq_distance`. A quadric
    takes one Gram matmul of its operand, x with its space coordinates
    negated on the hyperboloid so that the matmul gives w, and one arccos or
    arccosh. :meth:`sq` fills a tile; with ``grad`` it keeps each quadric's
    d(sq)/dw and branch-point mask (:func:`_quadric_sq_dw`) in ``dws``, which
    :meth:`singular` and :meth:`add_gradient` read for that tile."""

    def __init__(self, spec: ManifoldSpec, blocks: Sequence[np.ndarray], ws: _Workspace):
        self.factors, self.blocks, self.ws = spec.factors, blocks, ws
        self.ops = [np.concatenate([-x[:, :-1], x[:, -1:]], axis=1) if f.sign < 0 else x
                    for f, x in zip(spec.factors, blocks)]
        self.dws: list = []

    def sq(self, rows, cols: slice, shape: tuple[int, int], grad: bool = False) -> np.ndarray:
        """Squared product distances between the rows ``rows`` (a slice or an
        index array) and ``cols`` of the points, in a tile buffer the caller
        may overwrite: each factor's unit-scale tile times lambda^2, summed
        from the first factor's. No factor's tile holds -0.0, so the bits are
        those of a sum that starts from 0.0."""
        def view(name, dtype=np.float64):
            return self.ws.view(name, shape, dtype)

        out = view("tile")
        self.dws = [(view(("dsq", k)), view(("bad", k), bool)) if grad and f.sign else None
                    for k, f in enumerate(self.factors)]
        for k, (f, x, op, dw) in enumerate(zip(self.factors, self.blocks, self.ops, self.dws)):
            sq = out if k == 0 else view("sq")
            if not f.sign:
                np.square(np.subtract(x[rows, :1], x[cols, 0], out=sq), out=sq)
                for c in range(1, x.shape[1]):
                    col = np.subtract(x[rows, c:c + 1], x[cols, c], out=view("col"))
                    sq += np.square(col, out=col)
            else:
                np.matmul(op[rows], x[cols].T, out=sq)
                if dw is None:
                    np.square(_angle_from_inner(f, sq), out=sq)
                else:
                    _quadric_sq_dw(f, sq, *dw)
            if f.lam != 1.0:
                sq *= f.lam**2
            if k:
                out += sq
        return out

    def singular(self, mask: np.ndarray) -> int:
        """The branch-point cells of the last ``grad`` tile inside the bool
        ``mask``, summed over the quadric factors."""
        return sum(int(np.count_nonzero(np.logical_and(dw[1], mask, out=dw[1])))
                   for dw in self.dws if dw is not None)

    def add_gradient(self, ambient: Sequence[np.ndarray], weight: np.ndarray, rows, cols: slice,
                     diag: bool) -> None:
        """Adds the last ``grad`` tile's terms onto every factor's ambient
        derivatives: row i gets d/dx_i of sum_j weight_ij * lambda^2 *
        sq(x_i, x_j), and off the diagonal column j gets d/dx_j of the same
        sum. On a quadric that is d(sq)/dw times dw/dx_i, which is x_j on the
        sphere and the operand's row j on the hyperboloid. Spends the tile's
        d(sq)/dw buffers."""
        for f, x, op, amb, dw in zip(self.factors, self.blocks, self.ops, ambient, self.dws):
            lam2 = f.lam**2
            w = weight if lam2 == 1.0 else np.multiply(weight, lam2,
                                                       out=self.ws.view("weight", weight.shape))
            if not f.sign:  # flat: d/dx_i of |x_i - x_j|^2 is 2 (x_i - x_j)
                amb[rows] += 2.0 * (w.sum(axis=1)[:, None] * x[rows] - w @ x[cols])
                if not diag:
                    amb[cols] += 2.0 * (w.sum(axis=0)[:, None] * x[cols] - w.T @ x[rows])
                continue
            tile = np.multiply(dw[0], w, out=dw[0])
            amb[rows] += tile @ op[cols]
            if not diag:
                amb[cols] += tile.T @ op[rows]


def distance(spec: ManifoldSpec, p: Sequence[np.ndarray], q: Sequence[np.ndarray]) -> float | np.ndarray:
    """Product distance: sqrt of the lambda^2-weighted sum of squared factor distances."""
    p = _check_blocks(spec, p, "point p")
    q = _check_blocks(spec, q, "point q")
    total = 0.0
    for f, bp, bq in zip(spec.factors, p, q):
        total = total + f.lam**2 * factor_sq_distance(f, bp, bq)
    out = np.sqrt(total)
    return float(out) if np.ndim(out) == 0 else out


def exp_map(spec: ManifoldSpec, p: Sequence[np.ndarray], v: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Factor-wise exponential map; rejects clearly non-tangent inputs."""
    p = _check_blocks(spec, p, "point")
    v = _check_blocks(spec, v, "tangent")
    out = []
    for f, bp, bv in zip(spec.factors, p, v):
        # a quadric's tangents at p satisfy w(p, v) = 0
        err = float(np.abs(_quadric_inner(f, bp, bv)).max()) if f.sign else 0.0
        if err > _TANGENCY_TOL * (1.0 + float(np.abs(bv).max(initial=0.0))):
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
    """(n, n) matrix of squared product distances for stacked points, from the
    upper-triangle tiles that training walks: each tile is built in a tile
    buffer and copied into its block of the output, and its transpose into
    the mirror block. So the matrix is exactly symmetric, and each tile holds
    the bits of the same tile in a training pass; a Gram call over other row
    ranges may round in the last bit, since BLAS kernels treat the edges of
    a product apart."""
    blocks = _check_blocks(spec, blocks, "points")
    n = blocks[0].shape[0]
    ws = _Workspace(n)
    kernel = _TileKernel(spec, blocks, ws)
    total = np.empty((n, n))
    for rows, cols, shape in ws.upper():
        tile = kernel.sq(rows, cols, shape)
        total[rows, cols] = tile
        if rows != cols:
            total[cols, rows] = tile.T
    np.fill_diagonal(total, 0.0)
    return total
