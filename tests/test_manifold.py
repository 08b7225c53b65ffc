import ast
import math
from pathlib import Path

import numpy as np
import pytest

import hetembed
from hetembed.manifold import (
    ManifoldSpec,
    ShapeError,
    TangencyError,
    _TileKernel,
    _Workspace,
    _quadric_inner,
    _quadric_sq_dw,
    alpha_from_range,
    annular_volume,
    check_point,
    distance,
    exp_map,
    factor_exp,
    factor_sq_distance,
    parse_manifold,
    pairwise_sq_distances,
    resolve_spec,
    riemannian_gradient,
    rotsym_curvature,
    rotsym_curvature_derivative,
    rotsym_curvature_inverse,
    rotsym_sectional,
    scalar_curvature,
)

from conftest import (CONSTRAINT_TOL, hyperboloid_distance_oracle, mink_inner,
                      pairwise_sq_distances_reference, quadric_sq_dw_reference, rotsym_phi,
                      simpson_grid, tangent_basis, tile_gradient_reference, traced_peak)


def rotsym_curvature_oracle(alpha: float, r: float, h: float = 1e-4) -> float:
    """Independent route: central finite differences of phi itself."""
    phi = lambda x: alpha * math.atan(x / alpha)
    p = phi(r)
    p1 = (phi(r + h) - phi(r - h)) / (2 * h)
    p2 = (phi(r + h) - 2 * phi(r) + phi(r - h)) / h**2
    return 2 * (-2 * p2 / p + (1 - p1 * p1) / p**2)


class TestSpecParsing:
    def test_round_trip(self):
        for text in ["e2", "h5,h5", "h5,s5", "h5,h5,rot(a=auto,l=0.5)",
                     "h3,rot(a=1.25)", "e1(l=2.0),rot(a=0.5,l=0.125)"]:
            spec = parse_manifold(text)
            assert parse_manifold(spec.to_string()) == spec

    def test_block_dims(self):
        spec = parse_manifold("e2,s3,h4,rot(a=1.0)")
        assert spec.block_dims == (2, 4, 5, 1)
        assert [f.sign for f in spec.factors] == [0, 1, -1, 0]

    def test_at_most_one_rotsym(self):
        with pytest.raises(ValueError):
            parse_manifold("rot(a=1),rot(a=2)")

    def test_bad_atoms(self):
        for bad in ["q3", "h0", "h2(z=1)", "rot(a=-1)", "h2(l=0)",
                    # non-finite parameters, empty atoms, stray parentheses, no comma
                    "h2(l=nan)", "h2,rot(a=nan)", "e2(l=inf)", "h2,rot(a=inf)", "h2,,e2", "h2,",
                    "(h2", "h2(l=1", "h2(l=1))", "h2 e2"]:
            with pytest.raises(ValueError):
                parse_manifold(bad)

    def test_homogeneous_curvature(self):
        assert parse_manifold("h5,h5").homogeneous_curvature == pytest.approx(-40.0)
        assert parse_manifold("h5,s5").homogeneous_curvature == pytest.approx(0.0)
        assert parse_manifold("e7").homogeneous_curvature == 0.0

    def test_resolve(self):
        spec = parse_manifold("h2,rot(a=auto)")
        solid = resolve_spec(spec, alpha=1.5, rot_scale=0.5)
        assert solid.rotsym_factor.alpha == 1.5
        assert solid.rotsym_factor.lam == 0.5


class TestDistance:
    def test_hyperbolic_geodesic_param(self):
        spec = parse_manifold("h2")
        p = [np.array([0.0, 0.0, 1.0])]
        q = [np.array([math.sinh(1.0), 0.0, math.cosh(1.0)])]
        assert distance(spec, p, q) == pytest.approx(1.0, abs=1e-12)

    def test_product_pythagoras(self):
        # factor distances 3 and 4 at unit scales combine to 5
        spec = parse_manifold("e1,e1")
        p = [np.array([0.0]), np.array([0.0])]
        q = [np.array([3.0]), np.array([4.0])]
        assert distance(spec, p, q) == pytest.approx(5.0)

    def test_rotsym_scaled(self):
        spec = parse_manifold("rot(a=1.0,l=0.5)")
        assert distance(spec, [np.array([2.0])], [np.array([6.0])]) == pytest.approx(2.0)

    def test_shape_error(self):
        spec = parse_manifold("h2")
        with pytest.raises(ShapeError):
            distance(spec, [np.zeros(2)], [np.zeros(3)])

    def test_symmetry_identity_triangle(self, rng):
        for text in ("h2,s2,e2,rot(a=1.0)", "h2,s2,e2,rot(a=1.0,l=0.5)"):
            spec = resolve_spec(parse_manifold(text))
            pts = _random_points(spec, rng, 12)
            sq = pairwise_sq_distances(spec, pts)
            d = np.sqrt(sq)
            assert np.allclose(d, d.T, atol=1e-9)
            assert np.allclose(np.diag(d), 0.0)
            for _ in range(200):
                i, j, k = rng.integers(0, 12, size=3)
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9
            # the Gram-matrix route agrees with the paired-row kernel
            iu, ju = np.triu_indices(12, k=1)
            paired = sum(f.lam**2 * factor_sq_distance(f, b[iu], b[ju])
                         for f, b in zip(spec.factors, pts))
            assert paired.min() > 0.1  # well separated: no ill-conditioned arccos/arccosh
            np.testing.assert_allclose(sq[iu, ju], paired, rtol=1e-12, atol=0.0)


def _random_points(spec, rng, n):
    blocks = []
    for f in spec.factors:
        if f.kind == "euclidean":
            blocks.append(rng.normal(0, 1.0, size=(n, f.dim)))
        elif f.kind == "rotsym":
            blocks.append(rng.uniform(0, 2.0, size=(n, 1)))
        else:
            base = np.zeros((n, f.dim + 1))
            base[:, -1] = 1.0
            amb = np.concatenate([rng.normal(0, 0.7, size=(n, f.dim)), np.zeros((n, 1))], axis=1)
            blocks.append(factor_exp(f, base, amb))
    return blocks


def _random_tangent(spec, point, rng, scale=1.0):
    out = []
    for f, p in zip(spec.factors, point):
        raw = rng.normal(0, scale, size=f.block_dim)
        if f.kind == "sphere":
            raw = raw - (raw @ p) * p
        elif f.kind == "hyperbolic":
            raw[-1] = 0.0
            raw = raw + mink_inner(raw, p) * p
        out.append(raw)
    return out


def _tile_sq_dw(spec, pts, rows, cols):
    """The squared product distances of one tile with each quadric's (dsq, bad)
    buffers filled, and the same tile without them, as fresh copies."""
    n = len(pts[0])
    shape = (len(range(*rows.indices(n))), len(range(*cols.indices(n))))
    kernel = _TileKernel(spec, pts, _Workspace(n))
    plain = kernel.sq(rows, cols, shape).copy()
    with_dw = kernel.sq(rows, cols, shape, grad=True).copy()
    dws = [None if dw is None else (dw[0].copy(), dw[1].copy()) for dw in kernel.dws]
    return with_dw, plain, dws


class TestPairwiseKernel:
    """One Gram matmul and one arccos or arccosh per quadric factor and tile
    give both the squared distances and d(sq)/dw."""

    def test_matches_summed_reference_bytewise(self, rng):
        # the sum accumulates in the first factor's buffer; its bits, the sign
        # of zero included, stay those of a sum that starts from 0.0
        for text in ("h3,rot(a=1.0,l=0.5)", "e2,h2", "rot(a=1.0),s2,e1", "e2",
                     "rot(a=1.0)", "s2,h2,e2,rot(a=1.0,l=0.5)"):
            spec = resolve_spec(parse_manifold(text))
            pts = _random_points(spec, rng, 9)
            for b in pts:
                b[4] = b[1]  # coincident in every factor
            pts[0][6] = pts[0][7]  # coincident in the first factor only
            want = pairwise_sq_distances_reference(spec, pts)
            got = pairwise_sq_distances(spec, pts)
            assert got.tobytes() == want.tobytes()
            assert not np.signbit(got).any()  # no -0.0 for a sum from 0.0 to turn into +0.0
            total, _, _ = _tile_sq_dw(spec, pts, slice(0, 9), slice(0, 9))
            np.fill_diagonal(total, 0.0)
            assert total.tobytes() == want.tobytes()

    def test_tiles_build_the_whole_symmetric_matrix(self, rng):
        # n = 400 is three tile rows; coincident points, and antipodal ones on
        # the sphere, sit inside tiles and on both sides of each tile boundary
        n = 400
        tiles = _Workspace(n).tiles
        assert len(tiles) == 3
        cut1, cut2 = tiles[1].start, tiles[2].start
        for text in ("s2,h2(l=0.7),e3(l=1.3),rot(a=1.0,l=0.5)", "h3,rot(a=1.0,l=0.5)",
                     "rot(a=1.0),s2,e1", "e2,h2"):
            spec = resolve_spec(parse_manifold(text))
            pts = _random_points(spec, rng, n)
            for f, b in zip(spec.factors, pts):
                for i, j in ((20, 40), (5, cut2 + 30), (cut1 - 1, cut1), (cut2 - 1, cut2)):
                    b[j] = b[i]
                if f.kind == "sphere":
                    for i, j in ((50, 60), (10, cut1 + 60), (cut1 - 2, cut1 + 1)):
                        b[j] = -b[i]
            got = pairwise_sq_distances(spec, pts)
            # the reference takes a Gram call per block, lower blocks included
            want = pairwise_sq_distances_reference(spec, pts, tiles)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got, got.T)
            assert not np.signbit(got).any()

    def test_no_scratch_matrix_besides_the_output(self, rng):
        spec = resolve_spec(parse_manifold("h3,s2,e2,rot(a=1.0,l=0.5)"))
        n = 600
        pts = _random_points(spec, rng, n)
        peak, _ = traced_peak(pairwise_sq_distances, spec, pts)
        assert peak < 1.5 * n * n * 8

    def test_flat_factor_exact_for_near_points_far_out(self):
        # a Gram expansion |x|^2 + |y|^2 - 2<x,y> cancels here to 0.0, 0.0 and
        # 5.96e-08; the squared differences keep every pair
        spec = parse_manifold("e2")
        x = np.array([[1e4, 1e4], [1e4 + 1e-6, 1e4], [1e4, 1e4 + 3e-6]])
        sq = pairwise_sq_distances(spec, [x])
        for i, j in ((0, 1), (0, 2), (1, 2)):
            want = distance(spec, [x[i]], [x[j]]) ** 2
            assert sq[i, j] == sq[j, i] == pytest.approx(want, rel=1e-12)
            assert 1e-13 < want < 1e-10

    def test_matches_separate_passes_bitwise(self, rng):
        spec = resolve_spec(parse_manifold("h2,s2,e2,h3,rot(a=1.0,l=0.5)"))
        pts = _random_points(spec, rng, 10)
        for f, b in zip(spec.factors, pts):
            b[3] = b[2]  # coincident
            b[8] = b[1]  # coincident, off the diagonal tiles below
            if f.kind == "sphere":
                b[5] = -b[4]  # antipodal
                b[9] = -b[0]  # antipodal, off the diagonal tiles below
        off_diagonal = ~np.eye(10, dtype=bool)
        iu, ju = np.triu_indices(10, k=1)
        # the whole matrix as one tile, then off-diagonal tiles, one of them
        # across the row 5 boundary
        for rows, cols, singular in ((slice(0, 10), slice(0, 10), {"sphere": 4, "hyperbolic": 2}),
                                     (slice(0, 5), slice(5, 10), {"sphere": 3, "hyperbolic": 1}),
                                     (slice(0, 4), slice(4, 10), {"sphere": 2, "hyperbolic": 1}),
                                     (slice(1, 3), slice(3, 9), {"sphere": 2, "hyperbolic": 2})):
            total, plain, dws = _tile_sq_dw(spec, pts, rows, cols)
            assert total.tobytes() == plain.tobytes()
            whole = rows == cols
            for f, x, dw in zip(spec.factors, pts, dws, strict=True):
                if f.kind in ("euclidean", "rotsym"):
                    assert dw is None
                    continue
                dsq, bad = dw
                lhs = x[rows] if f.kind == "sphere" else x[rows] * np.append(-np.ones(f.dim), 1.0)
                want, want_ok = quadric_sq_dw_reference(f, lhs @ x[cols].T)
                assert dsq.tobytes() == want.tobytes()
                assert (bad == ~want_ok).all()
                pairs = off_diagonal[rows, cols]
                count = np.count_nonzero(pairs & bad)
                assert (count // 2 if whole else count) == singular[f.kind]
        # the paired-row route shares the formula
        for f, x in zip(spec.factors, pts):
            if f.kind not in ("sphere", "hyperbolic"):
                continue
            singular = 4 if f.kind == "sphere" else 2
            rows = _quadric_inner(f, x[iu], x[ju])
            want, want_ok = quadric_sq_dw_reference(f, rows)
            sq, dsq, bad = rows.copy(), np.empty_like(rows), np.empty(rows.shape, bool)
            _quadric_sq_dw(f, sq, dsq, bad)
            assert dsq.tobytes() == want.tobytes() and (bad == ~want_ok).all()
            assert sq.tobytes() == factor_sq_distance(f, x[iu], x[ju]).tobytes()
            assert np.count_nonzero(bad) == singular


class TestTileKernelGradient:
    def test_matches_reference_assembly(self, rng):
        # a diagonal tile, an off-diagonal tile and an anchor-row block, with
        # coincident points, and antipodal ones on the sphere, inside them and
        # across the tile boundary; the kernel's rows start from -0.0 and the
        # reference's from +0.0, which compare equal
        spec = resolve_spec(parse_manifold("h3,s2(l=0.7),e2,rot(a=1.0,l=0.5)"))
        n = 400
        ws = _Workspace(n)
        tiles = ws.tiles
        cut = tiles[1].start
        pts = _random_points(spec, rng, n)
        for f, b in zip(spec.factors, pts):
            for i, j in ((20, 40), (cut - 1, cut), (cut - 3, cut + 5)):
                b[j] = b[i]
            if f.kind == "sphere":
                for i, j in ((50, 60), (cut - 2, cut + 1)):
                    b[j] = -b[i]
        anchors = np.array([5, 20, cut - 3, cut - 2, cut + 7])
        kernel = _TileKernel(spec, pts, ws)
        for rows, cols, diag in ((tiles[0], tiles[0], True), (tiles[0], tiles[1], False),
                                 (anchors, tiles[1], False)):
            shape = (np.arange(n)[rows].size, np.arange(n)[cols].size)
            weight = rng.choice([-1.0, 0.0, 1.0], size=shape) / rng.integers(1, 5, size=shape) ** 2
            if diag:
                weight = np.triu(weight, 1) + np.triu(weight, 1).T
            kernel.sq(rows, cols, shape, grad=True)
            assert kernel.singular(weight != 0) > 0
            got = [np.full_like(x, -0.0) for x in pts]
            kernel.add_gradient(got, weight, rows, cols, diag)
            want = tile_gradient_reference(spec, pts, weight, rows, cols, diag)
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g, w)
                assert np.abs(g).max() > 0


def _ray_point(direction: np.ndarray, depth: float) -> np.ndarray:
    """The point at ``depth`` from the pole along the unit space vector
    ``direction``, its time coordinate recomputed as factor_exp does."""
    space = math.sinh(depth) * direction
    return np.append(space, math.sqrt(1.0 + space @ space))


def _relative_distance_errors(pairs) -> np.ndarray:
    """|d - oracle| / oracle of each (x, y) pair's distance by pairwise_sq_distances."""
    pts = np.stack([p for pair in pairs for p in pair])
    sq = pairwise_sq_distances(parse_manifold(f"h{pts.shape[1] - 1}"), [pts])
    want = np.array([hyperboloid_distance_oracle(x[:-1], y[:-1]) for x, y in pairs])
    got = np.sqrt(sq[np.arange(0, len(pts), 2), np.arange(1, len(pts), 2)])
    return np.abs(got - want) / want


class TestHyperboloidPrecision:
    """The hyperboloid kernel against an 80-digit oracle of the stored points.
    Its Gram form, cosh d = x_t y_t - <x_s, y_s>, cancels far from the pole
    (the precision-depth tradeoff of Sala et al., ICML 2018)."""

    def test_same_ray_pairs_one_apart_through_depth_10(self):
        # 8.4e-9 at depth 10 on this ray; 6.4e-8 the worst of 40 random rays
        u = np.full(5, 1.0 / math.sqrt(5.0))
        pairs = [(_ray_point(u, depth), _ray_point(u, depth + 1.0)) for depth in range(11)]
        assert _relative_distance_errors(pairs).max() < 1e-7

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
    def test_random_and_adversarial_pairs_through_depth_20(self, rng):
        pairs = []
        for depth in np.linspace(0.5, 20.0, 40):
            u, v = rng.standard_normal((2, 5))
            u /= np.linalg.norm(u)
            v -= (v @ u) * u
            v /= np.linalg.norm(v)
            tilted = math.cos(1e-6) * u + math.sin(1e-6) * v  # 1e-6 from u
            pairs += [(_ray_point(u, depth), _ray_point(v, rng.uniform(0.0, 20.0))),
                      (_ray_point(u, depth), _ray_point(u, depth + 1.0)),
                      (_ray_point(u, depth), _ray_point(tilted, depth))]
        assert _relative_distance_errors(pairs).max() < 1e-9


class TestExpMap:
    def test_zero_vector_fixes_point(self, rng):
        spec = resolve_spec(parse_manifold("h3,s2,e2,rot(a=1.0)"))
        pts = _random_points(spec, rng, 5)
        p = [b[2] for b in pts]
        q = exp_map(spec, p, [np.zeros(f.block_dim) for f in spec.factors])
        for a, b in zip(p, q):
            assert np.allclose(a, b, atol=1e-12)

    def test_hyperbolic_closed_form(self):
        spec = parse_manifold("h2")
        p = [np.array([0.0, 0.0, 1.0])]
        v = [np.array([1.0, 0.0, 0.0])]
        (out,) = exp_map(spec, p, v)
        assert np.allclose(out, [math.sinh(1.0), 0.0, math.cosh(1.0)], atol=1e-12)

    def test_radial_positive_part(self):
        spec = parse_manifold("rot(a=1.0)")
        (out,) = exp_map(spec, [np.array([0.5])], [np.array([-0.7])])
        assert out[0] == 0.0

    def test_rejects_non_tangent(self):
        spec = parse_manifold("s2")
        p = [np.array([0.0, 0.0, 1.0])]
        with pytest.raises(TangencyError):
            exp_map(spec, p, [np.array([0.0, 0.0, 0.5])])

    def test_unit_speed_per_factor(self, rng):
        # d(p, exp_p(v)) equals ||v||_g on each single space-form factor
        for text, norm_cap in [("e4", 10.0), ("h3", 10.0), ("s3", math.pi * 0.999)]:
            spec = parse_manifold(text)
            f = spec.factors[0]
            pts = _random_points(spec, rng, 6)
            for i in range(6):
                p = [pts[0][i]]
                v = _random_tangent(spec, p, rng)[0]
                if f.kind == "sphere":
                    n2 = float(v @ v)
                elif f.kind == "hyperbolic":
                    n2 = float(mink_inner(v, v))
                else:
                    n2 = float(v @ v)
                target = rng.uniform(0.05, norm_cap)
                v = v * (target / math.sqrt(n2))
                q = exp_map(spec, p, [v])
                assert distance(spec, p, q) == pytest.approx(target, abs=1e-7)

    def test_constraint_drift_1000_steps(self, rng):
        spec = resolve_spec(parse_manifold("h3,s3"))
        p = [b[0] for b in _random_points(spec, rng, 1)]
        for _ in range(1000):
            v = []
            for fac, block in zip(spec.factors, p):
                basis = tangent_basis(fac, block)
                coeff = rng.normal(0, 0.05, size=len(basis))
                v.append(sum(c * b for c, b in zip(coeff, basis)))
            p = exp_map(spec, p, v)
        assert abs(mink_inner(p[0], p[0]) + 1.0) <= CONSTRAINT_TOL
        assert abs(p[1] @ p[1] - 1.0) <= CONSTRAINT_TOL


class TestRiemannianGradient:
    def test_euclidean_identity(self):
        spec = parse_manifold("e3")
        g = [np.array([1.0, -2.0, 0.5])]
        out = riemannian_gradient(spec, [np.zeros(3)], g)
        assert np.allclose(out[0], g[0])

    def test_hyperbolic_at_pole(self):
        # flip + projection kills the last coordinate at the pole
        spec = parse_manifold("h2")
        p = [np.array([0.0, 0.0, 1.0])]
        out = riemannian_gradient(spec, p, [np.array([2.0, -3.0, 7.0])])
        assert np.allclose(out[0], [2.0, -3.0, 0.0], atol=1e-12)

    def test_rotsym_scale(self):
        spec = parse_manifold("rot(a=1.0,l=2.0)")
        out = riemannian_gradient(spec, [np.array([1.0])], [np.array([8.0])])
        assert out[0][0] == pytest.approx(2.0)

    def test_directional_derivative_agreement(self, rng):
        # <grad f, v>_g matches (f(exp_p(hv)) - f(p))/h for random smooth f
        spec = resolve_spec(parse_manifold("h2,s2,e2,rot(a=1.3,l=0.7)"))
        h = 1e-5
        for trial in range(5):
            pts = _random_points(spec, rng, 1)
            p = [b[0] for b in pts]
            coeffs = [rng.normal(0, 1, size=f.block_dim) for f in spec.factors]

            def f(point):
                return sum(float(np.sin(c @ b).sum()) + float((b**2).sum())
                           for c, b in zip(coeffs, point))

            ambient = [c * np.cos(c @ b) + 2.0 * b for c, b in zip(coeffs, p)]
            grad = riemannian_gradient(spec, p, ambient)
            v = _random_tangent(spec, p, rng, scale=0.5)
            fd = (f(exp_map(spec, p, [h * b for b in v]))
                  - f(exp_map(spec, p, [-h * b for b in v]))) / (2 * h)
            inner = 0.0
            for fac, gb, vb in zip(spec.factors, grad, v):
                if fac.kind == "hyperbolic":
                    ip = float(mink_inner(gb, vb))
                else:
                    ip = float(gb @ vb)
                inner += fac.lam**2 * ip
            assert inner == pytest.approx(fd, rel=1e-4)


class TestScalarCurvature:
    def test_h5xh5(self, rng):
        spec = parse_manifold("h5,h5")
        pts = _random_points(spec, rng, 3)
        p = [b[0] for b in pts]
        assert scalar_curvature(spec, p) == pytest.approx(-40.0)

    def test_rotsym_origin(self):
        spec = parse_manifold("rot(a=1.0)")
        assert scalar_curvature(spec, [np.array([0.0])]) == pytest.approx(12.0)

    def test_rotsym_r1_against_phi_fd_oracle(self):
        expected = rotsym_curvature_oracle(1.0, 1.0)
        assert expected == pytest.approx(4.97818, abs=5e-5)
        assert rotsym_curvature(1.0, 1.0) == pytest.approx(expected, rel=1e-5)

    def test_product_additivity(self, rng):
        # curvature of a composed spec is the sum of its parts
        left = resolve_spec(parse_manifold("h4"))
        right = resolve_spec(parse_manifold("s3,rot(a=0.8)"))
        both = ManifoldSpec(left.factors + right.factors)
        pts = _random_points(both, rng, 4)
        p = [b[1] for b in pts]
        assert scalar_curvature(both, p) == pytest.approx(
            scalar_curvature(left, p[:1]) + scalar_curvature(right, p[1:])
        )

    def test_scaled_factors(self):
        spec = parse_manifold("h5(l=2.0),rot(a=1.0,l=0.5)")
        val = scalar_curvature(spec, [_pole(6), np.array([0.0])])
        assert val == pytest.approx(-20.0 / 4.0 + 12.0 / 0.25)


def _pole(bd):
    p = np.zeros(bd)
    p[-1] = 1.0
    return p


class TestRotsymProfile:
    def test_strictly_decreasing_with_endpoints(self):
        for alpha in (0.5, 1.0, 2.3):
            grid = np.linspace(0.0, 50.0 * alpha, 4001)
            vals = rotsym_curvature(alpha, grid)
            assert vals[0] == pytest.approx(12.0 / alpha**2, rel=1e-12)
            assert np.all(np.diff(vals) < 0.0)
            assert np.all(vals > 8.0 / (math.pi**2 * alpha**2))

    def test_derivative_zero_at_origin(self):
        assert rotsym_curvature_derivative(1.0, 0.0) == 0.0

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for alpha, r in [(1.0, 1.0), (1.0, 0.2), (2.0, 5.0), (0.7, 3.3), (1.3, 1e-4)]:
            fd = (rotsym_curvature(alpha, r + h) - rotsym_curvature(alpha, max(r - h, 0.0))) / (
                2 * h if r - h > 0 else h
            )
            assert rotsym_curvature_derivative(alpha, r) == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_derivative_asymptotically_flat(self):
        assert abs(rotsym_curvature_derivative(2.0, 50.0)) < 1e-3

    def test_derivative_nonpositive_on_grid(self):
        grid = np.linspace(0.0, 100.0, 2000)
        for alpha in (0.5, 1.0, 3.0):
            assert np.all(rotsym_curvature_derivative(alpha, grid) <= 0.0)

    def test_sectional_origin_and_limits(self):
        k0, l0 = rotsym_sectional(1.0, 0.0)
        assert k0 == pytest.approx(2.0) and l0 == pytest.approx(2.0)
        k_inf, l_inf = rotsym_sectional(1.0, 1e6)
        assert abs(k_inf) < 1e-8
        assert l_inf == pytest.approx(4.0 / math.pi**2, rel=1e-5)

    def test_sectional_nonnegative_and_consistent(self):
        grid = np.linspace(0.0, 30.0, 500)
        for alpha in (0.5, 1.0, 2.0):
            k, el = rotsym_sectional(alpha, grid)
            assert np.all(k >= 0.0) and np.all(el >= 0.0)
            assert np.allclose(2.0 * (2.0 * k + el), rotsym_curvature(alpha, grid), rtol=1e-10)

    def test_inverse(self):
        for alpha in (0.8, 1.7):
            for r in (0.0, 0.4, 2.0, 9.0):
                val = rotsym_curvature(alpha, r)
                assert rotsym_curvature_inverse(alpha, val) == pytest.approx(r, abs=1e-6)

    def test_phi_properties(self):
        r = np.linspace(0, 10, 100)
        phi = rotsym_phi(2.0, r)
        assert np.all(np.diff(phi) > 0)
        assert phi[-1] < 2.0 * math.pi / 2


class TestAlphaFromRange:
    def test_span_zero(self):
        alpha, _ = alpha_from_range(0.0, 0.0, delta=6.0, ell_plus=6.0)
        assert alpha == pytest.approx(1.0)

    def test_example_values(self):
        alpha, delta_hat = alpha_from_range(10.0, 0.0, delta=1.0, ell_plus=1.0)
        assert alpha == pytest.approx(1.0)
        expected = 2.0 / (3.0 * math.pi**2 - 2.0) * 11.0 + 1.0
        assert delta_hat == pytest.approx(expected, rel=1e-12)
        assert delta_hat > 8.0 / math.pi**2

    def test_definitional_identity(self, rng):
        for _ in range(25):
            max_f = rng.uniform(-5, 40)
            min_f = max_f - rng.uniform(0, 30)
            delta = rng.uniform(0.1, 20)
            ell = rng.uniform(0.1, 20)
            alpha, delta_hat = alpha_from_range(max_f, min_f, delta, ell)
            assert rotsym_curvature(alpha, 0.0) == pytest.approx(
                (max_f - min_f) + delta + ell, abs=1e-10
            )
            assert delta_hat > 8.0 / (math.pi**2 * alpha**2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alpha_from_range(1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            alpha_from_range(1.0, 0.0, -1.0, 1.0)


class TestAnnularVolume:
    def test_vanishes_and_monotone_in_rho(self):
        vols = [annular_volume(1.0, 1.0, rho) for rho in (1e-4, 0.1, 0.3, 0.7, 1.2)]
        assert vols[0] < 1e-10
        assert all(a < b for a, b in zip(vols, vols[1:]))

    def test_monotone_in_center(self):
        vols = [annular_volume(1.0, r, 0.5) for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vols, vols[1:]))

    def test_against_dense_quadrature_oracle(self):
        # independent composite-Simpson evaluation at high fixed resolution
        for alpha, r_i, rho in [(1.0, 1.0, 0.5), (0.7, 2.0, 1.5), (2.0, 0.3, 0.9)]:
            def integrand(r):
                t2 = rho**2 - (r - r_i) ** 2
                if t2 <= 0:
                    return 0.0
                a = math.sqrt(t2)
                return ((math.sinh(2 * a) / 2 - a) / 2) * (alpha * math.atan(r / alpha)) ** 2
            lo, hi = max(r_i - rho, 0.0), r_i + rho
            oracle = (4 * math.pi) ** 2 * simpson_grid(integrand, lo, hi, 20000)
            got = annular_volume(alpha, r_i, rho)
            assert got == pytest.approx(oracle, rel=0.01)

    def test_volume_past_the_float_range_raises(self, monkeypatch):
        import hetembed.manifold as manifold

        assert math.isfinite(annular_volume(1.0, 0.0, 350.0))
        # about e^(2 rho + 6.4) at alpha 1 and center 0: past 1.8e308 from rho 351.7
        for rho in (400.0, 355.0, 352.0):
            with pytest.raises(OverflowError):
                annular_volume(1.0, 0.0, rho)
        # a finite integral that overflows once multiplied by omega2**2
        monkeypatch.setattr(manifold, "_adaptive_simpson", lambda *args, **kwargs: 1e307)
        with pytest.raises(OverflowError):
            annular_volume(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("alpha, r_i, rho", [
        (1.0, 0.0, 290.0),   # the first samples of [0, rho] miss the peak near r = 0
        (1.0, 0.0, 350.0),
        (0.3, 40.0, 300.0),
        (0.001, 0.0, 357.0),  # sinh(2a) overflows, the volume (about 3e307) does not
    ])
    def test_large_balls_against_dense_quadrature_oracle(self, alpha, r_i, rho):
        # the oracle integrates exp(-2 rho) times the integrand on two fixed
        # grids, the first one fine where the profile turns over for small alpha
        def scaled(r):
            t2 = rho**2 - (r - r_i) ** 2
            if t2 <= 0:
                return 0.0
            a = math.sqrt(t2)
            inner = ((math.sinh(2 * a) / 2 - a) / 2 * math.exp(-2 * rho) if a < 300
                     else math.exp(2 * a - 2 * rho) / 8)
            return inner * (alpha * math.atan(r / alpha)) ** 2
        lo, hi = max(r_i - rho, 0.0), r_i + rho
        oracle = (4 * math.pi) ** 2 * (simpson_grid(scaled, lo, lo + 1.0, 20000)
                                       + simpson_grid(scaled, lo + 1.0, hi, 100000))
        got = annular_volume(alpha, r_i, rho)
        assert math.log(got) - 2 * rho == pytest.approx(math.log(oracle), abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            annular_volume(1.0, 1.0, 0.0)


class TestCheckPoint:
    def test_accepts_valid(self, rng):
        spec = resolve_spec(parse_manifold("h3,s2,rot(a=1.0)"))
        check_point(spec, _random_points(spec, rng, 8))

    def test_rejects_negative_radius(self):
        spec = parse_manifold("rot(a=1.0)")
        with pytest.raises(ValueError):
            check_point(spec, [np.array([-0.1])])

    def test_rejects_off_sphere(self):
        spec = parse_manifold("s2")
        with pytest.raises(ValueError):
            check_point(spec, [np.array([0.0, 0.0, 1.1])])

    def test_rejects_lower_hyperboloid_sheet(self):
        # w(x, x) = 1 holds on both sheets; only x_last > 0 tells them apart
        spec = parse_manifold("h2")
        check_point(spec, [np.array([0.0, 0.0, 1.0])])
        with pytest.raises(ValueError, match="x_last"):
            check_point(spec, [np.array([0.0, 0.0, -1.0])])


class TestTangentBasis:
    def test_spans_and_is_orthonormal(self, rng):
        spec = resolve_spec(parse_manifold("h3,s3"))
        pts = _random_points(spec, rng, 1)
        for fac, block in zip(spec.factors, pts):
            basis = tangent_basis(fac, block[0])
            assert len(basis) == fac.dim
            inner = (lambda a, b: float(mink_inner(a, b))) if fac.kind == "hyperbolic" else (
                lambda a, b: float(a @ b))
            for i, u in enumerate(basis):
                for j, v in enumerate(basis):
                    assert inner(u, v) == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)


# every factor kind name; comparing a factor's kind against one picks a kernel
# by hand, so it may appear only where a factor is parsed, printed or
# validated, and in the radial factor's own code, which may name only "rotsym"
_KIND_NAMES = {"euclidean", "sphere", "hyperbolic", "rotsym"}
_KIND_COMPARED_IN = {
    ("manifold", "Factor"): _KIND_NAMES,
    ("manifold", "ManifoldSpec"): _KIND_NAMES,
    ("manifold", "parse_manifold"): _KIND_NAMES,
    ("manifold", "resolve_spec"): _KIND_NAMES,
    ("manifold", "check_point"): _KIND_NAMES,
    ("metrics", "volume_match"): _KIND_NAMES,
    ("manifold", "scalar_curvature"): {"rotsym"},
    ("manifold", "factor_exp"): {"rotsym"},  # the radial clamp
    ("optim", "initialize"): {"rotsym"},
}


def _kind_comparisons() -> list[tuple[str, str, str]]:
    """(module, top-level def or class, kind name) of every comparison in the
    package's modules that has a kind name among its operands."""
    found = []
    for path in sorted(Path(hetembed.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Compare):
                    continue
                for operand in (node.left, *node.comparators):
                    found += [(path.stem, getattr(top, "name", "<module>"), c.value)
                              for c in ast.walk(operand)
                              if isinstance(c, ast.Constant) and c.value in _KIND_NAMES]
    return found


class TestKernelChoice:
    def test_kind_names_compared_only_where_allowed(self):
        found = _kind_comparisons()
        # the walk sees the comparisons it polices
        assert ("manifold", "factor_exp", "rotsym") in found
        assert ("metrics", "volume_match", "hyperbolic") in found
        stray = [(module, where, kind) for module, where, kind in found
                 if kind not in _KIND_COMPARED_IN.get((module, where), ())]
        assert not stray, "pick the kernel by Factor.sign, not by kind name"
