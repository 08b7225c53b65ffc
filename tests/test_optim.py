import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hetembed.optim as optim
from hetembed.graph import UNREACHABLE, bfs_apsp, connected_pairs, forman, from_edges
from hetembed.manifold import (
    factor_exp,
    pairwise_sq_distances,
    parse_manifold,
    resolve_spec,
    rotsym_curvature,
    rotsym_curvature_inverse,
)
from hetembed.optim import (
    DistanceTarget,
    Embedding,
    NumericAbortError,
    ShiftConstants,
    TrainConfig,
    gradients,
    initialize,
    loss_curvature,
    loss_distance,
    loss_total,
    rsgd_step,
    train,
)

from conftest import (anchor_batch_reference, gradients_reference, graph_sq_distances,
                      initialize_blocks_reference, mink_inner, pair_sq_distances, tangent_basis,
                      train_reference)
from synthetic import complete_graph, path_graph, random_connected_graph


def make_embedding(spec_text, g, cfg, rng_shift=True):
    spec = resolve_spec(parse_manifold(spec_text), alpha=1.0, rot_scale=cfg.lambda_rot)
    emb = initialize(spec, g, cfg)
    if rng_shift and spec.rotsym_index is not None:
        f = forman(g, cfg.gamma)
        span = f.max_node - f.min_node
        delta_hat = 2.0 / (3.0 * math.pi**2 - 2.0) * (span + cfg.ell_plus) + cfg.delta
        emb.shift_constants = ShiftConstants(f.min_node, delta_hat,
                                             spec.rotsym_factor.lam,
                                             spec.homogeneous_curvature)
    return emb


def loss_distance_reference(emb, dist, pairs):
    """Naive double-loop evaluation, one pair at a time."""
    from hetembed.manifold import distance

    total = 0.0
    for i, j in pairs:
        d2 = distance(emb.spec, [b[i] for b in emb.blocks], [b[j] for b in emb.blocks]) ** 2
        total += abs(d2 / float(dist[i, j]) ** 2 - 1.0)
    return total


def loss_curvature_reference(emb, f_signal, cfg):
    shift = emb.shift_constants
    alpha = emb.spec.rotsym_factor.alpha
    r = emb.radii()
    total = 0.0
    for i in range(emb.n):
        res = (f_signal.node_values[i] - shift.min_forman + shift.delta_hat
               - rotsym_curvature(alpha, float(r[i])))
        if cfg.curvature_residuals == "normalized":
            res /= abs(f_signal.node_values[i]) + cfg.epsilon
        total += res * res
    return total


class TestInitialize:
    def test_deterministic(self):
        g = random_connected_graph(9, 0.2, seed=1)
        spec = resolve_spec(parse_manifold("h2,rot(a=1.0)"))
        cfg = TrainConfig(seed=42, epochs=1)
        a = initialize(spec, g, cfg)
        b = initialize(spec, g, cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))

    def test_radial_interval(self):
        g = random_connected_graph(40, 0.1, seed=2)
        spec = resolve_spec(parse_manifold("rot(a=1.0)"))
        emb = initialize(spec, g, TrainConfig(seed=0, epochs=1))
        r = emb.radii()
        assert np.all(r > 0.1) and np.all(r < 1.0)

    def test_constraints_tight_at_init(self):
        g = random_connected_graph(25, 0.15, seed=3)
        spec = resolve_spec(parse_manifold("h4,s3"))
        emb = initialize(spec, g, TrainConfig(seed=5, epochs=1))
        assert np.abs(mink_inner(emb.blocks[0], emb.blocks[0]) + 1.0).max() < 1e-12
        assert np.abs((emb.blocks[1] ** 2).sum(axis=1) - 1.0).max() < 1e-12

    def test_matches_own_tangent_ball_loop(self):
        for text in ("h5,h5,rot(a=1.0)", "e3,s2,h2,rot(a=1.0)", "s4,e1"):
            spec = resolve_spec(parse_manifold(text))
            for n in (9, 70):
                g = random_connected_graph(n, 0.1, seed=n)
                for seed in range(5):
                    cfg = TrainConfig(seed=seed, epochs=1)
                    got = initialize(spec, g, cfg).blocks
                    want = initialize_blocks_reference(spec, n, cfg)
                    assert [(b.shape, b.dtype, b.tobytes()) for b in got] == [
                        (b.shape, b.dtype, b.tobytes()) for b in want]

    def test_tangent_norm_bounded(self):
        g = random_connected_graph(30, 0.15, seed=4)
        spec = resolve_spec(parse_manifold("e5"))
        emb = initialize(spec, g, TrainConfig(seed=6, epochs=1))
        assert np.linalg.norm(emb.blocks[0], axis=1).max() <= 0.1 + 1e-12


class TestLossDistance:
    def test_isometric_p3_on_line(self):
        g = path_graph(3)
        spec = parse_manifold("e1")
        emb = Embedding(spec=spec, blocks=[np.array([[0.0], [1.0], [2.0]])])
        target = DistanceTarget.from_hops(bfs_apsp(g))
        assert loss_distance(emb, target, target.pairs) == pytest.approx(0.0)

    def test_single_pair_formula(self):
        g = from_edges(2, [(0, 1)])
        spec = parse_manifold("e1")
        emb = Embedding(spec=spec, blocks=[np.array([[0.0], [math.sqrt(2.0)]])])
        target = DistanceTarget.from_hops(bfs_apsp(g))
        # squared distance 2 against graph distance 1
        assert loss_distance(emb, target, target.pairs) == pytest.approx(1.0)

    def test_matches_reference_oracle(self, rng):
        g = random_connected_graph(10, 0.3, seed=11)
        cfg = TrainConfig(seed=3, epochs=1)
        emb = make_embedding("h2,e2,rot(a=1.0)", g, cfg)
        dist = bfs_apsp(g)
        target = DistanceTarget.from_hops(dist)
        assert loss_distance(emb, target, target.pairs) == pytest.approx(
            loss_distance_reference(emb, dist, target.pairs), rel=1e-12
        )

    def test_unreachable_pair_rejected(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        target = DistanceTarget.from_hops(bfs_apsp(g))
        emb = Embedding(spec=parse_manifold("e1"), blocks=[np.zeros((4, 1))])
        with pytest.raises(ValueError):
            loss_distance(emb, target, np.array([[0, 2]]))


class TestLossCurvature:
    def test_zero_at_exact_match(self):
        g = complete_graph(3)
        cfg = TrainConfig(seed=0, epochs=1)
        emb = make_embedding("rot(a=1.0)", g, cfg)
        shift = emb.shift_constants
        # all nodes share min Forman; the matching radius solves R_a = delta_hat
        r_star = rotsym_curvature_inverse(1.0, shift.delta_hat)
        emb.blocks[0][:, 0] = r_star
        assert loss_curvature(emb, forman(g), cfg) == pytest.approx(0.0, abs=1e-18)

    def test_single_node_normalized(self):
        g = from_edges(1, [])
        spec = resolve_spec(parse_manifold("rot(a=1.0)"))
        emb = Embedding(spec=spec, blocks=[np.array([[0.0]])])
        # residual 2 with |F| = 1 and eps = 1 gives a unit loss term
        f = forman(from_edges(2, [(0, 1)]))  # node values (1-regular K2): F = 2
        f.node_values = np.array([1.0])
        f._degrees = np.array([1])
        emb.shift_constants = ShiftConstants(
            min_forman=1.0 - (rotsym_curvature(1.0, 0.0) + 2.0), delta_hat=0.0, lam=1.0, r_h=0.0
        )
        cfg = TrainConfig(epsilon=1.0)
        assert loss_curvature(emb, f, cfg) == pytest.approx(1.0)

    def test_matches_reference_oracle(self):
        g = random_connected_graph(12, 0.25, seed=9)
        for residuals in ("normalized", "raw"):
            cfg = TrainConfig(seed=1, epochs=1, curvature_residuals=residuals)
            emb = make_embedding("e2,rot(a=1.0)", g, cfg)
            f = forman(g)
            assert loss_curvature(emb, f, cfg) == pytest.approx(
                loss_curvature_reference(emb, f, cfg), rel=1e-12
            )

    def test_requires_shift_constants(self):
        g = path_graph(3)
        cfg = TrainConfig(seed=0, epochs=1)
        emb = make_embedding("e2", g, cfg)
        with pytest.raises(ValueError):
            loss_curvature(emb, forman(g), cfg)


class TestLossTotal:
    def test_tau_zero_equals_distance(self):
        g = random_connected_graph(8, 0.3, seed=5)
        cfg = TrainConfig(tau=0.0, seed=2, epochs=1)
        emb = make_embedding("h2,rot(a=1.0)", g, cfg)
        target = DistanceTarget.from_hops(bfs_apsp(g))
        pairs = target.pairs
        assert loss_total(emb, target, forman(g), cfg, pairs) == loss_distance(emb, target, pairs)

    def test_weighted_sum(self):
        g = random_connected_graph(8, 0.3, seed=6)
        cfg = TrainConfig(tau=1.0, seed=2, epochs=1)
        emb = make_embedding("h2,rot(a=1.0)", g, cfg)
        target = DistanceTarget.from_hops(bfs_apsp(g))
        pairs = target.pairs
        f = forman(g)
        expect = loss_distance(emb, target, pairs) + loss_curvature(emb, f, cfg)
        assert loss_total(emb, target, f, cfg, pairs) == pytest.approx(expect, rel=1e-14)


def directional_fd_check(emb, target, f_signal, cfg, pairs, h=1e-5, rel_tol=1e-4):
    """Assert analytic gradients match central differences along every tangent
    basis direction of every node. Returns number of directions checked."""
    grad = gradients(emb, target, f_signal, cfg, pairs)
    checked = 0
    for node in range(emb.n):
        for fi, fac in enumerate(emb.spec.factors):
            for v in tangent_basis(fac, emb.blocks[fi][node]):
                def loss_at(t):
                    e2 = emb.copy()
                    e2.blocks[fi][node] = factor_exp(fac, emb.blocks[fi][node], t * v)
                    return loss_total(e2, target, f_signal, cfg, pairs)

                fd = (loss_at(h) - loss_at(-h)) / (2 * h)
                gv = grad.blocks[fi][node]
                ip = float(mink_inner(gv, v)) if fac.kind == "hyperbolic" else float(gv @ v)
                analytic = fac.lam**2 * ip
                assert analytic == pytest.approx(fd, rel=rel_tol, abs=5e-7), (
                    f"node {node}, factor {fac.to_string()}"
                )
                checked += 1
    return checked


def kink_margin(emb, dist, pairs, margin=1e-3):
    """True when no pair ratio sits near the |.| kink (where FD is invalid)."""
    ratio = pair_sq_distances(emb, pairs) / graph_sq_distances(dist, pairs)
    return bool(np.abs(ratio - 1.0).min() > margin)


def gradient_cases():
    """Three specs, one of them on a disconnected graph."""
    a = random_connected_graph(9, 0.3, seed=23)
    b = random_connected_graph(5, 0.5, seed=24)
    split = from_edges(14, [(i, j) for i, j in a.edges()]
                       + [(i + 9, j + 9) for i, j in b.edges()])
    assert (bfs_apsp(split) == UNREACHABLE).any()
    return [("e3,s2,h2,rot(a=1.0,l=0.5)", random_connected_graph(12, 0.3, seed=25)),
            ("s3,e2", random_connected_graph(10, 0.3, seed=26)),
            ("h3,h2,rot(a=1.3)", split)]


def assert_blocks_close(got, want):
    for a, b in zip(got.blocks, want.blocks, strict=True):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


def test_gradients_keeps_the_parameter_names_the_bench_tracer_binds():
    # bench/tracer.py reads the call's ``emb`` and ``pairs`` arguments by name
    params = inspect.signature(optim.gradients).parameters
    assert "emb" in params and "pairs" in params


class TestGradients:
    def test_fd_agreement_mixed_spec(self):
        g = random_connected_graph(9, 0.3, seed=21)
        dist = bfs_apsp(g)
        target = DistanceTarget.from_hops(dist)
        pairs = target.pairs
        cfg = TrainConfig(tau=0.7, seed=4, epochs=1)
        emb = make_embedding("h2,s2,rot(a=1.0,l=0.5)", g, cfg)
        assert kink_margin(emb, dist, pairs)
        n = directional_fd_check(emb, target, forman(g), cfg, pairs)
        assert n == g.n * (2 + 2 + 1)
        # all pairs walk the upper tiles; a strict subset, its anchor-row blocks
        subset = pairs[::3]
        assert directional_fd_check(emb, target, forman(g), cfg, subset) == n

    def test_dense_route_matches_gathered_pairs(self):
        # oracle: gathered rows scattered onto their nodes (conftest)
        for spec_text, g in gradient_cases():
            dist = bfs_apsp(g)
            target = DistanceTarget.from_hops(dist)
            cfg = TrainConfig(tau=0.0, seed=5, epochs=1)
            emb = make_embedding(spec_text, g, cfg)
            dense = gradients(emb, target, None, cfg, target.pairs)
            oracle = gradients_reference(emb, dist, None, cfg, target.pairs)
            assert dense.skipped_pairs == oracle.skipped_pairs == 0
            assert dense.loss_distance == pytest.approx(oracle.loss_distance, rel=1e-12)
            assert_blocks_close(dense, oracle)
            if "rot" in spec_text:  # the curvature term rides along on both routes
                cfg = TrainConfig(tau=0.5, seed=5, epochs=1)
                f = forman(g, cfg.gamma)
                dense = gradients(emb, target, f, cfg, target.pairs)
                gathered = gradients_reference(emb, dist, f, cfg, target.pairs[::-1].copy())
                assert_blocks_close(dense, gathered)

    def test_masked_batch_matches_gathered_pairs(self, rng):
        # a batch walks the blocks of its anchor rows; oracle: gathered rows
        for spec_text, g in gradient_cases():
            dist = bfs_apsp(g)
            target = DistanceTarget.from_hops(dist)
            cfg = TrainConfig(tau=0.5 if "rot" in spec_text else 0.0, seed=7, epochs=1)
            emb = make_embedding(spec_text, g, cfg)
            f = forman(g, cfg.gamma) if cfg.tau > 0 else None
            n_pairs = target.pairs.shape[0]
            for size in (1, 7, n_pairs // 2, n_pairs - 1):
                batch = target.pairs[np.sort(rng.choice(n_pairs, size=size, replace=False))]
                got = gradients(emb, target, f, cfg, batch)
                want = gradients_reference(emb, dist, f, cfg, batch)
                assert got.skipped_pairs == want.skipped_pairs == 0
                assert_blocks_close(got, want)
                assert got.loss_distance == pytest.approx(want.loss_distance, rel=1e-12)
                assert loss_distance(emb, target, batch) == pytest.approx(
                    want.loss_distance, rel=1e-12)

    def test_tiles_match_gathered_pairs(self, rng):
        # n = 400 takes three or more tile rows; coincident hyperboloid and
        # antipodal sphere pairs sit inside a diagonal tile, in off-diagonal
        # tiles, and on the two sides of each tile boundary
        _, dist, target, cfg, emb, f, singular = mixed_singular_case(rng)
        coincident, antipodal = singular[:3], singular[3:]
        n_pairs = target.pairs.shape[0]
        sample = target.pairs[np.sort(rng.choice(n_pairs, size=2000, replace=False))]
        with_singular = np.unique(np.vstack([sample, coincident, antipodal[1:]]), axis=0)
        for batch, singular in ((target.pairs, 6), (sample, None), (with_singular, 5)):
            got = gradients(emb, target, f, cfg, batch)
            want = gradients_reference(emb, dist, f, cfg, batch)
            assert got.skipped_pairs == want.skipped_pairs
            if singular is not None:
                assert got.skipped_pairs == singular
            assert_blocks_close(got, want)
            assert got.loss_distance == pytest.approx(want.loss_distance, rel=1e-12)
            assert loss_distance(emb, target, batch) == pytest.approx(
                want.loss_distance, rel=1e-12)

    def test_singular_pairs_counted_inside_the_batch_only(self):
        # path 0-1-2-3 with node 0 on node 1 and node 2 on node 3
        g = path_graph(4)
        dist = bfs_apsp(g)
        target = DistanceTarget.from_hops(dist)
        pole, far = [0.0, 0.0, 1.0], [math.sinh(0.5), 0.0, math.cosh(0.5)]
        emb = Embedding(spec=parse_manifold("h2"), blocks=[np.array([pole, pole, far, far])])
        cfg = TrainConfig(tau=0.0)
        for batch, singular in ((target.pairs, 2), (target.pairs.copy(), 2), ([[0, 1]], 1),
                                ([[0, 2], [1, 3]], 0), ([[1, 2], [2, 3]], 1)):
            batch = np.asarray(batch)
            got = gradients(emb, target, None, cfg, batch)
            want = gradients_reference(emb, dist, None, cfg, batch)
            assert got.skipped_pairs == want.skipped_pairs == singular
            assert np.allclose(got.blocks[0], want.blocks[0], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("bad", [[[1, 1]], [[0, 3]], [[0, 1], [0, 1]], [[0, 1], [1, 0]]],
                             ids=["self", "unreachable", "repeated", "mirrored"])
    def test_pair_validation(self, bad):
        g = from_edges(4, [(0, 1), (1, 2)])  # node 3 is isolated
        target = DistanceTarget.from_hops(bfs_apsp(g))
        emb = Embedding(spec=parse_manifold("e2"), blocks=[np.arange(8.0).reshape(4, 2)])
        cfg = TrainConfig(tau=0.0)
        with pytest.raises(ValueError):
            gradients(emb, target, None, cfg, np.array(bad))
        with pytest.raises(ValueError):
            loss_distance(emb, target, np.array(bad))
        gradients(emb, target, None, cfg, np.array([[0, 2], [1, 2]]))  # distinct and connected

    def test_tau_zero_radial_gradient_distance_only(self):
        g = random_connected_graph(7, 0.4, seed=22)
        dist = bfs_apsp(g)
        target = DistanceTarget.from_hops(dist)
        pairs = target.pairs
        cfg0 = TrainConfig(tau=0.0, seed=4, epochs=1)
        emb = make_embedding("e2,rot(a=1.0)", g, cfg0)
        g0 = gradients(emb, target, None, cfg0, pairs)
        # tau = 0 radial gradient comes from the (r_i - r_j) terms alone
        r = emb.radii()
        d_g2 = dist[pairs[:, 0], pairs[:, 1]].astype(float) ** 2
        sigma = np.sign(pair_sq_distances(emb, pairs) / d_g2 - 1.0)
        expected = np.zeros(emb.n)
        for (i, j), s, dg2 in zip(pairs, sigma, d_g2):
            expected[i] += 2.0 * s * (r[i] - r[j]) / dg2
            expected[j] += 2.0 * s * (r[j] - r[i]) / dg2
        assert np.allclose(g0.blocks[1][:, 0], expected, rtol=1e-12)

    def test_isometric_embedding_zero_gradient(self):
        g = path_graph(3)
        target = DistanceTarget.from_hops(bfs_apsp(g))
        emb = Embedding(spec=parse_manifold("e1"), blocks=[np.array([[0.0], [1.0], [2.0]])])
        cfg = TrainConfig(tau=0.0)
        out = gradients(emb, target, None, cfg, target.pairs)
        assert np.allclose(out.blocks[0], 0.0)

    def test_coincident_pair_skipped_and_counted(self):
        g = from_edges(2, [(0, 1)])
        target = DistanceTarget.from_hops(bfs_apsp(g))
        pole = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        emb = Embedding(spec=parse_manifold("h2"), blocks=[pole])
        out = gradients(emb, target, None, TrainConfig(tau=0.0), target.pairs)
        assert out.skipped_pairs == 1
        assert np.allclose(out.blocks[0], 0.0)
        # all pairs of a path 0-1-2 plus an isolated node 3: the connected mask
        # counts the coincident edge (0, 1), but neither the diagonal nor the
        # unreachable coincident pairs (0, 3) and (1, 3); so do gathered rows
        g = from_edges(4, [(0, 1), (1, 2)])
        dist = bfs_apsp(g)
        target = DistanceTarget.from_hops(dist)
        far = [math.sinh(0.5), 0.0, math.cosh(0.5)]
        emb = Embedding(spec=parse_manifold("h2"),
                        blocks=[np.array([pole[0], pole[0], far, pole[0]])])
        dense = gradients(emb, target, None, TrainConfig(tau=0.0), target.pairs)
        gathered = gradients_reference(emb, dist, None, TrainConfig(tau=0.0),
                                       target.pairs[::-1].copy())
        assert dense.skipped_pairs == gathered.skipped_pairs == 1
        assert np.allclose(dense.blocks[0], gathered.blocks[0], rtol=1e-12, atol=1e-15)
        assert np.abs(dense.blocks[0][:3]).max() > 0.1

    def test_carries_the_distance_loss_of_its_pairs(self):
        # every gradient carries the distance loss over its own pairs and the
        # curvature loss at its point, the losses train logs
        g = random_connected_graph(14, 0.25, seed=27)
        target = DistanceTarget.from_hops(bfs_apsp(g))
        cfg = TrainConfig(tau=0.4, seed=6, epochs=1)
        emb = make_embedding("e3,s2,h2,rot(a=1.0,l=0.5)", g, cfg)
        f = forman(g, cfg.gamma)
        subset = target.pairs[::4].copy()
        anchors = target.anchor_pairs(np.array([2, 9]))
        assert loss_distance(emb, target, subset) < loss_distance(emb, target, target.pairs)
        for batch in (target.pairs, subset, anchors):
            got = gradients(emb, target, f, cfg, batch)
            assert got.loss_distance == loss_distance(emb, target, batch)
            assert got.loss_curvature == loss_curvature(emb, f, cfg)
        assert gradients(emb, target, None, replace(cfg, tau=0.0), subset).loss_curvature == 0.0


def mixed_singular_case(rng):
    """n = 400 (three tile rows) on h2,s2,e2,rot with coincident hyperboloid and
    antipodal sphere pairs inside and across tiles; returns (graph, dist,
    target, cfg, embedding, Forman signal, the singular pairs)."""
    g = random_connected_graph(400, 0.01, seed=41)
    dist = bfs_apsp(g)
    target = DistanceTarget.from_hops(dist)
    tiles = target.workspace.tiles
    assert len(tiles) >= 3 and tiles[-1].stop == 400
    cut1, cut2 = tiles[1].start, tiles[2].start
    cfg = TrainConfig(tau=0.5, seed=8, epochs=1)
    emb = make_embedding("h2,s2,e2,rot(a=1.0,l=0.5)", g, cfg)
    coincident = [(20, 40), (5, cut2 + 30), (cut1 - 1, cut1)]
    antipodal = [(50, 60), (10, cut1 + 60), (cut2 - 1, cut2)]
    for i, j in coincident:
        emb.blocks[0][j] = emb.blocks[0][i]
    for i, j in antipodal:
        emb.blocks[1][j] = -emb.blocks[1][i]
    return g, dist, target, cfg, emb, forman(g, cfg.gamma), coincident + antipodal


class TestAnchorBatches:
    """A minibatch is every connected pair with an end among some anchor rows;
    gradients walks any pair list by the blocks of its first entries."""

    def assert_matches_reference(self, emb, target, dist, f, cfg, batch):
        got = gradients(emb, target, f, cfg, batch)
        want = gradients_reference(emb, dist, f, cfg, batch)
        assert got.skipped_pairs == want.skipped_pairs
        assert_blocks_close(got, want)
        assert got.loss_distance == pytest.approx(want.loss_distance, rel=1e-12)
        assert loss_distance(emb, target, batch) == got.loss_distance
        return got

    def test_anchor_pairs_match_loop(self):
        g = from_edges(16, [(i, j) for i, j in random_connected_graph(9, 0.3, seed=23).edges()]
                       + [(10, 11), (11, 12), (12, 13), (13, 14)])  # nodes 9 and 15 isolated
        target = DistanceTarget.from_hops(bfs_apsp(g))
        for anchors in ([0], [3, 4, 5], [9], [9, 15], [10, 12, 14], [0, 9, 11, 14, 15],
                        list(range(16))):
            got = target.anchor_pairs(np.array(anchors))
            want = anchor_batch_reference(target.hops, anchors)
            assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
        assert target.anchor_pairs(np.arange(16)).tobytes() == target.pairs.tobytes()

    def test_gradients_match_gathered_pairs(self, rng):
        for spec_text, g in gradient_cases():
            # node n is isolated: an anchor with no pairs
            g = from_edges(g.n + 1, [tuple(e) for e in g.edges()])
            dist = bfs_apsp(g)
            target = DistanceTarget.from_hops(dist)
            cfg = TrainConfig(tau=0.5 if "rot" in spec_text else 0.0, seed=7, epochs=1)
            emb = make_embedding(spec_text, g, cfg)
            f = forman(g, cfg.gamma) if cfg.tau > 0 else None
            n = g.n
            anchor_sets = [[0], [n - 1], [0, 1, 2], [1, n - 1], [n - 3, n - 2, n - 1]]
            anchor_sets += [sorted(rng.choice(n, size=k, replace=False)) for k in (2, 4, n // 2)]
            for anchors in anchor_sets:
                batch = target.anchor_pairs(np.array(anchors))  # [n - 1] lists no pair
                self.assert_matches_reference(emb, target, dist, f, cfg, batch)

    def test_arbitrary_lists_match_gathered_pairs(self, rng):
        # any orientation and order; the rows are the distinct first entries
        for spec_text, g in gradient_cases():
            dist = bfs_apsp(g)
            target = DistanceTarget.from_hops(dist)
            cfg = TrainConfig(tau=0.0, seed=9, epochs=1)
            emb = make_embedding(spec_text, g, cfg)
            n_pairs = target.pairs.shape[0]
            for size in (1, 5, n_pairs // 3, n_pairs):
                batch = target.pairs[rng.choice(n_pairs, size=size, replace=False)]
                flip = rng.random(size) < 0.5
                batch[flip] = batch[flip][:, ::-1]
                got = self.assert_matches_reference(emb, target, dist, None, cfg, batch)
                if size == n_pairs:  # all pairs as a new list, not target.pairs itself
                    whole = gradients(emb, target, None, cfg, target.pairs)
                    assert got.loss_distance == pytest.approx(whole.loss_distance, rel=1e-12)
                    assert_blocks_close(got, whole)

    def test_row_chunks(self, rng):
        # 200 anchors take two row chunks at n = 400
        g = random_connected_graph(400, 0.01, seed=41)
        dist = bfs_apsp(g)
        target = DistanceTarget.from_hops(dist)
        assert target.workspace.side < 200
        cfg = TrainConfig(tau=0.5, seed=8, epochs=1)
        emb = make_embedding("h2,s2,e2,rot(a=1.0,l=0.5)", g, cfg)
        batch = target.anchor_pairs(np.sort(rng.choice(400, size=200, replace=False)))
        self.assert_matches_reference(emb, target, dist, forman(g, cfg.gamma), cfg, batch)

    def test_singular_pairs_counted_once(self, rng):
        # singular pairs inside the anchor set, across it and outside it
        _, dist, target, cfg, emb, f, singular = mixed_singular_case(rng)
        ends = sorted({i for pair in singular for i in pair})
        for anchors, count in ((ends, 6), (ends[::2], 6), ([5, 20, 50], 3), ([100], 0)):
            batch = target.anchor_pairs(np.array(anchors))
            got = self.assert_matches_reference(emb, target, dist, f, cfg, batch)
            assert got.skipped_pairs == count

    def test_batch_gradient_allocates_less_than_an_n_by_n_bool(self):
        g = random_connected_graph(400, 0.01, seed=41)
        target = DistanceTarget.from_hops(bfs_apsp(g))
        cfg = TrainConfig(tau=0.5, seed=8, epochs=1)
        emb = make_embedding("h2,s2,e2,rot(a=1.0,l=0.5)", g, cfg)
        f = forman(g, cfg.gamma)
        batch = target.anchor_pairs(np.array([3, 150, 299]))
        gradients(emb, target, f, cfg, batch)  # the workspace allocates its buffers once
        tracemalloc.start()
        try:
            gradients(emb, target, f, cfg, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * 400


class TestRsgdStep:
    def test_zero_gradient_fixed_point(self):
        g = random_connected_graph(6, 0.4, seed=31)
        cfg = TrainConfig(seed=1, epochs=1)
        emb = make_embedding("h2,rot(a=1.0)", g, cfg)
        zero = [np.zeros_like(b) for b in emb.blocks]
        out = rsgd_step(emb, zero, lr=0.5)
        for a, b in zip(emb.blocks, out.blocks):
            assert np.allclose(a, b, atol=1e-15)

    def test_radial_positive_part(self):
        spec = resolve_spec(parse_manifold("rot(a=1.0)"))
        emb = Embedding(spec=spec, blocks=[np.array([[0.1]])])
        out = rsgd_step(emb, [np.array([[0.5]])], lr=1.0)
        assert out.blocks[0][0, 0] == 0.0

    def test_constraint_preserved(self):
        g = random_connected_graph(10, 0.3, seed=32)
        dist = bfs_apsp(g)
        pairs = connected_pairs(dist)
        cfg = TrainConfig(tau=0.0, seed=2, epochs=1)
        emb = make_embedding("h3", g, cfg)
        target = DistanceTarget.from_hops(dist)
        for _ in range(50):
            emb = rsgd_step(emb, gradients(emb, target, None, cfg, target.pairs), lr=0.01)
        assert np.abs(mink_inner(emb.blocks[0], emb.blocks[0]) + 1.0).max() < 1e-9


class TestTrain:
    def test_p3_isometric_convergence(self):
        g = path_graph(3)
        cfg = TrainConfig(tau=0.0, epochs=500, seed=2, learning_rate=0.03)
        emb, hist = train(g, parse_manifold("e2"), cfg)
        dist = bfs_apsp(g)
        pairs = connected_pairs(dist)
        dm = np.sqrt(pairwise_sq_distances(emb.spec, emb.blocks))
        ad = np.abs(1 - dm[pairs[:, 0], pairs[:, 1]] / dist[pairs[:, 0], pairs[:, 1]]).mean()
        assert ad <= 1e-3

    def test_k3_curvature_reachable(self):
        g = complete_graph(3)
        cfg = TrainConfig(tau=5.0, epochs=1500, seed=2, learning_rate=0.02,
                          delta=1.0, ell_plus=1.0)
        emb, _ = train(g, parse_manifold("e2,rot(a=auto)"), cfg)
        f = forman(g)
        shift = emb.shift_constants
        rec = rotsym_curvature(emb.spec.rotsym_factor.alpha, emb.radii()) \
            + shift.min_forman - shift.delta_hat
        ad_c = (np.abs(f.node_values - rec) / (np.abs(f.node_values) + 1)).mean()
        assert ad_c <= 1e-2

    def test_seed_reproducibility(self):
        g = random_connected_graph(12, 0.25, seed=41)
        cfg = TrainConfig(tau=0.3, epochs=40, seed=9, learning_rate=0.02)
        emb1, h1 = train(g, parse_manifold("h2,rot(a=auto)"), cfg)
        emb2, h2 = train(g, parse_manifold("h2,rot(a=auto)"), cfg)
        assert h1.loss_d == h2.loss_d and h1.loss_c == h2.loss_c
        assert all(np.array_equal(a, b) for a, b in zip(emb1.blocks, emb2.blocks))

    def test_radii_stay_nonnegative(self):
        g = random_connected_graph(10, 0.3, seed=42)
        cfg = TrainConfig(tau=2.0, epochs=60, seed=3, learning_rate=0.1)
        emb, _ = train(g, parse_manifold("e2,rot(a=auto)"), cfg)
        assert np.all(emb.radii() >= 0.0)

    def test_tau_zero_never_reads_forman(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("forman must not be computed when tau = 0")

        monkeypatch.setattr(optim, "forman", spy)
        g = random_connected_graph(8, 0.3, seed=43)
        cfg = TrainConfig(tau=0.0, epochs=5, seed=1)
        train(g, parse_manifold("h2,rot(a=1.0)"), cfg)  # concrete alpha: no Forman needed
        train(g, parse_manifold("h2"), cfg)
        assert not calls

    def test_homogeneous_spec_ignores_tau(self):
        g = random_connected_graph(8, 0.3, seed=44)
        cfg = TrainConfig(tau=0.5, epochs=5, seed=1)
        emb, hist = train(g, parse_manifold("e3"), cfg)
        assert emb.shift_constants is None
        assert all(c == 0.0 for c in hist.loss_c)

    def test_loss_invariant_under_node_relabeling(self):
        g = random_connected_graph(9, 0.3, seed=45)
        perm = np.random.default_rng(0).permutation(g.n)
        remap = {int(o): int(n) for o, n in zip(range(g.n), perm)}
        g2 = from_edges(g.n, [(remap[int(i)], remap[int(j)]) for i, j in g.edges()])
        cfg = TrainConfig(tau=0.4, seed=7, epochs=1)
        emb1 = make_embedding("e2,rot(a=1.0)", g, cfg)
        emb2 = make_embedding("e2,rot(a=1.0)", g2, cfg)
        # carry node i's coordinates to its new label
        for b1, b2 in zip(emb1.blocks, emb2.blocks):
            b2[perm] = b1
        emb2.shift_constants = emb1.shift_constants
        t1, t2 = DistanceTarget.from_hops(bfs_apsp(g)), DistanceTarget.from_hops(bfs_apsp(g2))
        f1, f2 = forman(g), forman(g2)
        assert loss_total(emb1, t1, f1, cfg, t1.pairs) == pytest.approx(
            loss_total(emb2, t2, f2, cfg, t2.pairs), rel=1e-12
        )

    def test_curvature_minimum_inverts_target(self):
        # at a curvature-loss minimum, R_a(r_i) recovers the shifted target;
        # curvature dominates (raw residuals, large tau) so the radii land on
        # the bisection inverse of each node's target
        g = path_graph(4)
        cfg = TrainConfig(tau=50.0, epochs=3000, seed=5, learning_rate=0.002,
                          curvature_residuals="raw", radial_init=(1.5, 2.5))
        emb, _ = train(g, parse_manifold("e2,rot(a=auto)"), cfg)
        shift = emb.shift_constants
        f = forman(g)
        alpha = emb.spec.rotsym_factor.alpha
        for i in range(g.n):
            target = f.node_values[i] - shift.min_forman + shift.delta_hat
            r_star = rotsym_curvature_inverse(alpha, target)
            assert emb.radii()[i] == pytest.approx(r_star, abs=5e-2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort_carries_state(self):
        g = path_graph(3)
        cfg = TrainConfig(tau=0.0, epochs=50, seed=1, learning_rate=1e12)
        with pytest.raises(NumericAbortError) as exc:
            train(g, parse_manifold("h2"), cfg)
        assert "epoch" in exc.value.state


class TestTrainLoopOrder:
    """Training reads each epoch's loss from the next epoch's gradient; the
    reference takes the loss by its own call after every step."""

    TWIN = dict(tau=1.0, seed=11, learning_rate=0.01, lambda_rot=0.5, delta=1.0,
                ell_plus=1.0, gamma=1.0, curvature_residuals="raw")

    @pytest.mark.parametrize("epochs", [1, 2, 12])
    @pytest.mark.parametrize("spec_text, overrides", [
        ("h5,h5,rot(a=auto)", {}),
        ("e3,s2,h2,rot(a=1.0,l=0.5)", dict(tau=0.5, learning_rate=0.02)),
        ("h5,h5,rot(a=auto)", dict(batch_pairs=100, radial_init="auto")),
    ], ids=["twin", "mixed", "batch100"])
    def test_matches_reference_loop_bitwise(self, spec_text, overrides, epochs):
        g = random_connected_graph(30, 0.12, seed=41)
        self.assert_matches_reference(g, spec_text, TrainConfig(**{**self.TWIN, **overrides,
                                                                   "epochs": epochs}))

    def test_minibatches_draw_only_nodes_with_pairs(self):
        g = random_connected_graph(30, 0.12, seed=41)
        g = from_edges(34, [tuple(e) for e in g.edges()])  # nodes 30..33 have no pairs
        cfg = TrainConfig(**{**self.TWIN, "batch_pairs": 100, "radial_init": "auto",
                             "epochs": 12})
        self.assert_matches_reference(g, "h5,h5,rot(a=auto)", cfg)

    @staticmethod
    def assert_matches_reference(g, spec_text, cfg):
        emb, hist = train(g, parse_manifold(spec_text), cfg)
        blocks, loss_d, loss_c = train_reference(g, parse_manifold(spec_text), cfg)
        assert hist.loss_d == loss_d and hist.loss_c == loss_c
        for got, want in zip(emb.blocks, blocks, strict=True):
            assert got.tobytes() == want.tobytes()
