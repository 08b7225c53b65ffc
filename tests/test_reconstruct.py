from collections import Counter

import numpy as np
import pytest

from hetembed.graph import forman, from_edges, triangle_counts
from hetembed.manifold import parse_manifold, resolve_spec, rotsym_curvature_inverse
from hetembed.metrics import reconstructed_forman
from hetembed.optim import Embedding, ShiftConstants, TrainConfig, initialize
from hetembed.reconstruct import (
    curvature_correction,
    edge_mismatch,
    estimate_triangles,
    estimate_triangles_from_curvature,
    nn_graph,
    tune_threshold,
)
from hetembed.synthetic import complete_graph, gnp_graph, path_graph, random_connected_graph

from conftest import curvature_correction_reference, forman_reference, tune_threshold_reference


def line_embedding(coords):
    return Embedding(spec=parse_manifold("e1"),
                     blocks=[np.asarray(coords, dtype=float)[:, None]])


class TestNnGraph:
    def test_below_min_distance_empty(self):
        emb = line_embedding([0, 1, 2])
        assert nn_graph(emb, 0.5).num_edges == 0

    def test_above_diameter_complete(self):
        emb = line_embedding([0, 1, 2])
        g = nn_graph(emb, 10.0)
        assert g.num_edges == 3

    def test_unit_spacing_path(self):
        emb = line_embedding([0, 1, 2, 3, 4])
        g = nn_graph(emb, 1.0)
        assert g.edge_set() == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_monotone_in_rho(self, rng):
        emb = line_embedding(rng.normal(0, 2, size=12))
        previous = set()
        for rho in (0.3, 0.8, 1.5, 3.0, 8.0):
            edges = nn_graph(emb, rho).edge_set()
            assert previous <= edges
            previous = edges


class TestTuneThreshold:
    def test_separable_cloud_perfect(self):
        # all true-edge distances below all non-edge distances
        g = path_graph(4)
        emb = line_embedding([0.0, 1.0, 2.0, 3.0])
        rho = tune_threshold(emb, g, seed=1)
        rec = nn_graph(emb, rho)
        assert edge_mismatch(rec, g) == 0

    def test_matches_dense_grid_oracle(self, rng):
        g = random_connected_graph(12, 0.25, seed=17)
        emb = line_embedding(rng.normal(0, 1.5, size=12))
        seed = 3
        rho = tune_threshold(emb, g, seed=seed)

        # oracle: mismatch over a dense grid of thresholds, same validation rows
        n = g.n
        sample_rng = np.random.default_rng(seed)
        val = np.sort(sample_rng.choice(n, size=max(1, round(0.10 * n)), replace=False))
        dm = np.abs(emb.blocks[0][:, 0][:, None] - emb.blocks[0][:, 0][None, :])
        adj = np.zeros((n, n), dtype=bool)
        for i in range(n):
            adj[i, g.adj[i]] = True

        def mismatch(r):
            total = 0
            for u in val:
                for v in range(n):
                    if u == v:
                        continue
                    total += int((dm[u, v] <= r) != adj[u, v])
            return total

        grid = np.linspace(1e-6, dm.max() * 1.1, 4000)
        oracle_best = min(mismatch(r) for r in grid)
        assert mismatch(rho) == oracle_best

    def test_matches_loop_reference(self, rng):
        twins = np.repeat(rng.normal(0, 1, size=15), 2)  # each node has a twin at distance 0
        cases = [(random_connected_graph(40, 0.2, seed=s), rng.normal(0, 2, size=40))
                 for s in range(4)]
        cases += [
            (from_edges(30, []), rng.normal(0, 1, size=30)),  # the first band wins
            (from_edges(30, []), twins),  # the first band is empty at distance 0
            (complete_graph(30), rng.normal(0, 1, size=30)),  # the last band wins
        ]
        val_degrees = []
        for seed, (g, coords) in enumerate(cases):
            emb = line_embedding(coords)
            rho = tune_threshold(emb, g, seed=seed)
            assert rho.hex() == tune_threshold_reference(emb, g, seed=seed).hex()
            val = np.random.default_rng(seed).choice(g.n, size=round(0.1 * g.n), replace=False)
            val_degrees.append(set(nn_graph(emb, rho).degrees[val].tolist()))
        assert val_degrees[-3:] == [{0}, {1}, {29}]

    def test_deterministic(self, rng):
        g = random_connected_graph(10, 0.3, seed=18)
        emb = line_embedding(rng.normal(0, 1, size=10))
        assert tune_threshold(emb, g, seed=5) == tune_threshold(emb, g, seed=5)

    def test_rescale_equivariance(self, rng):
        g = random_connected_graph(10, 0.3, seed=19)
        coords = rng.normal(0, 1, size=10)
        rho1 = tune_threshold(line_embedding(coords), g, seed=2)
        rho2 = tune_threshold(line_embedding(coords * 3.0), g, seed=2)
        assert rho2 == pytest.approx(3.0 * rho1, rel=1e-9)

    def test_val_fraction_bounds(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            tune_threshold(line_embedding([0, 1, 2, 3]), g, val_fraction=0.0)


def rot_embedding_for(g, radii, shift, alpha=1.0):
    spec = resolve_spec(parse_manifold("e1,rot(a=%r)" % alpha))
    emb = initialize(spec, g, TrainConfig(seed=0, epochs=1))
    emb.blocks[1][:, 0] = radii
    emb.shift_constants = shift
    return emb


class TestEstimateTriangles:
    def test_k3_exact_at_gamma4(self):
        g = complete_graph(3)
        est = estimate_triangles_from_curvature(g, np.full(3, 12.0), gamma=4.0)
        assert np.allclose(est, 1.0)

    def test_triangle_free_zero(self):
        g = path_graph(4)
        f = forman(g, gamma=4.0)
        est = estimate_triangles_from_curvature(g, f.node_values, gamma=4.0)
        assert np.allclose(est, 0.0)

    def test_exact_inversion_random(self):
        # true adjacency + true Forman values invert to true triangle counts
        for seed in range(6):
            g = gnp_graph(20, 0.35, seed=seed)
            f = forman(g, gamma=4.0)
            _, tri = triangle_counts(g)
            est = estimate_triangles_from_curvature(g, f.node_values, gamma=4.0)
            deg = g.degrees
            assert np.allclose(est[deg > 0], tri[deg > 0])
            assert np.allclose(est[deg == 0], 0.0)

    def test_embedding_path_uses_shift(self):
        g = complete_graph(3)
        f = forman(g, gamma=4.0)  # node values 12
        # choose radii so the decoded proxy equals the true Forman values
        shift = ShiftConstants(min_forman=f.min_node, delta_hat=3.0, lam=1.0, r_h=0.0)
        r = rotsym_curvature_inverse(1.0, 3.0)
        emb = rot_embedding_for(g, [r] * 3, shift)
        assert np.allclose(reconstructed_forman(emb), 12.0)
        out = estimate_triangles(emb, g, gamma=4.0)
        assert np.allclose(out.raw, 1.0)
        assert np.allclose(out.nn_baseline, 1.0)

    def test_negative_estimates_clamped_copy(self):
        g = path_graph(3)
        est = estimate_triangles_from_curvature(g, np.full(3, -30.0), gamma=4.0)
        assert (est < 0).any()
        shift = ShiftConstants(min_forman=0.0, delta_hat=50.0, lam=1.0, r_h=0.0)
        emb = rot_embedding_for(g, [5.0, 5.0, 5.0], shift)
        out = estimate_triangles(emb, g, gamma=4.0)
        assert np.all(out.clamped >= 0.0)


class TestCurvatureCorrection:
    def _setup(self, seed=0):
        g = random_connected_graph(14, 0.3, seed=seed)
        f = forman(g, gamma=1.0)
        shift = ShiftConstants(min_forman=f.min_node, delta_hat=2.0, lam=1.0, r_h=0.0)
        radii = np.array([
            rotsym_curvature_inverse(1.0, float(v - f.min_node + 2.0))
            for v in f.node_values
        ])
        emb = rot_embedding_for(g, radii, shift)
        # embed the true graph structure on the euclidean line factor exactly
        return g, emb

    def test_consistent_graph_untouched(self):
        g, emb = self._setup()
        # reconstruction IS the true graph: proxy matches Forman, no change
        result = curvature_correction(emb, g, rho=1.0, step=0.1, gamma=1.0, g_true=g)
        assert all(not acc for _, _, acc in result.correction_log)
        assert result.graph.edge_set() == g.edge_set()

    def test_error_sum_never_increases(self):
        g, emb = self._setup(seed=4)
        # corrupt reconstruction: drop a few edges
        edges = sorted(g.edge_set())
        broken = from_edges(g.n, edges[:-3])
        proxy = reconstructed_forman(emb)

        def total_err(gr):
            return float(np.abs(proxy - forman(gr, 1.0).node_values).sum())

        before = total_err(broken)
        result = curvature_correction(emb, broken, rho=1.0, step=0.5, gamma=1.0, g_true=g)
        after = total_err(result.graph)
        assert after <= before
        accepted = [e for e in result.correction_log if e[2]]
        if accepted:
            assert after < before

    def test_log_records_direction(self):
        g, emb = self._setup(seed=7)
        edges = sorted(g.edge_set())
        broken = from_edges(g.n, edges[:-4])
        result = curvature_correction(emb, broken, rho=1.0, step=0.5, gamma=1.0, g_true=g)
        for node, action, accepted in result.correction_log:
            assert action in ("densify", "sparsify")
            assert isinstance(accepted, bool)

    def test_mismatch_reported(self):
        g, emb = self._setup(seed=9)
        result = curvature_correction(emb, g, rho=1.0, step=0.2, gamma=1.0, g_true=g)
        assert result.mismatch == edge_mismatch(result.graph, g)

    @staticmethod
    def _random_case(seed, n, gamma, rho=0.8, drop=0.2):
        """Random e2 x rot cloud; its threshold graph with a fifth of the edges dropped."""
        rng = np.random.default_rng(seed)
        emb = Embedding(spec=parse_manifold("e2,rot(a=1.0)"),
                        blocks=[rng.uniform(0, 3, (n, 2)), rng.uniform(0.05, 2.0, (n, 1))])
        g_true = nn_graph(emb, rho)
        edges = sorted(g_true.edge_set())
        keep = rng.random(len(edges)) >= drop
        a_rho = from_edges(n, [e for e, k in zip(edges, keep) if k])
        emb.shift_constants = ShiftConstants(min_forman=forman(g_true, gamma).min_node,
                                             delta_hat=float(rng.uniform(0, 4)), lam=1.0, r_h=0.0)
        return emb, a_rho, g_true

    def test_matches_edge_set_reference(self):
        # gamma 0.7 gives non-integer node values, whose bits depend on the
        # order in which each node adds its edge values
        cases = [(0, 20, 0.7), (3, 35, 0.7), (9, 40, 0.7), (1, 25, 1.0), (4, 40, 4.0),
                 (10, 20, 4.0)]
        outcomes, actions = Counter(), Counter()
        for seed, n, gamma in cases:
            emb, a_rho, g_true = self._random_case(seed, n, gamma)
            log, edges, mismatch, kinds = curvature_correction_reference(
                emb, a_rho, rho=0.8, step=0.3, percentile=70.0, gamma=gamma, g_true=g_true)
            result = curvature_correction(emb, a_rho, rho=0.8, step=0.3, percentile=70.0,
                                          gamma=gamma, g_true=g_true)
            assert result.correction_log == log
            assert [tuple(e) for e in result.graph.edges().tolist()] == edges
            assert result.mismatch == mismatch
            # the accept decisions compare sums of these node values
            assert (forman(result.graph, gamma).node_values.tobytes()
                    == forman_reference(result.graph, gamma)[1].tobytes())
            outcomes.update(kinds)
            actions.update(a for _, a, _ in log)
        assert set(outcomes) == {"accepted", "rejected", "unchanged"}
        assert set(actions) == {"densify", "sparsify"}
