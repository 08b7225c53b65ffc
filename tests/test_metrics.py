import numpy as np
import pytest

from hetembed.graph import UNREACHABLE, bfs_apsp, forman, from_edges, from_mask
from hetembed.manifold import (pairwise_sq_distances, parse_manifold, resolve_spec,
                               rotsym_curvature_inverse, sample_tangent_ball)
from hetembed.metrics import (
    avg_curvature_distortion,
    avg_distance_distortion,
    avg_triangle_distortion,
    evaluate,
    forman_variance,
    mean_average_precision,
    reconstructed_forman,
    volume_match,
)
from hetembed.optim import Embedding, ShiftConstants, TrainConfig, initialize

from conftest import (avg_distance_distortion_reference, connected_pairs_reference,
                      distance_distortion, map_bruteforce, mean_average_precision_loop,
                      sq_distances, three_block_case, traced_peak)
from synthetic import (
    complete_graph,
    cycle_tree,
    gnp_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)


def line_embedding(coords):
    return Embedding(spec=parse_manifold("e1"),
                     blocks=[np.asarray(coords, dtype=float)[:, None]])


class TestAvgDistanceDistortion:
    def test_isometric_p3(self):
        g = path_graph(3)
        assert distance_distortion(line_embedding([0, 1, 2]), g) == 0.0

    def test_doubled_distances(self):
        # every embedded distance at exactly twice the hop distance
        g = path_graph(3)
        assert distance_distortion(line_embedding([0, 2, 4]), g) \
            == pytest.approx(1.0)

    def test_scale_sensitivity(self):
        g = path_graph(4)
        base = distance_distortion(line_embedding([0, 1, 2, 3]), g)
        stretched = distance_distortion(line_embedding([0, 1.5, 3, 4.5]), g)
        assert base == 0.0 and stretched == pytest.approx(0.5)

    def test_disconnected_pairs_excluded(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        emb = line_embedding([0, 1, 10, 11])
        assert distance_distortion(emb, g) == 0.0

    @pytest.mark.parametrize("grid", [True, False], ids=["grid", "h2"])
    def test_three_row_blocks_bitwise_against_whole_masks(self, grid):
        # the grid has coincident points (deviation 1) and exact distances; the
        # h2 cloud rounds in every sqrt and division
        g, emb = three_block_case(5)
        if not grid:
            emb = initialize(resolve_spec(parse_manifold("h2")), g, TrainConfig(seed=5, epochs=1))
        sq, dist = sq_distances(emb), bfs_apsp(g)
        got = avg_distance_distortion(sq, dist)
        assert got.hex() == avg_distance_distortion_reference(sq, dist).hex()

    def test_no_connected_pair_rejected(self):
        g = from_edges(3, [])
        with pytest.raises(ValueError, match="no connected pairs"):
            avg_distance_distortion(sq_distances(line_embedding([0, 1, 2])), bfs_apsp(g))


class TestMeanAveragePrecision:
    def test_perfect_retrieval(self):
        g = path_graph(3)
        assert mean_average_precision(sq_distances(line_embedding([0, 1, 2])), g) \
            == pytest.approx(1.0)

    def test_star_with_far_center_oracle(self):
        # center embedded far away while the leaves cluster
        g = star_graph(3)
        emb = line_embedding([10.0, 0.0, 0.1, 0.2])
        d = np.abs(np.array([10.0, 0.0, 0.1, 0.2])[:, None]
                   - np.array([10.0, 0.0, 0.1, 0.2])[None, :])
        expected = map_bruteforce(g, d)
        assert expected == pytest.approx(0.5)
        assert mean_average_precision(sq_distances(emb), g) == pytest.approx(expected)

    def test_matches_bruteforce_random(self, rng):
        for trial in range(30):
            n = int(rng.integers(4, 22))
            g = gnp_graph(n, float(rng.uniform(0.15, 0.6)), seed=trial + 100)
            if (g.degrees == 0).all():
                continue
            spec = resolve_spec(parse_manifold("e3"))
            emb = initialize(spec, g, TrainConfig(seed=trial, epochs=1))
            emb.blocks[0] = rng.normal(0, 1, size=(n, 3))
            d = np.sqrt(((emb.blocks[0][:, None] - emb.blocks[0][None]) ** 2).sum(-1))
            assert mean_average_precision(sq_distances(emb), g) == pytest.approx(
                map_bruteforce(g, d), abs=1e-12
            )

    def test_coincident_points_and_ties_match_bruteforce(self, rng):
        # integer coordinates on a line: neighbours coincide with their node,
        # with each other and with non-neighbours; node 0 is isolated
        for trial in range(10):
            n = int(rng.integers(5, 30))
            g = gnp_graph(n, 0.3, seed=trial + 200)
            g = from_edges(n + 1, g.edges() + 1)
            coords = rng.integers(0, 4, size=n + 1).astype(float)
            d = np.abs(coords[:, None] - coords[None, :])
            assert mean_average_precision(sq_distances(line_embedding(coords)), g) \
                == pytest.approx(map_bruteforce(g, d), abs=1e-12)

    def test_invariant_under_increasing_transform(self, rng):
        g = gnp_graph(15, 0.3, seed=9)
        coords = rng.normal(0, 1, size=15)
        a = mean_average_precision(sq_distances(line_embedding(coords)), g)
        b = mean_average_precision(sq_distances(line_embedding(coords * 7.3)), g)
        assert a == pytest.approx(b, abs=1e-12)

    def test_in_unit_interval(self, rng):
        g = gnp_graph(12, 0.4, seed=3)
        emb = line_embedding(rng.normal(0, 1, size=12))
        assert 0.0 <= mean_average_precision(sq_distances(emb), g) <= 1.0

    @pytest.mark.parametrize("n", [40, 420])
    def test_array_pass_equals_row_loop(self, rng, n):
        # 420 rows take three sort blocks; the brute force runs on the small size
        spec = resolve_spec(parse_manifold("h2,rot(a=1.0,l=0.5)"))
        cloud = pairwise_sq_distances(spec, [sample_tangent_ball(spec.factors[0], n, 2.0, rng),
                                             rng.uniform(0.0, 2.0, (n, 1))])
        tree = random_connected_graph(n, 0.0, seed=n)
        dense = from_mask(cloud <= np.quantile(cloud, 0.15))
        # nodes 0..4 isolated; integer points put many distances in exact ties
        sparse = from_edges(n, gnp_graph(n - 5, 6.0 / n, seed=n).edges() + 5)
        grid = sq_distances(Embedding(spec=parse_manifold("e2"),
                                      blocks=[rng.integers(0, 4, (n, 2)).astype(float)]))
        assert tree.num_edges == n - 1 and dense.degrees.max() >= 8
        for g, sq in ((tree, cloud), (dense, cloud), (sparse, grid)):
            got = mean_average_precision(sq, g)
            assert got == mean_average_precision_loop(sq, g)
            if n <= 60:
                assert got == pytest.approx(map_bruteforce(g, sq), abs=1e-12)

    def test_sorts_rows_a_block_at_a_time(self, rng):
        # rows are sorted a block at a time, never the whole matrix at once
        n = 1025
        g = random_connected_graph(n, 0.0, seed=5)
        x = rng.normal(size=(n, 3))
        sq = ((x[:, None] - x[None]) ** 2).sum(axis=-1)
        peak, _ = traced_peak(mean_average_precision, sq, g)
        assert peak < sq.nbytes / 2


def rot_embedding(radii, shift: ShiftConstants, alpha=1.0):
    spec = resolve_spec(parse_manifold("rot(a=%r)" % alpha))
    emb = Embedding(spec=spec, blocks=[np.asarray(radii, dtype=float)[:, None]])
    emb.shift_constants = shift
    return emb


class TestCurvatureDistortion:
    def test_perfect_match_zero(self):
        g = complete_graph(3)
        f = forman(g)
        shift = ShiftConstants(min_forman=f.min_node, delta_hat=2.0, lam=1.0, r_h=0.0)
        r = rotsym_curvature_inverse(1.0, 2.0)  # R_a(r) = delta_hat
        emb = rot_embedding([r, r, r], shift)
        assert avg_curvature_distortion(emb, f) == pytest.approx(0.0, abs=1e-12)

    def test_single_node_formula(self):
        # F = 3 against reconstructed 1: |3-1|/(3+1) = 0.5
        g = from_edges(1, [])
        f = forman(g)
        f.node_values = np.array([3.0])
        shift = ShiftConstants(min_forman=0.0, delta_hat=0.0, lam=1.0, r_h=0.0)
        emb = rot_embedding([0.0], shift)
        rec = reconstructed_forman(emb)  # R_a(0) = 12
        f.node_values = np.array([3.0])
        shift2 = ShiftConstants(min_forman=1.0 - 12.0, delta_hat=0.0, lam=1.0, r_h=0.0)
        emb2 = rot_embedding([0.0], shift2)
        assert reconstructed_forman(emb2)[0] == pytest.approx(1.0)
        assert avg_curvature_distortion(emb2, f) == pytest.approx(0.5)

    def test_requires_rotsym_and_shift(self):
        emb = line_embedding([0, 1])
        with pytest.raises(ValueError):
            reconstructed_forman(emb)


class TestFormanVariance:
    def test_k3_zero(self):
        assert forman_variance(forman(complete_graph(3))) == 0.0

    def test_two_values(self):
        f = forman(complete_graph(3))
        f.node_values = np.array([0.0, 2.0])
        assert forman_variance(f) == pytest.approx(1.0)


class TestTriangleDistortion:
    def test_exact(self):
        assert avg_triangle_distortion(np.array([3, 1]), np.array([3, 1])) == 0.0

    def test_unit_miss(self):
        assert avg_triangle_distortion(np.array([1, 1]), np.array([0, 0])) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            avg_triangle_distortion(np.array([1]), np.array([1, 2]))


class TestVolumeMatch:
    def _embedding(self, g, radii):
        spec = resolve_spec(parse_manifold("h3,rot(a=1.0)"))
        emb = initialize(spec, g, TrainConfig(seed=0, epochs=1))
        emb.blocks[1][:, 0] = radii
        return emb

    def test_rho_above_diameter_graph_side_all_ones(self, rng):
        g = path_graph(5)
        emb = self._embedding(g, rng.uniform(0, 2, size=5))
        graph_norm, _ = volume_match(emb, g, rho=10.0)
        assert np.allclose(graph_norm, 1.0)

    def test_equal_radii_equal_volumes(self):
        g = path_graph(4)
        emb = self._embedding(g, [1.3, 1.3, 1.3, 1.3])
        _, vols = volume_match(emb, g, rho=2.0)
        assert np.allclose(vols, 1.0)

    def test_wrong_spec_rejected(self):
        g = path_graph(3)
        spec = resolve_spec(parse_manifold("h2,rot(a=1.0)"))
        emb = initialize(spec, g, TrainConfig(seed=0, epochs=1))
        with pytest.raises(ValueError):
            volume_match(emb, g, rho=1.0)

    def test_three_row_blocks_count_the_reachable_ball(self, rng):
        g, _ = three_block_case(2)
        emb = self._embedding(g, rng.uniform(0.05, 2, size=g.n))
        dist = bfs_apsp(g)
        ball = ((dist <= 3.0) & (dist != UNREACHABLE)).sum(axis=1)
        graph_norm, _ = volume_match(emb, g, rho=3.0)
        assert np.array_equal(graph_norm, ball / ball.max())

    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan")])
    def test_rho_must_be_positive(self, rho):
        g = path_graph(3)
        with pytest.raises(ValueError, match="rho must be positive"):
            volume_match(self._embedding(g, [0.5, 1.0, 1.5]), g, rho=rho)

    def test_volume_monotone_in_radius_coordinate(self):
        g = path_graph(4)
        emb = self._embedding(g, [0.2, 0.8, 1.5, 3.0])
        _, vols = volume_match(emb, g, rho=1.0)
        assert np.all(np.diff(vols) > 0)


class TestPermutationInvariance:
    def test_metrics_invariant_under_relabeling(self, rng):
        g = random_connected_graph(10, 0.3, seed=12)
        coords = rng.normal(0, 1, size=(10, 1))
        emb = Embedding(spec=parse_manifold("e1"), blocks=[coords.copy()])
        perm = rng.permutation(10)
        g2 = from_edges(10, [(int(perm[i]), int(perm[j])) for i, j in g.edges()])
        blocks2 = coords.copy()
        blocks2[perm] = coords
        emb2 = Embedding(spec=parse_manifold("e1"), blocks=[blocks2])
        assert distance_distortion(emb, g) == pytest.approx(
            distance_distortion(emb2, g2), rel=1e-12)
        assert mean_average_precision(sq_distances(emb), g) == pytest.approx(
            mean_average_precision(sq_distances(emb2), g2), rel=1e-12)


class TestEvaluate:
    def test_report_shape_homogeneous(self):
        g = cycle_tree(8, 2, 2)
        spec = resolve_spec(parse_manifold("e2"))
        emb = initialize(spec, g, TrainConfig(seed=1, epochs=1))
        report = evaluate(emb, g, forman(g))
        assert report.ad_c is None
        assert report.forman_variance >= 0
        assert 0 <= report.map <= 1
        assert report.n_pairs_used == g.n * (g.n - 1) // 2
        text = report.to_json()
        for key in ("ad_d", "map", "ad_c", "forman_variance", "n_pairs_used"):
            assert f'"{key}"' in text

    def test_notes_for_disconnected_pairs_and_isolated_nodes(self):
        # a path 0-1-2, an edge 3-4 and the isolated node 5: four of the 15
        # node pairs are connected
        g = from_edges(6, [(0, 1), (1, 2), (3, 4)])
        emb = initialize(resolve_spec(parse_manifold("e2")), g, TrainConfig(seed=1, epochs=1))
        report = evaluate(emb, g, forman(g))
        assert report.n_pairs_used == 4
        assert report.notes == ["excluded 11 disconnected pairs", "skipped 1 isolated nodes in mAP"]

    def test_three_row_blocks_count_the_connected_pairs(self):
        g, emb = three_block_case(3)
        dist = bfs_apsp(g)
        report = evaluate(emb, g, forman(g))
        assert report.n_pairs_used == connected_pairs_reference(dist).shape[0] == 300 * 299 // 2 + 80 * 79 // 2
        assert report.ad_d == avg_distance_distortion_reference(sq_distances(emb), dist)
