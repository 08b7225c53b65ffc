from collections import Counter

import numpy as np
import pytest

from hetembed.graph import forman, from_edges, from_mask, triangle_counts
from hetembed.manifold import (
    pairwise_sq_distances,
    parse_manifold,
    resolve_spec,
    rotsym_curvature_inverse,
)
from hetembed.metrics import reconstructed_forman
from hetembed.optim import Embedding, ShiftConstants, TrainConfig, initialize
from hetembed import reconstruct
from hetembed.reconstruct import (
    curvature_correction,
    edge_mismatch,
    estimate_triangles,
    estimate_triangles_from_curvature,
    nn_graph,
    tune_threshold,
)

from conftest import (curvature_correction_reference, edge_set, forman_reference, sq_distances,
                      three_block_case, traced_peak, tune_threshold_reference,
                      tune_threshold_sorted_reference)
from synthetic import complete_graph, gnp_graph, path_graph, random_connected_graph


def line_embedding(coords):
    return Embedding(spec=parse_manifold("e1"),
                     blocks=[np.asarray(coords, dtype=float)[:, None]])


class TestNnGraph:
    def test_below_min_distance_empty(self):
        emb = line_embedding([0, 1, 2])
        assert nn_graph(sq_distances(emb), 0.5).num_edges == 0

    def test_above_diameter_complete(self):
        emb = line_embedding([0, 1, 2])
        g = nn_graph(sq_distances(emb), 10.0)
        assert g.num_edges == 3

    def test_unit_spacing_path(self):
        emb = line_embedding([0, 1, 2, 3, 4])
        g = nn_graph(sq_distances(emb), 1.0)
        assert edge_set(g) == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_three_row_blocks_match_the_whole_mask(self):
        # coincident points, and rho = 2 exactly at many grid distances
        _, emb = three_block_case(1)
        sq = sq_distances(emb)
        for rho in (0.5, 1.0, 2.0, 4.5):
            want = from_mask(sq <= rho * rho)
            iu, ju = np.nonzero(np.triu(sq <= rho * rho, 1))
            assert want == from_edges(sq.shape[0], np.column_stack([iu, ju]))
            assert nn_graph(sq, rho) == want
        assert nn_graph(sq, 0.5).num_edges > 0  # the coincident points

    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan")])
    def test_rho_must_be_positive(self, rho):
        with pytest.raises(ValueError, match="rho must be positive"):
            nn_graph(sq_distances(line_embedding([0, 1, 2])), rho)

    def test_monotone_in_rho(self, rng):
        emb = line_embedding(rng.normal(0, 2, size=12))
        previous = set()
        for rho in (0.3, 0.8, 1.5, 3.0, 8.0):
            edges = edge_set(nn_graph(sq_distances(emb), rho))
            assert previous <= edges
            previous = edges


class TestTuneThreshold:
    def test_separable_cloud_perfect(self):
        # all true-edge distances below all non-edge distances
        g = path_graph(4)
        emb = line_embedding([0.0, 1.0, 2.0, 3.0])
        rho = tune_threshold(sq_distances(emb), g, seed=1)
        rec = nn_graph(sq_distances(emb), rho)
        assert edge_mismatch(rec, g) == 0

    def test_matches_dense_grid_oracle(self, rng):
        g = random_connected_graph(12, 0.25, seed=17)
        emb = line_embedding(rng.normal(0, 1.5, size=12))
        seed = 3
        rho = tune_threshold(sq_distances(emb), g, seed=seed)

        # oracle: mismatch over a dense grid of thresholds, same validation rows
        n = g.n
        sample_rng = np.random.default_rng(seed)
        val = np.sort(sample_rng.choice(n, size=max(1, round(0.10 * n)), replace=False))
        dm = np.abs(emb.blocks[0][:, 0][:, None] - emb.blocks[0][:, 0][None, :])
        adj = np.zeros((n, n), dtype=bool)
        for i in range(n):
            adj[i, g.neighbors(i)] = True

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
            rho = tune_threshold(sq_distances(emb), g, seed=seed)
            assert rho.hex() == tune_threshold_reference(emb, g, seed=seed).hex()
            val = np.random.default_rng(seed).choice(g.n, size=round(0.1 * g.n), replace=False)
            val_degrees.append(set(nn_graph(sq_distances(emb), rho).degrees[val].tolist()))
        assert val_degrees[-3:] == [{0}, {1}, {29}]

    def test_tie_heavy_grids_match_loop_reference(self, rng):
        # integer e2 grids: coincident points and long runs of equal distances,
        # whose order inside a run the sweep must not depend on
        for trial in range(30):
            n = int(rng.integers(6, 40))
            g = gnp_graph(n, float(rng.uniform(0.1, 0.6)), seed=300 + trial)
            emb = Embedding(spec=parse_manifold("e2"),
                            blocks=[rng.integers(0, 3, size=(n, 2)).astype(float)])
            sq = sq_distances(emb)
            for val_fraction, seed in ((0.10, 0), (0.25, 7), (0.5, 11)):
                rho = tune_threshold(sq, g, val_fraction=val_fraction, seed=seed)
                assert rho.hex() == tune_threshold_reference(
                    emb, g, val_fraction=val_fraction, seed=seed).hex()

    @pytest.mark.parametrize("val_fraction", [0.1, 0.5, 0.9])
    def test_three_row_blocks_match_the_sorted_sweep(self, val_fraction):
        # two components, isolated nodes, coincident points and long runs of
        # equal distances; the h2 cloud has distinct distances
        g, emb = three_block_case(4)
        h2 = initialize(resolve_spec(parse_manifold("h2")), g, TrainConfig(seed=4, epochs=1))
        for sq in (sq_distances(emb), sq_distances(h2)):
            for seed in range(3):
                rho = tune_threshold(sq, g, val_fraction=val_fraction, seed=seed)
                assert rho.hex() == tune_threshold_sorted_reference(
                    sq, g, val_fraction=val_fraction, seed=seed).hex()

    def test_first_and_last_bands_match_the_sorted_sweep(self, rng):
        twins = np.repeat(rng.normal(0, 1, size=15), 2)
        for g, coords in ((from_edges(30, []), rng.normal(0, 1, size=30)),
                          (from_edges(30, []), twins), (complete_graph(30), twins),
                          (complete_graph(30), np.zeros(30)), (path_graph(30), np.zeros(30))):
            sq = sq_distances(line_embedding(coords))
            assert tune_threshold(sq, g, seed=1).hex() == \
                tune_threshold_sorted_reference(sq, g, seed=1).hex()

    def test_deterministic(self, rng):
        g = random_connected_graph(10, 0.3, seed=18)
        emb = line_embedding(rng.normal(0, 1, size=10))
        sq = sq_distances(emb)
        assert tune_threshold(sq, g, seed=5) == tune_threshold(sq, g, seed=5)

    def test_rescale_equivariance(self, rng):
        g = random_connected_graph(10, 0.3, seed=19)
        coords = rng.normal(0, 1, size=10)
        rho1 = tune_threshold(sq_distances(line_embedding(coords)), g, seed=2)
        rho2 = tune_threshold(sq_distances(line_embedding(coords * 3.0)), g, seed=2)
        assert rho2 == pytest.approx(3.0 * rho1, rel=1e-9)

    def test_val_fraction_bounds(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            tune_threshold(sq_distances(line_embedding([0, 1, 2, 3])), g, val_fraction=0.0)

    def test_single_node_has_no_pairs(self):
        # the sample's own cell is not a pair
        with pytest.raises(ValueError, match="no node pairs"):
            tune_threshold(np.zeros((1, 1)), from_edges(1, []))


def rot_embedding_for(g, radii, shift, alpha=1.0):
    spec = resolve_spec(parse_manifold("e1,rot(a=%r)" % alpha))
    emb = initialize(spec, g, TrainConfig(seed=0, epochs=1))
    emb.blocks[1][:, 0] = radii
    emb.shift_constants = shift
    return emb


class TestEstimateTriangles:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
    def test_gamma_must_be_positive(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive"):
            estimate_triangles_from_curvature(path_graph(3), np.zeros(3), gamma=gamma)

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
        out = estimate_triangles(reconstructed_forman(emb), g, gamma=4.0)
        assert np.allclose(out.raw, 1.0)
        assert np.allclose(out.nn_baseline, 1.0)

    def test_proxy_and_graph_node_counts_must_match(self):
        with pytest.raises(ValueError):
            estimate_triangles(np.zeros(4), path_graph(3), gamma=1.0)

    def test_negative_estimates_clamped_copy(self):
        g = path_graph(3)
        est = estimate_triangles_from_curvature(g, np.full(3, -30.0), gamma=4.0)
        assert (est < 0).any()
        shift = ShiftConstants(min_forman=0.0, delta_hat=50.0, lam=1.0, r_h=0.0)
        emb = rot_embedding_for(g, [5.0, 5.0, 5.0], shift)
        out = estimate_triangles(reconstructed_forman(emb), g, gamma=4.0)
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

    @pytest.mark.parametrize("bad", [{"step": 0.0}, {"step": float("nan")},
                                     {"gamma": 0.0}, {"gamma": float("nan")}],
                             ids=["step0", "step_nan", "gamma0", "gamma_nan"])
    def test_step_and_gamma_must_be_positive(self, bad):
        g, emb = self._setup()
        kwargs = {"rho": 1.0, "step": 0.5, "gamma": 1.0} | bad
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be positive"):
            curvature_correction(reconstructed_forman(emb), g, sq_distances(emb), **kwargs)

    def test_consistent_graph_untouched(self):
        g, emb = self._setup()
        # reconstruction IS the true graph: proxy matches Forman, no change
        result = curvature_correction(reconstructed_forman(emb), g, sq_distances(emb), rho=1.0,
                                      step=0.1, gamma=1.0)
        assert all(not acc for _, _, acc in result.correction_log)
        assert edge_set(result.graph) == edge_set(g)

    def test_error_sum_never_increases(self):
        g, emb = self._setup(seed=4)
        # corrupt reconstruction: drop a few edges
        edges = sorted(edge_set(g))
        broken = from_edges(g.n, edges[:-3])
        proxy = reconstructed_forman(emb)

        def total_err(gr):
            return float(np.abs(proxy - forman(gr, 1.0).node_values).sum())

        before = total_err(broken)
        result = curvature_correction(reconstructed_forman(emb), broken, sq_distances(emb),
                                      rho=1.0, step=0.5, gamma=1.0)
        after = total_err(result.graph)
        assert after <= before
        accepted = [e for e in result.correction_log if e[2]]
        if accepted:
            assert after < before

    def test_log_records_direction(self):
        g, emb = self._setup(seed=7)
        edges = sorted(edge_set(g))
        broken = from_edges(g.n, edges[:-4])
        result = curvature_correction(reconstructed_forman(emb), broken, sq_distances(emb),
                                      rho=1.0, step=0.5, gamma=1.0)
        for node, action, accepted in result.correction_log:
            assert action in ("densify", "sparsify")
            assert isinstance(accepted, bool)

    def test_mismatch_reported(self):
        g, emb = self._setup(seed=9)
        result = curvature_correction(reconstructed_forman(emb), g, sq_distances(emb), rho=1.0,
                                      step=0.2, gamma=1.0)
        # the true graph is not an input: the command line sets the mismatch
        assert result.mismatch is None

    @staticmethod
    def _random_case(seed, n, gamma, rho=0.8, drop=0.2):
        """Random e2 x rot cloud; its threshold graph with a share ``drop`` of the edges dropped."""
        rng = np.random.default_rng(seed)
        emb = Embedding(spec=parse_manifold("e2,rot(a=1.0)"),
                        blocks=[rng.uniform(0, 3, (n, 2)), rng.uniform(0.05, 2.0, (n, 1))])
        g_true = nn_graph(sq_distances(emb), rho)
        edges = sorted(edge_set(g_true))
        keep = rng.random(len(edges)) >= drop
        a_rho = from_edges(n, [e for e, k in zip(edges, keep) if k])
        emb.shift_constants = ShiftConstants(min_forman=forman(g_true, gamma).min_node,
                                             delta_hat=float(rng.uniform(0, 4)), lam=1.0, r_h=0.0)
        return emb, a_rho, g_true

    @staticmethod
    def _against_reference(emb, a_rho, g_true, gamma, rho=0.8, step=0.3, percentile=70.0):
        """Runs the loop and its edge-set oracle, checks they agree bit for bit
        and returns (result, outcome per logged node)."""
        log, edges, mismatch, kinds = curvature_correction_reference(
            emb, a_rho, rho=rho, step=step, percentile=percentile, gamma=gamma, g_true=g_true)
        result = curvature_correction(reconstructed_forman(emb), a_rho, sq_distances(emb),
                                      rho=rho, step=step, percentile=percentile, gamma=gamma)
        assert result.correction_log == log
        assert [tuple(e) for e in result.graph.edges().tolist()] == edges
        # the graph built from the neighbour lists is a valid CSR
        assert result.graph == from_edges(a_rho.n, result.graph.edges())
        assert edge_mismatch(result.graph, g_true) == mismatch
        # the accept decisions compare sums of these node values
        assert (forman(result.graph, gamma).node_values.tobytes()
                == forman_reference(result.graph, gamma)[1].tobytes())
        return result, kinds

    def test_matches_edge_set_reference(self):
        # gamma 0.7 gives non-integer node values, whose bits depend on the
        # order in which each node adds its edge values
        cases = [(0, 20, 0.7), (3, 35, 0.7), (9, 40, 0.7), (1, 25, 1.0), (4, 40, 4.0),
                 (10, 20, 4.0)]
        outcomes, actions = Counter(), Counter()
        for seed, n, gamma in cases:
            emb, a_rho, g_true = self._random_case(seed, n, gamma)
            result, kinds = self._against_reference(emb, a_rho, g_true, gamma)
            outcomes.update(kinds)
            actions.update(a for _, a, _ in result.correction_log)
        assert set(outcomes) == {"accepted", "rejected", "unchanged"}
        assert set(actions) == {"densify", "sparsify"}

    def test_many_accepts_and_an_isolating_sparsify_match_reference(self):
        # each accepted change is the state the next candidates edit in place
        rho, step = 0.8, 0.3
        emb, a_rho, g_true = self._random_case(0, 30, 0.7, drop=0.2)
        result, kinds = self._against_reference(emb, a_rho, g_true, 0.7, rho=rho, step=step,
                                                percentile=50.0)
        assert kinds.count("accepted") >= 3
        dm = np.sqrt(pairwise_sq_distances(emb.spec, emb.blocks))
        np.fill_diagonal(dm, np.inf)
        # an accepted sparsify that leaves its node with no edge at all
        assert any(action == "sparsify" and ok and dm[i].min() > rho - step
                   for i, action, ok in result.correction_log)
        edges = result.to_json_dict()["edges"]
        assert edges == [[int(i), int(j)] for i, j in result.graph.edges()]
        assert all(type(v) is int for edge in edges for v in edge)

    def test_all_unchanged_returns_the_input_graph(self):
        # a tiny step re-thresholds every row of the threshold graph to itself
        emb, a_rho, g_true = self._random_case(2, 30, 0.7, drop=0.0)
        result, kinds = self._against_reference(emb, a_rho, g_true, 0.7, step=1e-9)
        assert kinds and set(kinds) == {"unchanged"}
        assert result.graph is a_rho

    @pytest.mark.parametrize("gamma", [1.0, 4.0, 0.3])
    def test_dense_graph_matches_reference(self, gamma):
        # about a fifth of all pairs are edges; a candidate toggles edges whose
        # ends share many neighbours, and each rejection restores the table
        emb, a_rho, g_true = self._random_case(3, 60, gamma, rho=1.2)
        result, kinds = self._against_reference(emb, a_rho, g_true, gamma, rho=1.2,
                                                percentile=50.0)
        assert a_rho.num_edges > 0.18 * 60 * 59 / 2
        assert kinds.count("accepted") >= 3 and kinds.count("rejected") >= 3

    def test_dense_state_is_the_table_alone(self):
        # the (n, n) int16 table takes 2 B per node pair; the adjacency lives in
        # packed rows and neighbour lists, with no (n, n) mask beside the table
        n, rho = 1500, 0.2
        emb, a_rho, _ = self._random_case(0, n, 1.0, rho=rho)
        proxy, sq = reconstructed_forman(emb), sq_distances(emb)

        def run():
            return curvature_correction(proxy, a_rho, sq, rho=rho, step=0.3 * rho)

        run()  # numpy's first calls allocate what later calls reuse
        peak, result = traced_peak(run)
        assert a_rho.num_edges > n and any(ok for _, _, ok in result.correction_log)
        assert peak < 2.8 * n * n

    @pytest.mark.parametrize("gamma", [1.0, 0.3])
    def test_table_holds_the_triangles_of_the_returned_graph(self, gamma, monkeypatch):
        tables, build = [], reconstruct._common_table

        def spy(*args):
            tables.append(build(*args))
            return tables[-1]

        monkeypatch.setattr(reconstruct, "_common_table", spy)
        emb, a_rho, g_true = self._random_case(3, 60, gamma, rho=1.2)
        result = curvature_correction(reconstructed_forman(emb), a_rho, sq_distances(emb),
                                      rho=1.2, step=0.3, percentile=50.0, gamma=gamma)
        assert any(ok for _, _, ok in result.correction_log)
        assert not all(ok for _, _, ok in result.correction_log)
        (table,) = tables
        assert table.dtype == np.int16
        edges = result.graph.edges()
        counts, _ = triangle_counts(result.graph)
        assert np.array_equal(table[edges[:, 0], edges[:, 1]], counts)
        assert np.array_equal(table[edges[:, 1], edges[:, 0]], counts)
