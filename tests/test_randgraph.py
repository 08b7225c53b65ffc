import inspect
import itertools
import sys
from dataclasses import replace

import numpy as np
import pytest

from hetembed.clique import _degree_order_masks, max_clique
from hetembed.graph import from_edges
from hetembed.manifold import rotsym_curvature
from hetembed.randgraph import (
    SampleConfig,
    degree_barycenter,
    degree_histogram,
    generate_heterogeneous,
    generate_homogeneous,
    graph_stats,
    run_generator,
    sample_points,
)

from conftest import (degree_barycenter_reference, degree_order_masks_reference, edge_set,
                      max_clique_reference, mink_inner, sample_points_reference)
from synthetic import complete_graph, cycle_graph, gnp_graph, path_graph


def clique_bruteforce(g) -> int:
    """Exhaustive subset check; only viable for small n."""
    n = g.n
    adj = [set(g.neighbors(i).tolist()) for i in range(n)]
    best = 1 if n else 0
    for size in range(2, n + 1):
        found = False
        for combo in itertools.combinations(range(n), size):
            if all(b in adj[a] for a, b in itertools.combinations(combo, 2)):
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


class TestSamplePoints:
    def test_hyperboloid_constraint(self):
        cfg = SampleConfig(n=200, seed=3)
        blocks = sample_points(cfg, with_radial=True)
        assert np.abs(mink_inner(blocks[0], blocks[0]) + 1.0).max() < 1e-9

    def test_radial_interval(self):
        cfg = SampleConfig(n=300, radial_interval=(0.0, 2.0), seed=4)
        blocks = sample_points(cfg, with_radial=True)
        r = blocks[1][:, 0]
        assert np.all(r >= 0.0) and np.all(r < 2.0)

    def test_tiny_tangent_radius_collapses(self):
        cfg = SampleConfig(n=50, tangent_radius=1e-9, seed=5)
        blocks = sample_points(cfg, with_radial=False)
        pole = np.zeros(4)
        pole[-1] = 1.0
        assert np.abs(blocks[0] - pole).max() < 1e-8

    def test_deterministic_per_seed(self):
        cfg = SampleConfig(n=60, seed=11)
        a = sample_points(cfg, with_radial=True)
        b = sample_points(cfg, with_radial=True)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_matches_own_tangent_ball_sampler(self):
        for cfg in (SampleConfig(n=1, seed=0), SampleConfig(n=131, tangent_radius=1.6, seed=7),
                    SampleConfig(n=300, radial_interval=(0.5, 3.0), seed=2)):
            for seed in (cfg.seed, 0, 1, 4):
                for with_radial in (False, True):
                    got = sample_points(replace(cfg, seed=seed), with_radial)
                    want = sample_points_reference(replace(cfg, seed=seed), with_radial)
                    assert [(b.shape, b.tobytes()) for b in got] == [
                        (b.shape, b.tobytes()) for b in want]


class TestGenerators:
    def test_rho_to_zero_empty(self):
        g = generate_homogeneous(SampleConfig(n=80, rho=1e-9, seed=1))
        assert g.num_edges == 0

    def test_integer_fields_reject_bools_and_floats(self):
        # bool subclasses int: n=True would sample one point, seed=True seed 1
        for field in ("n", "runs", "seed"):
            for value in (True, 2.5, 3.0):
                with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                    generate_homogeneous(replace(SampleConfig(n=5), **{field: value}))
        assert generate_homogeneous(SampleConfig(n=5, runs=2, seed=3)).n == 5

    def test_heterogeneous_requires_ell(self):
        with pytest.raises(ValueError):
            generate_heterogeneous(SampleConfig(n=20, seed=1))

    def test_ell_above_max_curvature_reduces_to_unit_threshold(self):
        cfg = SampleConfig(n=120, rho=5.0, alpha=1.0, seed=7,
                           ell=12.0 / 1.0**2 + 1.0)
        het = generate_heterogeneous(cfg)
        hom_unit = SampleConfig(n=120, rho=1.0, alpha=1.0, seed=7, ell=None)
        # same seed, same point cloud; compare against unit-threshold product graph
        blocks = sample_points(cfg, with_radial=True)
        from hetembed.manifold import Factor, ManifoldSpec, pairwise_sq_distances

        spec = ManifoldSpec((Factor("hyperbolic", dim=3), Factor("rotsym", alpha=1.0)))
        sq = pairwise_sq_distances(spec, blocks)
        expected = {(i, j) for i in range(120) for j in range(i + 1, 120) if sq[i, j] <= 1.0}
        assert edge_set(het) == expected

    def test_monotone_in_rho_antitone_in_ell(self):
        base = dict(n=100, alpha=1.0, seed=9)
        e1 = edge_set(generate_heterogeneous(SampleConfig(rho=2.0, ell=2.0, **base)))
        e2 = edge_set(generate_heterogeneous(SampleConfig(rho=3.5, ell=2.0, **base)))
        e3 = edge_set(generate_heterogeneous(SampleConfig(rho=2.0, ell=4.0, **base)))
        assert e1 <= e2
        assert e3 <= e1

    def test_curvature_gate_matches_definition(self):
        cfg = SampleConfig(n=60, rho=3.0, ell=5.0, alpha=1.0, seed=13)
        g = generate_heterogeneous(cfg)
        blocks = sample_points(cfg, with_radial=True)
        curv = rotsym_curvature(1.0, blocks[1][:, 0])
        from hetembed.manifold import Factor, ManifoldSpec, pairwise_sq_distances

        spec = ManifoldSpec((Factor("hyperbolic", dim=3), Factor("rotsym", alpha=1.0)))
        sq = pairwise_sq_distances(spec, blocks)
        adj = np.zeros((60, 60), dtype=bool)
        adj[g.entries()] = True
        for i in range(60):
            for j in range(i + 1, 60):
                expected = sq[i, j] <= 1.0 or (
                    curv[i] > 5.0 and curv[j] > 5.0 and sq[i, j] <= 9.0
                )
                assert adj[i, j] == expected

    @pytest.mark.parametrize("rho", [1.5, 2.5])
    def test_three_row_blocks_match_the_whole_masks(self, rho):
        # 400 nodes are three row blocks; the masks as (n, n) bools, edges by triu
        from hetembed.manifold import Factor, ManifoldSpec, pairwise_sq_distances

        h3 = Factor("hyperbolic", dim=3)
        cfg = SampleConfig(n=400, tangent_radius=1.6, rho=rho, ell=10.8, seed=7)
        sq = pairwise_sq_distances(ManifoldSpec((h3,)), sample_points(cfg, with_radial=False))
        hom = sq <= rho**2
        blocks = sample_points(cfg, with_radial=True)
        sq = pairwise_sq_distances(ManifoldSpec((h3, Factor("rotsym", alpha=1.0))), blocks)
        curved = rotsym_curvature(1.0, blocks[1][:, 0]) > 10.8
        het = (sq <= 1.0) | (curved[:, None] & curved[None, :] & (sq <= rho**2))
        for got, mask in ((generate_homogeneous(cfg), hom), (generate_heterogeneous(cfg), het)):
            assert 0 < got.num_edges < 400 * 399 // 2
            assert got == from_edges(400, np.column_stack(np.nonzero(np.triu(mask, 1))))

    def test_run_generator_derived_seeds(self):
        cfg = SampleConfig(n=40, rho=1.0, runs=3, seed=100)
        graphs, stats = run_generator("homogeneous", cfg)
        assert len(graphs) == 3 and len(stats) == 3
        # derived seeds differ, so the runs differ
        assert edge_set(graphs[0]) != edge_set(graphs[1])
        graphs2, _ = run_generator("homogeneous", cfg)
        assert all(edge_set(a) == edge_set(b) for a, b in zip(graphs, graphs2))
        # run k is the graph of the config at seed + k
        assert graphs == [generate_homogeneous(replace(cfg, seed=100 + k)) for k in range(3)]


class TestGraphStats:
    def test_k5(self):
        s = graph_stats(complete_graph(5))
        assert s.max_clique_size == 5
        assert s.clustering_mean == pytest.approx(1.0)
        assert s.degree_var == 0.0

    def test_c6(self):
        s = graph_stats(cycle_graph(6))
        assert s.max_clique_size == 2
        assert s.clustering_mean == 0.0

    def test_clustering_in_unit_interval(self):
        g = gnp_graph(40, 0.2, seed=3)
        s = graph_stats(g)
        assert 0.0 <= s.clustering_mean <= 1.0
        assert s.clustering_var >= 0.0

    def test_max_clique_matches_bruteforce(self):
        for seed in range(8):
            g = gnp_graph(20, 0.3, seed=seed)
            size, exact = max_clique(g)
            assert exact
            assert size == clique_bruteforce(g)
        for n, p in ((14, 0.7), (16, 0.6), (18, 0.5)):
            for seed in range(3):
                g = gnp_graph(n, p, seed=seed)
                assert max_clique(g) == (clique_bruteforce(g), True)

    def test_max_clique_matches_reference(self):
        # the reference's greedy pre-pass alone takes 1-10 s from homogeneous rho 2.6 up
        graphs = [generate_homogeneous(SampleConfig(rho=rho, seed=7)) for rho in (1.0, 1.5, 2.0)]
        graphs += [generate_heterogeneous(SampleConfig(rho=7.0, ell=11.45, seed=s))
                   for s in range(3)]
        graphs += [gnp_graph(n, p, seed=3) for n in (60, 90) for p in (0.1, 0.3, 0.5, 0.7)]
        for g in graphs:
            assert max_clique(g) == max_clique_reference(g)

    def test_degree_order_masks_match_byte_rows(self):
        # isolated nodes, and n on both sides of a 64-bit word boundary
        graphs = [from_edges(0, []), from_edges(3, []), from_edges(9, [(0, 1), (1, 2), (4, 8)])]
        graphs += [gnp_graph(n, 0.2, seed=n) for n in (63, 64, 65, 130)]
        graphs += [generate_heterogeneous(SampleConfig(n=300, rho=7.0, ell=11.45, seed=1))]
        for g in graphs:
            assert _degree_order_masks(g) == degree_order_masks_reference(g)

    def test_max_clique_edge_cases(self):
        assert max_clique(from_edges(0, [])) == (0, True)
        assert max_clique(from_edges(3, [])) == (1, True)

    def test_greedy_fallback_flagged(self):
        g = gnp_graph(60, 0.5, seed=2)
        size_exact, exact = max_clique(g, time_budget=30.0)
        size_budget, flag = max_clique(g, time_budget=1e-9)
        assert exact
        assert not flag
        assert size_budget <= size_exact  # the best clique found within the budget

    def test_expired_budget_reports_a_maximal_clique(self):
        # the first descent reaches a maximal clique before the clock is read;
        # in these graphs every maximal clique has the same size
        triangles = from_edges(9, [(a + i, a + j) for a in (0, 3, 6) for i, j in
                                   ((0, 1), (0, 2), (1, 2))])
        for g, size in ((path_graph(3), 2), (triangles, 3), (complete_graph(30), 30)):
            assert max_clique(g, time_budget=1e-9) == (size, False)
        size, exact = max_clique(gnp_graph(60, 0.5, seed=2), time_budget=1e-9)
        assert not exact
        assert size >= 2

    def test_clique_deeper_than_recursion_limit(self):
        limit = sys.getrecursionlimit()
        depth = len(inspect.stack(0))
        sys.setrecursionlimit(depth + 100)
        try:
            assert max_clique(complete_graph(depth + 200)) == (depth + 200, True)
        finally:
            sys.setrecursionlimit(limit)


class TestDegreeBarycenter:
    def test_identity_single(self):
        h = np.array([0.0, 2.0, 1.0, 3.0])
        out = degree_barycenter([h])
        assert np.allclose(out, h / h.sum())

    def test_identity_many_copies(self):
        h = np.array([1.0, 0.0, 4.0, 2.0, 0.0, 1.0])
        out = degree_barycenter([h, h, h])
        tv = 0.5 * np.abs(np.pad(out, (0, len(h) - len(out))) - h / h.sum()).sum()
        assert tv <= 1.0 / h.sum()

    def test_two_point_masses_midpoint(self):
        a = np.zeros(5); a[2] = 1.0
        b = np.zeros(5); b[4] = 1.0
        out = degree_barycenter([a, b])
        assert out[3] == pytest.approx(1.0)

    def test_zero_and_ten_linear_program_oracle(self):
        # barycenter of point masses at 0 and 10 puts all mass at 5: verify
        # against the exact optimal-transport objective on the 2-support case
        a = np.zeros(11); a[0] = 1.0
        b = np.zeros(11); b[10] = 1.0
        out = degree_barycenter([a, b])
        assert out[5] == pytest.approx(1.0)

        def w2sq_to_point(mass_at: int) -> float:
            # W2^2 to each input for a candidate single-point barycenter
            return 0.5 * (mass_at - 0) ** 2 + 0.5 * (mass_at - 10) ** 2

        objective = {k: w2sq_to_point(k) for k in range(11)}
        assert min(objective, key=objective.get) == 5

    def test_matches_breakpoint_loop(self, rng):
        cases = [[np.array([0.0, 0.0, 5.0])], [np.array([3.0]), np.array([0.0, 1.0])],
                 [np.array([1.0, 0.0, 4.0, 2.0, 0.0, 1.0])] * 3]
        # zero bins inside; the last bin keeps the mass positive
        cases += [[np.append(rng.integers(0, 6, size=int(rng.integers(0, 12))), 1).astype(float)
                   for _ in range(int(rng.integers(1, 6)))] for _ in range(20)]
        graphs, _ = run_generator("heterogeneous", SampleConfig(n=200, rho=7.0, ell=11.45,
                                                                runs=4, seed=1), clique_budget=0.0)
        cases.append([degree_histogram(g) for g in graphs])
        for hists in cases:
            got, want = degree_barycenter(hists), degree_barycenter_reference(hists)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            degree_barycenter([])
        with pytest.raises(ValueError):
            degree_barycenter([np.zeros(3)])

    def test_degree_histogram(self):
        g = from_edges(4, [(0, 1), (1, 2)])
        h = degree_histogram(g)
        assert list(h) == [1.0, 2.0, 1.0]
