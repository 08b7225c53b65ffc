import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetembed.graph import (
    EdgeListParseError,
    UNREACHABLE,
    bfs_apsp,
    forman,
    forman_dirichlet_energy,
    from_edges,
    from_mask,
    load_edge_list,
    save_edge_list,
    triangle_counts,
)
from hetembed.synthetic import complete_graph, cycle_graph, gnp_graph, path_graph

from conftest import floyd_warshall, forman_reference


class TestLoadEdgeList:
    def test_p3(self):
        g = load_edge_list("0 1\n1 2")
        assert g.n == 3
        assert list(g.degrees) == [1, 2, 1]

    def test_duplicates_and_self_loops_dropped(self):
        g = load_edge_list("0 1\n1 0\n2 2")
        assert g.edge_set() == {(0, 1)}
        assert g.meta["duplicates_dropped"] == 1
        assert g.meta["self_loops_dropped"] == 1

    def test_comments_and_blanks(self):
        g = load_edge_list("# header\n% other comment\n\n5 7\n7 9\n")
        assert g.n == 3
        # dense remap preserves first-appearance order
        assert g.edge_set() == {(0, 1), (1, 2)}

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list("0 1\n1 2 3\n")
        assert exc.value.line_no == 2
        with pytest.raises(EdgeListParseError):
            load_edge_list("0 x")

    def test_round_trip(self):
        g = gnp_graph(17, 0.3, seed=5)
        text = save_edge_list(g)
        g2 = load_edge_list(text)
        assert g2.n == g.n
        assert g2.edge_set() == g.edge_set()

    def test_bytes_input(self):
        g = load_edge_list(b"0 1\n")
        assert g.n == 2


class TestBfsApsp:
    def test_p3(self):
        d = bfs_apsp(path_graph(3))
        assert d[0, 2] == 2 and d[2, 0] == 2 and d[0, 1] == 1

    def test_k3(self):
        d = bfs_apsp(complete_graph(3))
        off = d[~np.eye(3, dtype=bool)]
        assert (off == 1).all()

    def test_disconnected_marker(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        d = bfs_apsp(g)
        assert d[0, 2] == UNREACHABLE and d[1, 3] == UNREACHABLE

    def test_matches_floyd_warshall_random(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(2, 13))
            g = gnp_graph(n, float(rng.uniform(0.1, 0.6)), seed=trial)
            assert np.array_equal(bfs_apsp(g), floyd_warshall(g))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 24), st.floats(0.05, 0.7), st.integers(0, 10_000))
    def test_matches_floyd_warshall_property(self, n, p, seed):
        g = gnp_graph(n, p, seed=seed)
        assert np.array_equal(bfs_apsp(g), floyd_warshall(g))

    @pytest.mark.parametrize("block_bytes", [1, 1 << 26])
    def test_multiword_bitsets_and_isolated_nodes(self, monkeypatch, block_bytes):
        # 150 nodes span three 64-bit words; a 1-byte budget runs one word of
        # sources at a time. Nodes 70-79 and the last ten are isolated.
        import hetembed.graph as graph

        monkeypatch.setattr(graph, "_BFS_BLOCK_BYTES", block_bytes)
        base = gnp_graph(130, 0.03, seed=3)
        remap = np.concatenate([np.arange(70), np.arange(80, 140)])
        g = from_edges(150, [(remap[i], remap[j]) for i, j in base.edges()])
        assert g.adj[75].size == 0 and g.adj[149].size == 0
        assert np.array_equal(bfs_apsp(g), floyd_warshall(g))


class TestFromMask:
    def test_reads_upper_triangle_only(self, rng):
        # asymmetric mask with a True diagonal: only cells above it count
        mask = rng.random((9, 9)) < 0.4
        np.fill_diagonal(mask, True)
        assert not np.array_equal(mask, mask.T)
        iu, ju = np.triu_indices(9, k=1)
        keep = mask[iu, ju]
        expected = from_edges(9, zip(iu[keep].tolist(), ju[keep].tolist()))
        g = from_mask(mask)
        assert g.n == 9
        assert g.edge_set() == expected.edge_set()
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(g.adj, expected.adj))
        assert np.array_equal(from_mask(g.adjacency_mask()).edges(), g.edges())

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            from_mask(np.zeros((3, 4), dtype=bool))


class TestTriangles:
    def test_k3(self):
        edge, node = triangle_counts(complete_graph(3))
        assert all(v == 1 for v in edge)
        assert list(node) == [1, 1, 1]

    def test_p3_zero(self):
        edge, node = triangle_counts(path_graph(3))
        assert all(v == 0 for v in edge)
        assert not node.any()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 30), st.floats(0.1, 0.8), st.integers(0, 10_000))
    def test_factor_two_identity(self, n, p, seed):
        g = gnp_graph(n, p, seed=seed)
        edge, node = triangle_counts(g)
        edges = g.edges()
        for i in range(g.n):
            incident = edge[(edges == i).any(axis=1)].sum()
            assert incident == 2 * node[i]


class TestForman:
    def test_p3_edge_value(self):
        g = path_graph(3)
        f = forman(g, gamma=1.0)
        assert g.edges()[0].tolist() == [0, 1]
        assert f.edge_values[0] == pytest.approx(4 - 1 - 2 + 0)

    def test_k3_gamma1(self):
        f = forman(complete_graph(3), gamma=1.0)
        assert all(v == pytest.approx(3.0) for v in f.edge_values)
        assert np.allclose(f.node_values, 3.0)

    def test_k3_gamma4_nodes(self):
        f = forman(complete_graph(3), gamma=4.0)
        assert np.allclose(f.node_values, 12.0)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            forman(path_graph(3), gamma=0.0)

    def test_isolated_node_zero_and_excluded_from_range(self):
        g = from_edges(4, [(0, 1), (1, 2)])  # node 3 isolated
        f = forman(g, gamma=1.0)
        assert f.node_values[3] == 0.0
        assert f.min_node == min(f.node_values[:3])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 25), st.floats(0.1, 0.7), st.integers(0, 10_000),
           st.floats(0.25, 8.0))
    def test_node_values_recompute_from_edges(self, n, p, seed, gamma):
        g = gnp_graph(n, p, seed=seed)
        f = forman(g, gamma=gamma)
        deg = g.degrees
        edges = g.edges()
        for i in range(g.n):
            if deg[i] == 0:
                assert f.node_values[i] == 0.0
                continue
            avg = f.edge_values[(edges == i).any(axis=1)].sum() / deg[i]
            assert f.node_values[i] == pytest.approx(avg, rel=1e-12)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_matches_edge_loop_exactly(self, normalize):
        # non-integer gammas make the node sums depend on their order
        for seed in range(8):
            g = gnp_graph(25, 0.1 + 0.08 * seed, seed=seed)
            for gamma in (0.7, 2.3):
                f = forman(g, gamma=gamma, normalize_by_max_degree=normalize)
                edge_ref, node_ref = forman_reference(g, gamma, normalize)
                assert f.edge_values.tolist() == edge_ref.tolist()
                assert f.node_values.tobytes() == node_ref.tobytes()

    def test_regular_triangle_free_constant(self):
        # every d-regular triangle-free graph has node value 4 - 2d
        for g, d in [(cycle_graph(8), 2), (from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)]), 3)]:
            f = forman(g, gamma=1.0)
            assert np.allclose(f.node_values, 4 - 2 * d)

    def test_normalized_variant(self):
        g = path_graph(3)
        f = forman(g, gamma=1.0, normalize_by_max_degree=True)
        # edge (0,1): value 1 over max degree 2
        assert g.edges()[0].tolist() == [0, 1]
        assert f.edge_values[0] == pytest.approx(0.5)
        assert f.normalized


class TestDirichletEnergy:
    def test_k3_zero(self):
        g = complete_graph(3)
        assert forman_dirichlet_energy(g, forman(g)) == pytest.approx(0.0)

    def test_k2_zero(self):
        g = complete_graph(2)
        assert forman_dirichlet_energy(g, forman(g)) == pytest.approx(0.0)

    def test_p3_direct_summation_oracle(self):
        g = path_graph(3)
        f = forman(g)
        # oracle: sum over ordered adjacent pairs, halved
        deg = g.degrees
        total = 0.0
        for i in range(g.n):
            for j in g.adj[i]:
                total += (f.node_values[i] / math.sqrt(deg[i])
                          - f.node_values[j] / math.sqrt(deg[j])) ** 2
        expected = total / 2.0
        assert forman_dirichlet_energy(g, f) == pytest.approx(expected, rel=1e-12)
        # node values on P3 are (1, 1, 1); energy is 2 (1 - 1/sqrt(2))^2
        assert np.allclose(f.node_values, 1.0)
        assert expected == pytest.approx(2 * (1 - 1 / math.sqrt(2)) ** 2)
