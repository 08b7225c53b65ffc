import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetembed.graph import (
    EdgeListParseError,
    UNREACHABLE,
    _forman_entries,
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

from conftest import (
    edge_set,
    floyd_warshall,
    forman_reference,
    load_edge_list_reference,
    save_edge_list_reference,
)


def assert_csr(g):
    """int64 CSR arrays: indptr runs from 0 to 2m without decreasing, and
    every row is sorted with no repeat."""
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
    assert g.indptr.shape == (g.n + 1,)
    assert g.indptr[0] == 0 and g.indptr[-1] == 2 * g.num_edges == g.indices.size
    assert (np.diff(g.indptr) >= 0).all()
    for i in range(g.n):
        assert (np.diff(g.neighbors(i)) > 0).all()


_BIG_LABELS = [2**63 - 1, 2**63, 2**63 + 1, 2**64 + 5, -(2**63), -(2**63) - 1, -(10**30)]
_SMALL_LABEL = st.integers(-30, 30)


@st.composite
def edge_list_texts(draw):
    """Edge-list text from a small label pool (so duplicates, mirrored edges
    and self-loops are common) with comments, blanks and at most one
    malformed line."""
    pool = draw(st.lists(st.one_of(_SMALL_LABEL, st.sampled_from(_BIG_LABELS))
                         if draw(st.booleans()) else _SMALL_LABEL,
                         min_size=1, max_size=10, unique=True))
    # a zero-padded, signed token reads as the same label
    label = st.builds(lambda v, pad: (f"+0{v}" if v >= 0 else f"-0{-v}") if pad else str(v),
                      st.sampled_from(pool), st.booleans())
    edge = st.builds(lambda a, sep, b, pad: f"{pad}{a}{sep}{b}{pad}",
                     label, st.sampled_from([" ", "\t", "   "]), label,
                     st.sampled_from(["", " ", "\t"]))
    other = st.sampled_from(["", "   ", "# header", "% 1 2 3", "  # 4 5", "#", "%"])
    lines = draw(st.lists(edge | other, max_size=40))
    bad = draw(st.none() | st.sampled_from(["1 2 3", "x 1", "1", "1 2.5", "0x1 2", "1 #2"]))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _parse(load, text):
    try:
        return load(text), None
    except EdgeListParseError as exc:
        return None, exc


class TestLoadEdgeList:
    def test_p3(self):
        g = load_edge_list("0 1\n1 2")
        assert g.n == 3
        assert list(g.degrees) == [1, 2, 1]

    def test_duplicates_and_self_loops_dropped(self):
        g = load_edge_list("0 1\n1 0\n2 2")
        assert edge_set(g) == {(0, 1)}
        assert g.meta["duplicates_dropped"] == 1
        assert g.meta["self_loops_dropped"] == 1

    def test_writer_preamble_is_not_counted_as_self_loops(self):
        # node 3 is isolated, so the writer pins every id with "v v" lines
        g = from_edges(5, [(0, 1), (1, 2), (2, 4)])
        text = save_edge_list(g)
        assert text.startswith("0 0\n")
        g2 = load_edge_list(text)
        assert g2.n == 5 and edge_set(g2) == edge_set(g)
        assert g2.meta["self_loops_dropped"] == g2.meta["duplicates_dropped"] == 0

    def test_self_loop_on_a_named_node_is_counted(self):
        # a repeated preamble line, and loops after the first edge, are self-loops
        g = load_edge_list("3 3\n3 3\n5 5\n3 5\n5 5\n7 7\n")
        assert g.n == 3 and edge_set(g) == {(0, 1)}
        assert g.meta["self_loops_dropped"] == 3

    def test_comments_and_blanks(self):
        g = load_edge_list("# header\n% other comment\n\n5 7\n7 9\n")
        assert g.n == 3
        # dense remap preserves first-appearance order
        assert edge_set(g) == {(0, 1), (1, 2)}

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
        assert edge_set(g2) == edge_set(g)

    def test_labels_past_int64(self):
        # a mix of negative and past-int64 labels must not collapse into floats
        g = load_edge_list(f"-1 {2**63}\n{2**63 + 1} -1\n{2**63} {2**63 + 1}\n")
        assert g.n == 3 and g.num_edges == 3
        assert g.meta["id_map"] == {"-1": 0, str(2**63): 1, str(2**63 + 1): 2}

    @settings(max_examples=200, deadline=None)
    @given(edge_list_texts())
    def test_matches_line_loop(self, text):
        g, err = _parse(load_edge_list, text)
        g_ref, err_ref = _parse(load_edge_list_reference, text)
        if err_ref is not None:
            assert type(err) is type(err_ref)
            assert (err.line_no, str(err)) == (err_ref.line_no, str(err_ref))
            return
        assert err is None
        assert g.n == g_ref.n
        assert np.array_equal(g.indptr, g_ref.indptr) and np.array_equal(g.indices, g_ref.indices)
        assert g.meta == g_ref.meta
        assert list(g.meta["id_map"].items()) == list(g_ref.meta["id_map"].items())
        assert_csr(g)

    def test_bytes_input(self):
        g = load_edge_list(b"0 1\n")
        assert g.n == 2

    def test_save_matches_line_loop(self):
        rng = np.random.default_rng(11)
        graphs = [path_graph(6), complete_graph(5), cycle_graph(7), from_edges(3, [])]
        for k in range(40):
            n = int(rng.integers(1, 40))
            base = gnp_graph(n, float(rng.uniform(0.02, 0.3)), seed=k)
            # relabelling permutes first appearances; gnp leaves some nodes isolated
            perm = rng.permutation(n) if k % 2 else np.arange(n)
            graphs.append(from_edges(n, [(perm[i], perm[j]) for i, j in base.edges()]))
        preambles = set()
        for g in graphs:
            text = save_edge_list(g)
            assert text == save_edge_list_reference(g)
            preambles.add(text.startswith("0 0\n"))
            g2 = load_edge_list(text)
            assert g2.n == g.n and edge_set(g2) == edge_set(g)
        assert preambles == {False, True}
        assert save_edge_list(from_edges(0, [])) == save_edge_list_reference(from_edges(0, [])) == ""

    def test_adjacency_matches_sorted_neighbour_sets(self):
        rng = np.random.default_rng(12)
        for k in range(20):
            raw = rng.integers(0, 25, size=(int(rng.integers(0, 60)), 2)) * 7 + 3
            g = load_edge_list("\n".join(f"{a} {b}" for a, b in raw))
            ids = {}
            for v in raw.ravel().tolist():
                ids.setdefault(v, len(ids))
            keys = {(min(ids[a], ids[b]), max(ids[a], ids[b])) for a, b in raw.tolist() if a != b}
            assert g.n == len(ids)
            assert g.meta["self_loops_dropped"] == int((raw[:, 0] == raw[:, 1]).sum())
            assert g.meta["duplicates_dropped"] == int((raw[:, 0] != raw[:, 1]).sum()) - len(keys)
            assert g.meta["id_map"] == {str(v): i for v, i in ids.items()}
            assert_csr(g)
            for i in range(g.n):
                want = sorted({b for a, b in keys if a == i} | {a for a, b in keys if b == i})
                assert g.neighbors(i).tolist() == want


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
        assert g.neighbors(75).size == 0 and g.neighbors(149).size == 0
        assert_csr(g)
        assert np.array_equal(bfs_apsp(g), floyd_warshall(g))


class TestEquality:
    def test_same_nodes_and_edges_compare_equal(self):
        assert path_graph(3) == path_graph(3)
        loaded = load_edge_list("0 1\n1 2\n1 2\n")
        assert loaded.meta and loaded == from_edges(3, [(1, 2), (0, 1)])

    def test_one_edge_or_one_node_apart_compare_unequal(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g != from_edges(4, [(0, 1), (1, 2)])
        assert g != from_edges(4, [(0, 1), (1, 2), (1, 3)])
        assert g != from_edges(5, [(0, 1), (1, 2), (2, 3)])
        assert from_edges(2, []) != from_edges(3, [])
        assert g != edge_set(g)


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
        assert edge_set(g) == edge_set(expected)
        assert np.array_equal(g.indptr, expected.indptr)
        assert np.array_equal(g.indices, expected.indices)
        assert_csr(g)
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

    @pytest.mark.parametrize("normalize", [False, True])
    def test_entry_kernel_matches_edge_loop_on_row_subsets(self, normalize, rng):
        # the kernel behind forman and the correction loop's partial recomputes;
        # two nodes past the last id are isolated, n = 132 packs three words a row
        for seed, n in enumerate((20, 40, 70, 130)):
            g = from_edges(n + 2, gnp_graph(n, 0.04 + 0.04 * seed, seed=seed).edges())
            deg, bits = g.degrees, g.adjacency_bits()
            rows, cols = g.entries()
            for gamma in (0.3, 0.7, 1.0, 4.0):
                edge_ref, node_ref = forman_reference(g, gamma, normalize)
                values, nodes = _forman_entries(deg, bits, rows, cols, gamma, normalize)
                assert values[rows < cols].tobytes() == edge_ref.tobytes()
                assert nodes.tobytes() == node_ref.tobytes()
                f = forman(g, gamma=gamma, normalize_by_max_degree=normalize)
                assert f.edge_values.tobytes() == edge_ref.tobytes()
                assert f.node_values.tobytes() == node_ref.tobytes()
                for _ in range(3):
                    subset = np.sort(rng.choice(g.n, size=int(rng.integers(1, g.n)),
                                                replace=False))
                    listed = np.isin(rows, subset)
                    _, nodes = _forman_entries(deg, bits, rows[listed], cols[listed], gamma,
                                               normalize)
                    assert nodes[subset].tobytes() == node_ref[subset].tobytes()

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
            for j in g.neighbors(i):
                total += (f.node_values[i] / math.sqrt(deg[i])
                          - f.node_values[j] / math.sqrt(deg[j])) ** 2
        expected = total / 2.0
        assert forman_dirichlet_energy(g, f) == pytest.approx(expected, rel=1e-12)
        # node values on P3 are (1, 1, 1); energy is 2 (1 - 1/sqrt(2))^2
        assert np.allclose(f.node_values, 1.0)
        assert expected == pytest.approx(2 * (1 - 1 / math.sqrt(2)) ** 2)
