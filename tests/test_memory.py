"""Traced memory of the library calls behind each command, on the 1,025-node
graph of the benchmark's tree1k_full workload. Each call peaks at the arrays
it keeps plus at most one row block of scratch: ``_TILE`` rows of float64.
The (n, n) float64 distance matrix and the hop matrix are kept arrays; a
temporary of a byte or more per node pair is not."""

import numpy as np
import pytest

from hetembed.graph import bfs_apsp, connected_pairs, forman
from hetembed.manifold import _TILE, pairwise_sq_distances, parse_manifold, resolve_spec
from hetembed.metrics import evaluate
from hetembed.optim import TrainConfig, initialize
from hetembed.randgraph import SampleConfig, generate_heterogeneous
from hetembed.reconstruct import nn_graph, tune_threshold

from conftest import traced_peak
from synthetic import random_connected_graph

N = 1025
ROW_BLOCK = 8 * _TILE * N


def graph_bytes(g) -> int:
    """The bytes of a graph's CSR arrays."""
    return g.indptr.nbytes + g.indices.nbytes


@pytest.fixture(scope="module")
def tree():
    """The graph, its hop matrix and an embedding of it, as the benchmark trains it."""
    g = random_connected_graph(N, 3.45e-5, seed=3)
    spec = resolve_spec(parse_manifold("h5,h5,rot(a=1.0)"))
    return g, bfs_apsp(g), initialize(spec, g, TrainConfig(seed=11, epochs=1))


def test_connected_pairs_holds_the_list(tree):
    _, dist, _ = tree
    peak, pairs = traced_peak(connected_pairs, dist)
    assert peak < pairs.nbytes + ROW_BLOCK


def test_evaluate_holds_the_hops_the_distances_and_a_float_per_pair(tree):
    g, dist, emb = tree
    f_signal = forman(g)
    peak, report = traced_peak(evaluate, emb, g, f_signal)
    assert peak < dist.nbytes + 8 * N * N + 8 * report.n_pairs_used + ROW_BLOCK


def test_tune_threshold_holds_the_sample_rows(tree):
    g, _, emb = tree
    sq = pairwise_sq_distances(emb.spec, emb.blocks)
    peak, _ = traced_peak(tune_threshold, sq, g, seed=4)
    assert peak < 8 * round(0.1 * N) * N + ROW_BLOCK


def test_nn_graph_holds_the_graph(tree):
    g, _, emb = tree
    sq = pairwise_sq_distances(emb.spec, emb.blocks)
    rho = float(np.sqrt(np.quantile(sq, 0.005)))  # about 2,500 edges
    peak, a_rho = traced_peak(nn_graph, sq, rho)
    assert a_rho.num_edges > N
    assert peak < graph_bytes(a_rho) + ROW_BLOCK


def test_generate_heterogeneous_holds_the_distances_and_the_graph():
    cfg = SampleConfig(n=N, rho=7.0, ell=11.45, seed=3)  # the benchmark's flags
    peak, g = traced_peak(generate_heterogeneous, cfg)
    assert peak < 8 * N * N + graph_bytes(g) + ROW_BLOCK


def test_dense_threshold_graph_holds_at_most_40_bytes_per_edge():
    # every pair of the complete graph is an edge: the build's key arrays, not
    # the row blocks, set the peak (524,800 edges, 8.4 MB of CSR arrays)
    peak, g = traced_peak(nn_graph, np.zeros((N, N)), 1.0)
    assert g.num_edges == N * (N - 1) // 2
    assert peak <= 40 * g.num_edges
