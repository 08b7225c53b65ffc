import copy
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hetembed.cli import main
from hetembed.fileio import (
    config_from_mapping,
    embedding_from_json,
    embedding_to_json,
    parse_config_text,
    read_embedding,
    reconstruction_to_json,
    write_embedding,
)
from hetembed.graph import load_edge_list, save_edge_list, triangle_counts
import hetembed
from hetembed import optim, reconstruct as recon
from hetembed.manifold import _TILE, pairwise_sq_distances, parse_manifold
from hetembed.metrics import EvalReport, avg_triangle_distortion, reconstructed_forman
from hetembed.optim import Embedding, ShiftConstants, TrainConfig, gradients, train
from hetembed.randgraph import SampleConfig, generate_heterogeneous

from conftest import embedding_to_json_reference
from synthetic import cycle_tree, path_graph, random_connected_graph

# coordinates whose shortest repr is easy to get wrong: signed zero, a
# subnormal, exponent forms and integers held as floats
AWKWARD_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1e22, 2.0**53, 3.0, -7.0,
                  0.1, 1 / 3, 1.7976931348623157e308]


@pytest.fixture
def graph_file(tmp_path):
    g = cycle_tree(10, 3, 2)
    path = tmp_path / "g.edges"
    path.write_text(save_edge_list(g))
    return str(path)


def run_cli(*args) -> int:
    return main(list(args))


def exit_code(argv: list[str]) -> int:
    """The process exit code of ``hetembed argv``, whether main returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["eval", "g.edges", "e.json", "--gamma", "abc"],
    ["reconstruct", "g.edges", "e.json", "--rho", "x"],
    ["generate", "--mode", "heterogeneous", "--n", "abc"],
    ["generate", "--mode", "heterogeneous", "--radial-lo", "0"],
    ["stats"],
    ["bogus"],
    [],
])
def test_usage_error_exit_1(argv, capsys):
    # 2 is the numeric-abort code, so a usage error must not exit with argparse's 2
    assert exit_code(argv) == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--gamma", "nan"), ("reconstruct", "--rho", "inf"), ("reconstruct", "--step", "nan"),
    ("reconstruct", "--forman-gamma", "inf"), ("reconstruct", "--val-fraction", "nan"),
    ("reconstruct", "--percentile", "-inf"), ("volume", "--rho", "inf"),
    ("stats", "--clique-budget", "nan"), ("generate", "--clique-budget", "inf"),
])
def test_non_finite_float_flag_is_a_usage_error(command, flag, value, tmp_path, graph_file, capsys):
    emb = tmp_path / "emb.json"
    assert run_cli("embed", graph_file, "-m", "h3,rot(a=auto)", "--epochs", "2",
                   "--out", str(emb)) == 0
    inputs = {"stats": [graph_file],
              "generate": ["--mode", "heterogeneous", "--n", "40", "--rho", "3", "--ell", "3"],
              }.get(command, [graph_file, str(emb)])
    out = tmp_path / "out"
    # flag=value, so that argparse does not read "-inf" as a flag
    argv = [command, *inputs, f"{flag}={value}", "--out-dir" if command == "generate" else "--out",
            str(out)]
    capsys.readouterr()
    assert exit_code(argv + (["--correct"] if command == "reconstruct" else [])) == 1
    err = capsys.readouterr().err
    assert f"error: argument {flag}: expected a finite number, got '{value}'" in err
    assert not out.exists()


class TestEmbeddingFile:
    def test_round_trip_bit_stable(self):
        g = random_connected_graph(9, 0.3, seed=2)
        cfg = TrainConfig(tau=0.4, epochs=30, seed=7, learning_rate=0.02)
        emb, _ = train(g, parse_manifold("h2,rot(a=auto,l=0.5)"), cfg)
        text1 = embedding_to_json(emb)
        emb2 = embedding_from_json(text1)
        text2 = embedding_to_json(emb2)
        assert text1 == text2
        for a, b in zip(emb.blocks, emb2.blocks):
            assert np.array_equal(a, b)
        assert emb2.spec == emb.spec
        assert emb2.shift_constants == emb.shift_constants

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_writer_bytes_match_json_dumps(self, data):
        flat = data.draw(st.lists(st.sampled_from(["e1", "e3", "s1", "s2", "h2", "h5(l=0.5)"]),
                                  max_size=3))
        rot = data.draw(st.sampled_from([None, "rot(a=auto)", "rot(a=0.7,l=0.5)"]))
        if rot is None and not flat:
            rot = "rot(a=auto)"
        if rot is not None:
            flat.insert(data.draw(st.integers(0, len(flat))), rot)
        spec = parse_manifold(",".join(flat))
        n = data.draw(st.sampled_from([1, 2, 131]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        blocks = [rng.normal(scale=10.0 ** rng.integers(-8, 9), size=(n, f.block_dim))
                  for f in spec.factors]
        whole = rng.random(n) < 0.5  # rows of integers held as floats
        blocks[-1][whole] = np.round(blocks[-1][whole])
        for _ in range(data.draw(st.integers(0, 12))):
            k = data.draw(st.integers(0, len(blocks) - 1))
            i = data.draw(st.integers(0, n - 1))
            j = data.draw(st.integers(0, blocks[k].shape[1] - 1))
            blocks[k][i, j] = data.draw(st.sampled_from(AWKWARD_FLOATS)
                                        | st.floats(allow_nan=False, allow_infinity=False))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        shift = data.draw(st.none() | st.builds(ShiftConstants, min_forman=finite,
                                                delta_hat=finite, lam=finite, r_h=finite))
        emb = Embedding(spec=spec, blocks=blocks, shift_constants=shift,
                        seed=data.draw(st.integers(0, 2**63)),
                        epochs=data.draw(st.integers(0, 10**6)),
                        config_digest=data.draw(st.text(max_size=12)))
        assert embedding_to_json(emb) == embedding_to_json_reference(emb)

    def test_writer_reads_back_its_own_bytes(self):
        g = random_connected_graph(12, 0.3, seed=5)
        cfg = TrainConfig(tau=0.4, epochs=10, seed=3, learning_rate=0.02)
        emb, _ = train(g, parse_manifold("s2,h2,e1,rot(a=auto,l=0.5)"), cfg)
        text = embedding_to_json(emb)
        assert text == embedding_to_json_reference(emb)
        assert embedding_to_json(embedding_from_json(text)) == text

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_writer_names_the_non_finite_coordinate(self, value):
        blocks = [np.zeros((4, 2)), np.zeros((4, 3))]
        blocks[1][2, 1] = value
        emb = Embedding(spec=parse_manifold("e2,s2"), blocks=blocks)
        with pytest.raises(ValueError, match="factor s2 at node 2"):
            embedding_to_json(emb)

    def test_manifold_string_reparses_identical(self):
        g = path_graph(4)
        cfg = TrainConfig(tau=0.0, epochs=5, seed=1)
        emb, _ = train(g, parse_manifold("h3,s2"), cfg)
        assert parse_manifold(emb.spec.to_string()) == emb.spec

    def test_rejects_future_format(self):
        with pytest.raises(ValueError):
            embedding_from_json(json.dumps({"format_version": 99, "nodes": []}))

    def test_rejects_reordered_or_repeated_node_ids(self, tmp_path, graph_file):
        # a reordered or repeated id would put coordinates on the wrong nodes
        emb = Embedding(spec=parse_manifold("e2"),
                        blocks=[np.arange(20, dtype=float).reshape(10, 2)])
        payload = json.loads(embedding_to_json(emb))
        nodes = payload["nodes"]
        for bad in (nodes[1::-1] + nodes[2:], nodes[:1] + nodes[:-1]):
            text = json.dumps({**payload, "nodes": bad})
            with pytest.raises(ValueError, match="node ids"):
                embedding_from_json(text)
            path = tmp_path / "bad.json"
            path.write_text(text)
            assert run_cli("eval", graph_file, str(path)) == 1


    @pytest.mark.parametrize("factor, value", [(0, float("nan")), (0, float("inf")),
                                               (1, float("-inf")), (1, float("nan"))])
    def test_rejects_non_finite_coordinates(self, tmp_path, graph_file, capsys, factor, value):
        # every constraint check is false for NaN, so NaN used to reach the reports
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", graph_file, "-m", "h2,rot(a=auto)", "--tau", "0.3",
                       "--epochs", "4", "--out", str(emb_path)) == 0
        payload = json.loads(emb_path.read_text())
        payload["nodes"][3]["blocks"][factor][0] = value
        emb_path.write_text(json.dumps(payload))
        capsys.readouterr()
        for command in ("eval", "reconstruct"):
            out = tmp_path / f"{command}.json"
            assert run_cli(command, graph_file, str(emb_path), "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert "error: " in err and "non-finite" in err and "Traceback" not in err
            assert not out.exists()


    @pytest.mark.parametrize("edit", [
        lambda p: {**p, "nodes": 5},
        lambda p: {**p, "manifold": 3},
        lambda p: {**p, "shift_constants": "x"},
        lambda p: [p],
        lambda p: {**p, "nodes": [{"id": 0, "blocks": None}] + p["nodes"][1:]},
        lambda p: {**p, "nodes": [{"id": 0, "blocks": [list(map(str, p["nodes"][0]["blocks"][0])),
                                                       p["nodes"][0]["blocks"][1]]}]
                   + p["nodes"][1:]},
        lambda p: {**p, "shift_constants": {**p["shift_constants"], "min_forman": float("inf")}},
        lambda p: {**p, "shift_constants": {**p["shift_constants"], "r_h": float("nan")}},
        lambda p: {**p, "shift_constants": {**p["shift_constants"], "delta_hat": 10**400}},
        lambda p: {**p, "seed": None},
        # bool subclasses int and 1.0 == 1, so these used to read as version 1 and ids 0, 1
        lambda p: {**p, "format_version": True},
        lambda p: {**p, "nodes": [{**p["nodes"][0], "id": False}] + p["nodes"][1:]},
        lambda p: {**p, "nodes": p["nodes"][:1] + [{**p["nodes"][1], "id": 1.0}] + p["nodes"][2:]},
        # an infinite alpha used to be read and evaluated
        lambda p: {**p, "manifold": "h2,rot(a=inf,l=1.0)"},
    ], ids=["nodes-int", "manifold-int", "shift-str", "top-level-list", "blocks-null",
            "coordinate-str", "min-forman-inf", "r-h-nan", "delta-hat-huge", "seed-null",
            "version-true", "id-false", "id-float", "alpha-inf"])
    def test_malformed_file_exits_1(self, tmp_path, graph_file, capsys, edit):
        # each of these used to raise a TypeError or AttributeError traceback,
        # or, for a non-finite shift constant, write "ad_c": Infinity
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", graph_file, "-m", "h2,rot(a=auto)", "--tau", "0.3",
                       "--epochs", "4", "--out", str(emb_path)) == 0
        emb_path.write_text(json.dumps(edit(json.loads(emb_path.read_text()))))
        capsys.readouterr()
        for command in ("eval", "reconstruct"):
            out = tmp_path / f"{command}.json"
            assert run_cli(command, graph_file, str(emb_path), "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert not out.exists()

    def test_writers_refuse_non_finite_values(self, tmp_path, graph_file, capsys):
        emb = Embedding(spec=parse_manifold("e2"), blocks=[np.full((3, 2), np.inf)])
        with pytest.raises(ValueError):
            embedding_to_json(emb)
        with pytest.raises(ValueError):
            EvalReport(ad_d=0.1, map=1.0, ad_c=math.inf, forman_variance=0.0,
                       n_pairs_used=3).to_json()
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", graph_file, "-m", "e2", "--epochs", "2",
                       "--out", str(emb_path)) == 0
        out = tmp_path / "rec.json"
        assert exit_code(["reconstruct", graph_file, str(emb_path), "--rho", "inf",
                          "--out", str(out)]) == 1
        assert "error: " in capsys.readouterr().err and not out.exists()


class TestReconstructionFile:
    @staticmethod
    def _payload(edges, mismatch, triangles):
        payload = {"rho": 1 / 3, "edges": edges, "mismatch": mismatch,
                   "correction_log": [{"node": 4, "action": "densify", "accepted": True},
                                      {"node": 0, "action": "sparsify", "accepted": False}],
                   "mismatch_baseline": 7}
        if triangles:
            payload["triangles"] = {"ad_nn": 0.25, "ad_curvature": 1e-17, "gamma": 4.0}
        return payload

    @pytest.mark.parametrize("edges", [[], [[0, 1]], [[0, 3], [1, 2], [2, 10**12]]])
    @pytest.mark.parametrize("mismatch", [None, 0, 12])
    @pytest.mark.parametrize("triangles", [False, True])
    def test_writer_bytes_match_json_dumps(self, edges, mismatch, triangles):
        payload = self._payload(edges, mismatch, triangles)
        text = reconstruction_to_json(payload)
        assert text == json.dumps(payload, indent=1, allow_nan=False) + "\n"
        assert payload["edges"] is edges  # the payload is not edited

    def test_writer_bytes_of_a_correction_result(self):
        # a nested "edges" key with an empty list, even ahead of the top-level
        # one, is not the splice point
        g = random_connected_graph(40, 0.2, seed=3)
        payload = {"before": {"edges": []}, **self._payload(g.edges().tolist(), 5, True)}
        assert (reconstruction_to_json(payload)
                == json.dumps(payload, indent=1, allow_nan=False) + "\n")

    def test_writer_rejects_non_finite_numbers(self):
        with pytest.raises(ValueError):
            reconstruction_to_json({**self._payload([[0, 1]], 0, False), "rho": math.nan})


class TestConfigFiles:
    def test_parse_and_types(self):
        text = "# comment\ntau=0.25\nepochs=100\nbatch_pairs=all\nradial_init=0.2,0.9\n"
        cfg = config_from_mapping(parse_config_text(text), TrainConfig())
        assert cfg.tau == 0.25 and cfg.epochs == 100
        assert cfg.batch_pairs == "all"
        assert cfg.radial_init == (0.2, 0.9)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_mapping({"bogus": "1"}, TrainConfig())

    @pytest.mark.parametrize("field", ["epochs", "batch_pairs", "seed"])
    @pytest.mark.parametrize("value", [True, 2.0, "3"])
    def test_integer_fields_reject_bools_and_non_integers(self, field, value):
        # bool subclasses int: epochs=True would train one epoch, batch_pairs=True
        # one-pair batches
        with pytest.raises(ValueError, match=field):
            replace(TrainConfig(), **{field: value}).validate()
        replace(TrainConfig(), **{field: 3}).validate()

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_config_text("tau 0.5")

    def test_flags_override_file(self, tmp_path, graph_file):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("tau=0.5\nepochs=8\nseed=3\n")
        out = tmp_path / "emb.json"
        rc = run_cli("embed", graph_file, "-m", "e2", "--config", str(cfg_path),
                     "--epochs", "4", "--out", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["epochs"] == 4
        assert payload["seed"] == 3


class TestCliCommands:
    def test_embed_deterministic_bytes(self, tmp_path, graph_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["embed", graph_file, "-m", "h2,rot(a=auto)", "--tau", "0.2",
                "--epochs", "12", "--seed", "5", "--learning-rate", "0.02"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_embed_writes_history(self, tmp_path, graph_file):
        out = tmp_path / "emb.json"
        rc = run_cli("embed", graph_file, "-m", "e2", "--epochs", "6",
                     "--out", str(out))
        assert rc == 0
        hist = (tmp_path / "emb.history.csv").read_text().splitlines()
        assert hist[0] == "epoch,loss_d,loss_c,wall_ms"
        assert len(hist) == 7

    def test_embed_parse_error_exit_1(self, tmp_path, graph_file, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\n2 x\n")
        assert run_cli("embed", str(bad), "-m", "e2", "--epochs", "2",
                       "--out", str(tmp_path / "e.json")) == 1
        # bad flag values are input errors, not numeric aborts or argparse usage errors
        for flag, value in [("--tau", "abc"), ("--epochs", "2.5"), ("--learning-rate", "nan"),
                            ("--epsilon", "inf"), ("--radial-init", "0.1,inf"),
                            ("--curvature-residuals", "cubic")]:
            assert run_cli("embed", graph_file, "-m", "h2,rot(a=auto)", "--epochs", "2",
                           flag, value, "--out", str(tmp_path / "e.json")) == 1, flag
        # non-finite parameters used to end in a numeric abort (exit 2) or, for
        # a=inf, in an embedding file; empty atoms were dropped
        capsys.readouterr()
        for manifold in ["h2(l=nan)", "h2,rot(a=nan)", "e2(l=inf)", "h2,rot(a=inf)", "h2,,e2",
                         "h2,"]:
            assert run_cli("embed", graph_file, "-m", manifold, "--epochs", "3",
                           "--out", str(tmp_path / "e.json")) == 1, manifold
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, manifold
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_embed_numeric_abort_exit_2(self, tmp_path, graph_file):
        rc = run_cli("embed", graph_file, "-m", "h2", "--epochs", "40",
                     "--learning-rate", "1e12", "--tau", "0",
                     "--out", str(tmp_path / "e.json"))
        assert rc == 2

    def test_embed_divergence_exit_2(self, tmp_path, capsys, monkeypatch):
        # the acceptance twin's config (learning rate 0.01) on its n=400 sibling:
        # a step leaves the hyperboloid's tangent space within a few epochs
        g = generate_heterogeneous(SampleConfig(
            n=400, tangent_radius=1.6, rho=4.5, ell=10.8, alpha=1.0,
            radial_interval=(0.0, 2.0), seed=7))
        path = tmp_path / "g400.edges"
        path.write_text(save_edge_list(g))
        taken = []

        def recorded(*args):
            taken.append(gradients(*args))
            return taken[-1]

        monkeypatch.setattr(optim, "gradients", recorded)
        rc = run_cli("embed", str(path), "-m", "h5,h5,rot(a=auto)", "--tau", "1.0",
                     "--epochs", "3000", "--seed", "11", "--learning-rate", "0.01",
                     "--lambda-rot", "0.5", "--delta", "1.0", "--ell-plus", "1.0",
                     "--gamma", "1.0", "--curvature-residuals", "raw",
                     "--out", str(tmp_path / "e.json"))
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "numeric abort: vector not tangent" in err
        assert '"epoch"' in err and '"learning_rate": 0.01' in err
        # where the abort lands and what it reports of that epoch's gradient
        assert '"epoch": 8' in err and '"skipped_pairs": 0' in err
        # the losses where the failed step started: those of the gradient it
        # took, the ninth (full batch, so unscaled)
        state = json.loads(err[err.index("{"):])
        assert len(taken) == 9
        assert math.isfinite(state["loss_distance"]) and math.isfinite(state["loss_curvature"])
        assert state["loss_distance"] == taken[8].loss_distance
        assert state["loss_curvature"] == taken[8].loss_curvature

    def test_eval_report(self, tmp_path, graph_file):
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", graph_file, "-m", "h2,rot(a=auto)", "--tau", "0.3",
                       "--epochs", "60", "--learning-rate", "0.02",
                       "--out", str(emb_path)) == 0
        report_path = tmp_path / "report.json"
        assert run_cli("eval", graph_file, str(emb_path), "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        for key in ("ad_d", "map", "ad_c", "forman_variance", "n_pairs_used"):
            assert key in report
        assert report["ad_c"] is not None

    def test_eval_homogeneous_has_no_adc(self, tmp_path, graph_file):
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", graph_file, "-m", "h2", "--epochs", "10",
                       "--out", str(emb_path)) == 0
        report_path = tmp_path / "report.json"
        assert run_cli("eval", graph_file, str(emb_path), "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["ad_c"] is None
        assert report["forman_variance"] >= 0

    def test_eval_node_count_mismatch_exit_1(self, tmp_path, graph_file):
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", graph_file, "-m", "e2", "--epochs", "4",
                       "--out", str(emb_path)) == 0
        other = tmp_path / "other.edges"
        other.write_text("0 1\n")
        assert run_cli("eval", str(other), str(emb_path)) == 1

    def test_reconstruct_with_flags(self, tmp_path, graph_file):
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", graph_file, "-m", "h2,rot(a=auto)", "--tau", "0.3",
                       "--epochs", "120", "--learning-rate", "0.02",
                       "--out", str(emb_path)) == 0
        out = tmp_path / "rec.json"
        rc = run_cli("reconstruct", graph_file, str(emb_path), "--correct",
                     "--triangles", "--out", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert {"rho", "edges", "mismatch", "correction_log", "triangles"} <= set(payload)
        assert payload["triangles"]["ad_nn"] >= 0.0
        # the command, not the correction, counts the corrected graph's mismatch
        g = load_edge_list(Path(graph_file).read_text())
        true_edges = {tuple(e) for e in g.edges().tolist()}
        assert payload["mismatch"] == len({tuple(e) for e in payload["edges"]} ^ true_edges)

    def test_reconstruct_reads_one_gamma_for_correction_and_triangles(self, tmp_path, capsys):
        # the curvature proxy sits on one Forman scale, so the correction and
        # the triangle estimate both read it at --forman-gamma
        rng = np.random.default_rng(3)
        emb = Embedding(spec=parse_manifold("e2,rot(a=1.0)"),
                        blocks=[rng.uniform(0, 3, (40, 2)), rng.uniform(0.05, 2.0, (40, 1))])
        g_cloud = recon.nn_graph(pairwise_sq_distances(emb.spec, emb.blocks), 0.8)
        emb.shift_constants = ShiftConstants(min_forman=-2.0, delta_hat=1.0, lam=1.0, r_h=0.0)
        graph, emb_path, out = tmp_path / "g.edges", tmp_path / "emb.json", tmp_path / "rec.json"
        graph.write_text(save_edge_list(g_cloud))
        write_embedding(emb, emb_path)
        argv = ["reconstruct", str(graph), str(emb_path), "--correct", "--triangles",
                "--out", str(out)]
        assert exit_code(argv + ["--gamma", "2"]) == 1
        assert "unrecognized arguments: --gamma" in capsys.readouterr().err
        assert run_cli(*argv, "--forman-gamma", "2") == 0
        payload = json.loads(out.read_text())

        g, emb = load_edge_list(graph.read_bytes()), read_embedding(emb_path)
        sq, proxy = pairwise_sq_distances(emb.spec, emb.blocks), reconstructed_forman(emb)
        rho = recon.tune_threshold(sq, g)
        result = recon.curvature_correction(proxy, recon.nn_graph(sq, rho), sq, rho,
                                            step=0.1 * rho, gamma=2.0)
        _, true_counts = triangle_counts(g)
        est = {gamma: recon.estimate_triangles_from_curvature(result.graph, proxy, gamma)
               for gamma in (2.0, 4.0)}
        ad = {gamma: avg_triangle_distortion(true_counts, e.clip(min=0.0)) for gamma, e in est.items()}
        assert payload["edges"] == result.graph.edges().tolist()
        assert payload["triangles"]["gamma"] == 2.0
        assert payload["triangles"]["ad_curvature"] == ad[2.0] != ad[4.0]
        # the command clamps the estimate at 0; here some nodes decode below it
        assert ad[2.0] != avg_triangle_distortion(true_counts, est[2.0])

    def test_reconstruct_one_node_exit_1(self, tmp_path, capsys):
        # a one-node graph leaves the threshold search no validation pair
        graph = tmp_path / "one.edges"
        graph.write_text("7 7\n")
        emb_path = tmp_path / "one.json"
        write_embedding(Embedding(spec=parse_manifold("e2"), blocks=[np.zeros((1, 2))]), emb_path)
        assert run_cli("reconstruct", str(graph), str(emb_path)) == 1
        err = capsys.readouterr().err
        assert "error: the validation sample has no node pairs" in err
        assert "Traceback" not in err

    def test_reconstruct_homogeneous_needs_the_proxy_only_for_curvature(self, tmp_path,
                                                                        graph_file):
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", graph_file, "-m", "e2", "--epochs", "4",
                       "--out", str(emb_path)) == 0
        assert run_cli("reconstruct", graph_file, str(emb_path)) == 0
        for flag in ("--correct", "--triangles"):
            assert run_cli("reconstruct", graph_file, str(emb_path), flag) == 1

    def test_memory_error_exit_1(self, tmp_path, graph_file, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.21 GiB for an array")

        monkeypatch.setattr("hetembed.cli.train", out_of_memory)
        assert run_cli("embed", graph_file, "-m", "e2", "--out", str(tmp_path / "e.json")) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: ") and "Unable to allocate" in err
        assert "Traceback" not in err

    def test_defect_inside_a_command_propagates(self, graph_file, monkeypatch):
        # no reader raises KeyError for bad input, so one is a defect: it must
        # surface as a traceback, not as an input error's exit 1
        def defect(*args, **kwargs):
            raise KeyError("missing")

        monkeypatch.setattr("hetembed.cli.randgraph.graph_stats", defect)
        with pytest.raises(KeyError):
            run_cli("stats", graph_file)

    def test_generate_outputs(self, tmp_path):
        out_dir = tmp_path / "gen"
        rc = run_cli("generate", "--mode", "homogeneous", "--rho", "1", "--runs", "3",
                     "--n", "60", "--seed", "4", "--out-dir", str(out_dir))
        assert rc == 0
        stats = (out_dir / "stats.csv").read_text().splitlines()
        assert len(stats) == 1 + 3 + 1  # header + runs + summary
        assert (out_dir / "run_000.edges").exists()
        bary = (out_dir / "barycenter.csv").read_text().splitlines()
        assert bary[0] == "degree,mass"
        assert abs(sum(float(line.split(",")[1]) for line in bary[1:]) - 1.0) < 1e-9

    @pytest.mark.parametrize("flag,value", [
        ("--rho", "nan"), ("--ell", "nan"), ("--alpha", "nan"), ("--tangent-radius", "inf"),
        ("--radial-interval", "0,inf"), ("--n", "abc"), ("--n", "0"),
    ])
    def test_generate_bad_value_exit_1(self, tmp_path, flag, value):
        out_dir = tmp_path / "gen"
        argv = ["generate", "--mode", "heterogeneous", "--n", "50", "--rho", "3", "--ell", "3",
                flag, value, "--out-dir", str(out_dir)]
        assert exit_code(argv) == 1
        assert not out_dir.exists()

    def test_generate_flags_are_sample_config_fields(self, tmp_path, capsys):
        assert exit_code(["generate", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--radial-interval RADIAL_INTERVAL default: 0.0,2.0" in text
        assert "--tangent-radius TANGENT_RADIUS default: 2.75" in text
        assert run_cli("generate", "--mode", "heterogeneous", "--n", "40", "--rho", "3",
                       "--ell", "3", "--radial-interval", "0.5,3",
                       "--out-dir", str(tmp_path / "gen")) == 0

    def test_generate_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "g1", tmp_path / "g2"
        for d in (d1, d2):
            assert run_cli("generate", "--mode", "heterogeneous", "--rho", "3",
                           "--ell", "3.0", "--runs", "2", "--n", "50", "--seed", "9",
                           "--out-dir", str(d)) == 0
        for name in ("run_000.edges", "run_001.edges", "stats.csv", "barycenter.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_volume_command(self, tmp_path, graph_file):
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", graph_file, "-m", "h3,rot(a=auto)", "--tau", "0.3",
                       "--epochs", "40", "--learning-rate", "0.02",
                       "--out", str(emb_path)) == 0
        out = tmp_path / "vol.csv"
        assert run_cli("volume", graph_file, str(emb_path), "--rho", "4",
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        g = load_edge_list(Path(graph_file).read_text())
        assert len(lines) == g.n + 1

    def test_volume_rho_past_the_float_range_exit_1(self, tmp_path, graph_file, capsys):
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", graph_file, "-m", "h3,rot(a=auto)", "--tau", "0.3",
                       "--epochs", "10", "--out", str(emb_path)) == 0
        out = tmp_path / "vol.csv"
        capsys.readouterr()
        assert run_cli("volume", graph_file, str(emb_path), "--rho", "400",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --rho: ") and "Traceback" not in err
        assert not out.exists()
        assert run_cli("volume", graph_file, str(emb_path), "--rho", "50",
                       "--out", str(out)) == 0
        assert out.exists()

    def test_volume_wrong_manifold_exit_1(self, tmp_path, graph_file):
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", graph_file, "-m", "e3", "--epochs", "4",
                       "--out", str(emb_path)) == 0
        assert run_cli("volume", graph_file, str(emb_path), "--out",
                       str(tmp_path / "v.csv")) == 1

    def test_stats_on_generated_graph_has_no_note(self, tmp_path, capsys):
        # the generator's "v v" preamble lines declare nodes; they are not self-loops
        out_dir = tmp_path / "gen"
        assert run_cli("generate", "--mode", "heterogeneous", "--n", "200", "--rho", "4.5",
                       "--ell", "10.8", "--seed", "7", "--runs", "1",
                       "--out-dir", str(out_dir)) == 0
        run = out_dir / "run_000.edges"
        assert run.read_text().startswith("0 0\n")
        capsys.readouterr()
        assert run_cli("stats", str(run), "--out", str(tmp_path / "s.csv")) == 0
        assert "note:" not in capsys.readouterr().err

    def test_stats_command(self, tmp_path, graph_file):
        assert run_cli("stats", graph_file, "--out", str(tmp_path / "s.csv")) == 0
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert len(lines) == 3  # header + run + summary

    def test_radial_init_auto_flag(self, tmp_path, graph_file):
        out = tmp_path / "emb.json"
        rc = run_cli("embed", graph_file, "-m", "h2,rot(a=auto)", "--tau", "0.5",
                     "--epochs", "8", "--radial-init", "auto",
                     "--curvature-residuals", "raw", "--out", str(out))
        assert rc == 0
        emb = embedding_from_json(out.read_text())
        assert emb.shift_constants is not None

    def test_empty_graph_exit_1(self, tmp_path):
        empty = tmp_path / "empty.edges"
        empty.write_text("# nothing here\n")
        assert run_cli("stats", str(empty)) == 1


def test_embedding_bytes_equal_under_one_and_two_blas_threads(tmp_path):
    # two row tiles: the Gram products and the tile sums of the loss and
    # gradient run on blocks of a matrix that BLAS could split by thread
    g = random_connected_graph(_TILE + 8, 0.02, seed=4)
    graph = tmp_path / "g.edges"
    graph.write_text(save_edge_list(g))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(hetembed.__file__).parents[1])}
        out = tmp_path / f"emb{threads}.json"
        subprocess.run([sys.executable, "-m", "hetembed.cli", "embed", str(graph),
                        "-m", "h2,h2,rot(a=auto)", "--epochs", "6", "--learning-rate", "0.001",
                        "--seed", "3", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_parser_built_once_keeps_each_commands_defaults(tmp_path, monkeypatch):
    import hetembed.cli as cli

    # a graph with triangles, so that eval's --gamma moves its output
    g = random_connected_graph(30, 0.2, seed=5)
    assert triangle_counts(g)[0].any()
    graph_file = str(tmp_path / "g.edges")
    Path(graph_file).write_text(save_edge_list(g))
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    emb = tmp_path / "emb.json"
    assert run_cli("embed", graph_file, "-m", "h3,rot(a=auto)", "--tau", "0.3",
                   "--epochs", "6", "--out", str(emb)) == 0
    outputs = []
    for flags in ([], ["--gamma", "4"], [], ["--rho", "0.5", "--seed", "3"],
                  []):
        command = "reconstruct" if "--rho" in flags or len(outputs) == 4 else "eval"
        out = tmp_path / f"out{len(outputs)}.json"
        assert run_cli(command, graph_file, str(emb), *flags, "--out", str(out)) == 0
        outputs.append(json.loads(out.read_text()))
    assert builds == [1]
    # a call without flags reads the defaults, whatever ran before it
    assert outputs[0] == outputs[2] != outputs[1]
    assert outputs[3]["rho"] == 0.5 and outputs[4]["rho"] != 0.5
    cli._parser.cache_clear()


# ---------------------------------------------------------------------------
# mutated inputs: eval and reconstruct exit 0 or 1, never with a traceback, and
# every JSON they write parses without NaN or Infinity

_REPLACEMENTS = [None, True, "x", "", "1.0", 0, -1, 2**70, 0.5, -0.0, 5e-324, 1e200, 1e308,
                 -1e308, math.nan, math.inf, -math.inf, [], [0.0], [[]], {}, {"a": 1}]
_TOKENS = ["nan", "inf", "-1", "-0", "x", "1e3", "0x1", "99999999999999999999", "0.5", "",
           "3 4 5", "7 7"]


def _json_path(node, selectors) -> tuple:
    """The path ``selectors`` pick in a JSON tree: each is a key or an index as
    given, or an int taken modulo the number of children; it stops at a leaf."""
    path = []
    for sel in selectors:
        if not (isinstance(node, (dict, list)) and node):
            break
        if isinstance(node, dict):
            key = sel if isinstance(sel, str) else list(node)[sel % len(node)]
        else:
            key = sel % len(node)
        path.append(key)
        node = node[key]
    return tuple(path)


@pytest.fixture(scope="module")
def mutation_inputs():
    g = random_connected_graph(10, 0.3, seed=3)
    emb, _ = train(g, parse_manifold("h2,e1,rot(a=auto)"),
                   TrainConfig(tau=0.5, epochs=5, seed=2, learning_rate=0.02))
    return json.loads(embedding_to_json(emb)), save_edge_list(g).splitlines()


def _mutate_embedding(payload, path, op, value):
    value = copy.deepcopy(value)  # the replacement list is shared by every example
    if not path:
        return value if op == "set" else []
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "set":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):  # "repeat" a list entry
        parent.append(copy.deepcopy(parent[key]))
    return payload


def _mutate_edges(lines, index, op, token):
    lines = list(lines)
    i = index % len(lines)
    if op == "set":
        parts = lines[i].split()
        parts[index % len(parts)] = token
        lines[i] = " ".join(parts)
    elif op == "delete":
        del lines[i]
    else:
        lines.append(token if " " in token else f"{index % 16} {token}")
    return lines


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


_MUTATIONS = st.lists(st.tuples(st.just("embedding"), st.lists(st.integers(0, 50), max_size=5),
                                st.sampled_from(["set", "delete", "repeat"]),
                                st.sampled_from(_REPLACEMENTS))
                      | st.tuples(st.just("edges"), st.integers(0, 200),
                                  st.sampled_from(["set", "delete", "add"]),
                                  st.sampled_from(_TOKENS)),
                      min_size=1, max_size=2)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=_MUTATIONS)
# each found a numpy overflow warning: a hyperboloid |x|^2, squared Euclidean and radial
# distances, the radial curvature and the mean curvature distortion overflowed
@example(mutations=[("embedding", ["nodes", 1, "blocks", 0, 0], "set", 1e308)])
@example(mutations=[("embedding", ["nodes", 1, "blocks", 1, 0], "set", 1e308)])
@example(mutations=[("embedding", ["nodes", 1, "blocks", 2, 0], "set", 1e308)])
@example(mutations=[("embedding", ["shift_constants", "min_forman"], "set", 1e308)])
def test_mutated_inputs_exit_0_or_1_with_strict_json(mutation_inputs, mutations):
    payload, lines = copy.deepcopy(mutation_inputs[0]), mutation_inputs[1]
    for target, where, op, value in mutations:
        if target == "embedding":
            payload = _mutate_embedding(payload, _json_path(payload, where), op, value)
        else:
            lines = _mutate_edges(lines, where, op, value)
    with tempfile.TemporaryDirectory() as tmp:
        graph, emb, out = (str(Path(tmp) / name) for name in ("g.edges", "e.json", "out.json"))
        Path(graph).write_text("\n".join(lines) + "\n")
        Path(emb).write_text(json.dumps(payload))
        for argv in (["eval", graph, emb], ["reconstruct", graph, emb, "--correct", "--triangles"]):
            Path(out).unlink(missing_ok=True)
            code = exit_code([*argv, "--out", out])
            assert code in (0, 1)
            if code == 0:
                _strict_json(Path(out).read_text())
