"""The benchmark's counter hooks (bench/tracer.py) read the arguments and
results of named package functions; these tests fail when a rename in the
package would leave a hook reading nothing."""

import importlib
import importlib.util
import inspect
import json
import re
import sys
import types
from pathlib import Path

import numpy as np

from hetembed import cli
from hetembed.fileio import read_embedding
from hetembed.graph import forman, save_edge_list
from hetembed.manifold import parse_manifold
from hetembed.metrics import reconstructed_forman
from hetembed.optim import Embedding, ShiftConstants, TrainConfig
from hetembed.randgraph import SampleConfig
from hetembed.reconstruct import curvature_correction, nn_graph

from conftest import sq_distances
from synthetic import random_connected_graph

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
WORKLOADS = TRACER.parent / "workloads.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_function(tracer, name: str):
    """The function ``Tracer.install`` wraps as ``<layer>.<function>``: a public
    function defined in the layer module itself."""
    layer, attr = name.split(".")
    assert layer in tracer.LAYERS, name
    module = importlib.import_module(f"hetembed.{layer}")
    fn = getattr(module, attr, None)
    assert isinstance(fn, types.FunctionType) and not attr.startswith("_"), name
    assert fn.__module__ == module.__name__, name
    return fn


def test_counter_hooks_name_public_functions_and_their_arguments():
    tracer = _load_tracer()
    bound_names = set()
    for name, hook in tracer.COUNTERS.items():
        fn = _traced_function(tracer, name)
        bound = set(re.findall(r'call\.arguments\["(\w+)"\]', inspect.getsource(hook)))
        assert bound <= set(inspect.signature(fn).parameters), (name, bound)
        bound_names |= bound
    assert bound_names == {"emb", "pairs", "path"}


def test_per_layer_metrics_name_public_functions():
    # a "<layer>.<function>.<quantity>" metric of BENCHMARK.json reads that
    # function's spans, and a traced run fails when it reads 0: a rename must
    # fail here first
    tracer = _load_tracer()
    spec = json.loads((TRACER.parents[1] / "BENCHMARK.json").read_text())
    named = [m["name"].rsplit(".", 1)[0] for m in spec["per_layer"] if m["name"].count(".") == 2]
    assert "manifold.pairwise_sq_distances" in named
    assert "metrics.mean_average_precision" in named
    for name in named:
        _traced_function(tracer, name)


def test_correction_hook_reads_the_log():
    rng = np.random.default_rng(3)
    emb = Embedding(spec=parse_manifold("e2,rot(a=1.0)"),
                    blocks=[rng.uniform(0, 3, (16, 2)), rng.uniform(0.05, 2.0, (16, 1))])
    a_rho = nn_graph(sq_distances(emb), 0.8)
    emb.shift_constants = ShiftConstants(min_forman=forman(a_rho).min_node, delta_hat=1.0,
                                         lam=1.0, r_h=0.0)
    result = curvature_correction(reconstructed_forman(emb), a_rho, sq_distances(emb), rho=0.8,
                                  step=0.3, percentile=50.0)
    log = result.correction_log
    assert log
    hook = _load_tracer().COUNTERS["reconstruct.curvature_correction"]
    assert hook(None, result) == {"worklist_nodes": len(log),
                                  "accepted": sum(1 for _, _, ok in log if ok)}


def test_reference_embedding_reads_back_as_the_benchmark_reads_it(tmp_path, monkeypatch):
    # the benchmark writes cloud_recon's input embedding with the package's own
    # Embedding, ShiftConstants and fileio; its check_embed reads "nodes"/"blocks"
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)

    cloud = workloads.Cloud(n=12, tangent_radius=1.6, rho=4.5, ell=10.8, seed=7)
    points, radii = workloads.sample_cloud(cloud)
    path = tmp_path / "cloud.json"
    workloads.write_reference_embedding(path, points, radii,
                                        workloads.cloud_graph(cloud, points, radii))

    emb = read_embedding(path)
    assert emb.n == 12 and emb.shift_constants is not None
    assert np.array_equal(emb.blocks[0], points) and np.array_equal(emb.blocks[1][:, 0], radii)
    payload = json.loads(path.read_text())
    kinds = [atom[0] for atom in payload["manifold"].split(",") if atom[0] in "ehsr"]
    assert kinds == ["h", "r"] and len(payload["nodes"]) == 12
    for k, block in enumerate(emb.blocks):
        assert np.array_equal(np.array([node["blocks"][k] for node in payload["nodes"]]), block)


def _load_bench_modules(monkeypatch) -> dict[str, types.ModuleType]:
    """bench/run.py, with the tracer and workloads modules it imports by name."""
    modules = {}
    for name in ("tracer", "workloads", "run"):
        spec = importlib.util.spec_from_file_location(name, TRACER.parent / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    return modules


def test_benchmark_command_lines_parse(monkeypatch, tmp_path):
    # generate's flags come from SampleConfig's field names and embed's from
    # TrainConfig's: a rename would turn every benchmark cycle into a failed operation
    bench = _load_bench_modules(monkeypatch)
    workloads = bench["workloads"]
    for w in workloads.WORKLOADS.values():
        cloud = tmp_path / "cloud.json" if w.reference_cloud else None
        inputs = workloads.Inputs(graph_path=tmp_path / "g.edges", n=1, edges=set(), pairs=0,
                                  cloud_path=cloud)
        pipeline = bench["run"].Pipeline(cli, w, inputs, tmp_path)
        assert set(pipeline.argv) == set(bench["run"].OPS)
        for op, argv in pipeline.argv.items():
            args = cli.build_parser().parse_args(argv)
            if op == "embed":
                assert cli._build_config(args, TrainConfig()).epochs == pipeline.epochs
            elif op == "generate":
                assert cli._build_config(args, SampleConfig()).runs == w.generate_runs

    twin = SampleConfig(n=131, tangent_radius=1.6, rho=4.5, ell=10.8, seed=7)
    table3 = SampleConfig(n=500, rho=7.0, ell=11.45, alpha=1.0, seed=1)
    for flags, expected in ((workloads.TWIN_GENERATE, twin), (workloads.TABLE3_GENERATE, table3)):
        args = cli.build_parser().parse_args(["generate", "--mode", "heterogeneous", *flags])
        assert cli._build_config(args, SampleConfig()) == expected


def test_one_small_cycle_calls_every_function_the_benchmark_names(tmp_path):
    # a traced benchmark run fails when a per-layer metric of a named function
    # reads 0; one small cycle of the benchmark's four commands calls them all
    tracing = _load_tracer()
    spec = json.loads((TRACER.parents[1] / "BENCHMARK.json").read_text())
    named = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"] if m["name"].count(".") == 2}
    graph, emb = str(tmp_path / "g.edges"), str(tmp_path / "e.json")
    Path(graph).write_text(save_edge_list(random_connected_graph(30, 0.12, seed=41)))
    commands = [
        ["embed", graph, "-m", "h2,rot(a=auto)", "--tau", "0.5", "--epochs", "20", "--out", emb],
        ["eval", graph, emb, "--out", str(tmp_path / "eval.json")],
        ["reconstruct", graph, emb, "--correct", "--triangles",
         "--out", str(tmp_path / "reconstruct.json")],
        ["generate", "--mode", "heterogeneous", "--n", "40", "--tangent-radius", "1.6",
         "--rho", "4.5", "--ell", "10.8", "--seed", "7",
         "--out-dir", str(tmp_path / "generated")],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in commands:
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    calls = tracing.aggregate(tracer.spans)
    assert len(named) == 27
    assert sorted(named - set(calls)) == []
