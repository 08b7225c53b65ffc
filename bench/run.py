#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the hetembed command line.

Run from the root of a checkout:

    python3 bench/run.py --workload twin_full --seed 1 --seconds 25 --trace 0

One process serves one workload. It drives ``hetembed.cli.main`` in process,
closed loop, one command at a time: a cycle is ``embed``, ``eval``,
``reconstruct --correct --triangles`` and ``generate`` on the workload's
inputs, and cycles repeat until ``--seconds`` would be exceeded. With
``--trace 0`` it reports the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced cycles and reports the
per-layer metrics from the traced ones. The last line of standard output is
the JSON result; a run record (and, when traced, the spans) is written under
``.bench_out/``. See bench/NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
OPS = ("embed", "eval", "reconstruct", "generate")
QUALITY = ("ad_d", "map", "ad_c", "mismatch_ratio", "ad_tri")
# per-layer metrics allowed to read 0: on every workload, or on all but one
MAY_BE_ZERO = {"optim.gradients.skipped_pairs", "trace_overhead_frac"}
NONZERO_ONLY_ON = {"reconstruct.accept_ratio": "cloud_recon"}
NUMPY_SCALAR = re.compile(r"np\.float64\((.*)\)")


class CheckFailed(Exception):
    pass


def import_program():
    """Import the package from this checkout's src/, and from nowhere else."""
    package = SRC / "hetembed"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a hetembed checkout")
    sys.path.insert(0, str(SRC))
    import hetembed.cli

    if Path(hetembed.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported hetembed from {hetembed.cli.__file__}, not {package}")
    return hetembed.cli


# ---------------------------------------------------------------------------
# output checks; each returns the values the metrics need or raises CheckFailed

def _finite(payload: dict, keys) -> dict[str, float]:
    out = {}
    for key in keys:
        value = payload.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise CheckFailed(f"{key} is {value!r}")
        out[key] = float(value)
    return out


def check_embed(emb_path: Path, history_path: Path, n: int, epochs: int) -> list[float]:
    payload = json.loads(emb_path.read_text())
    kinds = [atom[0] for atom in payload["manifold"].split(",") if atom[0] in "ehsr"]
    if len(payload["nodes"]) != n:
        raise CheckFailed(f"embedding has {len(payload['nodes'])} nodes, graph has {n}")
    for k, kind in enumerate(kinds):
        block = np.array([node["blocks"][k] for node in payload["nodes"]], dtype=float)
        if not np.isfinite(block).all():
            raise CheckFailed(f"non-finite coordinates in factor {k}")
        if kind == "h":
            lorentz = (block[:, :-1] ** 2).sum(axis=1) - block[:, -1] ** 2
            scale = np.maximum((block * block).sum(axis=1), 1.0)
            if (np.abs(lorentz + 1.0) / scale).max() > 1e-7 or (block[:, -1] <= 0).any():
                raise CheckFailed(f"factor {k} is off the hyperboloid")
        if kind == "r" and (block < 0).any():
            raise CheckFailed("negative radius")
    with open(history_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != epochs:
        raise CheckFailed(f"history has {len(rows)} epochs, expected {epochs}")
    wall = [float(r["wall_ms"]) for r in rows]
    if not all(math.isfinite(float(r["loss_d"])) and math.isfinite(float(r["loss_c"]))
               for r in rows):
        raise CheckFailed("non-finite loss in history")
    return [b - a for a, b in zip([0.0] + wall[:-1], wall)]


def check_eval(path: Path, pairs: int) -> dict[str, float]:
    payload = json.loads(path.read_text())
    values = _finite(payload, ("ad_d", "map", "ad_c"))
    if payload["n_pairs_used"] != pairs:
        raise CheckFailed(f"eval used {payload['n_pairs_used']} pairs, expected {pairs}")
    if not (0.0 < values["map"] <= 1.0 and values["ad_d"] >= 0.0 and values["ad_c"] >= 0.0):
        raise CheckFailed(f"eval values out of range: {values}")
    return values


def check_reconstruct(path: Path, true_edges: set, both_branches: bool) -> dict[str, float]:
    payload = json.loads(path.read_text())
    edges = {tuple(e) for e in payload["edges"]}
    if payload["mismatch"] != len(edges ^ true_edges):
        raise CheckFailed(f"reported mismatch {payload['mismatch']} != {len(edges ^ true_edges)}")
    baseline = payload["mismatch_baseline"]
    if not (isinstance(baseline, int) and baseline > 0):
        raise CheckFailed(f"baseline mismatch is {baseline!r}")
    log = payload["correction_log"]
    accepted = sum(1 for entry in log if entry["accepted"])
    if not log or (both_branches and not 0 < accepted < len(log)):
        raise CheckFailed(f"correction accepted {accepted} of {len(log)} repairs")
    tri = _finite(payload["triangles"], ("ad_curvature",))
    return {"mismatch_ratio": payload["mismatch"] / baseline, "ad_tri": tri["ad_curvature"]}


def check_generate(directory: Path, runs: int, n: int) -> set[str]:
    """Checks the generated files; returns format defects that leave the values intact."""
    with open(directory / "stats.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != runs + 1 or rows[-1]["run"] != "mean":
        raise CheckFailed(f"stats.csv has {len(rows)} rows for {runs} runs")
    for k, row in enumerate(rows[:-1]):
        tokens = set()
        edges = set()
        for line in (directory / f"run_{k:03d}.edges").read_text().splitlines():
            u, v = line.split()
            tokens.update((u, v))
            if u != v:
                edges.add((min(int(u), int(v)), max(int(u), int(v))))
        if len(tokens) != n:
            raise CheckFailed(f"run {k} has {len(tokens)} nodes, expected {n}")
        if abs(float(row["degree_mean"]) - 2.0 * len(edges) / n) > 1e-9:
            raise CheckFailed(f"run {k}: degree_mean disagrees with its edge file")
        if row["clique_exact"] != "1":
            raise CheckFailed(f"run {k}: clique search not exact")
    defects = set()
    mass = 0.0
    with open(directory / "barycenter.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            scalar = NUMPY_SCALAR.fullmatch(row["mass"])
            if scalar:
                defects.add("barycenter.csv holds numpy scalar reprs (np.float64(...)), "
                            "not plain numbers")
            mass += float(scalar.group(1) if scalar else row["mass"])
    if abs(mass - 1.0) > 1e-9:
        raise CheckFailed(f"barycenter mass {mass}")
    return defects


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the pipeline

class Pipeline:
    def __init__(self, cli, w: workloads.Workload, inputs: workloads.Inputs, work: Path):
        self.cli, self.w, self.inputs = cli, w, inputs
        self.emb = work / "embedding.json"
        self.history = work / "embedding.history.csv"
        self.eval = work / "eval.json"
        self.rec = work / "reconstruct.json"
        self.gen = work / "generated"
        graph = str(inputs.graph_path)
        evaluated = str(inputs.cloud_path or self.emb)
        self.epochs = int(workloads.flag(w.embed, "--epochs"))
        self.argv = {
            "embed": ["embed", graph, *w.embed, "--out", str(self.emb),
                      "--history", str(self.history)],
            "eval": ["eval", graph, evaluated, *w.eval, "--out", str(self.eval)],
            "reconstruct": ["reconstruct", graph, evaluated, "--correct", "--triangles",
                            *w.reconstruct, "--out", str(self.rec)],
            "generate": ["generate", "--mode", "heterogeneous", *w.generate,
                         "--runs", str(w.generate_runs), "--out-dir", str(self.gen)],
        }
        self.reference: dict[str, str] = {}
        self.failures: list[str] = []
        self.defects: set[str] = set()

    def outputs(self, op: str) -> list[Path]:
        if op == "generate":
            runs = [self.gen / f"run_{k:03d}.edges" for k in range(self.w.generate_runs)]
            return runs + [self.gen / "stats.csv", self.gen / "barycenter.csv"]
        return {"embed": [self.emb], "eval": [self.eval], "reconstruct": [self.rec]}[op]

    def run_op(self, op: str, cycle: dict) -> None:
        """One CLI call, timed; checks its outputs and their digest against cycle 0."""
        for p in self.outputs(op) + ([self.history] if op == "embed" else []):
            p.unlink(missing_ok=True)
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self.cli.main(self.argv[op])
        except (Exception, SystemExit):
            code = None
            captured.write(traceback.format_exc())
        cycle["seconds"][op] = time.perf_counter() - start
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}: {captured.getvalue()[-2000:]}")
            if op == "embed":
                cycle["epoch_ms"] = check_embed(self.emb, self.history, self.inputs.n,
                                                self.epochs)
            elif op == "eval":
                cycle["quality"].update(check_eval(self.eval, self.inputs.pairs))
            elif op == "reconstruct":
                cycle["quality"].update(check_reconstruct(
                    self.rec, self.inputs.edges, both_branches=self.w.reference_cloud))
            else:
                self.defects |= check_generate(self.gen, self.w.generate_runs,
                                               int(workloads.flag(self.w.generate, "--n")))
            d = digest(self.outputs(op))
            if self.reference.setdefault(op, d) != d:
                raise CheckFailed("output differs from the first repeat")
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            cycle["failed"].append(op)
            self.failures.append(f"cycle {cycle['index']} {op}: {exc}")

    def cycle(self, index: int, tracer: tracing.Tracer | None) -> dict:
        cycle = {"index": index, "traced": tracer is not None, "seconds": {},
                 "epoch_ms": [], "quality": {}, "failed": []}
        if tracer is None:
            for op in OPS:
                self.run_op(op, cycle)
            return cycle
        first = len(tracer.spans)
        tracer.install()
        try:
            for op in OPS:
                with tracer.span(f"cmd.{op}"):
                    self.run_op(op, cycle)
        finally:
            tracer.uninstall()
        cycle["layers"] = tracing.aggregate(tracer.spans, first)
        return cycle


def measure(pipe: Pipeline, seconds: float, trace: bool) -> tuple[list[dict], tracing.Tracer]:
    """Closed loop of cycles until the next one would overrun ``seconds``."""
    tracer = tracing.Tracer()
    cycles: list[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cycles.append(pipe.cycle(len(cycles), tracer if trace and len(cycles) % 2 else None))
        last = time.perf_counter() - t0
        if len(cycles) >= 2 and time.perf_counter() + last - start > seconds:
            return cycles, tracer


# ---------------------------------------------------------------------------
# metrics

def end_to_end(name: str, plain: list[dict], setup: list[float],
               quality: dict[str, float]) -> tuple[float, int]:
    """(median, sample count) of one end-to-end metric over the untraced cycles."""
    if name == "setup_s":
        return statistics.median(setup), len(setup)
    if name == "peak_rss_mb":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
    if name in QUALITY:
        return quality.get(name, math.nan), len(plain)
    op = "embed" if name == "epoch_ms_p50" else name[: -len("_s")]
    done = [c for c in plain if op not in c["failed"]]
    if name == "epoch_ms_p50":
        samples = [ms for c in done for ms in c["epoch_ms"]]
    else:
        samples = [c["seconds"][op] for c in done]
    return (statistics.median(samples) if samples else math.nan), len(samples)


SPECIAL = {
    "optim.gradients.ns_per_pair":
        lambda a: a["optim.gradients"]["self_ns"] / a["optim.gradients"]["pairs"],
    "optim.gradients.gather_bytes":
        lambda a: a["optim.gradients"]["gather_bytes"] / a["optim.gradients"]["calls"],
    "fileio.write_embedding.bytes":
        lambda a: a["fileio.write_embedding"]["bytes"] / a["fileio.write_embedding"]["calls"],
    "reconstruct.worklist_nodes":
        lambda a: a["reconstruct.curvature_correction"]["worklist_nodes"],
    "reconstruct.accept_ratio":
        lambda a: (a["reconstruct.curvature_correction"]["accepted"]
                   / a["reconstruct.curvature_correction"]["worklist_nodes"]),
    "reconstruct.ms_per_worklist_node":
        lambda a: (a["reconstruct.curvature_correction"]["total_ns"] / 1e6
                   / a["reconstruct.curvature_correction"]["worklist_nodes"]),
    "clique.exact_ratio":
        lambda a: a["clique.max_clique"]["exact"] / a["clique.max_clique"]["calls"],
}


def layer_value(name: str, agg: dict) -> float:
    """One per-layer metric from one traced cycle's aggregated spans."""
    if name in SPECIAL:
        return SPECIAL[name](agg)
    span, _, field = name.rpartition(".")
    if field == "self_ms":
        if span in tracing.LAYERS:
            return sum(a["self_ns"] for s, a in agg.items() if s.startswith(span + ".")) / 1e6
        return agg[span]["self_ns"] / 1e6
    return agg[span][field]


def per_layer(names: list[str], cycles: list[dict]) -> dict[str, tuple[float, int]]:
    """Each metric's median over the traced cycles (counts repeat exactly)."""
    traced = [c for c in cycles if c["traced"]]
    out = {}
    for name in names:
        if name == "trace_overhead_frac":
            plain = statistics.median(c["seconds"]["embed"] for c in cycles if not c["traced"])
            with_trace = statistics.median(c["seconds"]["embed"] for c in traced)
            out[name] = ((with_trace - plain) / plain, len(cycles))
        else:
            try:
                value = statistics.median(layer_value(name, c["layers"]) for c in traced)
            except (KeyError, ZeroDivisionError):  # a failed command left no span
                value = math.nan
            out[name] = (value, len(traced))
    return out


# ---------------------------------------------------------------------------
# run record

def machine() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "caches": caches,
    }


def time_setups(args, work: Path, repeats: int) -> list[float]:
    """Fresh-process set-ups: interpreter start, imports, input generation and writes."""
    samples = []
    for k in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-only", "--workload", args.workload,
                        "--seed", str(args.seed), "--workdir", str(work / f"setup{k}")],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    w = workloads.WORKLOADS[args.workload]
    cli = import_program()
    if args.setup_only:
        workloads.prepare(w, args.seed, Path(args.workdir))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    tag = f"{w.name}-s{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    try:
        setup = [] if args.trace else time_setups(args, work, SETUP_REPEATS)
        inputs = workloads.prepare(w, args.seed, work / "inputs")
        pipe = Pipeline(cli, w, inputs, work)
        cycles, tracer = measure(pipe, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = pipe.failures
    clean = [c["quality"] for c in cycles if not c["failed"]]
    quality = clean[0] if clean else {}
    if any(q != quality for q in clean):
        failures.append("quality metrics differ between repeats")
    attempted = len(OPS) * len(cycles)
    failed = sum(len(c["failed"]) for c in cycles)
    plain = [c for c in cycles if not c["traced"]]
    names = [m["name"] for m in wanted]
    extras = {}  # reported, not gated: see bench/NOTES.md
    if args.trace:
        values = per_layer(names, cycles)
        failures += [f"{name} is 0 on {w.name}" for name, (v, _) in values.items()
                     if v == 0 and name not in MAY_BE_ZERO
                     and NONZERO_ONLY_ON.get(name, w.name) == w.name]
    else:
        values = {name: end_to_end(name, plain, setup, quality) for name in names}
        epochs = sorted(ms for c in plain for ms in c["epoch_ms"])
        if len(epochs) >= 200:  # ten samples beyond the 95th percentile
            extras["epoch_ms_p95"] = (epochs[math.ceil(0.95 * len(epochs)) - 1], "ms",
                                      len(epochs))
        for op in OPS:
            extras[f"{op}_s_min"] = (min(c["seconds"][op] for c in plain), "s", len(plain))
        extras["ad_tri"] = (quality.get("ad_tri", math.nan), "ratio", len(plain))
        extras["failed_frac"] = (failed / attempted, "ratio", attempted)
    failures += [f"{name} is not finite" for name, (v, _) in values.items()
                 if not math.isfinite(v)]

    units = {m["name"]: m["unit"] for m in wanted}
    reported = {name: (v, units[name], k) for name, (v, k) in values.items()} | extras
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(),
        "working_set_bytes": workloads.working_set_bytes(w, inputs.n, inputs.pairs),
        "metrics": {name: {"value": v, "unit": u, "samples": k}
                    for name, (v, u, k) in reported.items()},
        "cycles": [{k: c[k] for k in ("index", "traced", "seconds", "failed")} for c in cycles],
        "failures": failures,
        "defects": sorted(pipe.defects),
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "counts"],
             "spans": tracer.spans}) + "\n")

    for name, (v, u, k) in reported.items():
        print(f"{name:<38} {v:>14.6g} {u:<10} n={k}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    for line in record["defects"]:
        print(f"DEFECT {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, (v, _) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
