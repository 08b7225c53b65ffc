"""Command-line surface: embed, eval, reconstruct, generate, volume, stats.

Exit codes: 0 success, 1 usage/input/parse error or out of memory, 2 numeric abort
during training. All randomness flows from the --seed flag; identical
invocations produce byte-identical primary outputs on one machine with one
numpy/BLAS build. A test trains a two-tile graph under 1 and 2 BLAS threads
and finds the same embedding bytes; whether every BLAS build rounds its
products alike for every thread count is not tested.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import fileio, metrics, reconstruct as recon, randgraph
from .graph import Graph, forman, load_edge_list, save_edge_list, triangle_counts
from .manifold import pairwise_sq_distances, parse_manifold
from .optim import Embedding, NumericAbortError, TrainConfig, to_flat, train


def _load_graph(path: str) -> Graph:
    g = load_edge_list(Path(path).read_bytes())
    if g.n == 0:
        raise ValueError(f"graph {path!r} is empty")
    dropped = g.meta.get("duplicates_dropped", 0) + g.meta.get("self_loops_dropped", 0)
    if dropped:
        print(f"note: dropped {g.meta['duplicates_dropped']} duplicate edge(s) and "
              f"{g.meta['self_loops_dropped']} self-loop(s)", file=sys.stderr)
    return g


def _load_graph_and_embedding(args: argparse.Namespace) -> tuple[Graph, Embedding]:
    """The graph and embedding files named by ``args``; their node counts must match."""
    g = _load_graph(args.graph)
    emb = fileio.read_embedding(args.embedding)
    if emb.n != g.n:
        raise ValueError(f"embedding has {emb.n} nodes but graph has {g.n}")
    return g, emb


def _add_config_flags(p: argparse.ArgumentParser, base: fileio.Config) -> None:
    """One flag per field of the config dataclass ``base``, which gives the defaults."""
    for key, default in to_flat(base).items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=f"default: {default}")


def _build_config(args: argparse.Namespace, base: fileio.Config) -> fileio.Config:
    """``base`` overlaid with the --config file, if any, then with the config flags given."""
    if getattr(args, "config", None):
        base = fileio.load_config(args.config, base)
    overrides = {f.name: getattr(args, f.name) for f in fields(base)
                 if getattr(args, f.name) is not None}
    return fileio.config_from_mapping(overrides, base)


def _cmd_embed(args) -> int:
    g = _load_graph(args.graph)
    spec = parse_manifold(args.manifold)
    cfg = _build_config(args, TrainConfig())
    emb, history = train(g, spec, cfg)
    out = Path(args.out)
    fileio.write_embedding(emb, out)
    history_path = args.history or str(out.with_suffix(".history.csv"))
    fileio.write_history_csv(history, history_path)
    print(f"wrote {out} ({emb.n} nodes, manifold {emb.spec.to_string()}) "
          f"and {history_path}")
    return 0


def _cmd_eval(args) -> int:
    g, emb = _load_graph_and_embedding(args)
    f_signal = forman(g, args.gamma)
    report = metrics.evaluate(emb, g, f_signal)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def _cmd_reconstruct(args) -> int:
    g, emb = _load_graph_and_embedding(args)
    sq = pairwise_sq_distances(emb.spec, emb.blocks)  # shared by every stage below
    # only the curvature stages read the proxy, which a homogeneous embedding lacks
    proxy = metrics.reconstructed_forman(emb) if args.correct or args.triangles else None
    rho = args.rho if args.rho is not None else recon.tune_threshold(
        sq, g, val_fraction=args.val_fraction, seed=args.seed
    )
    base = recon.nn_graph(sq, rho)
    baseline = recon.edge_mismatch(base, g)
    result = recon.ReconstructionResult(rho=rho, graph=base, mismatch=baseline)
    if args.correct:
        result = recon.curvature_correction(
            proxy, base, sq, rho=rho, step=args.step if args.step is not None else 0.1 * rho,
            percentile=args.percentile, gamma=args.forman_gamma,
        )
        result.mismatch = recon.edge_mismatch(result.graph, g)
    payload = result.to_json_dict()
    payload["mismatch_baseline"] = baseline

    if args.triangles:
        est = recon.estimate_triangles(proxy, result.graph, gamma=args.forman_gamma)
        _, true_counts = triangle_counts(g)
        payload["triangles"] = {
            "ad_nn": metrics.avg_triangle_distortion(true_counts, est.nn_baseline),
            "ad_curvature": metrics.avg_triangle_distortion(true_counts, est.clamped),
            "gamma": args.forman_gamma,
        }
    text = fileio.reconstruction_to_json(payload)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    summary = {k: payload[k] for k in ("rho", "mismatch", "mismatch_baseline", "triangles")
               if k in payload}
    print(json.dumps(summary, indent=1))
    return 0


def _cmd_generate(args) -> int:
    cfg = _build_config(args, randgraph.SampleConfig())
    graphs, stats = randgraph.run_generator(args.mode, cfg, clique_budget=args.clique_budget)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, g in enumerate(graphs):
        (out_dir / f"run_{k:03d}.edges").write_text(save_edge_list(g), encoding="utf-8")
    fileio.write_stats_csv(stats, out_dir / "stats.csv")
    bary = randgraph.degree_barycenter([randgraph.degree_histogram(g) for g in graphs])
    fileio.write_barycenter_csv(bary, out_dir / "barycenter.csv")
    if not all(s.clique_exact for s in stats):
        print("note: clique budget exceeded on some runs; "
              "best clique found within the budget reported", file=sys.stderr)
    print(f"wrote {cfg.runs} run(s) to {out_dir}")
    return 0


def _cmd_volume(args) -> int:
    g, emb = _load_graph_and_embedding(args)
    try:
        graph_norm, vol_norm = metrics.volume_match(emb, g, rho=args.rho)
    except OverflowError:
        raise ValueError(f"argument --rho: {args.rho!r} gives annular volumes beyond "
                         "the float range") from None
    fileio.write_volume_csv(graph_norm, vol_norm, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_stats(args) -> int:
    g = _load_graph(args.graph)
    stats = randgraph.graph_stats(g, clique_budget=args.clique_budget)
    if args.out:
        fileio.write_stats_csv([stats], args.out)
    print(json.dumps({"n": g.n, "edges": g.num_edges, **asdict(stats)}, indent=1))
    return 0


def _finite_float(text: str) -> float:
    """The argparse type of every float flag: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error code; 2 means a numeric abort."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hetembed",
        description="Curvature-aware graph embeddings into heterogeneous manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="train an embedding")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--manifold", "-m", required=True,
                   help='e.g. "h5,h5,rot(a=auto)" or "e2"')
    p.add_argument("--out", default="embedding.json")
    p.add_argument("--history", help="history CSV path (default: <out>.history.csv)")
    p.add_argument("--config", help="flat key=value config file")
    _add_config_flags(p, TrainConfig())
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("eval", help="evaluate an embedding against its graph")
    p.add_argument("graph")
    p.add_argument("embedding")
    p.add_argument("--gamma", type=_finite_float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("reconstruct", help="rebuild the graph from an embedding")
    p.add_argument("graph")
    p.add_argument("embedding")
    p.add_argument("--rho", type=_finite_float, help="threshold (default: tuned on a validation sample)")
    p.add_argument("--val-fraction", dest="val_fraction", type=_finite_float, default=0.10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--correct", action="store_true", help="run curvature correction")
    p.add_argument("--percentile", type=_finite_float, default=90.0)
    p.add_argument("--step", type=_finite_float, help="correction step (default 0.1*rho)")
    p.add_argument("--forman-gamma", dest="forman_gamma", type=_finite_float, default=1.0,
                   help="the training gamma, read by the correction and the triangle estimate")
    p.add_argument("--triangles", action="store_true", help="estimate triangle counts")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("generate", help="sample random graphs from H3 / H3 x R")
    p.add_argument("--mode", choices=["homogeneous", "heterogeneous"], required=True)
    _add_config_flags(p, randgraph.SampleConfig())
    p.add_argument("--clique-budget", dest="clique_budget", type=_finite_float, default=10.0)
    p.add_argument("--out-dir", dest="out_dir", default="generated")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("volume", help="graph ball sizes vs annular volumes (H3 x R)")
    p.add_argument("graph")
    p.add_argument("embedding")
    p.add_argument("--rho", type=_finite_float, default=4.0)
    p.add_argument("--out", default="volume.csv")
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("stats", help="degree/clustering/clique statistics of a graph")
    p.add_argument("graph")
    p.add_argument("--clique-budget", dest="clique_budget", type=_finite_float, default=10.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stats)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing fills a fresh namespace each
    time and changes nothing in the parser."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericAbortError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        print(json.dumps(exc.state, indent=1, default=str), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
