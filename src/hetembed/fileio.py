"""Embedding files, flat key=value configs, and CSV emitters.

All numeric JSON payloads round-trip exactly: floats are serialized with
Python's shortest-repr decimals (up to 17 significant digits).
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .manifold import MAX_COORDINATE, check_point, parse_manifold
from .optim import Embedding, ShiftConstants, TrainConfig, TrainHistory, _is_int
from .randgraph import GraphStats, SampleConfig

FORMAT_VERSION = 1

Config = TrainConfig | SampleConfig  # the dataclasses read from flat key=value text
# the file key of each ShiftConstants field
_SHIFT_KEYS = {"min_forman": "min_forman", "delta_hat": "delta_hat", "lam": "lambda", "r_h": "r_h"}


def _dump_spliced(payload: dict, key: str, item: str, count: int, values) -> str:
    """``json.dumps(payload, indent=1, allow_nan=False) + "\\n"`` byte for byte,
    where the top-level list ``key`` holds ``count`` items that json prints
    as the ``%`` template ``item``, built without Python's pure-Python encoder:
    the payload is dumped with that list empty, and one ``%`` format of
    ``count`` copies of ``item`` with the flat tuple ``values`` is spliced in."""
    text = json.dumps({**payload, key: []}, indent=1, allow_nan=False) + "\n"
    if not count:
        return text
    body = ",\n".join([item] * count) % values
    # one space of indent marks the top-level key; deeper keys have more
    return text.replace(f'\n "{key}": []', f'\n "{key}": [\n{body}\n ]', 1)


def embedding_to_json(emb: Embedding) -> str:
    """Format 1 text, byte for byte what ``json.dumps(payload, indent=1)``
    writes for the payload of header keys and a "nodes" list of
    ``{"id": i, "blocks": [[...], ...]}`` records, spliced in by
    :func:`_dump_spliced` (``%r`` is the ``float.__repr__`` that json
    writes). A non-finite coordinate raises ValueError naming its factor and
    node."""
    for f, b in zip(emb.spec.factors, emb.blocks):
        bad = ~np.isfinite(b).all(axis=1)
        if bad.any():
            raise ValueError(f"embedding coordinate of factor {f.to_string()} at node "
                             f"{int(np.argmax(bad))} is not a finite number")
    s = emb.shift_constants
    shift = None if s is None else {key: getattr(s, name) for name, key in _SHIFT_KEYS.items()}
    head = {
        "format_version": FORMAT_VERSION,
        "manifold": emb.spec.to_string(),
        "shift_constants": shift,
        "config_digest": emb.config_digest,
        "seed": emb.seed,
        "epochs": emb.epochs,
    }
    blocks = ",\n".join("    [\n" + ",\n".join(["     %r"] * b.shape[1]) + "\n    ]"
                        for b in emb.blocks)
    node = '  {\n   "id": %d,\n   "blocks": [\n' + blocks + "\n   ]\n  }"
    # the id goes in as a float column; %d prints it as the integer it holds
    rows = np.hstack([np.arange(emb.n, dtype=np.float64)[:, None], *emb.blocks])
    return _dump_spliced(head, "nodes", node, emb.n, tuple(rows.ravel().tolist()))


def reconstruction_to_json(payload: dict) -> str:
    """``json.dumps(payload, indent=1, allow_nan=False) + "\\n"`` byte for byte,
    for a payload whose top-level "edges" value is a list of integer pairs,
    with the edges spliced in by :func:`_dump_spliced`."""
    edges = payload["edges"]
    return _dump_spliced(payload, "edges", "  [\n   %d,\n   %d\n  ]", len(edges),
                         tuple(chain.from_iterable(edges)))


def write_embedding(emb: Embedding, path: str | Path) -> None:
    Path(path).write_text(embedding_to_json(emb), encoding="utf-8")


def _is_bounded(value) -> bool:
    """Whether a JSON value is a number of at most ``MAX_COORDINATE`` in magnitude,
    the bound :func:`check_point` puts on coordinates."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    return abs(value) <= MAX_COORDINATE  # False for NaN


def embedding_from_json(text: str) -> Embedding:
    """An embedding from the text :func:`embedding_to_json` writes. Every field
    is checked for its type and shape before conversion, and a mismatch
    raises ValueError naming it."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("embedding file must hold a JSON object")
    version = payload.get("format_version")
    if not (_is_int(version) and version == FORMAT_VERSION):
        raise ValueError(f"unsupported embedding format version {version!r}")
    if not isinstance(payload.get("manifold"), str):
        raise ValueError("embedding 'manifold' must be a string")
    spec = parse_manifold(payload["manifold"])
    nodes = payload.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ValueError("embedding 'nodes' must be a non-empty list")
    k = len(spec.factors)
    for node in nodes:
        if not (isinstance(node, dict) and isinstance(node.get("blocks"), list)
                and len(node["blocks"]) == k):
            raise ValueError(f"every embedding node must be an object with a list of {k} blocks")
    ids = [node.get("id") for node in nodes]
    if not all(map(_is_int, ids)) or ids != list(range(len(nodes))):
        raise ValueError("embedding node ids must be 0..n-1 in list order")
    blocks = []
    for f, column in zip(spec.factors, zip(*(node["blocks"] for node in nodes))):
        try:
            b = np.array(column)
            ok = b.dtype.kind in "iuf" and b.shape == (len(nodes), f.block_dim)
        except ValueError:  # ragged rows
            ok = False
        if not ok:
            raise ValueError(f"blocks of factor {f.to_string()} must be lists of "
                             f"{f.block_dim} numbers")
        blocks.append(b.astype(np.float64, copy=False))
    check_point(spec, blocks)
    shift = payload.get("shift_constants")
    if shift is not None:
        if not (isinstance(shift, dict)
                and all(_is_bounded(shift.get(key)) for key in _SHIFT_KEYS.values())):
            raise ValueError(f"embedding 'shift_constants' must map {sorted(_SHIFT_KEYS.values())} "
                             f"to finite numbers of at most {MAX_COORDINATE:g} in magnitude")
        shift = ShiftConstants(**{name: float(shift[key]) for name, key in _SHIFT_KEYS.items()})
    seed, epochs = payload.get("seed", 0), payload.get("epochs", 0)
    if not (_is_int(seed) and _is_int(epochs)):
        raise ValueError("embedding 'seed' and 'epochs' must be integers")
    return Embedding(
        spec=spec,
        blocks=blocks,
        shift_constants=shift,
        seed=seed,
        epochs=epochs,
        config_digest=str(payload.get("config_digest", "")),
    )


def read_embedding(path: str | Path) -> Embedding:
    return embedding_from_json(Path(path).read_text(encoding="utf-8"))


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    values: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {line_no}: expected key=value, got {line!r}")
        key, val = stripped.split("=", 1)
        values[key.strip()] = val.strip()
    return values


def _parse_value(declared: str, raw: str):
    """One flat config value, parsed by its config field's declared type."""
    if declared in ("float", "float | None"):
        return float(raw)
    if declared == "int":
        return int(raw)
    if declared == "int | str":
        return raw if raw in ("all", "auto") else int(raw)
    if declared.startswith("tuple") and not (raw == "auto" and declared.endswith("| str")):
        lo, hi = raw.split(",")
        return float(lo), float(hi)
    return raw


def config_from_mapping(values: dict[str, str], base: Config) -> Config:
    """Overlay flat key=value strings on ``base`` and validate the result; the
    keys are its fields."""
    declared = {f.name: f.type for f in fields(base)}
    unknown = set(values) - set(declared)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, raw in values.items():
        try:
            kwargs[key] = _parse_value(declared[key], raw)
        except ValueError as exc:
            raise ValueError(f"config {key}={raw!r}: {exc}") from None
    cfg = replace(base, **kwargs)
    cfg.validate()
    return cfg


def load_config(path: str | Path, base: Config) -> Config:
    return config_from_mapping(parse_config_text(Path(path).read_text(encoding="utf-8")), base)


def write_history_csv(history: TrainHistory, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("epoch,loss_d,loss_c,wall_ms\n")
        for e, ld, lc, ms in zip(history.epochs, history.loss_d, history.loss_c, history.wall_ms):
            out.write(f"{e},{ld!r},{lc!r},{ms:.3f}\n")


def write_stats_csv(stats: list[GraphStats], path: str | Path) -> None:
    """One row per run plus a 'mean' summary row: the mean of each number, and
    whether every run's clique is exact."""
    cols = fields(GraphStats)
    rows = [[getattr(s, f.name) for f in cols] for s in stats]
    summary = [all(col) if f.type == "bool" else float(np.mean(col))
               for f, col in zip(cols, zip(*rows))]
    with open(path, "w", encoding="utf-8") as out:
        out.write("run," + ",".join(f.name for f in cols) + "\n")
        for k, row in enumerate(rows):
            out.write(f"{k}," + ",".join(map(_cell, row)) + "\n")
        out.write("mean," + ",".join(map(_cell, summary)) + "\n")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_barycenter_csv(histogram: np.ndarray, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("degree,mass\n")
        for d, m in enumerate(histogram):
            if m > 0:
                out.write(f"{d},{float(m)!r}\n")


def write_volume_csv(graph_norm: np.ndarray, vol_norm: np.ndarray, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("node,graph_ball_norm,manifold_volume_norm\n")
        for i, (a, b) in enumerate(zip(graph_norm, vol_norm)):
            out.write(f"{i},{float(a)!r},{float(b)!r}\n")
