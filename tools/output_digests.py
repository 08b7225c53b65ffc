#!/usr/bin/env python3
"""The sha256 of every primary output of one benchmark cycle, per workload and command.

    python3 tools/output_digests.py [CHECKOUT]

Imports ``hetembed`` from CHECKOUT/src (default: the checkout holding this
script) and runs one cycle of each workload in bench/workloads.py through
``hetembed.cli.main`` at seed 1, with the command lines, output files and
checks of bench/run.py's ``Pipeline``. Prints one line per workload and
command: its name, the command and the sha256 over its primary outputs
(embedding.json, eval.json, reconstruct.json, the generated files). After
the embed line comes a ``history`` line: the sha256 of the history CSV's
``epoch,loss_d,loss_c`` columns, since its ``wall_ms`` column holds
wall-clock times. Two checkouts that print the same lines wrote the same
bytes. bench/ is read from the checkout holding this script, and nothing in
it is written; the cycle runs in a temporary directory.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.exit(f"usage: {Path(__file__).name} [CHECKOUT]")
    package = (Path(argv[0]) if argv else ROOT).resolve() / "src" / "hetembed"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: {package} not found")
    sys.path[:0] = [str(package.parent), str(ROOT / "bench")]
    import hetembed.cli
    import run
    import workloads

    if Path(hetembed.cli.__file__).resolve().parent != package:
        sys.exit(f"error: imported hetembed from {hetembed.cli.__file__}, not {package}")
    failed = []
    for w in workloads.WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            pipe = run.Pipeline(hetembed.cli, w, workloads.prepare(w, SEED, work / "inputs"), work)
            for op in run.OPS:
                cycle = {"index": 0, "seconds": {}, "epoch_ms": [], "quality": {}, "failed": []}
                pipe.run_op(op, cycle)
                digest = "FAILED" if cycle["failed"] else run.digest(pipe.outputs(op))
                print(f"{w.name:<12} {op:<12} {digest}", flush=True)
                if op == "embed":
                    print(f"{w.name:<12} {'history':<12} {history_digest(pipe, cycle)}", flush=True)
            failed += [f"{w.name} {line}" for line in pipe.failures]
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


def history_digest(pipe, cycle: dict) -> str:
    """The sha256 of the history CSV with its last column, wall_ms, dropped."""
    if cycle["failed"]:
        return "FAILED"
    lines = pipe.history.read_text().splitlines()
    return hashlib.sha256("\n".join(line.rsplit(",", 1)[0] for line in lines).encode()).hexdigest()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
