"""Capture the default seed's reference outputs into reference/seed1.json.

Run from the repository root, only when the references must be renewed:

    PYTHONPATH=src python3 perfbench/capture_reference.py

Each workload keeps its first ``reference_ops`` ops: the seeded inputs, the
CLI stdout of every call and, for compile ops, the written program text.
The ops must pass the paper's invariants before they are stored.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import trispin.cli as cli

import workloads


def main() -> int:
    refs = {}
    out = workloads.HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(workloads.DEFAULT_SEED, Path(scratch))
            refs[name] = []
            for i, op in enumerate(wl.ops[: cls.reference_ops]):
                res = wl.run(cli.main, op)
                wl.finish(op, res)
                problems = wl.check(i, op, res)
                if problems:
                    print(f"{name} op {i}: {problems}", file=sys.stderr)
                    return 1
                refs[name].append(wl.record(op, res))
    workloads.REFERENCE_FILE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
