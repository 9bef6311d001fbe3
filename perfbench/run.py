"""routelock benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload train_demo --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Every workload runs all three phases (train, decode, oracle) so that it
reports every end-to-end metric; its own phase repeats its set-up for
``setup_s`` and runs rounds until ``--seconds`` have been measured, while
the other two phases run one round each. ``--trace 1`` instead runs one
untraced and one traced pass of fixed work, checks that their outputs are
bitwise equal, and reports per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record
(manifest, gates, digests, overhead) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("train_demo", "decode_demo", "oracle_tiny")
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0, help="input seed; taken modulo 2**32")
    p.add_argument("--seconds", type=float, default=10.0, help="measured time of the workload's own phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    args.seed %= 2**32
    return args


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    import subprocess

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "routelock" / "__init__.py").is_file():
        print(f"error: routelock sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workload  # numpy must see the thread settings first

    return workload.main(args, time.perf_counter() - t_import)


if __name__ == "__main__":
    sys.exit(main())
