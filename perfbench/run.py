"""Benchmark driver: one workload, one seed; prints one JSON result line.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  The program under test is the checkout's
``src/gausswork``, imported with ``PYTHONPATH=src`` and no install.  Set-up
(``setup_s``) is the median wall time of ``SETUP_RUNS`` fresh interpreters
that each import ``gausswork`` and generate the workload's first round of
inputs.  The measurement itself runs in one more interpreter
(``worker.py``); with ``--trace 1`` it reports the per-layer metrics instead
of the end-to-end ones.  The result is also written to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("pairs", "sweeps", "oracle", "cli")
DEFAULT_SEED = 1
SETUP_RUNS = 5
TIMEOUT_S = 150

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_s": "s",
    "peak_rss_mb": "MB",
    "protocol_steps": "count",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def worker_command(args, *extra) -> list[str]:
    return [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gausswork", "__init__.py")):
        print(f"error: no program under test at {os.path.join(ROOT, 'src', 'gausswork')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    setup = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(worker_command(args, "--setup-only"), cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=TIMEOUT_S)
        setup.append(time.perf_counter() - t0)

    proc = subprocess.run(worker_command(args), cwd=ROOT, env=env, check=True,
                          stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": report["metrics"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
    else:
        values = dict(report["metrics"], setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    path = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, rounds=report["rounds"], problems=report["problems"]), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
