"""One workload in a fresh interpreter; prints its measurements as one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload pairs --seed 1 --seconds 20 --trace 0

``--setup-only`` stops after importing ``gausswork`` and generating the first
round's inputs, which is what ``run.py`` times as set-up.  Otherwise rounds
run until the next one would end after ``--seconds``; at least one runs.  With
``--trace 1`` each round runs twice on the same inputs, untraced and then
traced, and the per-layer figures are means per traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

_t0 = time.perf_counter()
import gausswork  # noqa: E402,F401  (timed: the program's import cost)

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pairs", "sweeps", "oracle", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_round(workload, items, spans_dir=None):
    """Time every item of one round; returns per-item records and the round's wall time."""
    records = []
    start = time.perf_counter()
    for k, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            if spans_dir is None:
                out, exc = workload.run(item), None
            else:
                out, exc = workload.run(item, os.path.join(spans_dir, f"{k}.jsonl")), None
        except Exception as err:  # the benchmark records every failure and goes on
            out, exc = None, err
        records.append((item, out, exc, time.perf_counter() - t0))
    return records, time.perf_counter() - start


def judge(workload, records):
    """Problems found in one round's outputs, and its failed and step counts."""
    problems, failed, steps = [], 0, 0
    for item, out, exc, _ in records:
        if exc is not None:
            failed += 1
            if item.expect_failure:
                problems += wl.expected_failure_problem(item, exc)
            else:
                problems.append(f"{item.kind} failed: {type(exc).__name__}: {exc}")
            continue
        steps += workload.steps(item, out)
        problems += [f"{item.kind}: {p}" for p in workload.check(item, out)]
    return problems, failed, steps


def main(argv=None) -> int:
    args = parse_args(argv)
    cli_dir = os.path.join(OUT, f"cli-{args.seed}")
    workload = {
        "pairs": wl.Pairs,
        "sweeps": wl.Sweeps,
        "oracle": wl.Oracle,
        "cli": lambda: wl.Cli(cli_dir, os.path.join(HERE, "cli_launcher.py")),
    }[args.workload]()
    items = workload.make_round(np.random.default_rng([args.seed, 0]))
    if args.setup_only:
        return 0
    # The first call into a layer pays for lazy set-up in the libraries below
    # it (about 0.75 s for the Fock oracle); run one item untimed first.
    run_round(workload, items[:1])

    tracer = tracing.Tracer()
    walls, traced_walls, item_times, steps, layer_rounds = [], [], [], [], []
    verb_times: dict[str, list] = {}
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    r = 0
    while True:
        if r:
            items = workload.make_round(np.random.default_rng([args.seed, r]))
        records, wall = run_round(workload, items)
        found, round_failed, round_steps = judge(workload, records)
        problems += found
        attempted += len(items)
        failed += round_failed
        walls.append(wall)
        steps.append(round_steps)
        for item, _, exc, dt in records:
            if exc is None:
                item_times.append(dt)
                verb_times.setdefault(item.kind, []).append(dt)
        if args.trace:
            layer_rounds.append(traced_round(args, workload, items, tracer, traced_walls, problems))
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / r > args.seconds:
            break

    if args.trace:
        metrics = per_layer(args, layer_rounds, walls, traced_walls, verb_times)
        if args.workload != "cli":
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"))
    else:
        if args.workload == "cli":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": statistics.median(walls),
            "item_p50_s": statistics.median(item_times),
            "peak_rss_mb": rss_kb / 1024.0,
            "protocol_steps": statistics.median(steps),
        }
    print(json.dumps({
        "rounds": r,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }))
    return 0


def traced_round(args, workload, items, tracer, traced_walls, problems):
    """Run the round again with spans on; returns its per-layer totals."""
    if args.workload == "cli":
        spans_dir = os.path.join(OUT, f"cli-trace-{args.seed}")
        os.makedirs(spans_dir, exist_ok=True)
        records, wall = run_round(workload, items, spans_dir)
        totals = tracing.merge_files(os.path.join(spans_dir, f"{k}.jsonl") for k in range(len(items)))
    else:
        first = len(tracer.spans)
        before = dict(tracer.counters)
        restore = tracing.instrument(tracer)
        try:
            records, wall = run_round(workload, items)
        finally:
            restore()
        totals = tracing.span_totals(tracer.spans, first)
        for name, value in tracer.counters.items():
            totals[name] += value - before.get(name, 0.0)
    problems += [f"traced {p}" for p in judge(workload, records)[0]]
    traced_walls.append(wall)
    return totals


def per_layer(args, layer_rounds, walls, traced_walls, verb_times):
    """Per-layer figures: means per traced round, CLI figures as medians."""
    metrics = {}
    for name in tracing.PER_LAYER:
        source = "extraction.s" if name == "extraction.self.s" else name
        metrics[name] = sum(t.get(source, 0.0) for t in layer_rounds) / len(layer_rounds)
    if args.workload == "cli":
        imports = [t["cli.import.s"] / t["cli.invocations"] for t in layer_rounds]
        metrics["cli.import.s"] = statistics.median(imports)
        for verb in tracing.VERBS:
            metrics[f"cli.{verb}.p50_s"] = statistics.median(verb_times[verb])
    else:
        metrics["cli.import.s"] = IMPORT_S
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
