"""Run one THOR benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_serial --seed 1 --seconds 20 --trace 0

The metric names, units and bounds live in ``BENCHMARK.json``; the
context it cannot hold (what each per-layer metric should move, and
what the benchmark leaves out) lives in ``perfbench/context.json``.
Human-readable lines go first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The exit code is 0 only when
every correctness check passed.

End-to-end times are in reference-host seconds (see
``bench.host_factor``); the raw wall-clock time of the timed region is
printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, "_work")


def load_spec(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def load_context() -> dict:
    with open(os.path.join(HERE, "context.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _commit(root: str) -> str:
    """The checked-out commit, when the checkout is a git work tree."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_context(seed: int) -> dict:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(ROOT),
        "seed": seed,
    }


def select_metrics(values: dict, declared: list) -> dict:
    """Exactly the declared metrics, each with its declared unit."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def result_line(outcome, spec: dict, trace: bool) -> dict:
    from bench import end_to_end_metrics, per_layer_metrics

    if trace:
        metrics = select_metrics(per_layer_metrics(outcome), spec["per_layer"])
    else:
        metrics = select_metrics(end_to_end_metrics(outcome), spec["end_to_end"])
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def describe(outcome, line: dict, trace: bool, context: dict) -> list[str]:
    lines = [
        f"workload {outcome.workload} seed {outcome.seed}: {outcome.attempted} sites, "
        f"{sum(r.pages for r in outcome.sites)} pages in {outcome.timed_s:.2f}s timed "
        f"({sum(r.wall_s for r in outcome.sites):.2f}s on this host, host factor "
        f"{statistics.median(r.host for r in outcome.sites):.3f}), "
        f"{sum(item.setup_s for item in outcome.prepared):.2f}s of site set-up",
        f"failed_frac {outcome.failed / outcome.attempted:g} "
        f"({outcome.failed} of {outcome.attempted} site runs failed)",
    ]
    moves = context.get("per_layer", {})
    for name, metric in line["metrics"].items():
        note = f"  -> {moves[name]}" if trace and name in moves else ""
        lines.append(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']}{note}")
    if trace:
        lines.append("  gap: " + context["skipped"]["worker_spans"])
    lines += [f"  check failed: {problem}" for problem in outcome.problems]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    spec = load_spec()
    context = load_context()

    from bench import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    trace = bool(args.trace)
    outcome = run_workload(args.workload, args.seed, args.seconds, WORK_DIR, trace=trace)
    line = result_line(outcome, spec, trace)
    print("context: " + json.dumps(run_context(args.seed), sort_keys=True))
    for text in describe(outcome, line, trace, context):
        print(text)
    if trace:
        outcome.tracer.save(os.path.join(WORK_DIR, f"spans-{args.workload}.npz"))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
