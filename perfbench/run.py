"""Run one benchmark workload and print its metrics as the last line of stdout.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``BENCHMARK.json``).  The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record (metadata, sample counts,
per-rung figures), which is also written to ``.perfbench_out/``.  The exit
code is 0 only when every correctness check passed.  A traced run also
writes its spans to ``.perfbench_out/trace-*/spans.jsonl``.

The command runs the workload in a child process so that it can read the
child's whole standard error, including what the multiprocessing resource
tracker prints after the child exits, and count the tracker's ``KeyError``
tracebacks (``parallel.tracker_errors``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def child_timeout(seconds: int) -> float:
    """Seconds the workload may take: set-up, checks and up to two timed phases.

    The longest run, a traced serve run, times its ladder twice and checks
    every answer of both serially: about 25 s plus 3.8 s per measured
    second, 117 s at 24 s.  A traced sweep takes at least 65 s however few
    the seconds, as each timed phase runs two whole passes.  The timeout
    stays under 180 s at 24 s, so a hung run is still stopped in time.
    """
    return 80.0 + 3.8 * seconds


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def count_tracker_errors(stderr: str) -> int:
    """Tracebacks from the resource tracker that end in a ``KeyError``."""
    count, block = 0, []
    for line in stderr.splitlines():
        if line.startswith("Traceback (most recent call last):"):
            block = [line]
        elif block and line[:1].isspace():
            block.append(line)
        elif block:
            if line.startswith("KeyError") and any("resource_tracker" in b for b in block):
                count += 1
            block = []
    return count


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def record_path(args: argparse.Namespace) -> str:
    return os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")


def parent(args: argparse.Namespace) -> int:
    # Spool files, should the program's column store ever use them, stay
    # inside the checkout.
    spool = os.path.join(OUT_DIR, "spool")
    os.makedirs(spool, exist_ok=True)
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child"] + sys.argv[1:],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
        env=dict(os.environ, REPRO_SPOOL_DIR=spool),
    )
    start = time.perf_counter()
    timeout = child_timeout(args.seconds)
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        stdout, stderr = child.communicate()
        sys.stderr.write(stderr)
        print(f"perfbench: workload timed out after {timeout:.0f}s", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    try:
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(stdout)
        return child.returncode or 1
    record["wall_s"] = wall
    record["timeout_s"] = timeout
    record["tracker_errors"] = count_tracker_errors(stderr)
    if args.trace:
        for metrics in (record["metrics"], result["metrics"]):
            metrics["parallel.tracker_errors"]["value"] = record["tracker_errors"]
    with open(record_path(args), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for line in lines[:-2]:
        print(line)
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return child.returncode


def child(args: argparse.Namespace) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, src]
    import asyncio

    from perfbench import layers, workloads
    from perfbench.trace import Tracer, install

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = None
    if args.trace:
        trace_dir = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(trace_dir)
        tracer = Tracer(trace_dir)
        install(tracer)
    run = workloads.WORKLOADS[args.workload]
    outcome = run(args.seed, args.seconds, tracer)
    if asyncio.iscoroutine(outcome):
        outcome = asyncio.run(outcome)

    units = declared_metrics(bool(args.trace))
    if tracer is not None:
        values = dict.fromkeys(units, 0.0)  # a layer the workload never reaches reads 0
        values.update(layers.per_layer_metrics(tracer, outcome.layers))
        tracer.write(os.path.join(tracer.out_dir, "spans.jsonl"), tracer.phase_spans)
    else:
        values = outcome.metrics
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    record = workloads.run_metadata(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    record.update(outcome.record)
    record["failures"] = outcome.gate.failures
    record["metrics"] = metrics
    print(json.dumps(record, default=str))
    gate = outcome.gate
    print(
        json.dumps(
            {
                "correct": gate.correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if gate.correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
