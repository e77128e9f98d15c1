"""Run one workload of the kgraphs benchmark and print its metrics.

    python3 perfbench/run.py --workload suite-fixtures --seed 1 --seconds 60 --trace 0

Run from the root of a checkout: the benchmark imports kgraphs from its
`src/` directory.  A run sets the workload up, then repeats whole rounds of
the same operations until the next round would end after `--seconds`
(always at least one round), checking every output against independent
oracles.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones:

* `wall_s`: the time spent in kgraphs calls per round, averaged over the
  run's rounds;
* `setup_s`: median of five set-ups, each in a fresh interpreter, of
  importing kgraphs, generating the inputs and building the skeletons;
* `peak_rss_mb`: peak resident memory of this process.

With `--trace 1` one untraced round runs first, then traced rounds; the
metrics are per layer (per round, averaged over the traced rounds), and a
line before the JSON gives the tracing overhead.  Results and traces are
also written under `perfbench/out/`.

The interpreter's hash seed is pinned to 0, so that every run does the same
work; the run re-executes itself when it is not.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
HASH_SEED = "0"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def import_program() -> None:
    """Import kgraphs from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import kgraphs
    except ImportError as exc:
        raise SystemExit(f"cannot import kgraphs from {SRC}: {exc}") from None
    if not Path(kgraphs.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"kgraphs was imported from {kgraphs.__file__}, not from {SRC}")


def measure_setup(workload: str, seed: int) -> float:
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
        "print(workloads.timed_setup(sys.argv[3], int(sys.argv[4])))"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code, str(BENCH), str(SRC), workload, str(seed)],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True


def run_round(operations: list[workloads.Operation], tally: Tally, tracer=None) -> float:
    """One pass over the operations; returns the seconds spent in kgraphs."""
    clock = time.perf_counter
    wall = 0.0
    for op in operations:
        tally.attempted += 1
        start = clock()
        try:
            check = op.call()
        except Exception as exc:  # counted, reported, and the round goes on
            wall += clock() - start
            tally.failed += 1
            if op.expected is None or not isinstance(exc, op.expected):
                print(f"{op.name}: unexpected {type(exc).__name__}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            continue
        wall += clock() - start
        problems = check()
        if problems:
            tally.failed += 1
            tally.correct = False
            print(f"{op.name}: " + "; ".join(problems[:5]), file=sys.stderr)
        elif op.expected is not None:
            print(f"{op.name}: no longer fails with {op.expected.__name__}", file=sys.stderr)
    if tracer is not None:
        tracer.end_round()
    return wall


def repeat_rounds(operations, tally, seconds: float, tracer=None) -> list[float]:
    """Whole rounds until the next one would end after `seconds`."""
    walls, spans = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        # the cyclic garbage of the previous round (memo tables hold
        # skeletons in cycles) goes now, untimed: every round starts from the
        # same heap, as one CLI call per process would
        gc.collect()
        walls.append(run_round(operations, tally, tracer))
        if tracer is not None:
            tracer.rounds.append(tracer.take())
        spans.append(time.perf_counter() - began)
        if time.perf_counter() - start + max(spans) > seconds:
            return walls


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the kgraphs benchmark.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    import_program()

    setup_s = measure_setup(args.workload, args.seed)
    operations = workloads.build(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        from tracing import Tracer, metric_names

        untraced = run_round(operations, tally)
        with Tracer() as tracer:
            walls = repeat_rounds(operations, tally, max(args.seconds - untraced, 0.0), tracer)
        traced = statistics.mean(walls)
        print(
            f"tracing overhead: {traced - untraced:.3f} s "
            f"(traced wall_s {traced:.3f} s, untraced {untraced:.3f} s)"
        )
        metrics = {
            name: {"value": statistics.mean(r[name] for r in tracer.rounds), "unit": unit}
            for name, unit in metric_names()
        }
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
        detail = {"rounds": tracer.rounds, "traced_wall_s": walls, "untraced_wall_s": untraced}
    else:
        walls = repeat_rounds(operations, tally, args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": statistics.mean(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
        detail = {"round_wall_s": walls}
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**result, **detail}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
