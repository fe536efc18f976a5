"""Benchmark of sumprodlab: one workload, one seed, timed rounds, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report-q --seed 1 --seconds 25 --trace 0

Workloads: report-q, verify-fp, search (see README.md).  The inputs are a
pure function of --seed.  A round is the workload's fixed batch of
operations; rounds repeat until --seconds have passed, and every output of
every round is checked against the benchmark's own computations, outside
the timed region.

--trace 0 prints the end-to-end metrics: wall_s (median round time),
setup_s (median of several fresh set-ups) and peak_rss_mb.  --trace 1
alternates plain and traced rounds and prints the per-layer metrics,
which come from spans around sumprodlab's public functions, plus the
tracing overhead; the spans are written to perfbench/out/ as JSON lines.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every output that
did not fail by a counted fault was correct, 1 when one was wrong, and 2
when the benchmark could not run (for instance without src/sumprodlab).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("report-q", "verify-fp", "search")
#: Fresh interpreters timed per run for setup_s.
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60
#: Wrong verdicts echoed to stderr.
SHOWN_PROBLEMS = 10


def probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def unit_of(name: str) -> str:
    if name.endswith("ns_per_pair"):
        return "ns"
    if name.endswith("us_per_node"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("share", "overhead")):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sumprodlab" / "__init__.py").is_file():
        print(f"error: no sumprodlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sumprodlab

    if not Path(sumprodlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: sumprodlab was imported from {sumprodlab.__file__}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    bench = workloads.make(args.workload, ROOT)
    spans = tracer.Tracer() if args.trace else None
    span_rounds = []
    if spans is not None:
        spans.install()
        try:
            bench.build(args.seed)
        finally:
            spans.uninstall()
        span_rounds.append(("setup", spans.take()))
    inputs = bench.build(args.seed)
    expected = bench.expect(inputs)

    plain_walls, traced_walls, layer_rounds = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + args.seconds
    round_no = 0
    while True:
        traced = spans is not None and round_no % 2 == 1
        if not traced and tracer.installed_wrappers():
            raise RuntimeError("span wrappers are installed in a plain round")
        gc.collect()
        if traced:
            spans.install()
        start = time.perf_counter()
        try:
            outputs = bench.run(inputs)
            wall = time.perf_counter() - start
        finally:
            if traced:
                spans.uninstall()
        if traced:
            traced_walls.append(wall)
            recorded = spans.take()
            layer_rounds.append(tracer.layer_metrics(recorded, wall, workloads.Q_CLAIMS))
            span_rounds.append((f"round{round_no}", recorded))
        else:
            plain_walls.append(wall)
        verdicts, round_problems = bench.judge(inputs, expected, outputs)
        outputs = None
        attempted += len(verdicts)
        failed += verdicts.count(workloads.FAILED)
        problems.extend(round_problems)
        problems.extend(v for v in verdicts if v not in (workloads.OK, workloads.FAILED))
        round_no += 1
        if time.perf_counter() >= deadline and (spans is None or traced_walls):
            break

    if spans is None:
        metrics = {
            "wall_s": statistics.median(plain_walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        metrics = {
            name: statistics.median(row[name] for row in layer_rounds)
            for name in layer_rounds[0]
        }
        metrics["families.generate_s"] = tracer.generate_seconds(span_rounds[0][1])
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead"] = metrics["trace.wall_s"] / statistics.median(plain_walls)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", span_rounds)

    print(
        f"{args.workload} seed={args.seed}: {round_no} rounds, plain walls "
        + " ".join(f"{w:.3f}" for w in plain_walls)
        + (" traced " + " ".join(f"{w:.3f}" for w in traced_walls) if traced_walls else ""),
        file=sys.stderr,
    )
    for problem in problems[:SHOWN_PROBLEMS]:
        print(f"wrong: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
