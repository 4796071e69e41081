"""Run a workload under several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload bulk-diff --seeds 1 2 3 4 5

Each seed runs ``perfbench/run.py`` once, one after another, for the
``run_seconds`` in ``BENCHMARK.json``.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (quartile distance over the median) and the metric's bound; a
spread above a third of the bound is flagged.  The values land in
``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench.env import comparable  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    values: dict = {m["name"]: [] for m in declared}
    failures = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode or not result.get("correct"):
            failures += 1
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        for name, metric in result.get("metrics", {}).items():
            values[name].append(metric["value"])
        print(f"seed {seed}: done", file=sys.stderr)

    stamps = []
    for seed in args.seeds:
        record = HERE / "out" / f"{args.workload}-seed{seed}-trace{args.trace}.json"
        if record.is_file():
            stamps.append(json.loads(record.read_text())["env"])
    if any(not comparable(stamps[0], stamp) for stamp in stamps[1:]):
        failures += 1
        print("runs used different engine lanes or hosts: not comparable",
              file=sys.stderr)

    report = {}
    for metric in declared:
        name = metric["name"]
        series = values[name]
        if len(series) < 2:
            continue
        q1, mid, q3 = statistics.quantiles(series, n=4)
        med = statistics.median(series)
        spread = (q3 - q1) / med if med else 0.0
        bound = metric.get("bound")
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        report[name] = {"values": series, "median": med, "q1": q1, "q3": q3,
                        "spread": spread, "bound": bound}
        bound_text = "-" if bound is None else f"{bound:g}"
        print(f"{name:28s} median {med:14.4f}  spread {spread:7.2%}  "
              f"bound {bound_text}{flag}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"seeds": args.seeds, "metrics": report}, indent=1)
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
