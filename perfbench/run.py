"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload bulk-diff --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer ledger of a traced run.  Every metric is printed by
name with its unit, then the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
record (environment stamp, tail sample counts, error classes, ledger
check) is written to ``perfbench/out/``.  The exit code is 0 when every
sync returned exactly the true difference, 1 when any did not, and 2
when the run could not start (no ``src/repro`` next to the benchmark).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
from collections import Counter
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = "BENCHMARK.json"


def _fail_to_start(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program(root: Path) -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail_to_start(f"no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _fail_to_start(f"imported repro from {repro.__file__}, not {src}")


def _declared_metrics(root: Path, trace: bool) -> list:
    spec = json.loads((root / BENCHMARK_JSON).read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / BENCHMARK_JSON).is_file():
        _fail_to_start(f"run from the repository root ({BENCHMARK_JSON} not found)")
    _import_program(root)

    from bench import env, loop
    from bench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _fail_to_start(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    declared = _declared_metrics(root, bool(args.trace))
    out_dir = HERE / "out"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            record = asyncio.run(
                loop.run_traced(
                    workload, args.seed, args.seconds, workdir,
                    spans_path=out_dir / f"{tag}.spans.jsonl",
                )
            )
        else:
            record = asyncio.run(
                loop.run_plain(workload, args.seed, args.seconds, workdir)
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = record.pop("tally")
    untraced = record.pop("tally_untraced", None)
    attempted = tally.attempted + (untraced.attempted if untraced else 0)
    failed = tally.failed + (untraced.failed if untraced else 0)
    metrics = record["metrics"]
    correct = failed == 0
    if args.trace:
        check = record["ledger_check"]
        # No layer span may sit outside a root (a span closed out of order
        # already raised in SpanRecorder.close).  The residual is zero by
        # construction when every layer span is under a root and every
        # layer the tracer records is in loop.LAYERS, so it checks only
        # that the reported layer list is complete.
        scale = max(1.0, abs(check["wall_ms"]))
        correct = correct and abs(check["residual_ms"]) <= 1e-6 * scale
        correct = correct and check["stray_root_spans"] == 0
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        correct = False

    full = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env.stamp(),
        "attempted": attempted,
        "failed": failed,
        "errors": dict(Counter(tally.errors) + Counter(untraced.errors if untraced else {})),
        **record,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(full, indent=1, default=str))

    stamp = full["env"]
    host = record["host"]
    print(
        f"# {workload.name} seed={args.seed} lane={stamp['lane']} "
        f"hasher={stamp['service_hasher']} nproc={stamp['nproc']} "
        f"python={stamp['python']} numpy={stamp['numpy']}"
    )
    print(
        f"# timings host-normalised: median probe {host['probe_ms']:.3f} ms "
        f"(reference {host['ref_probe_ms']:g} ms)"
    )
    if not args.trace:
        tail = record["tail"]
        print(
            f"# sync_tail_ms is p{tail['percentile']:g} of {tail['samples']} "
            f"syncs ({tail['samples_beyond']} beyond it); "
            f"failed_frac={metrics['failed_frac']:.6g}"
        )
    printed = {}
    for spec in declared:
        name = spec["name"]
        if name in metrics:
            value = float(metrics[name])
            printed[name] = {"value": value, "unit": spec["unit"]}
            print(f"{name:32s} {value:14.6f} {spec['unit']}")
    if failed:
        print(f"# failures by class: {full['errors']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": printed,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
