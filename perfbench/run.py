"""corridor-kit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload solve16 --seed 1 --seconds 40 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of standard
output carries the end-to-end metrics of untraced passes; with ``--trace 1``
the per-layer metrics of one traced pass (see README.md).  The correctness
gate runs in both modes, outside every timed region.
"""

from __future__ import annotations

import env

env.pin_blas()  # before anything imports numpy

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import inputs
import spans
import workloads

SETUP_PER_PASS = 2
MIN_PASSES = 3
MAX_PASSES = 40
WORK_DIR = env.ROOT / ".perfbench_work"


def probe_setup(workload: str, seed: int) -> float:
    """Seconds to import corridor-kit and build the workload's inputs, in this fresh process."""
    t0 = time.perf_counter()
    ck = env.import_program()
    inputs.setup(ck, workload, seed)
    return time.perf_counter() - t0


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup"]
    cmd += ["--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (pool workers)."""
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def untraced(ck, args, work: Path, info: dict) -> tuple[dict, gate.Verdict]:
    # Set-up is sampled before the first pass and after each one: the host's
    # speed drifts over a run, and set-up is short enough to catch only one
    # moment of it, so the samples are spread over the whole run like the passes.
    start = time.perf_counter()
    setup = setup_samples(args.workload, args.seed, SETUP_PER_PASS)
    inp = inputs.setup(ck, args.workload, args.seed)
    walls, peak, verdict = [], None, gate.Verdict()
    while len(walls) < MAX_PASSES:
        store_dir = work / f"pass{len(walls)}"
        result = workloads.run_pass(ck, inp, store_dir)
        walls.append(result.wall_s)
        # Read after one pass, before the gate loads scipy: each pass is
        # checked and dropped, so the figure does not grow with the pass count.
        peak = peak or peak_rss_mb()
        verdict.merge(gate.check_pass(ck, inp, result))
        shutil.rmtree(store_dir, ignore_errors=True)
        setup += setup_samples(args.workload, args.seed, SETUP_PER_PASS)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break
    info.update(wall_s_samples=walls, setup_s_samples=setup)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MB"),
        "ok_share": ((verdict.attempted - verdict.failed) / verdict.attempted, "share"),
    }
    return metrics, verdict


def traced(ck, args, work: Path, info: dict) -> tuple[dict, gate.Verdict]:
    """One untraced pass, then the same pass traced (matrix2-jobs2 at jobs=1)."""
    inp = inputs.setup(ck, args.workload, args.seed)
    plain = workloads.run_pass(ck, inp, work / "untraced")
    tracer = spans.Tracer()
    with spans.patch_program(ck, tracer):
        with tracer.span("bench.setup"):
            inputs.setup(ck, args.workload, args.seed)
        with tracer.span("bench.pass"):
            result = workloads.run_pass(ck, inp, work / "traced", jobs=1)
    spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    verdict = gate.check_pass(ck, inp, plain)
    verdict.merge(gate.check_pass(ck, inp, result))
    info.update(
        untraced_wall_s=plain.wall_s,
        traced_wall_s=result.wall_s,
        spans=str(spans_path),
        span_count=len(tracer.spans),
    )
    return traced_metrics(tracer, plain, result, verdict), verdict


def traced_metrics(tracer: spans.Tracer, plain, result, verdict: gate.Verdict) -> dict:
    """Per-layer metrics: the spans of the traced pass, plus what compares it with the untraced one."""
    metrics = spans.layer_metrics(tracer.spans)
    metrics["runner.store_mb"] = (dir_mb(result.store_dir) if result.store_dir else 0.0, "MB")
    metrics["runner.cpu_per_wall"] = (plain.cpu_s / plain.wall_s, "ratio")
    metrics["runner.pool_speedup"] = (result.wall_s / plain.wall_s, "ratio")
    metrics["trace.overhead_s"] = (result.wall_s - plain.wall_s, "s")
    metrics["fail_share"] = (verdict.failed / verdict.attempted, "share")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="corridor-kit benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=inputs.DEFAULT_SEED,
        help=f"input seed (default {inputs.DEFAULT_SEED}; {inputs.HELD_OUT_SEED} is held out to recheck claims)",
    )
    parser.add_argument("--seconds", type=float, default=40.0, help="measure passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe_setup:
            print(probe_setup(args.workload, args.seed))
            return 0
        ck = env.import_program()
    except env.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    info = {"workload": args.workload, "seed": args.seed, "env": env.describe()}
    try:
        metrics, verdict = (traced if args.trace else untraced)(ck, args, work, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info.update(
        attempted=verdict.attempted,
        failed=verdict.failed,
        wrong=verdict.wrong,
        unverified=verdict.unverified,
        kkt_worst=verdict.kkt_worst,
        notes=verdict.notes,
    )
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": verdict.wrong == 0,
                "attempted": verdict.attempted,
                "failed": verdict.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
