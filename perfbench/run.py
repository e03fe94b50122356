#!/usr/bin/env python3
"""Benchmark of the hyperclust pipeline, run from the repository root.

    python3 perfbench/run.py --workload linkage --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One run sets the workload up several times in fresh processes (``setup_s``),
then repeats its timed unit for about ``--seconds`` seconds of busy time,
reads the process's peak RSS, and checks every unit's outputs against
independent oracles. Times are reported adjusted to a nominal machine speed
(see ``adjusted``). With ``--trace 1`` every other unit runs with spans
around hyperclust's public functions, and the run reports per-layer figures
instead of end-to-end ones. ``--workload all`` runs each workload in its own
process. The last line of standard output is the result as JSON; the exit
code is non-zero when any attempt failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("linkage", "spectral", "grid", "files")
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170

# The shared host runs this machine's cores at speeds that drift by a third
# over tens of seconds, for every kind of code alike. Each timing is therefore
# divided by the time of a fixed pure-Python reference (integer arithmetic,
# then formatting and splitting a string) run right before and after it, then
# scaled by the reference's time on an idle machine: the result reads in
# seconds at a steady speed. The reference calls no hyperclust code, so it
# never hides a change to the program.
REFERENCE_LOOP = 300_000
REFERENCE_STRINGS = 60_000
NOMINAL_REFERENCE_S = 0.035  # the reference on an idle 2-core Xeon (Sapphire Rapids, KVM)

END_TO_END_UNITS = {
    "setup_s": "s",
    "instance_s_p50": "s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up in a fresh process, timed by the parent
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def require_sources() -> None:
    if not (SRC / "hyperclust" / "__init__.py").is_file():
        sys.exit(f"error: no hyperclust sources under {SRC}; run from a full checkout")


def import_program():
    """Import hyperclust from this checkout's sources, never an installed copy."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import hyperclust

    if SRC not in Path(hyperclust.__file__).resolve().parents:
        sys.exit(f"error: imported hyperclust from {hyperclust.__file__}, not from {SRC}")
    return hyperclust


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def reference_seconds() -> float:
    """Wall time of the fixed reference: the machine's current speed."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    ",".join(map(str, range(REFERENCE_STRINGS))).split(",")
    return time.perf_counter() - started


def adjusted(elapsed: float, reference_before: float, reference_after: float) -> float:
    """``elapsed`` wall seconds rescaled to the nominal machine speed."""
    return elapsed * NOMINAL_REFERENCE_S / (0.5 * (reference_before + reference_after))


def run_child(argv: list[str], capture: bool) -> subprocess.CompletedProcess:
    """Run this script in a fresh interpreter and wait for it to end."""
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Wall and speed-adjusted times of fresh processes that import the
    program and warm the workload up: everything a run does before its first
    timed unit."""
    wall, adj = [], []
    reference = reference_seconds()
    for _ in range(SETUP_RUNS):
        started = time.perf_counter()
        done = run_child(["--workload", args.workload, "--seed", str(args.seed), "--setup-only"], False)
        wall.append(time.perf_counter() - started)
        if done.returncode != 0:
            sys.exit(f"error: set-up of {args.workload} exited with {done.returncode}")
        reference_after = reference_seconds()
        adj.append(adjusted(wall[-1], reference, reference_after))
        reference = reference_after
    return wall, adj


def make_workload(args, workdir: Path):
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.warm_up()
    return workload


def measure(workload, seconds: int, tracer):
    """Run units until the next one would pass ``seconds`` of busy time.

    Returns the wall and speed-adjusted times of the plain units, the wall
    times of the traced units, what each unit kept, and the wall and adjusted
    busy time. With a tracer, units cycle through plain, traced, and
    (single-threaded workloads only) traced with tracemalloc peaks, so the
    overhead ratio compares neighbours and allocation tracing slows no timed
    span.
    """
    kinds = ["plain"]
    if tracer is not None:
        kinds += ["spans", "memory"] if workload.threads == 1 else ["spans"]
    times = {kind: [] for kind in kinds}
    plain_adj = []
    kept = []
    busy = busy_adj = 0.0
    reference = reference_seconds()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        if kind != "plain":
            tracer.install(i, memory=kind == "memory")
        started = time.perf_counter()
        try:
            out = workload.unit(i)
        except Exception:
            out = None
            failure = traceback.format_exc()
        elapsed = time.perf_counter() - started
        if kind != "plain":
            tracer.uninstall()
        reference_after = reference_seconds()
        elapsed_adj = adjusted(elapsed, reference, reference_after)
        reference = reference_after
        busy += elapsed
        busy_adj += elapsed_adj
        if out is None:
            print(f"unit {i} raised:\n{failure}", file=sys.stderr)
            kept.append((i, None))
        else:
            times[kind].append(elapsed)
            if kind == "plain":
                plain_adj.append(elapsed_adj)
            kept.append((i, workload.keep(i, out)))
            del out
        i += 1
        done = [t for kind_times in times.values() for t in kind_times]
        if not done and i >= 3:
            break  # every unit raises; stop early and report the failures
        every_kind = all(times.values()) or i >= 3 * len(kinds)  # a kind may keep raising
        if every_kind and busy + statistics.median(done) > seconds:
            break
    return times["plain"], plain_adj, times.get("spans", []), kept, (busy, busy_adj)


def run_workload(args) -> int:
    WORK.mkdir(exist_ok=True)
    setups, setups_adj = setup_seconds(args)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload = make_workload(args, workdir)
        tracer = spans.Tracer() if args.trace else None
        plain, plain_adj, traced, kept, (busy, busy_adj) = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted = failed = completed = 0
        messages = []
        for i, k in kept:
            if k is None:
                attempted += workload.replicates
                failed += workload.replicates
                messages.append(f"unit {i} raised")
                continue
            failures = k.failures + workload.check(k.record)
            attempted += k.attempts
            failed += min(k.attempts, len(failures))
            completed += k.attempts - min(k.attempts, len(failures))
            messages += failures
        info = workload.info([k for _, k in kept if k is not None])
        ari = [a for _, k in kept if k is not None for a in k.ari]
        if ari:
            info["ari_true_k_mean"] = statistics.fmean(a[0] for a in ari)
            info["ari_gap_k_mean"] = statistics.fmean(a[1] for a in ari)
        env = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [
        f"workload {workload.name}: seed {args.seed}, {args.seconds} s, trace {args.trace}; unit = {workload.unit_label}",
        "environment: " + ", ".join(f"{k}={v}" for k, v in env.items()),
    ]
    metrics = {}
    if plain and not args.trace:
        metrics = {
            "setup_s": statistics.median(setups_adj),
            "instance_s_p50": statistics.median(plain_adj),
            "replicates_per_s": completed / busy_adj,
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups in fresh processes, speed-adjusted; wall {statistics.median(setups):.6g} s",
            "instance_s_p50": f"median of {len(plain)} units, speed-adjusted; wall {statistics.median(plain):.6g} s",
            "replicates_per_s": f"{completed} replicates in {busy_adj:.2f} adjusted s busy; wall {completed / busy:.6g} 1/s",
            "peak_rss_mb": "ru_maxrss of this process, read before the checks",
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        lines += [f"{k} = {v['value']:.6g} {v['unit']} ({notes[k]})" for k, v in metrics.items()]
        lines.append("unit wall times (s): " + " ".join(f"{t:.3f}" for t in plain))
        lines.append("unit adjusted times (s): " + " ".join(f"{t:.3f}" for t in plain_adj))
    elif traced and plain:
        values = spans.layer_metrics(tracer, workload.threads)
        values["harness.run_grid.replicates_dropped"] = info.get("replicates_dropped", 0)
        values["cluster.ari_true_k_mean"] = info.get("ari_true_k_mean", 0.0)
        values["cluster.ari_gap_k_mean"] = info.get("ari_gap_k_mean", 0.0)
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        values["trace.unit_ms"] = 1000.0 * statistics.median(traced)
        units = {k: v[2] for k, v in spans.LAYER_METRICS.items()}
        units.update({k: v[0] for k, v in spans.DERIVED_METRICS.items()})
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        lines += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        trace_path = WORK / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.dump(trace_path)
        lines.append(f"spans of {len(traced)} traced units written to {trace_path.relative_to(ROOT)}")
    lines.append(f"failed_ratio = {failed}/{attempted} = {failed / max(attempted, 1):.6g} (attempts that raised, exited non-zero, were dropped or failed a check)")
    lines += [f"info: {k} = {v}" for k, v in info.items() if k != "replicates_dropped"]
    lines += [f"FAILED: {m}" for m in messages]

    correct = failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with (WORK / "results.jsonl").open("a", encoding="utf-8") as fh:
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        fh.write(json.dumps({**record, "environment": env, "info": info, "result": result}) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; prints every workload's report."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = run_child(argv, True)
        print(done.stdout, end="", flush=True)
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = status or done.returncode or (0 if result["correct"] else 1)
        combined["correct"] = combined["correct"] and result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        workdir = WORK / f"setup-{os.getpid()}"
        try:
            make_workload(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    require_sources()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
