#!/usr/bin/env python3
"""zernkit benchmark: three paper sweeps, timed end to end, traced per module.

One workload:

    python3 perfbench/run.py --workload condition-tables --seed 7 --seconds 40 --trace 0

prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` (cells of the sweeps) and ``metrics``: the end-to-end metrics for
``--trace 0``, the per-layer metrics for ``--trace 1``.  Every workload:

    python3 perfbench/run.py --all

runs each workload untraced and traced, prints every metric by name with its
unit, and exits nonzero if any cell fails its correctness check.

Each sweep runs in a fresh worker process, as a user's command would.  A
run makes at least ``MIN_SWEEPS`` sweeps, and no more once the next one
would likely end after ``--seconds``.  Set-up is the time from spawning a
worker to its ``ready`` line, over every worker of the run; workers that
stop once ready bring the count up to ``SETUP_SAMPLES``.  Set-up and sweep
times are scaled to a fixed machine speed sampled while they run
(``speed.py``); the record keeps them as measured too.  A JSON record of
each run (environment, sweep and CPU times, CSV hashes, gate messages) is
written to ``perfbench/results/records/``.  Run from the repository root or
anywhere else; the program is imported from ``src/`` next to this
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

DEFAULT_SECONDS = 40
MIN_SWEEPS = 3
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170  # a run must end within 180 s
MAX_SWEEPS_S = 140  # no sweep starts past this, whatever --seconds says


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def source_digest():
    """SHA-256 over the program's sources, a stand-in for the git SHA in a
    checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def start_worker(args, work_dir, output=None, traced=False):
    """Spawn a worker; return (process, set-up seconds scaled, as measured).
    Without ``output`` the worker stops once it is ready.

    Workers get one BLAS thread, so that the thread the speed probe
    samples is the only one that computes.
    """
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(int(traced)), "--work-dir", str(work_dir)]
    command += ["--output", str(output)] if output else ["--setup-only"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    wall_s = time.perf_counter() - start
    word, _, data = line.partition(" ")
    if word != "ready":
        stop(proc)
        raise BenchError(f"worker did not get ready (read {line!r})")
    data = json.loads(data)
    setup_s = speed.scaled(wall_s - data["spent_s"], data["probes"])
    return proc, setup_s, wall_s


def finish(proc, deadline):
    """Wait for a worker until ``deadline``; kill it if it runs past."""
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the time limit") from None
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def run_sweeps(args, work_dir):
    """Run one sweep per worker until the run has enough; return the
    workers' results in order and every set-up time, scaled and as
    measured.

    A traced run alternates untraced and traced sweeps, untraced first, and
    makes at least two untraced sweeps, so the tracing overhead compares
    sweeps of the same run.
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    start = time.monotonic()
    sweeps, setups, setup_walls = [], [], []
    while True:
        untraced = sum(not sweep["traced"] for sweep in sweeps)
        traced = len(sweeps) - untraced
        output = work_dir / f"sweep-{len(sweeps)}.json"
        proc, setup_s, wall_s = start_worker(args, work_dir, output,
                                             traced=args.trace and untraced > traced)
        setups.append(setup_s)
        setup_walls.append(wall_s)
        finish(proc, deadline)
        sweeps.append(json.loads(output.read_text(encoding="ascii")))
        untraced = sum(not sweep["traced"] for sweep in sweeps)
        if args.trace:
            enough = untraced >= 2 and len(sweeps) > untraced
        else:
            enough = len(sweeps) >= MIN_SWEEPS
        spent = time.monotonic() - start
        # stop before a sweep that would likely end after --seconds
        if enough and spent + spent / len(sweeps) > min(args.seconds, MAX_SWEEPS_S):
            break
    while len(setups) < SETUP_SAMPLES:
        proc, setup_s, wall_s = start_worker(args, work_dir)
        setups.append(setup_s)
        setup_walls.append(wall_s)
        finish(proc, deadline)
    return sweeps, setups, setup_walls


def trace_metrics(sweeps):
    """Per-layer metrics of a traced run's sweeps, and its absent hooks."""
    # as measured: traced sweeps are not sampled, so not scaled
    untraced = [sweep["wall_s"] for sweep in sweeps if not sweep["traced"]]
    traced = [sweep for sweep in sweeps if sweep["traced"]]
    totals = {}
    for sweep in traced:
        for group, entry in sweep["totals"].items():
            totals.setdefault(group, spans.GroupTotals()).add(spans.GroupTotals(**entry))
    traced_s = [sweep["sweep_s"] for sweep in traced]
    overhead = statistics.median(traced_s) / statistics.median(untraced) - 1.0
    absent = traced[0]["absent_hooks"]
    metrics = layers.layer_metrics(totals, len(traced), sum(traced_s),
                                   sum(sweep["root_s"] for sweep in traced),
                                   overhead, absent)
    return metrics, absent


def measure(args):
    """Run one workload; return (result line, run record)."""
    if not (ROOT / "src" / "zernkit" / "__init__.py").is_file():
        raise BenchError(f"no zernkit sources under {ROOT / 'src'}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "loadavg_1min": os.getloadavg()[0],
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }
    work_dir = RESULTS / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        sweeps, setups, setup_walls = run_sweeps(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = [sweep for sweep in sweeps if not sweep["traced"]]
    attempted = sum(sweep["attempted"] for sweep in sweeps)
    failed = sum(sweep["failed"] for sweep in sweeps)
    hashes = {}
    for sweep in sweeps:
        for name, digest in sweep["csv_sha256"].items():
            hashes.setdefault(name, [])
            if digest not in hashes[name]:
                hashes[name].append(digest)
    record.update({
        "environment": sweeps[0]["environment"],
        "setup_samples": setups,
        "setup_wall_samples": setup_walls,
        "sweeps": [sweep["sweep_s"] for sweep in untraced],
        "sweeps_wall": [sweep["wall_s"] for sweep in untraced],
        "probe_s": [sweep["probe_s"] for sweep in untraced],
        "sweeps_cpu": [sweep["cpu_s"] for sweep in untraced],
        "traced_sweeps": [sweep["sweep_s"] for sweep in sweeps if sweep["traced"]],
        "peak_rss_mb": [sweep["peak_rss_mb"] for sweep in untraced],
        "attempted": attempted,
        "failed": failed,
        "failures": [message for sweep in sweeps for message in sweep["failures"]][:20],
        "csv_sha256": hashes,
    })
    if args.trace:
        metrics, record["absent_hooks"] = trace_metrics(sweeps)
    else:
        metrics = {
            "sweep_s": {"value": statistics.median(record["sweeps"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(record["peak_rss_mb"]), "unit": "MB"},
        }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record["result"] = result
    return result, record


def save_record(record):
    directory = RESULTS / "records"
    directory.mkdir(parents=True, exist_ok=True)
    name = (f"{record['workload']}_seed{record['seed']}_trace{record['trace']}_"
            f"{time.time_ns()}.json")
    path = directory / name
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return path


def describe(record):
    """Human summary of one run, for standard error."""
    lines = [f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
             f"{record['failed']}/{record['attempted']} cells failed, "
             f"{len(record['sweeps'])} untraced and "
             f"{len(record['traced_sweeps'])} traced sweeps, "
             f"load {record['loadavg_1min']:.2f} on {record['cpu_count']} CPUs"]
    lines += [f"  gate: {message}" for message in record["failures"]]
    lines += [f"  absent hook: {name}" for name in record.get("absent_hooks", [])]
    return "\n".join(lines)


def run_all(args):
    failed = False
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            one = argparse.Namespace(workload=workload, seed=args.seed,
                                     seconds=args.seconds, trace=trace)
            result, record = measure(one)
            path = save_record(record)
            failed |= not result["correct"]
            print(f"== {workload} (seed {args.seed}, trace {trace}; record {path.name})")
            print(f"   correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"failed_frac={result['failed'] / result['attempted']:.4g}")
            if not trace:
                print(f"   sweeps: {len(record['sweeps'])}")
            for name, metric in result["metrics"].items():
                print(f"   {name:44s} {metric['value']:>14.6g} {metric['unit']}")
            for message in record["failures"]:
                print(f"   gate: {message}")
            if trace:
                print(f"   absent hooks: {record['absent_hooks'] or 'none'}")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return run_all(args)
        result, record = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    save_record(record)
    print(describe(record), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
