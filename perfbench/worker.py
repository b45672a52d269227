"""One benchmark process: set up a workload, run one sweep, gate the output.

Started by ``run.py``; not meant to be run by hand.  It prints a ``ready``
line on standard output as soon as the workload is set up (imports done,
command lines built, reference tables read), so the parent can time set-up
from process start.  With ``--setup-only`` it exits there.  Otherwise it
runs one sweep, traced with ``--trace 1``, and writes a JSON file to
``--output``: the sweep's time, scaled and as measured, its CPU time, the
peak RSS, the gate's findings and, when traced, the per-group span sums.
Untraced, the worker samples the machine's speed throughout (``speed.py``).

One sweep per process is what a user gets from one command: every sweep
starts with empty caches, and nothing one sweep computes carries over to
the next.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

# Sampled from here on, so that set-up (the imports below) is scaled too.
SAMPLER = speed.Sampler()
if __name__ == "__main__":
    SAMPLER.start()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import zernkit  # noqa: E402
import zernkit.cli  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def blas_record():
    """Name, build configuration and thread count of each OpenBLAS that
    numpy and scipy ship, read from the libraries themselves."""
    import ctypes
    import glob

    found = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            entry = {"user": package.__name__, "library": Path(path).name}
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                found.append(entry)
                continue
            for suffix in ("64_", ""):
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    entry["config"] = config().decode()
                    entry["threads"] = threads()
                    break
            found.append(entry)
    return found


def environment():
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "zernkit": zernkit.__version__,
        "blas": blas_record(),
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class Sweeper:
    """Runs the jobs of one workload and gates what they write."""

    def __init__(self, workload, seed, work_dir):
        self.jobs = workloads.jobs(workload, seed)
        self.expected = [workloads.reference_rows(workload, job) for job in self.jobs]
        self.exact = [not job.seeded or seed == workloads.REFERENCE_SEED
                      for job in self.jobs]
        self.work_dir = work_dir
        self.hashes = {}

    def sweep(self, clock=time.perf_counter):
        """One full sweep; returns (seconds by ``clock``, CPU seconds, cells,
        failed, messages).

        Only the CLI calls are timed.  A call that raises or returns nonzero
        fails all of its cells.
        """
        elapsed = cpu = 0.0
        cells = failed = 0
        messages = []
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            for job, expected, exact in zip(self.jobs, self.expected, self.exact):
                output = self.work_dir / job.name
                output.unlink(missing_ok=True)
                argv = job.command(output)
                start, start_cpu = clock(), time.process_time()
                try:
                    code = zernkit.cli.main(argv)
                except Exception as exc:  # a crash is a failed sweep, not a hang
                    code = f"{type(exc).__name__}: {exc}"
                elapsed += clock() - start
                cpu += time.process_time() - start_cpu
                text = output.read_text(encoding="ascii") if output.exists() else None
                if text is not None:
                    self.hashes[job.name] = hashlib.sha256(text.encode("ascii")).hexdigest()
                if code != 0:
                    messages.append(f"{job.name}: zernkit exited with {code}")
                    text = None
                job_cells, job_failed, found = workloads.check_output(
                    job, text, expected, exact)
                cells += job_cells
                failed += job_failed
                messages += found
        return elapsed, cpu, cells, failed, messages


def run(args):
    """Set up, print the ready line, and with ``--output`` run one sweep.

    The ready line carries what the parent needs to scale set-up: the
    seconds spent in probes so far and the probe times.  A traced sweep is
    not sampled, so that no probe lands inside a span.
    """
    sweeper = Sweeper(args.workload, args.seed, Path(args.work_dir))
    ready = {"spent_s": SAMPLER.spent, "probes": SAMPLER.take()}
    print("ready " + json.dumps(ready), flush=True)
    if args.setup_only:
        SAMPLER.stop()
        return None

    result = {"traced": bool(args.trace)}
    if args.trace:
        SAMPLER.stop()
        tracer = spans.Tracer()
        hooks = spans.Hooks(tracer, "zernkit").install(layers.HOOKS)
        try:
            elapsed, cpu, cells, failed, messages = sweeper.sweep()
        finally:
            hooks.remove()
        totals, root_s = spans.aggregate(tracer.spans)
        result["totals"] = {group: dataclasses.asdict(entry)
                            for group, entry in totals.items()}
        result["root_s"] = root_s
        result["absent_hooks"] = hooks.absent
        probes = []
    else:
        try:
            elapsed, cpu, cells, failed, messages = sweeper.sweep(SAMPLER.clock)
        finally:
            SAMPLER.stop()
        probes = SAMPLER.take()
    result.update({
        "sweep_s": speed.scaled(elapsed, probes),
        "wall_s": elapsed,  # as measured, less the probes' own time
        "probe_s": statistics.harmonic_mean(probes) if probes else None,
        "probes": len(probes),
        "cpu_s": cpu,
        "attempted": cells,
        "failed": failed,
        "failures": messages[:20],
        "csv_sha256": sweeper.hashes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    })
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--output")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    if result is not None:
        Path(args.output).write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
