#!/usr/bin/env python3
"""Condense benchmark run records into one committed BENCH_<label>.json.

Each ``perfbench/run.py`` run leaves a JSON record in
``perfbench/results/records/``.  This script reads such records and writes,
at the repository root, per program version and workload:

* the median and [min, max] over runs of ``sweep_s``, ``setup_s`` and
  ``peak_rss_mb`` (each run's own end-to-end value);
* the git SHA, the source digest, ``cpu_count`` and the Python, numpy and
  scipy versions the runs saw;
* the SHA-256 of every CSV the sweeps wrote;
* the run count, seeds and failed cells.

With ``--junitxml FILE``, a pytest ``--junitxml`` report of the Tier-1
suite, the file also records that run's wall time and its counts of
tests, failures, errors and skipped tests under ``tier1``.  It always
records, under ``source_lines``, the line count of every
``src/zernkit/*.py`` of the checkout the script runs in, as ``wc -l``
counts them, and their total; and under ``cli_options``, the number of
option strings each subcommand of that checkout's ``zernkit`` CLI accepts,
help excluded, and their total.

Give record directories or files as ``[NAME=]PATH``.  The records under a
NAME form one group; the others are grouped by program version, the git
SHA and source digest they carry (``git_sha`` is null for a checkout that
is not a git repository).  Only untraced runs (``--trace 0``) are read.
With two or more groups, the file also compares each group's medians with
the first's:

    python3 scripts/bench_summary.py separable \\
        parent=../base/perfbench/results/records change=perfbench/results/records

The records are only read.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import xml.etree.ElementTree as ET

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_RECORDS = ROOT / "perfbench" / "results" / "records"
METRICS = ("sweep_s", "setup_s", "peak_rss_mb")


def _one_or_all(values):
    """The common value, or the sorted distinct values when they differ."""
    distinct = sorted({json.dumps(v) for v in values})
    if len(distinct) == 1:
        return json.loads(distinct[0])
    return [json.loads(v) for v in distinct]


def load_records(spec):
    """(name, record) pairs of one ``[NAME=]PATH`` argument."""
    name, sep, path = spec.partition("=")
    if not sep:
        name, path = "", spec
    path = pathlib.Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"bench_summary: no records in {path}")
    for file in files:
        record = json.loads(file.read_text())
        if record.get("trace") == 0 and "metrics" in record.get("result", {}):
            yield name or None, record


def summarize_workload(records):
    records = sorted(records, key=lambda r: r["started_utc"])
    env = [r["environment"] for r in records]
    out = {"runs": len(records), "seeds": [r["seed"] for r in records]}
    for metric in METRICS:
        values = [r["result"]["metrics"][metric]["value"] for r in records]
        out[metric] = {
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "unit": records[0]["result"]["metrics"][metric]["unit"],
        }
    out["failed_cells"] = sum(r["result"]["failed"] for r in records)
    out["attempted_cells"] = sum(r["result"]["attempted"] for r in records)
    out["cpu_count"] = _one_or_all(r["cpu_count"] for r in records)
    for key in ("python", "numpy", "scipy"):
        out[key] = _one_or_all(e[key] for e in env)
    names = sorted({name for r in records for name in r["csv_sha256"]})
    out["csv_sha256"] = {
        name: _one_or_all(d for r in records for d in r["csv_sha256"].get(name, ()))
        for name in names
    }
    return out


def summarize(named_records):
    """{group: {"git_sha", "source_sha256", "workloads": {...}}}."""
    groups = {}
    for name, record in named_records:
        key = name or "{}-{}".format(
            (record.get("git_sha") or "no-git")[:12], record["source_sha256"][:12]
        )
        groups.setdefault(key, []).append(record)
    summary = {}
    for key, records in groups.items():
        workloads = {}
        for record in records:
            workloads.setdefault(record["workload"], []).append(record)
        summary[key] = {
            "git_sha": _one_or_all(r.get("git_sha") for r in records),
            "source_sha256": _one_or_all(r["source_sha256"] for r in records),
            "workloads": {
                w: summarize_workload(rs) for w, rs in sorted(workloads.items())
            },
        }
    return summary


def compare(summary):
    """Median of every later group against the first, per workload."""
    (base_name, base), *others = summary.items()
    out = {}
    for name, group in others:
        rows = {}
        for workload, stats in group["workloads"].items():
            before = base["workloads"].get(workload)
            if before is None:
                continue
            rows[workload] = {
                metric: {
                    base_name: before[metric]["median"],
                    name: stats[metric]["median"],
                    "relative_change": (
                        stats[metric]["median"] / before[metric]["median"] - 1.0
                    ),
                }
                for metric in METRICS
            }
        out[f"{base_name} -> {name}"] = rows
    return out


def tier1_record(path):
    """{"time", "tests", "failures", "errors", "skipped"} of a pytest
    ``--junitxml`` file, summed over its test suites (pytest writes one)."""
    out = {"time": 0.0, "tests": 0, "failures": 0, "errors": 0, "skipped": 0}
    for suite in ET.parse(path).getroot().iter("testsuite"):
        out["time"] += float(suite.get("time", 0.0))
        for key in ("tests", "failures", "errors", "skipped"):
            out[key] += int(suite.get(key, 0))
    return out


def source_lines(package):
    """{"modules": {file name: lines}, "total": lines} of the ``*.py`` files
    of the directory ``package``, counting newlines as ``wc -l`` does."""
    modules = {
        path.name: path.read_bytes().count(b"\n")
        for path in sorted(pathlib.Path(package).glob("*.py"))
    }
    return {"modules": modules, "total": sum(modules.values())}


def cli_options(commands=None):
    """{"commands": {name: option strings}, "total": option strings} of
    the subcommand parsers ``commands`` (by default those of this
    checkout's ``zernkit.cli.build_parser``), help excluded."""
    if commands is None:
        sys.path.insert(0, str(ROOT / "src"))
        from zernkit.cli import build_parser

        commands = build_parser()[1]
    counts = {
        name: sum(
            len(action.option_strings) for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        )
        for name, parser in sorted(commands.items())
    }
    return {"commands": counts, "total": sum(counts.values())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="writes BENCH_<label>.json")
    parser.add_argument("records", nargs="*", default=[str(DEFAULT_RECORDS)],
                        help="[NAME=]PATH of a record directory or file")
    parser.add_argument("--out-dir", default=str(ROOT))
    parser.add_argument("--junitxml", help="pytest --junitxml file of the Tier-1 run")
    ns = parser.parse_args(argv)
    named = [pair for spec in ns.records for pair in load_records(spec)]
    if not named:
        raise SystemExit("bench_summary: no untraced run records found")
    summary = summarize(named)
    result = {"label": ns.label, "groups": summary}
    if len(summary) > 1:
        result["comparison"] = compare(summary)
    if ns.junitxml:
        result["tier1"] = tier1_record(ns.junitxml)
    result["source_lines"] = source_lines(ROOT / "src" / "zernkit")
    result["cli_options"] = cli_options()
    target = pathlib.Path(ns.out_dir) / f"BENCH_{ns.label}.json"
    target.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
