import argparse
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def _record(directory, seed, sweep_s, source="abc", trace=0, digest="d1"):
    metrics = {
        "sweep_s": {"value": sweep_s, "unit": "s"},
        "setup_s": {"value": 0.4, "unit": "s"},
        "peak_rss_mb": {"value": 70.0 + seed, "unit": "MB"},
    }
    record = {
        "workload": "lebesgue-grid",
        "seed": seed,
        "trace": trace,
        "started_utc": f"2026-01-01T00:00:{seed:02d}Z",
        "cpu_count": 2,
        "git_sha": None,
        "source_sha256": source,
        "environment": {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"},
        "csv_sha256": {"lebesgue_disk.csv": [digest]},
        "result": {"correct": True, "attempted": 40, "failed": 0, "metrics": metrics},
    }
    directory.mkdir(exist_ok=True)
    (directory / f"run_{seed}_{trace}.json").write_text(json.dumps(record))


def test_medians_ranges_and_comparison(tmp_path):
    for seed, value in ((1, 5.0), (2, 5.4), (3, 5.1)):
        _record(tmp_path / "before", seed, value, source="old")
    _record(tmp_path / "before", 4, 99.0, source="old", trace=1)  # traced: skipped
    for seed, value in ((1, 0.5), (2, 0.4)):
        _record(tmp_path / "after", seed, value, source="new")
    code = bench_summary.main(
        ["t", f"parent={tmp_path / 'before'}", f"change={tmp_path / 'after'}",
         "--out-dir", str(tmp_path)]
    )
    assert code == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    parent = out["groups"]["parent"]["workloads"]["lebesgue-grid"]
    assert parent["runs"] == 3
    assert parent["sweep_s"] == {"median": 5.1, "min": 5.0, "max": 5.4, "unit": "s"}
    assert parent["csv_sha256"] == {"lebesgue_disk.csv": "d1"}
    assert out["groups"]["change"]["source_sha256"] == "new"
    row = out["comparison"]["parent -> change"]["lebesgue-grid"]["sweep_s"]
    assert row["change"] == pytest.approx(0.45)
    assert row["relative_change"] == pytest.approx(0.45 / 5.1 - 1.0)


def test_unnamed_records_group_by_program_version(tmp_path):
    _record(tmp_path, 1, 1.0, source="aaa", digest="x")
    _record(tmp_path, 2, 2.0, source="bbb", digest="y")
    summary = bench_summary.summarize(bench_summary.load_records(str(tmp_path)))
    assert sorted(summary) == ["no-git-aaa", "no-git-bbb"]


def test_tier1_wall_time_and_counts_from_junitxml(tmp_path):
    _record(tmp_path / "runs", 1, 1.0)
    report = tmp_path / "tier1.xml"
    report.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites name="pytest tests">'
        '<testsuite name="pytest" errors="1" failures="2" skipped="3" '
        'tests="616" time="40.125" timestamp="2026-01-01T00:00:00" '
        'hostname="h"><testcase classname="t" name="a" time="0.1"/>'
        "</testsuite></testsuites>"
    )
    code = bench_summary.main(
        ["t", str(tmp_path / "runs"), "--junitxml", str(report),
         "--out-dir", str(tmp_path)]
    )
    assert code == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["tier1"] == {
        "time": 40.125, "tests": 616, "failures": 2, "errors": 1, "skipped": 3
    }


def test_no_tier1_without_junitxml(tmp_path):
    _record(tmp_path / "runs", 1, 1.0)
    bench_summary.main(["t", str(tmp_path / "runs"), "--out-dir", str(tmp_path)])
    assert "tier1" not in json.loads((tmp_path / "BENCH_t.json").read_text())


def test_source_lines_per_module_and_total(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline: 0, as wc -l
    (package / "notes.txt").write_text("not counted\n")
    assert bench_summary.source_lines(package) == {
        "modules": {"a.py": 2, "b.py": 0}, "total": 2
    }


def test_summary_records_this_checkout_source_lines(tmp_path):
    _record(tmp_path / "runs", 1, 1.0)
    bench_summary.main(["t", str(tmp_path / "runs"), "--out-dir", str(tmp_path)])
    recorded = json.loads((tmp_path / "BENCH_t.json").read_text())["source_lines"]
    package = SCRIPT.parents[1] / "src" / "zernkit"
    assert set(recorded["modules"]) == {p.name for p in package.glob("*.py")}
    assert recorded["modules"]["wavefront.py"] == len(
        (package / "wavefront.py").read_text().splitlines()
    )
    assert recorded["total"] == sum(recorded["modules"].values())


def test_cli_options_per_subcommand_and_total():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    one = sub.add_parser("one")
    one.add_argument("--x")
    one.add_argument("--y", "-y")  # two option strings
    one.add_argument("path")  # positional: no option string
    sub.add_parser("two")  # only help, which is not counted
    assert bench_summary.cli_options(sub.choices) == {
        "commands": {"one": 3, "two": 0}, "total": 3
    }


def test_summary_records_this_checkout_cli_options(tmp_path):
    from zernkit.cli import build_parser

    _record(tmp_path / "runs", 1, 1.0)
    bench_summary.main(["t", str(tmp_path / "runs"), "--out-dir", str(tmp_path)])
    recorded = json.loads((tmp_path / "BENCH_t.json").read_text())["cli_options"]
    # every parser maps each option string to its action, -h and --help too
    want = {
        name: len(p._option_string_actions) - 2
        for name, p in build_parser()[1].items()
    }
    assert recorded == {"commands": want, "total": sum(want.values())}
