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
