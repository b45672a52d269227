"""Tests of the benchmark itself: span arithmetic, hooks, gate, seeds,
speed scaling.

Run with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import FunctionHook, Hooks, MethodHook, Span, Tracer, aggregate  # noqa: E402

import zernkit.cli  # noqa: E402
import zernkit.domains  # noqa: E402
import zernkit.wavefront  # noqa: E402
import zernkit.zernike  # noqa: E402


class TestSpanArithmetic:
    def test_self_time_of_nested_spans(self):
        recorded = [
            Span("cli", 0.0, 10.0),
            Span("zernike", 1.0, 4.0, parent=0, counts={"evals": 5}),
            Span("zernike", 2.0, 3.0, parent=1, counts={"evals": 5}),
            Span("linalg.svd", 5.0, 9.0, parent=0, counts={"flops": 7}),
            Span("cli", 11.0, 12.0),
        ]
        totals, root_s = aggregate(recorded)
        assert totals["cli"].self_s == pytest.approx(3.0 + 1.0)
        assert totals["zernike"].self_s == pytest.approx(2.0 + 1.0)
        assert totals["linalg.svd"].self_s == pytest.approx(4.0)
        assert root_s == pytest.approx(11.0)
        assert sum(t.self_s for t in totals.values()) == pytest.approx(root_s)
        # recursion inside a layer is one call, counted at the innermost span
        assert totals["zernike"].calls == 1
        assert totals["zernike"].counts == {"evals": 5}
        assert totals["cli"].calls == 2
        assert totals["linalg.svd"].counts == {"flops": 7}

    def test_innermost_count_seen_through_another_layer(self):
        recorded = [
            Span("zernike", 0.0, 10.0, counts={"evals": 4}),
            Span("domains.basis_eval", 1.0, 9.0, parent=0, counts={"evals": 4}),
            Span("zernike", 2.0, 8.0, parent=1, counts={"evals": 4}),
            Span("zernike", 9.25, 9.5, parent=0, counts={"evals": 3}),
        ]
        totals, _ = aggregate(recorded)
        assert totals["zernike"].counts == {"evals": 7}
        assert totals["zernike"].calls == 2
        assert totals["domains.basis_eval"].counts == {"evals": 4}
        assert totals["zernike"].self_s == pytest.approx(1.75 + 6.0 + 0.25)

    def test_tracer_records_parents_and_errors(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        def leaf(x):
            if x < 0:
                raise ValueError("negative")
            return x

        traced_leaf = tracer.wrap("leaf", leaf, lambda a, k, r: {"n": r})
        traced_root = tracer.wrap("root", lambda: traced_leaf(2) + traced_leaf(3))
        assert traced_root() == 5
        with pytest.raises(ValueError):
            traced_leaf(-1)
        totals, root_s = aggregate(tracer.spans)
        assert [s.parent for s in tracer.spans] == [-1, 0, 0, -1]
        assert totals["leaf"].counts == {"n": 5}
        assert totals["leaf"].errors == {"ValueError": 1}
        assert totals["leaf"].calls == 3
        assert sum(t.self_s for t in totals.values()) == pytest.approx(root_s)


def _quiet_main(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        return zernkit.cli.main(argv)


class TestHooks:
    def test_missing_hook_is_reported_absent_and_the_run_continues(self, tmp_path):
        tracer = Tracer()
        hooks = Hooks(tracer, "zernkit").install(layers.HOOKS + (
            FunctionHook("gone", "zernkit.zernike", "no_such_function"),
            FunctionHook("gone", "zernkit.no_such_module", "f"),
            MethodHook("gone", "zernkit.domains", ("eval_polar",), cls="NoSuchBasis"),
        ))
        try:
            code = _quiet_main(["condition-table", "--schemes", "ocs", "--orders",
                                "1..2", "--output", str(tmp_path / "t.csv")])
        finally:
            hooks.remove()
        assert code == 0
        assert len([a for a in hooks.absent if "no_such" in a or "NoSuch" in a]) == 3
        totals, _ = aggregate(tracer.spans)
        assert totals["cli"].calls == 1

    def test_every_binding_is_wrapped_and_restored(self):
        original_polar = zernkit.zernike.zernike_polar
        original_xy = zernkit.zernike.zernike_xy
        original_eval = zernkit.domains.HexagonBasis.eval_polar
        hooks = Hooks(Tracer(), "zernkit").install(layers.HOOKS)
        try:
            assert zernkit.zernike.zernike_polar is not original_polar
            assert zernkit.domains.zernike_polar is zernkit.zernike.zernike_polar
            assert zernkit.wavefront.zernike_xy is zernkit.zernike.zernike_xy
            assert zernkit.domains.HexagonBasis.eval_polar is not original_eval
        finally:
            hooks.remove()
        assert zernkit.zernike.zernike_polar is original_polar
        assert zernkit.domains.zernike_polar is original_polar
        assert zernkit.wavefront.zernike_xy is original_xy
        assert zernkit.domains.HexagonBasis.eval_polar is original_eval

    def test_traced_sweep_counts_and_sum_rule(self, tmp_path):
        tracer = Tracer()
        hooks = Hooks(tracer, "zernkit").install(layers.HOOKS)
        argv = ["condition-table", "--schemes", "cuyt,ocs", "--orders", "1..3",
                "--domain", "hexagon", "--basis", "H", "--output", str(tmp_path / "h.csv")]
        try:
            start = tracer.clock()
            assert _quiet_main(argv) == 0
            sweep_s = tracer.clock() - start
        finally:
            hooks.remove()
        totals, root_s = aggregate(tracer.spans)
        entries = 2 * sum(((n + 1) * (n + 2) // 2) ** 2 for n in (1, 2, 3))
        assert totals["collocation.assemble"].counts["entries"] == entries
        # evaluations are counted once, at the innermost zernike call
        assert totals["zernike"].counts["evals"] == entries
        assert totals["domains.basis_eval"].counts["evals"] == entries
        assert totals["linalg.svd"].calls == 6
        metrics = layers.layer_metrics(totals, 1, sweep_s, root_s, 0.0, hooks.absent)
        parts = [metrics[f"{group}.self_s"]["value"] for group in layers.self_time_groups()]
        total = sum(parts) + metrics["trace.unattributed_s"]["value"]
        assert total == pytest.approx(metrics["trace.sweep_s"]["value"], abs=1e-9)
        assert metrics["trace.unattributed_s"]["value"] >= 0.0

    def test_traced_sweeps_of_separate_workers_are_summed(self):
        import run

        def sweep(traced, sweep_s, root_s=0.0, totals=None):
            return {"traced": traced, "sweep_s": sweep_s, "wall_s": sweep_s, "root_s": root_s,
                    "totals": totals or {}, "absent_hooks": ["gone"]}

        one = {"cli": {"calls": 1, "self_s": 1.0, "errors": {}, "counts": {}},
               "zernike": {"calls": 4, "self_s": 2.0, "errors": {}, "counts": {"evals": 8}}}
        two = {"cli": {"calls": 1, "self_s": 2.0, "errors": {}, "counts": {}},
               "zernike": {"calls": 4, "self_s": 4.0, "errors": {}, "counts": {"evals": 8}}}
        sweeps = [sweep(False, 4.0), sweep(True, 5.0, 3.0, one),
                  sweep(False, 5.0), sweep(True, 7.0, 6.0, two)]
        metrics, absent = run.trace_metrics(sweeps)
        assert absent == ["gone"]
        assert metrics["zernike.calls"]["value"] == 4
        assert metrics["zernike.self_s"]["value"] == 3.0
        assert metrics["zernike.ns_per_eval"]["value"] == pytest.approx(6.0 / 16 * 1e9)
        assert metrics["trace.sweep_s"]["value"] == 6.0
        assert metrics["trace.unattributed_s"]["value"] == 1.5
        assert metrics["trace.overhead_frac"]["value"] == pytest.approx(6.0 / 4.5 - 1.0)

    def test_every_group_has_a_self_time_metric(self):
        assert sorted(layers.GROUPS) == sorted(layers.self_time_groups())


class TestGate:
    job = workloads.jobs("condition-tables")[0]
    expected = workloads.reference_rows("condition-tables", job)
    header = workloads.CONDITION_HEADER

    def text(self, rows):
        return "\n".join([self.header] + [",".join(r) for r in rows]) + "\n"

    def test_reference_passes(self):
        cells, failed, _ = workloads.check_output(
            self.job, self.text(self.expected), self.expected, exact=True)
        assert (cells, failed) == (90, 0)

    def test_perturbed_row_is_rejected(self):
        rows = [list(r) for r in self.expected]
        kappa = rows[40][4]
        rows[40][4] = repr(float(kappa) + 3 * workloads.last_place(kappa))
        cells, failed, messages = workloads.check_output(
            self.job, self.text(rows), self.expected, exact=True)
        assert (cells, failed) == (90, 1)
        assert "row 41" in messages[0]

    def test_last_digit_rounding_is_accepted(self):
        assert workloads.matches_printed("1.4143", "1.4142")
        assert workloads.matches_printed("2.449491e+00", "2.449490e+00")
        assert not workloads.matches_printed("1.4144", "1.4142")
        assert not workloads.matches_printed("nan", "1.4142")
        assert workloads.last_place("1.2345e+05") == pytest.approx(10.0)

    def test_missing_absent_and_extra_rows_fail(self):
        rows = [list(r) for r in self.expected]
        rows[0] = rows[0][:4] + ["missing", "", ""]
        cells, failed, _ = workloads.check_output(
            self.job, self.text(rows[:-2]), self.expected, exact=True)
        assert (cells, failed) == (90, 3)
        cells, failed, _ = workloads.check_output(
            self.job, self.text(self.expected + [self.expected[0]]), self.expected,
            exact=True)
        assert (cells, failed) == (91, 1)
        cells, failed, _ = workloads.check_output(self.job, None, self.expected, True)
        assert (cells, failed) == (90, 90)

    def test_other_seeds_need_finite_values_only(self):
        job = workloads.jobs("wavefront-zonal", 3)[0]
        expected = workloads.reference_rows("wavefront-zonal", job)
        rows = [r[:3] + ["1.5e-02"] + r[4:] for r in expected]
        text = "\n".join([workloads.WAVEFRONT_HEADER] + [",".join(r) for r in rows])
        assert workloads.check_output(job, text, expected, exact=False)[1] == 0
        assert workloads.check_output(job, text, expected, exact=True)[1] == 10
        rows[3][3] = "error"
        text = "\n".join([workloads.WAVEFRONT_HEADER] + [",".join(r) for r in rows])
        assert workloads.check_output(job, text, expected, exact=False)[1] == 1


def _small_wavefront(seed, output):
    """The workload's wavefront command at seed ``seed``, cut to one order
    and two trials so the test stays quick."""
    argv = workloads.jobs("wavefront-zonal", seed)[0].command(output)
    argv[argv.index("--orders") + 1] = "16"
    argv[argv.index("--trials") + 1] = "2"
    assert _quiet_main(argv) == 0
    return Path(output).read_text()


def test_seed_reproduces_wavefront_inputs(tmp_path):
    assert workloads.jobs("wavefront-zonal", 7) == workloads.jobs("wavefront-zonal", 7)
    assert workloads.jobs("wavefront-zonal", 7) != workloads.jobs("wavefront-zonal", 8)
    first = _small_wavefront(7, tmp_path / "a.csv")
    again = _small_wavefront(7, tmp_path / "b.csv")
    other = _small_wavefront(8, tmp_path / "c.csv")
    assert first == again
    assert first != other
    values = [float(line.split(",")[3]) for line in other.splitlines()[1:]]
    assert all(math.isfinite(v) for v in values)


class TestSpeedScaling:
    def test_scaled_time_is_at_the_reference_speed(self):
        slow = [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S]
        assert speed.scaled(3.0, slow) == pytest.approx(1.5)
        assert speed.scaled(3.0, [speed.REFERENCE_S]) == pytest.approx(3.0)
        # the mean speed: full speed for half the samples, a third for the rest
        both = [speed.REFERENCE_S, 3 * speed.REFERENCE_S]
        assert speed.scaled(2.0, both) == pytest.approx(4.0 / 3.0)
        assert speed.scaled(0.01, []) == 0.01

    def test_sampler_keeps_probe_time_off_its_clock(self):
        sampler = speed.Sampler().start()
        try:
            start, clock_start = time.perf_counter(), sampler.clock()
            while time.perf_counter() - start < 6 * speed.INTERVAL_S:
                speed.probe()
            wall = time.perf_counter() - start
            clocked = sampler.clock() - clock_start
        finally:
            sampler.stop()
        times = sampler.take()
        assert len(times) >= 3
        assert sampler.take() == []
        assert clocked == pytest.approx(wall - sampler.spent, abs=1e-3)
        assert 0.0 < sampler.spent < wall


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "condition-tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
