"""Tests of the two sweep scripts in ``scripts/``, loaded as modules: smoke
runs at small sizes, and the wavefront script at its paper-scale defaults
against reference tables; and the Lebesgue sweep at the paper's orders
against its reference table."""

import importlib.util
from pathlib import Path

import pytest

from zernkit import cli
from zernkit.samplings import cuyt_nodes, ocs_nodes, save_nodes

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference" / "condition-tables"
# the paper-scale wavefront tables (orders 2..20, 100 trials, seed 7) and
# the disk Lebesgue table of the three Bos schemes at orders 1..30
PAPER_REFERENCE = ROOT / "tests" / "reference"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def condition_tables(tmp_path_factory):
    out = tmp_path_factory.mktemp("tables")
    assert _load("make_condition_tables").run(out, orders="1..3") == 0
    return out


@pytest.mark.parametrize(
    "name", ["disk_zernike.csv", "hexagon_weighted.csv", "annulus_sqrt_jacobian.csv"]
)
def test_condition_tables_open_the_reference_tables(condition_tables, name):
    # three schemes at orders 1..3: the header and the first nine rows of
    # the benchmark's n = 1..30 table
    got = (condition_tables / name).read_text().splitlines()
    want = (REFERENCE / name).read_text().splitlines()[:10]
    assert got == want


def test_condition_tables_name_the_file_schemes(tmp_path):
    # with a node directory the file schemes add two rows per order, each
    # under its own name
    nodes = tmp_path / "nodes"
    nodes.mkdir()
    for n in (1, 2, 3):
        save_nodes(nodes / f"lebesgue_n{n}.txt", ocs_nodes(n))
        save_nodes(nodes / f"fekete_n{n}.txt", cuyt_nodes(n))
    out = tmp_path / "tables"
    run = _load("make_condition_tables").run
    assert run(out, node_dir=str(nodes), orders="1..3") == 0
    schemes = ["cuyt", "carnicer", "ocs", "lebesgue", "fekete"]
    for name in ("disk_zernike.csv", "hexagon_weighted.csv",
                 "annulus_sqrt_jacobian.csv"):
        rows = [line.split(",") for line in (out / name).read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [
            [str(n), s] for n in (1, 2, 3) for s in schemes
        ], name


def test_wavefront_experiment_writes_both_tables(tmp_path):
    assert _load("run_wavefront_experiment").run(tmp_path, orders="2..3", trials=2) == 0
    for name, rows in (("wavefront_stable.csv", 4), ("wavefront_unstable.csv", 6)):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "n,scheme,basis,mean_rrmse,trials"
        assert len(lines) == 1 + rows
        assert all(line.endswith(",2") and ",error," not in line for line in lines[1:])


def test_wavefront_experiment_at_paper_scale_matches_reference(tmp_path):
    assert _load("run_wavefront_experiment").run(tmp_path) == 0
    for name in ("wavefront_stable.csv", "wavefront_unstable.csv"):
        got = (tmp_path / name).read_text()
        assert got == (PAPER_REFERENCE / name).read_text(), name


def test_lebesgue_sweep_at_paper_orders_matches_reference(tmp_path):
    # orders 1..30 span blocks of many radii down to the two-radius floor
    out = tmp_path / "lebesgue.csv"
    argv = ["lebesgue", "--schemes", "cuyt,carnicer,ocs", "--orders", "1..30",
            "--domain", "disk", "--output", str(out)]
    assert cli.main(argv) == 0
    assert out.read_text() == (PAPER_REFERENCE / "lebesgue_disk_1_30.csv").read_text()
