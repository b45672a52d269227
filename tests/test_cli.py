import io
from pathlib import Path

import numpy as np
import pytest

from zernkit.cli import main, parse_orders
from zernkit.errors import ConfigError
from zernkit.samplings import generate_nodes, ocs_nodes, save_nodes


BENCHMARK_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _last_place(text):
    """One unit in the last printed digit of a decimal literal."""
    mantissa, _, exponent = text.lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


def _assert_matches_reference(out, reference, value_columns):
    """The benchmark's output gate: columns other than ``value_columns``
    exact, values within one unit of their last printed digit."""
    got = [line.split(",") for line in out.read_text().splitlines()]
    want = [line.split(",") for line in reference.read_text().splitlines()]
    assert got[0] == want[0]
    assert len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        assert len(g) == len(w), g
        for i, (a, b) in enumerate(zip(g, w)):
            if a != b:
                assert i in value_columns, g
                assert abs(float(a) - float(b)) <= _last_place(b) * (1.0 + 1e-9), g


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNodesCommand:
    def test_hexagon_row_count(self, capsys):
        code, out, _ = run(
            capsys, "nodes", "--scheme", "ocs", "--n", "15", "--domain", "hexagon"
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 136

    def test_ellipse_containment(self, capsys, tmp_path):
        target = tmp_path / "nodes.txt"
        code, _, _ = run(
            capsys,
            "nodes", "--scheme", "carnicer", "--n", "12", "--domain", "ellipse",
            "--A", "2", "--B", "1", "--output", str(target),
        )
        assert code == 0
        pts = np.array(
            [list(map(float, line.split())) for line in target.read_text().splitlines()
             if line and not line.startswith("#")]
        )
        assert np.all((pts[:, 0] / 2.0) ** 2 + pts[:, 1] ** 2 <= 1.0 + 1e-12)

    def test_disk_writes_the_generated_set(self, capsys):
        expected = io.StringIO()
        save_nodes(expected, generate_nodes("ocs", 9))
        code, out, _ = run(
            capsys, "nodes", "--scheme", "ocs", "--n", "9", "--domain", "disk"
        )
        assert code == 0
        assert out == expected.getvalue()

    def test_file_scheme_transfer(self, capsys, tmp_path):
        source = tmp_path / "lebesgue_n3.txt"
        save_nodes(source, ocs_nodes(3))
        code, out, _ = run(
            capsys,
            "nodes", "--scheme", "lebesgue", "--n", "3", "--domain", "hexagon",
            "--from-file", str(source),
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 10

    def test_node_dir_env(self, capsys, tmp_path, monkeypatch):
        save_nodes(tmp_path / "lebesgue_n2.txt", ocs_nodes(2))
        monkeypatch.setenv("ZERNKIT_NODE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "nodes", "--scheme", "lebesgue", "--n", "2")
        assert code == 0
        assert len([l for l in out.splitlines() if not l.startswith("#")]) == 6

    def test_missing_file_is_hard_error(self, capsys):
        code, _, err = run(capsys, "nodes", "--scheme", "fekete", "--n", "2")
        assert code == 1
        assert "error" in err


class TestConditionTable:
    def test_disk_anchor_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "condition-table", "--domain", "disk", "--schemes", "ocs",
            "--orders", "1..2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,scheme,basis,domain,kappa2,sigma_max,sigma_min"
        assert lines[1].startswith("1,ocs,Z,disk,1.0894")
        assert lines[2].startswith("2,ocs,Z,disk,1.3050")

    def test_annulus_anchor(self, capsys):
        code, out, _ = run(
            capsys,
            "condition-table", "--domain", "annulus", "--basis", "O",
            "--schemes", "ocs", "--orders", "2", "--a", "0.5", "--eps", "0.01",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("2,ocs,O,annulus,6.258")

    def test_plain_annulus_family_keeps_disk_kappa(self, capsys):
        # the inner-node shift applies only to the vanishing-weight family;
        # the plain composed family must reproduce the disk column exactly
        code, out, _ = run(
            capsys,
            "condition-table", "--domain", "annulus", "--basis", "C",
            "--schemes", "cuyt", "--orders", "4", "--a", "0.5",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("4,cuyt,C,annulus,3.3225")

    def test_missing_node_file_marks_row_and_continues(self, capsys):
        code, out, _ = run(
            capsys,
            "condition-table", "--domain", "disk", "--schemes", "lebesgue,ocs",
            "--orders", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "1,lebesgue,Z,disk,missing,,"
        assert lines[2].startswith("1,ocs,Z,disk,")

    @pytest.mark.parametrize(
        "body,reason",
        [
            (b"1 0\n0 1\n2 0\n", "NodeContainmentError"),  # radius 2
            (b"1 0\n0 1\n0.5\n", "NodeParseError"),
            (b"1 0\n0 1\nnan 0\n", "NodeParseError"),
            (b"1 0\n0 1\n0.5 0.5 # caf\xc3\xa9\n", "NodeParseError"),
            (b"1 0\n0 1\n", "NodeCountError"),
            (None, "IsADirectoryError"),  # a directory cannot be opened
        ],
    )
    def test_malformed_node_file_marks_row_invalid(
        self, capsys, tmp_path, body, reason
    ):
        path = tmp_path / "lebesgue_n1.txt"
        if body is None:
            path.mkdir()
        else:
            path.write_bytes(body)
        code, out, err = run(
            capsys,
            "condition-table", "--domain", "disk", "--schemes", "lebesgue,ocs",
            "--orders", "1", "--node-dir", str(tmp_path),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "1,lebesgue,Z,disk,invalid,,"
        assert lines[2].startswith("1,ocs,Z,disk,")
        assert f"condition-table n=1 scheme=lebesgue: invalid: {reason}" in err

    def test_missing_node_file_logs_reason(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "lebesgue", "--domain", "disk", "--schemes", "fekete",
            "--orders", "1", "--node-dir", str(tmp_path),
        )
        assert code == 0
        assert out.splitlines()[1] == "1,fekete,Z,disk,missing"
        assert "lebesgue n=1 scheme=fekete: missing: FileNotFoundError" in err

    def test_approx_fekete_row_names_its_scheme(self, capsys):
        code, out, _ = run(
            capsys,
            "condition-table", "--schemes", "approx-fekete", "--orders", "2",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("2,approx-fekete,Z,disk,")

    def test_basis_domain_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            "condition-table", "--domain", "disk", "--basis", "K",
            "--schemes", "ocs", "--orders", "1",
        )
        assert code == 1
        assert "error" in err

    def test_byte_stable(self, capsys, tmp_path):
        args = [
            "condition-table", "--domain", "hexagon", "--basis", "H",
            "--schemes", "ocs,cuyt", "--orders", "1..4",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestWavefrontCommand:
    def test_deterministic_output(self, capsys, tmp_path):
        args = [
            "wavefront", "--orders", "2..3", "--trials", "2", "--schemes", "ocs",
            "--bases", "K,H", "--seed", "7",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "n,scheme,basis,mean_rrmse,trials"
        assert len(lines) == 5

    def test_non_finite_strength_is_hard_error(self, capsys):
        for strength in ("nan", "inf"):
            code, out, err = run(
                capsys,
                "wavefront", "--orders", "2", "--trials", "1", "--schemes", "ocs",
                "--bases", "K", "--strength", strength,
            )
            assert code == 1
            assert out == ""
            assert "zernkit: error: strength must be finite and positive" in err

    def test_hard_error_keeps_previous_output(self, capsys, tmp_path):
        args = [
            "wavefront", "--orders", "2", "--schemes", "ocs", "--bases", "K",
        ]
        target = tmp_path / "prev.csv"
        previous = b"n,scheme,basis,mean_rrmse,trials\n" + b"2,ocs,K,1.0,1\n" * 50
        target.write_bytes(previous)
        for bad, message in (
            (["--trials", "0"], "zernkit: error: trials must be >= 1"),
            (["--trials", "1", "--strength", "nan"],
             "zernkit: error: strength must be finite and positive"),
        ):
            code, out, err = run(capsys, *args, *bad, "--output", str(target))
            assert code == 1
            assert out == ""
            assert message in err
            assert target.read_bytes() == previous
        # a run that succeeds replaces the longer previous file whole
        fresh = tmp_path / "fresh.csv"
        assert main(args + ["--trials", "1", "--output", str(fresh)]) == 0
        assert main(args + ["--trials", "1", "--output", str(target)]) == 0
        assert target.read_bytes() == fresh.read_bytes()

    def test_random_errors_grow_with_order(self, capsys):
        code, out, _ = run(
            capsys,
            "wavefront", "--orders", "4..14", "--trials", "2",
            "--schemes", "random", "--bases", "H", "--seed", "1",
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:]]
        values = [float(r[3]) for r in rows if r[3] != "error"]
        assert values[-1] > values[0]

    def test_missing_files_mark_cells(self, capsys):
        code, out, _ = run(
            capsys,
            "wavefront", "--orders", "2", "--trials", "1",
            "--schemes", "lebesgue,ocs", "--bases", "K",
        )
        assert code == 0
        lines = out.splitlines()
        assert "error" in lines[1]
        assert "error" not in lines[2]


    def test_eps_accepted_and_unused(self, tmp_path):
        # kept so config files that set eps still load; the hexagonal
        # aperture has no inner circle to shift nodes off
        args = [
            "wavefront", "--orders", "2", "--trials", "1", "--schemes", "ocs",
            "--bases", "K", "--seed", "7",
        ]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps=0.5\n")
        outputs = []
        for extra in ([], ["--eps", "0.5"], ["--config", str(cfg)]):
            out = tmp_path / f"{len(outputs)}.csv"
            assert main(args + extra + ["--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_matches_benchmark_reference(self, tmp_path):
        # the benchmark's wavefront sweep, gated by its own rule
        out = tmp_path / "wavefront.csv"
        assert main([
            "wavefront", "--orders", "16..20", "--trials", "8", "--schemes", "ocs",
            "--bases", "K,H", "--seed", "7", "--output", str(out),
        ]) == 0
        reference = BENCHMARK_REFERENCE / "wavefront-zonal" / "wavefront.csv"
        assert len(reference.read_text().splitlines()) == 11
        _assert_matches_reference(out, reference, (3,))

    def test_trial_count_with_colliding_seeds_is_hard_error(self, capsys):
        code, out, err = run(
            capsys,
            "wavefront", "--orders", "2", "--trials", "1000003",
            "--schemes", "ocs", "--bases", "K",
        )
        assert code == 1
        assert out == ""
        assert "trials must be < 1000003" in err


class TestLebesgueCommand:
    def test_basic_row(self, capsys):
        code, out, _ = run(
            capsys, "lebesgue", "--domain", "disk", "--schemes", "ocs",
            "--orders", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,scheme,basis,domain,lebesgue"
        value = float(lines[1].split(",")[4])
        assert value >= 1.0


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("orders=1..2\nschemes=ocs\ndomain=disk\n# comment\n")
        code, out, _ = run(
            capsys, "condition-table", "--config", str(cfg), "--orders", "1"
        )
        assert code == 0
        assert len(out.splitlines()) == 2  # header + single row: flag won

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("plotting=yes\n")
        code, _, err = run(capsys, "condition-table", "--config", str(cfg),
                           "--schemes", "ocs", "--orders", "1")
        assert code == 1
        assert "unknown key" in err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("orders\n")
        from zernkit.cli import read_config_file

        with pytest.raises(ConfigError):
            read_config_file(cfg, allowed={"orders"})

    def test_non_ascii_file_is_named(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed=1 # caf\xc3\xa9\n")
        code, out, err = run(capsys, "condition-table", "--config", str(cfg),
                             "--schemes", "ocs", "--orders", "1")
        assert code == 1
        assert out == ""
        assert err.startswith(f"zernkit: error: {cfg}: not ASCII text"), err

    @pytest.mark.parametrize(
        "argv,config,flags",
        [
            (
                ["condition-table"],
                "domain=annulus\nbasis=O\ninner=0.4\neps=0.02\n"
                "schemes=ocs,cuyt\norders=1..3\n",
                ["--domain", "annulus", "--basis", "O", "--a", "0.4",
                 "--eps", "0.02", "--schemes", "ocs,cuyt", "--orders", "1..3"],
            ),
            (
                ["lebesgue"],
                "domain=hexagon\nbasis=K\nschemes=ocs\norders=1..3\n",
                ["--domain", "hexagon", "--basis", "K", "--schemes", "ocs",
                 "--orders", "1..3"],
            ),
            (
                ["wavefront"],
                "orders=2..3\ntrials=2\nschemes=ocs,random\nbases=K,H\n"
                "strength=0.5\nnode-seed=3\nseed=7\n",
                ["--orders", "2..3", "--trials", "2", "--schemes", "ocs,random",
                 "--bases", "K,H", "--strength", "0.5", "--node-seed", "3",
                 "--seed", "7"],
            ),
            (
                ["nodes", "--scheme", "ocs", "--n", "4"],
                "domain=ellipse\nsemi_major=3\nsemi_minor=0.5\n",
                ["--domain", "ellipse", "--A", "3", "--B", "0.5"],
            ),
            (["nodes"], "scheme=ocs\nn=5\n", ["--scheme", "ocs", "--n", "5"]),
        ],
    )
    def test_config_equals_flags(self, tmp_path, argv, config, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        from_config = tmp_path / "config.csv"
        from_flags = tmp_path / "flags.csv"
        assert main(argv + ["--config", str(cfg), "--output", str(from_config)]) == 0
        assert main(argv + flags + ["--output", str(from_flags)]) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

    @pytest.mark.parametrize("line", ["trials=2", "A=3"])
    def test_other_names_rejected(self, capsys, tmp_path, line):
        # keys are the destinations of this command's own options
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "condition-table", "--config", str(cfg),
                             "--schemes", "ocs", "--orders", "1")
        assert code == 1
        assert out == ""
        assert f"unknown key {line.split('=')[0]!r}" in err

    @pytest.mark.parametrize(
        "argv,line,message",
        [
            (["condition-table", "--schemes", "ocs", "--orders", "1"],
             "domain=square", "unknown domain 'square'; choose from disk, "),
            (["lebesgue", "--schemes", "ocs", "--orders", "1"],
             "basis=Q", "unknown basis 'Q'; choose from Z, "),
            (["nodes", "--n", "2"], "scheme=ocz", "unknown scheme 'ocz'; choose from "),
        ],
    )
    def test_unknown_name_in_file_rejected(self, capsys, tmp_path, argv, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith(f"zernkit: error: {message}"), err

    def test_nodes_requires_scheme_and_order(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain=hexagon\n")
        for argv in (["nodes"], ["nodes", "--config", str(cfg)]):
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err == "zernkit: error: nodes requires --scheme\n"
        code, _, err = run(capsys, "nodes", "--scheme", "ocs")
        assert code == 1
        assert err == "zernkit: error: nodes requires --n\n"

    def test_bad_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["wavefront", "--config", str(cfg), "--orders", "2",
                  "--trials", "1", "--schemes", "ocs", "--bases", "K"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: invalid int value: 'abc'" in captured.err


_SWEEP_ARGS = {
    "condition-table": ["--orders", "2"],
    "lebesgue": ["--orders", "2"],
    "wavefront": ["--orders", "2", "--trials", "1", "--bases", "K"],
}


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(_SWEEP_ARGS))
def test_unknown_scheme_rejected_before_output(capsys, tmp_path, command, given):
    argv = [command] + _SWEEP_ARGS[command]
    if given == "flag":
        argv += ["--schemes", "ocs,ocz"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("schemes=ocs,ocz\n")
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("zernkit: error: unknown scheme 'ocz'"), err


def test_unknown_wavefront_basis_rejected_before_output(capsys):
    code, out, err = run(
        capsys,
        "wavefront", "--orders", "2", "--trials", "1", "--schemes", "ocs",
        "--bases", "K,Z",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("zernkit: error: unknown wavefront basis 'Z'"), err


def test_parse_orders():
    assert parse_orders("2..4") == (2, 3, 4)
    assert parse_orders("7") == (7,)
    with pytest.raises(ConfigError):
        parse_orders("5..2")


_LEBESGUE_SWEEP = ["lebesgue", "--schemes", "ocs,approx-fekete", "--orders", "1..10"]

# the benchmark's disk and hexagon sweeps: workload, arguments, value columns
_BENCHMARK_SWEEPS = {
    "lebesgue_disk.csv": (
        "lebesgue-grid", _LEBESGUE_SWEEP + ["--domain", "disk", "--basis", "Z"], (4,)
    ),
    "lebesgue_hexagon.csv": (
        "lebesgue-grid", _LEBESGUE_SWEEP + ["--domain", "hexagon", "--basis", "K"], (4,)
    ),
    "hexagon_weighted.csv": (
        "condition-tables",
        ["condition-table", "--schemes", "cuyt,carnicer,ocs", "--orders", "1..30",
         "--domain", "hexagon", "--basis", "H"],
        (4, 5, 6),
    ),
}


@pytest.mark.parametrize("name", sorted(_BENCHMARK_SWEEPS))
def test_sweep_matches_benchmark_reference(tmp_path, name):
    workload, argv, value_columns = _BENCHMARK_SWEEPS[name]
    out = tmp_path / name
    assert main(argv + ["--output", str(out)]) == 0
    _assert_matches_reference(out, BENCHMARK_REFERENCE / workload / name, value_columns)


def test_unwritable_output_is_clean_error(capsys, tmp_path):
    # the output opens before the sweep, so no cell's progress line comes first
    for argv in (
        ["condition-table", "--schemes", "ocs", "--orders", "1"],
        ["lebesgue", "--schemes", "ocs", "--orders", "1"],
        ["wavefront", "--orders", "2", "--trials", "1", "--schemes", "ocs",
         "--bases", "K"],
        ["nodes", "--scheme", "ocs", "--n", "2"],
    ):
        for target in (tmp_path, tmp_path / "no-such-dir" / "out.csv"):
            code, _, err = run(capsys, *argv, "--output", str(target))
            assert code == 1
            assert err.startswith("zernkit: error: "), err


def test_bad_order_range_is_clean_error(capsys):
    code, _, err = run(
        capsys, "condition-table", "--schemes", "ocs", "--orders", "5..2"
    )
    assert code == 1
    assert "error" in err


def test_hard_error_keeps_previous_output_of_every_command(capsys, tmp_path):
    target = tmp_path / "prev.csv"
    previous = b"n,scheme,basis,domain,lebesgue\n" + b"4,ocs,O,annulus,1.0\n" * 50
    target.write_bytes(previous)
    for argv, message in (
        # eps 0 puts the center node on the inner circle, where O vanishes
        (["lebesgue", "--domain", "annulus", "--basis", "O", "--eps", "0",
          "--schemes", "ocs", "--orders", "4"], "singular to working precision"),
        (["nodes", "--scheme", "fekete", "--n", "4",
          "--from-file", str(tmp_path / "absent.txt")], "absent.txt"),
    ):
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 1
        assert out == ""
        assert message in err.splitlines()[-1], err
        assert target.read_bytes() == previous
