"""The three workloads, as ``zernkit`` command lines, and their output gate.

Each workload is a sweep of one or more CLI invocations (``zernkit.cli.main``
with an argv, the way ``scripts/`` drives the program).  Every output CSV is
checked row by row against a reference table committed in ``reference/``;
a row is one cell of the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The paper's scripted seed; the wavefront reference table was made with it.
REFERENCE_SEED = 7

CONDITION_HEADER = "n,scheme,basis,domain,kappa2,sigma_max,sigma_min"
LEBESGUE_HEADER = "n,scheme,basis,domain,lebesgue"
WAVEFRONT_HEADER = "n,scheme,basis,mean_rrmse,trials"


@dataclass(frozen=True)
class Job:
    """One CLI invocation of a sweep and how to check what it writes."""

    name: str  # output file name, also the reference file name
    argv: tuple  # CLI arguments without --output
    header: str
    value_columns: tuple  # numeric columns; all others must match exactly
    seeded: bool  # output depends on the seed

    def command(self, output):
        return list(self.argv) + ["--output", str(output)]


def _condition_job(name, domain_args):
    # the three sweeps of scripts/make_condition_tables.py, unchanged
    argv = ("condition-table", "--schemes", "cuyt,carnicer,ocs", "--orders", "1..30")
    return Job(name, argv + domain_args, CONDITION_HEADER, (4, 5, 6), False)


def _lebesgue_job(name, domain, basis):
    argv = ("lebesgue", "--schemes", "ocs,approx-fekete", "--orders", "1..10",
            "--domain", domain, "--basis", basis)
    return Job(name, argv, LEBESGUE_HEADER, (4,), False)


def _wavefront_job(seed):
    argv = ("wavefront", "--orders", "16..20", "--trials", "8", "--schemes", "ocs",
            "--bases", "K,H", "--seed", str(seed))
    return Job("wavefront.csv", argv, WAVEFRONT_HEADER, (3,), True)


def jobs(workload, seed=REFERENCE_SEED):
    """The CLI invocations of one sweep of ``workload`` for ``seed``."""
    if workload == "condition-tables":
        return [
            _condition_job("disk_zernike.csv", ("--domain", "disk", "--basis", "Z")),
            _condition_job("hexagon_weighted.csv",
                           ("--domain", "hexagon", "--basis", "H")),
            _condition_job("annulus_sqrt_jacobian.csv",
                           ("--domain", "annulus", "--basis", "O", "--a", "0.5",
                            "--eps", "0.01")),
        ]
    if workload == "lebesgue-grid":
        return [
            _lebesgue_job("lebesgue_disk.csv", "disk", "Z"),
            _lebesgue_job("lebesgue_hexagon.csv", "hexagon", "K"),
        ]
    if workload == "wavefront-zonal":
        return [_wavefront_job(seed)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("condition-tables", "lebesgue-grid", "wavefront-zonal")


def reference_rows(workload, job):
    text = (REFERENCE_DIR / workload / job.name).read_text(encoding="ascii")
    return [line.split(",") for line in text.splitlines()[1:]]


def last_place(text):
    """Value of one unit in the last printed digit of a decimal literal."""
    mantissa, _, exponent = text.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def matches_printed(got, want):
    """True if ``got`` equals ``want`` to the precision ``want`` is printed
    with: within one unit of its last digit, the most that correct rounding
    of two nearly equal values can move it."""
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if not (math.isfinite(g) and math.isfinite(w)):
        return False
    return abs(g - w) <= last_place(want) * (1.0 + 1e-9)


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_output(job, text, expected, exact):
    """Gate one output CSV; returns (cells, failed cells, messages).

    ``expected`` are the reference rows.  Columns outside
    ``job.value_columns`` must match them exactly.  Value columns must match
    to printed precision when ``exact`` and be finite numbers otherwise.  A
    row marked ``missing`` or ``error`` fails, as does every row that is
    absent or extra.  Without a readable header every cell fails.
    """
    lines = text.splitlines() if text is not None else []
    if not lines or lines[0] != job.header:
        head = lines[0] if lines else "no output"
        return len(expected), len(expected), [f"{job.name}: bad header {head!r}"]
    rows = [line.split(",") for line in lines[1:]]
    cells = max(len(expected), len(rows))
    failures = []
    for i, want in enumerate(expected):
        if i >= len(rows):
            failures.append(f"{job.name}: row {i + 1} absent")
            continue
        got = rows[i]
        bad = len(got) != len(want)
        for col in range(min(len(got), len(want))):
            if bad:
                break
            if col not in job.value_columns:
                bad = got[col] != want[col]
            elif exact:
                bad = not matches_printed(got[col], want[col])
            else:
                bad = not _finite(got[col])
        if bad:
            failures.append(f"{job.name}: row {i + 1} is {','.join(got)!r}, "
                            f"expected {','.join(want)!r}")
    for i in range(len(expected), len(rows)):
        failures.append(f"{job.name}: extra row {','.join(rows[i])!r}")
    return cells, len(failures), failures
