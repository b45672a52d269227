"""Batch command-line surface: node files, condition tables, experiments.

Commands
--------
nodes            generate or load a node set, optionally transferred to a
                 target domain, written in the plain-text node format
condition-table  condition numbers kappa_2 per (order, scheme) as CSV
wavefront        mean zonal-reconstruction error table as CSV
lebesgue         grid estimates of the Lebesgue constant as CSV

File-based schemes (lebesgue, fekete) are read from --node-dir (or the
ZERNKIT_NODE_DIR environment variable) as <scheme>_n<order>.txt, or from an
explicit --from-file.  A missing file marks the affected row ``missing``, an
unreadable or malformed one ``invalid``, with the reason on standard error,
and the sweep continues; only hard errors exit nonzero.  All output is
deterministic for a fixed configuration; progress goes to standard error,
data to --output (default standard output via '-').
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields

from . import collocation, domains, samplings, wavefront
from .errors import ConfigError, ZernkitError

NODE_DIR_ENV = "ZERNKIT_NODE_DIR"

GENERABLE_SCHEMES = ("ocs", "carnicer", "cuyt", "spiral", "random", "approx-fekete")
FILE_SCHEMES = ("lebesgue", "fekete")

_LEBESGUE_CSV_HEADER = "n,scheme,basis,domain,lebesgue"


@dataclass
class RunConfig:
    """Validated options of one command invocation."""

    command: str
    scheme: str = None
    schemes: tuple = None
    orders: tuple = None
    n: int = None
    domain: str = "disk"
    basis: str = None
    bases: tuple = None
    semi_major: float = 2.0
    semi_minor: float = 1.0
    inner: float = 0.5
    eps: float = 0.01
    seed: int = 0
    node_seed: int = 0
    trials: int = None
    strength: float = 1.0
    mesh_density: int = None
    from_file: str = None
    node_dir: str = None
    output: str = "-"


def parse_orders(text):
    """'2..20' -> range, '7' -> single order."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ConfigError(f"empty order range {text!r}")
        return tuple(range(lo, hi + 1))
    return (int(text),)


def parse_list(text):
    return tuple(s.strip() for s in text.split(",") if s.strip())


def read_config_file(path, allowed):
    """Key=value file; '#' comments; unknown keys are rejected."""
    values = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = body.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in allowed:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _merge(args, parser_keys):
    """Apply config-file values where flags were not given; flags win."""
    merged = dict(vars(args))
    config_path = merged.pop("config", None)
    if config_path:
        allowed = set(parser_keys) - {"config", "command", "func"}
        file_values = read_config_file(config_path, allowed=allowed)
        for key, raw in file_values.items():
            if merged.get(key) is None:
                merged[key] = raw
    merged.pop("func", None)
    return merged


def _coerce(merged):
    """Build the RunConfig, converting config-file strings."""
    casts = {
        "orders": lambda v: parse_orders(v) if isinstance(v, str) else v,
        "schemes": lambda v: parse_list(v) if isinstance(v, str) else v,
        "bases": lambda v: parse_list(v) if isinstance(v, str) else v,
        "n": int,
        "trials": int,
        "seed": int,
        "node_seed": int,
        "mesh_density": int,
        "semi_major": float,
        "semi_minor": float,
        "inner": float,
        "eps": float,
        "strength": float,
    }
    valid = {f.name for f in fields(RunConfig)}
    out = {}
    for key, value in merged.items():
        if key not in valid:
            raise ConfigError(f"unknown option {key!r}")
        if value is not None:
            out[key] = casts[key](value) if key in casts else value
    return RunConfig(**out)


@contextmanager
def open_output(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            yield fh


def _log(message):
    print(message, file=sys.stderr, flush=True)


def _node_dir(cfg):
    return cfg.node_dir or os.environ.get(NODE_DIR_ENV)


def _resolve_nodes(cfg, scheme, order, seed=0):
    """Disk NodeSet for a scheme name; file-based schemes hit the node dir."""
    if scheme in FILE_SCHEMES:
        if cfg.from_file:
            return samplings.load_nodes(cfg.from_file, order)
        directory = _node_dir(cfg)
        if not directory:
            raise FileNotFoundError(
                f"scheme {scheme!r} needs --from-file or a node directory "
                f"(--node-dir or ${NODE_DIR_ENV})"
            )
        return samplings.load_nodes(
            os.path.join(directory, f"{scheme}_n{order}.txt"), order
        )
    if scheme == "approx-fekete" and cfg.mesh_density:
        return samplings.approximate_fekete(order, cfg.mesh_density)
    return samplings.generate_nodes(scheme, order, seed)


def _domain_map(cfg):
    if cfg.domain == "disk":
        return None
    return domains.make_map(
        cfg.domain,
        semi_major=cfg.semi_major,
        semi_minor=cfg.semi_minor,
        inner=cfg.inner,
        outer=1.0,
    )


def _check_basis_domain(basis, domain):
    if domains.BASIS_DOMAINS.get(basis) != domain:
        raise ConfigError(
            f"basis {basis!r} lives on {domains.BASIS_DOMAINS.get(basis)!r}, "
            f"not {domain!r}"
        )


def cmd_nodes(cfg):
    nodes = _resolve_nodes(cfg, cfg.scheme, cfg.n, cfg.seed)
    dom = _domain_map(cfg)
    if dom is not None:
        eps = cfg.eps if cfg.domain == "annulus" else None
        nodes = domains.transfer_nodes(dom, nodes, inner_eps=eps)
    with open_output(cfg.output) as fh:
        samplings.save_nodes(fh, nodes)
    return 0


def _transfer_eps(cfg, basis_code):
    """Inner-node shift only matters for the annulus family whose weight
    vanishes on the inner circle; shifting for the plain composed family
    would silently break its exact disk invariance."""
    return cfg.eps if basis_code == "O" else None


def _sweep(cfg, default_basis, header, measure):
    """One CSV row per (order, scheme): ``measure(basis, nodes, prefix)``
    with prefix "n,scheme,basis,domain", or a marked row when the node set
    cannot be resolved: ``missing`` when its file does not exist, ``invalid``
    when it cannot be opened, read or built (a directory in its place, a
    parse, count or containment error).  The reason for a marker goes to
    standard error.  Rows are written as they are made, to an output opened
    before the first."""
    basis_code = cfg.basis or default_basis[cfg.domain]
    _check_basis_domain(basis_code, cfg.domain)
    dom = _domain_map(cfg)
    blanks = "," * (header.count(",") - 4)  # the columns after the marker
    with open_output(cfg.output) as fh:
        fh.write(header + "\n")
        for order in cfg.orders:
            basis = domains.make_basis(basis_code, order, dom)
            for scheme in cfg.schemes:
                label = f"{cfg.command} n={order} scheme={scheme}"
                _log(label)
                prefix = f"{order},{scheme},{basis_code},{cfg.domain}"
                try:
                    nodes = _resolve_nodes(cfg, scheme, order, cfg.seed)
                except (OSError, ZernkitError) as exc:
                    marker = (
                        "missing" if isinstance(exc, FileNotFoundError) else "invalid"
                    )
                    _log(f"{label}: {marker}: {type(exc).__name__}: {exc}")
                    fh.write(f"{prefix},{marker}{blanks}\n")
                    continue
                if dom is not None:
                    nodes = domains.transfer_nodes(
                        dom, nodes, inner_eps=_transfer_eps(cfg, basis_code)
                    )
                fh.write(measure(basis, nodes, prefix) + "\n")
    return 0


def cmd_condition_table(cfg):
    return _sweep(
        cfg,
        {"disk": "Z", "hexagon": "H", "ellipse": "E", "annulus": "O"},
        collocation.CONDITION_CSV_HEADER,
        lambda basis, nodes, prefix: collocation.condition_number(
            collocation.assemble(basis, nodes)
        ).csv_row(),
    )


def cmd_wavefront(cfg):
    for basis in cfg.bases:
        if basis not in ("K", "H"):
            raise ConfigError(f"wavefront bases are K and H, got {basis!r}")
    with open_output(cfg.output) as fh:  # before the sweep: fail fast
        cells = wavefront.run_experiment(
            cfg.orders,
            cfg.trials,
            schemes=cfg.schemes,
            bases=cfg.bases,
            master_seed=cfg.seed,
            strength=cfg.strength,
            node_seed=cfg.node_seed,
            progress=_log,
            node_provider=lambda scheme, order, seed: _resolve_nodes(
                cfg, scheme, order, seed
            ),
        )
        fh.write(wavefront.experiment_csv(cells))
    return 0


def cmd_lebesgue(cfg):
    return _sweep(
        cfg,
        {"disk": "Z", "hexagon": "K", "ellipse": "E", "annulus": "C"},
        _LEBESGUE_CSV_HEADER,
        lambda basis, nodes, prefix: (
            f"{prefix},{collocation.lebesgue_constant(nodes, basis):.6e}"
        ),
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zernkit",
        description="Interpolation nodes, transferred Zernike-like bases, "
        "conditioning tables, and segmented-aperture wavefront experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--output", default=None, help="output path or '-'")
        p.add_argument("--node-dir", dest="node_dir", default=None,
                       help=f"directory of node files (or ${NODE_DIR_ENV})")
        p.add_argument("--seed", type=int, default=None)

    def domain_flags(p):
        p.add_argument("--domain", default=None,
                       choices=["disk", "hexagon", "ellipse", "annulus"])
        p.add_argument("--A", dest="semi_major", type=float, default=None)
        p.add_argument("--B", dest="semi_minor", type=float, default=None)
        p.add_argument("--a", dest="inner", type=float, default=None)
        p.add_argument("--eps", type=float, default=None)

    p = sub.add_parser("nodes", help="emit one node set as a text file")
    common(p)
    p.add_argument("--scheme", required=True,
                   choices=GENERABLE_SCHEMES + FILE_SCHEMES)
    p.add_argument("--n", type=int, required=True)
    domain_flags(p)
    p.add_argument("--from-file", dest="from_file", default=None)
    p.add_argument("--mesh-density", dest="mesh_density", type=int, default=None)
    p.set_defaults(func=cmd_nodes)

    for command, help_text, func in (
        ("condition-table", "kappa_2 sweep as CSV", cmd_condition_table),
        ("lebesgue", "Lebesgue constant estimates as CSV", cmd_lebesgue),
    ):
        p = sub.add_parser(command, help=help_text)
        common(p)
        domain_flags(p)
        p.add_argument("--basis", default=None, choices=list("ZKHEOC"))
        p.add_argument("--schemes", type=parse_list, default=None)
        p.add_argument("--orders", type=parse_orders, default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("wavefront", help="zonal reconstruction error table")
    common(p)
    p.add_argument("--orders", type=parse_orders, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--schemes", type=parse_list, default=None)
    p.add_argument("--bases", type=parse_list, default=None)
    p.add_argument("--strength", type=float, default=None)
    p.add_argument("--node-seed", dest="node_seed", type=int, default=None)
    p.add_argument("--eps", type=float, default=None,
                   help="accepted for config-file compatibility; unused on "
                        "the hexagonal aperture")
    p.set_defaults(func=cmd_wavefront)

    return parser


_REQUIRED = {
    "condition-table": ("schemes", "orders"),
    "wavefront": ("schemes", "orders", "trials", "bases"),
    "lebesgue": ("schemes", "orders"),
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        merged = _merge(args, parser_keys=vars(args).keys())
        cfg = _coerce(merged)
        for key in _REQUIRED.get(cfg.command, ()):
            if getattr(cfg, key) is None:
                raise ConfigError(f"{cfg.command} requires --{key}")
        return args.func(cfg)
    except (ZernkitError, OSError, ValueError) as exc:
        print(f"zernkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
