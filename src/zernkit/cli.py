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
import io
import os
import sys
from contextlib import contextmanager

from . import collocation, domains, samplings, wavefront
from .errors import ConfigError, ZernkitError

NODE_DIR_ENV = "ZERNKIT_NODE_DIR"

GENERABLE_SCHEMES = tuple(str(scheme) for scheme in samplings.GENERATORS)
FILE_SCHEMES = ("lebesgue", "fekete")

_LEBESGUE_CSV_HEADER = "n,scheme,basis,domain,lebesgue"


def parse_orders(text):
    """'2..20' -> range, '7' -> single order."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ConfigError(f"empty order range {text!r}")
        return tuple(range(lo, hi + 1))
    return (int(text),)


def _name(kind, allowed):
    """Flag type: one name from ``allowed``.  argparse also applies a type
    to string defaults, so a config file's value is checked too."""

    def parse(text):
        name = text.strip()
        if name not in allowed:
            raise ConfigError(
                f"unknown {kind} {name!r}; choose from {', '.join(allowed)}"
            )
        return name

    return parse


def _names(kind, allowed):
    """Flag type: a comma-separated list of names, each one of ``allowed``."""
    one = _name(kind, allowed)
    return lambda text: tuple(one(s) for s in text.split(",") if s.strip())


def read_config_file(path, allowed):
    """Key=value file; '#' comments; unknown keys are rejected."""
    values = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not ASCII text: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
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


@contextmanager
def open_output(path):
    """A buffer whose text goes to ``path`` (standard output for "-") only
    if the block ends without an error, so a hard error keeps a previous
    result.  The file is opened before the block, without truncating it,
    so a path that cannot be written fails before any work."""
    buffer = io.StringIO()
    if path == "-":
        yield buffer
        sys.stdout.write(buffer.getvalue())
        return
    with open(path, "a", encoding="ascii", newline="\n") as fh:
        yield buffer
        fh.truncate(0)
        fh.write(buffer.getvalue())


def _log(message):
    print(message, file=sys.stderr, flush=True)


def _resolve_nodes(node_dir, scheme, order, seed, from_file=None, mesh_density=None):
    """Disk NodeSet for a scheme name; file-based schemes hit the node dir."""
    if scheme in FILE_SCHEMES:
        if from_file:
            return samplings.load_nodes(from_file, order)
        directory = node_dir or os.environ.get(NODE_DIR_ENV)
        if not directory:
            raise FileNotFoundError(
                f"scheme {scheme!r} needs --from-file or a node directory "
                f"(--node-dir or ${NODE_DIR_ENV})"
            )
        return samplings.load_nodes(
            os.path.join(directory, f"{scheme}_n{order}.txt"), order
        )
    if scheme == "approx-fekete" and mesh_density:
        return samplings.approximate_fekete(order, mesh_density)
    return samplings.generate_nodes(scheme, order, seed)


def _domain_map(cfg):
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
    with open_output(cfg.output) as fh:
        nodes = _resolve_nodes(
            cfg.node_dir, cfg.scheme, cfg.n, cfg.seed, cfg.from_file,
            cfg.mesh_density,
        )
        eps = cfg.eps if cfg.domain == "annulus" else None
        nodes = domains.transfer_nodes(_domain_map(cfg), nodes, inner_eps=eps)
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
    standard error."""
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
                    nodes = _resolve_nodes(cfg.node_dir, scheme, order, cfg.seed)
                except (OSError, ZernkitError) as exc:
                    marker = (
                        "missing" if isinstance(exc, FileNotFoundError) else "invalid"
                    )
                    _log(f"{label}: {marker}: {type(exc).__name__}: {exc}")
                    fh.write(f"{prefix},{marker}{blanks}\n")
                    continue
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
    with open_output(cfg.output) as fh:
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
                cfg.node_dir, scheme, order, seed
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
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="zernkit",
        description="Interpolation nodes, transferred Zernike-like bases, "
        "conditioning tables, and segmented-aperture wavefront experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    all_schemes = GENERABLE_SCHEMES + FILE_SCHEMES
    schemes = _names("scheme", all_schemes)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--output", default="-", help="output path or '-'")
        p.add_argument("--node-dir", dest="node_dir",
                       help=f"directory of node files (or ${NODE_DIR_ENV})")
        p.add_argument("--seed", type=int, default=0)

    def domain_flags(p):
        kinds = tuple(m.kind for m in domains.MAPS)
        p.add_argument("--domain", default="disk", type=_name("domain", kinds),
                       help=f"one of {', '.join(kinds)}")
        p.add_argument("--A", dest="semi_major", type=float, default=2.0)
        p.add_argument("--B", dest="semi_minor", type=float, default=1.0)
        p.add_argument("--a", dest="inner", type=float, default=0.5)
        p.add_argument("--eps", type=float, default=0.01)

    p = sub.add_parser("nodes", help="emit one node set as a text file")
    common(p)
    p.add_argument("--scheme", type=_name("scheme", all_schemes),
                   help=f"required; one of {', '.join(all_schemes)}")
    p.add_argument("--n", type=int, help="required; the order")
    domain_flags(p)
    p.add_argument("--from-file", dest="from_file")
    p.add_argument("--mesh-density", dest="mesh_density", type=int)
    p.set_defaults(func=cmd_nodes)

    for command, help_text, func in (
        ("condition-table", "kappa_2 sweep as CSV", cmd_condition_table),
        ("lebesgue", "Lebesgue constant estimates as CSV", cmd_lebesgue),
    ):
        p = sub.add_parser(command, help=help_text)
        common(p)
        domain_flags(p)
        families = tuple(domains.BASIS_DOMAINS)
        p.add_argument("--basis", type=_name("basis", families),
                       help=f"one of {', '.join(families)}; default by domain")
        p.add_argument("--schemes", type=schemes)
        p.add_argument("--orders", type=parse_orders)
        p.set_defaults(func=func)

    p = sub.add_parser("wavefront", help="zonal reconstruction error table")
    common(p)
    p.add_argument("--orders", type=parse_orders)
    p.add_argument("--trials", type=int)
    p.add_argument("--schemes", type=schemes)
    p.add_argument("--bases", type=_names("wavefront basis", ("K", "H")))
    p.add_argument("--strength", type=float, default=1.0)
    p.add_argument("--node-seed", dest="node_seed", type=int, default=0)
    p.add_argument("--eps", type=float,
                   help="accepted for config-file compatibility; unused on "
                        "the hexagonal aperture")
    p.set_defaults(func=cmd_wavefront)

    return parser, sub.choices


_REQUIRED = {
    "nodes": ("scheme", "n"),
    "condition-table": ("schemes", "orders"),
    "wavefront": ("schemes", "orders", "trials", "bases"),
    "lebesgue": ("schemes", "orders"),
}


def main(argv=None):
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's strings become the command's defaults, so flags win
            # and each value is parsed by its own flag's type
            allowed = vars(args).keys() - {"config", "command", "func"}
            commands[args.command].set_defaults(
                **read_config_file(args.config, allowed)
            )
            args = parser.parse_args(argv)
        for key in _REQUIRED.get(args.command, ()):
            if getattr(args, key) is None:
                raise ConfigError(f"{args.command} requires --{key}")
        return args.func(args)
    except (ZernkitError, OSError, ValueError) as exc:
        print(f"zernkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
