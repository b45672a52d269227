#!/usr/bin/env python3
"""Mean zonal-reconstruction error over the 36-hexagon aperture.

Produces the two error-versus-order curves: the stable schemes with both
hexagon bases, and the unstable spiral/random baselines with the weighted
basis.  The wall time and peak RSS of a run at the default settings
(orders 2..20, 100 trials, 95 cells) are given in the README, under
"Wavefront experiments".
"""

import argparse
import pathlib
import sys

from zernkit.cli import main as zernkit_main


def run(out_dir, orders="2..20", trials=100, seed=7, node_dir=None):
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    extra = ["--node-dir", node_dir] if node_dir else []
    stable = "ocs" + (",lebesgue" if node_dir else "")
    jobs = [
        ("wavefront_stable.csv", stable, "K,H"),
        ("wavefront_unstable.csv", "ocs,spiral,random", "H"),
    ]
    for name, schemes, bases in jobs:
        target = out_dir / name
        code = zernkit_main(
            ["wavefront", "--orders", orders, "--trials", str(trials),
             "--schemes", schemes, "--bases", bases, "--seed", str(seed),
             "--output", str(target)] + extra
        )
        if code != 0:
            return code
        print(f"wrote {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--orders", default="2..20")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--node-dir", default=None)
    ns = parser.parse_args()
    raise SystemExit(run(ns.out_dir, ns.orders, ns.trials, ns.seed, ns.node_dir))
