"""Sweep the minimal energy e(gamma) over a logarithmic gamma grid.

The map gamma -> e(gamma) = min E_gamma is concave and nondecreasing
(it is an infimum of affine functions of gamma), which makes the sweep
a cheap global sanity check of the optimizer: any dent in the curve
means some gamma point stopped short of its minimum.  The sweep runs
the gammas in increasing order: at each one a fresh minimization, then
a warm start from the previous gamma's minimizer, keeping the
lower-energy candidate.

Artifacts (CSV table + SVG chart with log-gamma axis) are written next
to this script under demos/out/.

Run:  python3 demos/gamma_sweep.py [--n 48] [--points 9]
"""

import argparse
import pathlib

import numpy as np

from isoshape.cli import records_to_csv, sweep_svg
from isoshape.geometry import EnergyParams, make_grid
from isoshape.optimize import OptimizerOptions, sweep_gamma


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=48, help="grid size")
    ap.add_argument("--points", type=int, default=9, help="gamma points")
    args = ap.parse_args(argv)

    gammas = np.logspace(-3.0, 2.0, args.points)
    params = EnergyParams(d=2, p=1.5, alpha=1.0)
    grid = make_grid(2, args.n)
    opts = OptimizerOptions(max_iter=800)
    records = sweep_gamma(gammas.tolist(), params, grid, opts)

    print(f"{'gamma':>12} {'energy':>16} {'perimeter':>14} {'riesz':>14}"
          f" {'asph':>10} {'conv':>5}")
    for r in records:
        print(f"{r.gamma:>12.5g} {r.energy:>16.10f} {r.perimeter:>14.8f}"
              f" {r.riesz:>14.8f} {r.asphericity:>10.3e}"
              f" {str(r.converged):>5}")

    e = np.array([r.energy for r in records])
    g = np.array([r.gamma for r in records])
    mono = bool(np.all(np.diff(e) >= -1e-9 * np.abs(e[:-1])))
    # concavity in gamma: every interior point at or above its chord
    t = (g[1:-1] - g[:-2]) / (g[2:] - g[:-2])
    chords = (1.0 - t) * e[:-2] + t * e[2:]
    conc = bool(np.all(e[1:-1] - chords >= -1e-8 * np.abs(e[1:-1])))
    print(f"\nmonotone nondecreasing: {mono}   concave in gamma: {conc}")

    out = pathlib.Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    (out / "sweep.csv").write_text(records_to_csv(records))
    (out / "sweep.svg").write_text(sweep_svg(records))
    print(f"wrote {out / 'sweep.csv'} and {out / 'sweep.svg'}")


if __name__ == "__main__":
    main()
