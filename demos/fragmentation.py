"""Large-gamma fragmentation: two far-apart balls beat one ball.

For gamma large the repulsive Riesz term dominates and splitting the
unit mass into well-separated pieces lowers the energy: each piece
keeps its own self-energy (scaling like m_i^(2 - alpha/d) < m^(2 -
alpha/d) after splitting) while the cross term decays like 1/D^alpha.
This script compares the descended single-component candidate against
a descended two-ball configuration at gamma = 100 and cross-checks the
winner's Riesz energy against the Monte Carlo oracle.

The descended shapes at this gamma pinch down towards the lower radius
floor of the parametrization, where the Riesz quadrature converges
slowly in n; the cross-check therefore evaluates the energy on a
resolution ladder and removes a 1/n truncation by two-level
Richardson extrapolation before comparing with the MC estimate.

Run:  python3 demos/fragmentation.py [--n 32]
"""

import argparse

from isoshape.energy import total_energy
from isoshape.geometry import (Configuration, EnergyParams, StarShape,
                               make_grid, radial_at_directions)
from isoshape.optimize import OptimizerOptions, build_initial_config, minimize
from isoshape.oracle import mc_riesz


def resample(config, n):
    shapes = []
    for comp in config.components:
        grid = make_grid(comp.grid.d, n)
        shapes.append(StarShape(grid=grid, center=comp.center,
                                radii=radial_at_directions(comp, grid.nodes)))
    return Configuration(tuple(shapes))


def ladder_energy(config, params, levels=(96, 128, 192)):
    vals, per = [], None
    for n in levels:
        bd = total_energy(resample(config, n), params)
        vals.append(bd.riesz)
        per = bd.weighted_perimeter
    lo = vals[1] + (vals[1] - vals[0]) * (levels[0] / (levels[1] - levels[0]))
    hi = vals[2] + (vals[2] - vals[1]) * (levels[1] / (levels[2] - levels[1]))
    return per, hi, abs(hi - lo)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=32, help="descent grid size")
    args = ap.parse_args(argv)

    params = EnergyParams(d=2, p=2.0, alpha=1.0, gamma=100.0)
    grid = make_grid(2, args.n)
    opts = OptimizerOptions(max_iter=1500)

    results = {}
    for label, init_spec in (("single ball", ("ball",)),
                             ("two balls", ("multiball", 2, 2.5))):
        init = build_initial_config(params, grid, init_spec)
        config, rec = minimize(init, params, opts)
        results[label] = config
        print(f"{label}: descended energy {rec.energy:.4f}"
              f"  (perimeter {rec.perimeter:.4f}, riesz {rec.riesz:.6f},"
              f" converged={rec.converged})")

    print("\nrefined comparison (1/n-extrapolated quadrature vs MC oracle)")
    totals = {}
    for i, (label, config) in enumerate(results.items()):
        per, riesz, spread = ladder_energy(config, params)
        obj = config if config.n_components > 1 else config.components[0]
        est, se = mc_riesz(obj, None, params.alpha, 1_000_000, seed=100 + i)
        totals[label] = per + params.gamma * riesz
        print(f"{label}: E = {totals[label]:.4f}"
              f"  riesz quad {riesz:.6f} (+- {spread:.1e} extrapolation)"
              f"  vs MC {est:.6f} (+- {se:.1e})")
    gap = totals["single ball"] - totals["two balls"]
    print(f"\nfragmentation lowers the energy by {gap:.2f}")


if __name__ == "__main__":
    main()
