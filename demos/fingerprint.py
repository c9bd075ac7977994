"""Print bit-identity fingerprints of descents, Riesz values and oracles.

A change that should leave every reported number as it was can run this
script against its own source tree and against a copy of its parent's,
and diff the two outputs:

    git archive <parent> | tar -x -C /tmp/parent
    PYTHONPATH=src python3 demos/fingerprint.py > new.txt
    PYTHONPATH=/tmp/parent/src python3 demos/fingerprint.py > old.txt
    diff old.txt new.txt

One line per fingerprint:

- minimize: iterations, converged, repr(energy), repr(asphericity) and
  the sha256 of the final radii and centers, for d=2 and d=3 descents in
  the boundary form, the volume form, a two-ball start and a pinching
  fragmentation run;
- asphericity and the sha256 of the ray cast of off-center random stars
  at d=2 n=64 and d=3 n=12, and of a wave whose spline overshoots its
  nodal maximum at n in {64, 256}: all of their rays start from the
  full bracket; and of near-round shapes (d=2 n=20 and d=3 n=12,
  |c| = 1e-5, a 1e-3 ripple of mode 2), whose rays start from the
  bracket around the estimated crossing;
- the sha256 of the CSV and of the SVG chart of a warm-started 3-gamma
  sweep, and of a ``deficit_report`` table;
- the sha256 of a ``save_configuration`` -> ``load_configuration``
  round trip of each descent's final configuration: the file text and
  the reloaded radii and centers;
- Riesz values (riesz_self with its error bar, interaction, potential)
  in both forms, and riesz_self at d=2 n=20 and n=25, whose coarse
  levels are every other node and the trigonometric interpolant;
- total_energy (total, Riesz error bar) of a two-component
  configuration in both forms;
- the p = 0 weighted perimeter and the sha256 of its gradient on
  off-center random stars at d=2 and d=3 and on a d=2 disk with a node
  on the origin;
- the Fuglede quantities (perimeter_deficit, i1_i2_split, riesz_deficit
  with its error bar, stability_ratio) of one mode and one
  random_perturbation field;
- mc_riesz (estimate, standard error) on balls, random stars, a
  two-disk configuration and a wavy disk whose spline peaks between the
  directions of a 4096-point scan; on strongly non-round stars at d=2
  n=64 and d=3 n=12 (long retry passes), a d=3 star-and-ball
  configuration and 2^20 + 5 samples (a 5-sample last chunk), the cases
  of the test's MC_FROZEN_PATHS; interpolated_volume and mc_riesz on
  d=3 random stars at n in {8, 16, 24}; the sha256 of a rasterized mask
  and its raster_measures (mc_riesz samples no raster); and the reports
  of the oracle corpora, run_rel_isop with and without star blobs;
- the sha256 of rasterize masks of stars drawn as run_raster_agreement
  and run_rel_isop draw them, at their pixel sizes, and of a
  two-component configuration;
- lattice_riesz (value, bar) of a unit-area disk raster at alpha in
  {0.5, 1, 1.5}, or a note that the tree has no lattice_riesz.

Floats are printed as repr(float(x)), so a value that changes only its
numpy scalar type prints the same.  Takes 10-15 s on 2 CPUs.

Run:  PYTHONPATH=src python3 demos/fingerprint.py
"""

import hashlib
import json
import os
import tempfile

import numpy as np

import isoshape.oracle as oracle_module
from isoshape.cli import sweep_svg

from isoshape.energy import (
    interaction,
    perimeter_gradient,
    potential,
    riesz_self,
    total_energy,
    weighted_perimeter,
)
from isoshape.fuglede import (
    deficit_report,
    i1_i2_split,
    mode_perturbation,
    perimeter_deficit,
    random_perturbation,
    report_to_csv,
    riesz_deficit,
    stability_ratio,
)
from isoshape.geometry import (
    Configuration,
    EnergyParams,
    StarShape,
    dilate,
    interpolated_volume,
    load_configuration,
    make_ball,
    make_grid,
    ray_radius,
    save_configuration,
)
from isoshape.optimize import (
    OptimizerOptions,
    asphericity,
    build_initial_config,
    minimize,
    records_to_csv,
    sweep_gamma,
)
from isoshape.oracle import (
    mc_riesz,
    random_star,
    raster_measures,
    rasterize,
    run_en_lower_bound,
    run_raster_agreement,
    run_rel_isop,
    run_v_lipschitz,
)

# (d, n, alpha, gamma, init) of each descent; p = 2 throughout
DESCENTS = (
    (2, 20, 1.0, 0.01, ("perturbed-ball", 0.2, 3)),
    (2, 20, 1.75, 0.01, ("perturbed-ball", 0.2, 3)),
    (2, 32, 1.75, 0.5, ("perturbed-ball", 0.1, 3)),
    (2, 32, 1.0, 100.0, ("multiball", 2, 2.5)),
    (2, 24, 1.6, 30.0, ("perturbed-ball", 0.2, 2)),
    (3, 8, 2.5, 0.5, ("perturbed-ball", 0.2, 2)),
    (3, 12, 1.0, 0.1, ("perturbed-ball", 0.2, 2)),
)
SWEEP = dict(gammas=(0.1, 1.0, 10.0), n=20, init=("perturbed-ball", 0.2, 3))
DEFICIT = dict(n=64, modes=(2, 3, 4), epsilons=(0.1,), R=1.0, p=2.0,
               alpha=1.0, gamma=1.0)
# (d, n, alpha, sampling seed) of the Monte Carlo ball cells; the balls'
# radii and centers are drawn from default_rng(MC_RNG_SEED)
MC_CELLS = ((2, 64, 0.5, 101), (3, 12, 0.5, 102), (3, 12, 1.0, 103))
MC_RNG_SEED = 11
MC_SAMPLES = 1_000_000


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def text_sha(s: str) -> str:
    return hashlib.sha256(s.encode()).hexdigest()[:16]


def f(x) -> str:
    return repr(float(x))


def descents():
    for d, n, alpha, gamma, init in DESCENTS:
        params = EnergyParams(d=d, p=2.0, alpha=alpha, gamma=gamma)
        start = build_initial_config(params, make_grid(d, n), init)
        config, rec = minimize(start, params)
        shapes = config.components
        print(f"minimize d={d} n={n} alpha={alpha:g} gamma={gamma:g} "
              f"init={init}: it={rec.iterations} conv={rec.converged} "
              f"E={f(rec.energy)} asph={f(rec.asphericity)} "
              f"shape={sha(*[s.radii for s in shapes], *[s.center for s in shapes])}")
        print(f"shape file d={d} n={n} alpha={alpha:g} gamma={gamma:g}: "
              f"{round_trip(config)}")


def round_trip(config) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "shape.json")
        save_configuration(path, config)
        with open(path) as fh:
            text = fh.read()
        shapes = load_configuration(path).components
    return (f"{text_sha(text)} "
            f"{sha(*[s.radii for s in shapes], *[s.center for s in shapes])}")


def ray_casts():
    rng = np.random.default_rng(12)
    for d, n in ((2, 64), (3, 12)):
        for _ in range(2):
            star = random_star(rng, n=n, d=d, amp=0.2, center_scale=0.3)
            print(f"asphericity off-center star d={d} n={n}: "
                  f"{f(asphericity(star))} rays={sha(ray_radius(star))}")
    # the spline of r = 1 + 0.2 cos(k theta + 0.3), k = n/4, overshoots
    # the nodal maximum, so some rays end beyond the nodal bracket
    for n in (64, 256):
        g = make_grid(2, n)
        wave = StarShape(grid=g, center=np.array([0.0, 1e-3]),
                         radii=1.0 + 0.2 * np.cos(n // 4 * g.theta + 0.3))
        print(f"asphericity wave n={n} k={n // 4}: {f(asphericity(wave))} "
              f"rays={sha(ray_radius(wave))}")
    out = []
    for d, n in ((2, 20), (3, 12)):
        g = make_grid(d, n)
        x = g.nodes
        mode = x[:, 0] ** 2 - x[:, 1] ** 2 if d == 2 else 1.5 * x[:, 2] ** 2 - 0.5
        near = StarShape(grid=g, center=np.full(d, 1e-5 / np.sqrt(d)),
                         radii=1.0 + 1e-3 * mode)
        out.append(f"{f(asphericity(near))} rays={sha(ray_radius(near))}")
    print(f"asphericity near-round d=2 n=20, d=3 n=12: {'; '.join(out)}")


def tables():
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    rows = sweep_gamma(SWEEP["gammas"], params, make_grid(2, SWEEP["n"]),
                       OptimizerOptions(init=SWEEP["init"]))
    print(f"sweep csv {text_sha(records_to_csv(rows))}")
    print(f"sweep svg {text_sha(sweep_svg(rows))}")
    dr = deficit_report(make_grid(2, DEFICIT["n"]), DEFICIT["modes"],
                        DEFICIT["epsilons"], DEFICIT["R"], DEFICIT["p"],
                        DEFICIT["alpha"], DEFICIT["gamma"])
    print(f"deficit csv {text_sha(report_to_csv(dr))}")


def riesz_values():
    rng = np.random.default_rng(5)
    for d, n in ((2, 48), (3, 12)):
        star = random_star(rng, n=n, d=d, amp=0.1, kmax=3)
        far = make_ball(0.3, np.full(d, 3.0), make_grid(d, n))
        for alpha in (0.5, 1.0, 1.5, 1.75):
            params = EnergyParams(d=d, p=2.0, alpha=alpha)
            rs = riesz_self(star, params)
            print(f"riesz d={d} n={n} alpha={alpha:g}: self=({f(rs.value)}, "
                  f"{f(rs.error)}) cross={f(interaction(star, far, params))} "
                  f"potential={f(potential(star, np.full(d, 0.1), params))}")
    rng = np.random.default_rng(6)
    for n in (20, 25):
        star = random_star(rng, n=n, d=2, amp=0.1, kmax=3)
        for alpha in (0.5, 1.0, 1.5):
            rs = riesz_self(star, EnergyParams(d=2, p=2.0, alpha=alpha))
            print(f"riesz_self d=2 n={n} alpha={alpha:g}: "
                  f"({f(rs.value)}, {f(rs.error)})")
    g = make_grid(2, 32)
    pair = Configuration((random_star(np.random.default_rng(8), n=32, d=2,
                                      amp=0.1, kmax=3),
                          make_ball(0.3, np.array([2.0, 0.5]), g)))
    for alpha in (1.0, 1.75):
        bd = total_energy(pair, EnergyParams(d=2, p=2.0, alpha=alpha,
                                             gamma=1.0))
        print(f"total_energy two components d=2 n=32 alpha={alpha:g}: "
              f"({f(bd.total)}, {f(bd.riesz_error_estimate)})")


def perimeters():
    rng = np.random.default_rng(14)
    shapes = (random_star(rng, n=32, d=2, amp=0.2, center_scale=0.3),
              random_star(rng, n=8, d=3, amp=0.2, center_scale=0.3),
              # the node at theta = 0 is the origin
              make_ball(0.5, np.array([-0.5, 0.0]), make_grid(2, 32)))
    out = []
    for shape in shapes:
        params = EnergyParams(d=shape.grid.d, p=0.0, alpha=1.0)
        out.append(f"{f(weighted_perimeter(shape, params))} "
                   f"{sha(*perimeter_gradient(shape, params))}")
    print(f"perimeter p=0 d=2, d=3, d=2 node on the origin: {'; '.join(out)}")


def fuglede_values():
    g = make_grid(2, 64)
    mode = mode_perturbation(g, 0.1, 3, R=1.3, p=1.5)
    field = random_perturbation(g, np.random.default_rng(9))
    for name, pert in (("mode k=3 R=1.3 p=1.5", mode), ("random", field)):
        i1, i2 = i1_i2_split(pert)
        rd = riesz_deficit(pert, alpha=1.0)
        print(f"fuglede {name}: per={f(perimeter_deficit(pert))} "
              f"i1={f(i1)} i2={f(i2)} riesz=({f(rd.value)}, {f(rd.error)}) "
              f"ratio={f(stability_ratio(pert, alpha=1.0, gamma=1.0))}")


def oracles():
    rng = np.random.default_rng(MC_RNG_SEED)
    for d, n, alpha, seed in MC_CELLS:
        R = float(rng.uniform(0.8, 1.25))
        ball = make_ball(R, rng.uniform(-0.25, 0.25, d), make_grid(d, n))
        est, se = mc_riesz(ball, None, alpha, MC_SAMPLES, seed)
        print(f"mc_riesz ball d={d} n={n} alpha={alpha:g}: {f(est)} {f(se)}")
    star_rng = np.random.default_rng(7)
    stars = {2: random_star(star_rng, n=64, d=2),
             3: random_star(star_rng, n=12, d=3)}
    for d, star in stars.items():
        est, se = mc_riesz(star, None, 0.5, MC_SAMPLES, 200 + d)
        print(f"mc_riesz star d={d}: {f(est)} {f(se)}")
    g2 = make_grid(2, 64)
    pair = Configuration((make_ball(0.25, np.zeros(2), g2),
                          make_ball(0.25, np.array([1.0, 0.2]), g2)))
    est, se = mc_riesz(pair, None, 0.5, MC_SAMPLES, 8)
    print(f"mc_riesz two disks: {f(est)} {f(se)}")
    # r = 1 + 0.2 cos(16 theta + 0.3) at n=64 overshoots a 4096-point scan
    # of its spline by more than the scan's 1e-5 padding
    g64 = make_grid(2, 64)
    wavy = StarShape(grid=g64, center=np.zeros(2),
                     radii=1.0 + 0.2 * np.cos(16 * g64.theta + 0.3))
    est, se = mc_riesz(wavy, None, 0.5, MC_SAMPLES, 9)
    print(f"mc_riesz wavy disk n=64 k=16: {f(est)} {f(se)}")
    for d, n, alpha, star_seed, seed in ((2, 64, 0.5, 31, 10),
                                         (3, 12, 1.0, 32, 11)):
        star = random_star(np.random.default_rng(star_seed), n=n, d=d,
                           amp=0.3)
        est, se = mc_riesz(star, None, alpha, MC_SAMPLES, seed)
        print(f"mc_riesz star d={d} n={n} amp=0.3: {f(est)} {f(se)}")
    g3 = make_grid(3, 12)
    mixed = Configuration((
        random_star(np.random.default_rng(33), n=12, d=3, amp=0.3),
        make_ball(0.3, np.array([1.5, 0.0, 0.1]), g3)))
    est, se = mc_riesz(mixed, None, 1.0, MC_SAMPLES, 12)
    print(f"mc_riesz star and ball d=3: {f(est)} {f(se)}")
    est, se = mc_riesz(make_ball(1.0, np.array([0.1, -0.05]), g64), None,
                       0.5, 2 ** 20 + 5, 13)
    print(f"mc_riesz disk 2^20+5 samples: {f(est)} {f(se)}")
    for n in (8, 16, 24):
        star = random_star(np.random.default_rng(300 + n), n=n, d=3,
                           amp=0.2, kmax=4)
        est, se = mc_riesz(star, None, 1.0, MC_SAMPLES, 300 + n)
        print(f"star d=3 n={n}: interpolated_volume="
              f"{f(interpolated_volume(star))} mc_riesz {f(est)} {f(se)}")
    rs = rasterize(stars[2], 1.0 / 128)
    print(f"rasterize star d=2 mask {sha(rs.mask)} measures p=2 "
          f"{' '.join(f(x) for x in raster_measures(rs, 2.0))}")
    for name, run, kw in (("run_raster_agreement", run_raster_agreement,
                           {"seed": 0, "trials": 4}),
                          ("run_v_lipschitz", run_v_lipschitz,
                           {"seed": 0, "trials": 2}),
                          ("run_rel_isop", run_rel_isop,
                           {"seed": 0, "blobs": 0}),
                          ("run_rel_isop", run_rel_isop,
                           {"seed": 0, "blobs": 3}),
                          ("run_en_lower_bound", run_en_lower_bound, {})):
        print(f"{name} {json.dumps(run(**kw), sort_keys=True)}")


def rasters():
    rng = np.random.default_rng(0)
    shas = [sha(rasterize(random_star(rng, n=96, d=2, amp=0.08, kmax=3),
                          1.0 / 512).mask) for _ in range(4)]
    print(f"rasterize raster_agreement stars h=1/512: {' '.join(shas)}")
    rng = np.random.default_rng(1)
    for j in (0, 2):
        r_in = 2.0 ** j
        shas = []
        for _ in range(3):
            star = random_star(rng, n=64, d=2, amp=0.25, kmax=5,
                               center_scale=0.3, normalize=False)
            star = dilate(star, rng.uniform(1.0, 2.4) * r_in
                          / float(star.radii.mean()))
            shas.append(sha(rasterize(star, r_in / 192).mask))
        print(f"rasterize rel_isop blobs j={j}: {' '.join(shas)}")
    g = make_grid(2, 64)
    pair = Configuration((random_star(rng, n=64, d=2, amp=0.25),
                          make_ball(0.4, np.array([3.0, 0.5]), g)))
    print(f"rasterize two components h=1/256: "
          f"{sha(rasterize(pair, 1.0 / 256).mask)}")
    lattice = getattr(oracle_module, "lattice_riesz", None)
    disk = rasterize(make_ball(np.pi ** -0.5, np.zeros(2), make_grid(2, 128)),
                     1.0 / 256)
    for alpha in (0.5, 1.0, 1.5):
        if lattice is None:
            print(f"lattice_riesz disk h=1/256 alpha={alpha:g}: not in this tree")
            continue
        value, bar = lattice(disk, alpha)
        print(f"lattice_riesz disk h=1/256 alpha={alpha:g}: {f(value)} {f(bar)}")


if __name__ == "__main__":
    descents()
    ray_casts()
    tables()
    riesz_values()
    perimeters()
    fuglede_values()
    oracles()
    rasters()
