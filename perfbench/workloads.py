"""The four benchmark workloads.

Each workload has a ``setup(seed, outdir)`` that builds every input (grids,
starting shapes, parameters) and a ``unit(inputs)`` that runs the fixed
set of solves or evaluations once, times each one and checks its output.
The seed only moves or rescales inputs in ways that leave the amount of
work unchanged, so times from different seeds are comparable, and
the accuracy numbers repeat exactly for a fixed seed.

All isoshape calls go through module attributes at call time
(``O.minimize``, not ``from ... import minimize``) so that the traced run
sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import isoshape.cli as C
import isoshape.energy as E
import isoshape.fuglede as F
import isoshape.geometry as G
import isoshape.optimize as O
import isoshape.oracle as OR

import reference as ref

# Gates, each counted per operation in fail_frac.
ASPHERICITY_MAX = 1e-3   # criterion 5: the start descends to the ball
MC_Z_MAX = 3.0           # Monte Carlo estimate within 3 sigma of exact


def cpu_clock() -> float:
    """CPU seconds used so far by the program's own threads: the process's
    CPU time minus that of the live threads Python did not start, which
    are the thread pools of the BLAS libraries.  At these sizes a pool
    thread mostly spins while it waits for work (README.md, cpu_s)."""
    ours = {t.native_id for t in threading.enumerate()}
    pools = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) in ours:
            continue
        try:
            with open(f"/proc/self/task/{tid}/schedstat") as fh:
                pools += int(fh.read().split()[0])   # run time, ns
        except FileNotFoundError:   # the thread has just ended
            pass
    return time.process_time() - pools * 1e-9


@dataclass
class Outcome:
    """Operations attempted and failed in one unit, plus its accuracy."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)   # operation -> wall time
    cpu: dict = field(default_factory=dict)       # operation -> CPU time

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")
        return ok

    def call(self, label: str, fn, *args, **kwargs):
        """Run and time one operation; an exception counts as its failure.
        The CPU time is that of ``cpu_clock``."""
        t0 = time.perf_counter()
        c0 = cpu_clock()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark must finish and report
            self.check(label, False, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.seconds[label] = time.perf_counter() - t0
            self.cpu[label] = cpu_clock() - c0


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _check_descent(out: Outcome, label: str, rec, exact: float | None):
    """Gate a minimize record: finite energy, and where the minimizer is
    the ball (an exact energy is given), the criterion-5 shape gate."""
    if exact is None:
        out.check(label, _finite(rec.energy), f"energy {rec.energy}")
        return
    out.check(label, _finite(rec.energy) and rec.asphericity <= ASPHERICITY_MAX,
              f"energy {rec.energy}, asphericity {rec.asphericity:.3e}")
    if _finite(rec.energy):
        err = abs(rec.energy - exact)
        acc = out.accuracy
        acc["energy_err_max"] = max(acc.get("energy_err_max", 0.0), err)
        acc["ref_relerr_max"] = max(acc.get("ref_relerr_max", 0.0), err / exact)


def _converged(out: Outcome, records):
    out.counts["converged"] = sum(r.converged for r in records)
    out.counts["descents"] = len(records)


# ----------------------------------------------------------------------
# descent-d2: criterion-5 starts plus a warm-started gamma sweep
# ----------------------------------------------------------------------

D2_N = 20
D2_MODES = (2, 3, 4, 5, 6)
EPS = 0.2
D2_GAMMA = 0.01
D2_SWEEP = (0.1, 1.0, 10.0)
# The starts and the sweep share a grid small enough that one unit fits
# about eight times into a run.  At n=20, as at n=32, the gamma=10 sweep
# row ends with converged=False (at n=24 and n=28 all three rows
# converge).
D2_SWEEP_N = 20


def setup_descent_d2(seed: int, outdir: Path) -> dict:
    # The starts do not depend on the seed.  Rotating one by whole grid
    # steps is a symmetry of the discrete problem, but roundoff then moves
    # the line search onto another path: at n=28, over six rotations the
    # five starts took 156 to 193 iterations in total, so times from
    # different seeds would not be comparable.
    grid = G.make_grid(2, D2_N)
    params = G.EnergyParams(d=2, p=2.0, alpha=1.0, gamma=D2_GAMMA)
    inits = [O.build_initial_config(params, grid, ("perturbed-ball", EPS, k))
             for k in D2_MODES]
    return {"params": params, "inits": inits,
            "exact": ref.ball_energy(2, 2.0, 1.0, D2_GAMMA),
            "sweep_grid": G.make_grid(2, D2_SWEEP_N),
            "sweep_params": G.EnergyParams(d=2, p=2.0, alpha=1.0),
            "sweep_opts": O.OptimizerOptions(init=("perturbed-ball", EPS, 3))}


def unit_descent_d2(inp: dict) -> Outcome:
    out = Outcome()
    records = []
    for k, init in zip(D2_MODES, inp["inits"]):
        label = f"minimize mode {k}"
        res = out.call(label, O.minimize, init, inp["params"])
        if res is not None:
            _check_descent(out, label, res[1], inp["exact"])
            records.append(res[1])
    rows = out.call("sweep", O.sweep_gamma, D2_SWEEP, inp["sweep_params"],
                    inp["sweep_grid"], inp["sweep_opts"]) or []
    for rec in rows:
        # sweeps turn failures into inf rows instead of raising
        _check_descent(out, f"sweep gamma={rec.gamma:g}", rec, None)
    _converged(out, records + list(rows))
    return out


# ----------------------------------------------------------------------
# descent-d3: the same layers at d=3, where the dense H1 solve shows
# ----------------------------------------------------------------------

D3_RUNS = ((12, 0.1), (20, 0.0))   # (n, gamma), mode-2 perturbed ball


def setup_descent_d3(seed: int, outdir: Path) -> dict:
    # The mode-2 start is axisymmetric, so it has no free orientation the
    # seed could vary; the inputs are the same for every seed.
    runs = []
    for n, gamma in D3_RUNS:
        params = G.EnergyParams(d=3, p=2.0, alpha=1.0, gamma=gamma)
        grid = G.make_grid(3, n)
        init = O.build_initial_config(params, grid, ("perturbed-ball", EPS, 2))
        runs.append((n, params, init, ref.ball_energy(3, 2.0, 1.0, gamma)))
    return {"runs": runs}


def unit_descent_d3(inp: dict) -> Outcome:
    out = Outcome()
    records = []
    for n, params, init, exact in inp["runs"]:
        label = f"minimize d=3 n={n} gamma={params.gamma:g}"
        res = out.call(label, O.minimize, init, params)
        if res is not None:
            _check_descent(out, label, res[1], exact)
            records.append(res[1])
    _converged(out, records)
    return out


# ----------------------------------------------------------------------
# evaluate: value-only Riesz path against exact constants, no descent
# ----------------------------------------------------------------------

EVAL_CELLS = ((2, 48), (2, 64), (3, 12), (3, 16))
EVAL_ALPHAS = (0.5, 1.0, 1.5)
EVAL_TWO_DISK_N = 48
EVAL_DEFICIT = dict(n=48, modes=(2, 3), epsilons=(0.1,))
EVAL_CLI_N = 64


def setup_evaluate(seed: int, outdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    balls = []
    for d, n in EVAL_CELLS:
        R = float(rng.uniform(0.8, 1.25))
        center = rng.uniform(-0.25, 0.25, d)
        balls.append((d, n, R, G.make_ball(R, center, G.make_grid(d, n))))
    r_disk = math.sqrt(0.5 / math.pi)
    sep = float(rng.uniform(2.0, 3.0)) * r_disk
    g2 = G.make_grid(2, EVAL_TWO_DISK_N)
    disks = G.Configuration((G.make_ball(r_disk, np.array([-sep, 0.0]), g2),
                             G.make_ball(r_disk, np.array([sep, 0.0]), g2)))
    gamma_cli = float(rng.uniform(0.1, 1.0))
    cli_dir = outdir / "cli-eval"
    return {
        "balls": balls,
        "disks": disks,
        "disk_params": G.EnergyParams(d=2, p=2.0, alpha=1.0, gamma=1.0),
        "deficit_grid": G.make_grid(2, EVAL_DEFICIT["n"]),
        "deficit_R": float(rng.uniform(0.8, 1.2)),
        "cli_dir": cli_dir,
        "cli_argv": ["eval", "--d", "2", "--p", "2", "--alpha", "1",
                     "--gamma", repr(gamma_cli), "--n", str(EVAL_CLI_N),
                     "--out", str(cli_dir)],
        "cli_exact": ref.ball_energy(2, 2.0, 1.0, gamma_cli),
        "exact": {(d, a): ref.riesz_ball(d, a) for d in (2, 3)
                  for a in EVAL_ALPHAS},
    }


def unit_evaluate(inp: dict) -> Outcome:
    out = Outcome()
    acc = out.accuracy
    acc["riesz_relerr_max"] = 0.0
    acc["errbar_misses"] = 0
    for d, n, R, ball in inp["balls"]:
        vq = E.VolumeQuadrature.build(ball)
        for alpha in EVAL_ALPHAS:
            label = f"riesz_self d={d} n={n} alpha={alpha:g}"
            params = G.EnergyParams(d=d, p=2.0, alpha=alpha)
            res = out.call(label, E.riesz_self, ball, params, vq)
            if res is None:
                continue
            if not out.check(label, _finite(res.value, res.error),
                             f"value {res.value}, error {res.error}"):
                continue
            exact = inp["exact"][(d, alpha)] * R ** (2 * d - alpha)
            true_err = abs(res.value - exact)
            acc["riesz_relerr_max"] = max(acc["riesz_relerr_max"],
                                          true_err / exact)
            acc["errbar_misses"] += int(res.error < true_err)
    acc["ref_relerr_max"] = acc["riesz_relerr_max"]

    bd = out.call("total_energy two disks", E.total_energy, inp["disks"],
                  inp["disk_params"])
    if bd is not None:
        out.check("total_energy two disks", _finite(bd.total),
                  f"total {bd.total}")

    rows = out.call("deficit_report", F.deficit_report, inp["deficit_grid"],
                    EVAL_DEFICIT["modes"], EVAL_DEFICIT["epsilons"],
                    inp["deficit_R"], 2.0, 1.0, 1.0) or []
    for row in rows:
        out.check(f"deficit mode {row['mode_k']}",
                  _finite(row["per_deficit"], row["riesz_deficit"])
                  and row["per_deficit"] >= -1e-12, str(row))

    with contextlib.redirect_stdout(io.StringIO()):
        code = out.call("cli eval", C.main, inp["cli_argv"])
    if code is None:
        return out
    path = inp["cli_dir"] / "eval.json"
    total = None
    if code == 0:
        total = json.loads(path.read_text())["breakdown"]["total"]
    if out.check("cli eval", code == 0 and _finite(total),
                 f"exit code {code}, total {total}"):
        out.counts["artifact_bytes"] = path.stat().st_size
        acc["energy_err_max"] = abs(total - inp["cli_exact"])
        acc["ref_relerr_max"] = max(acc["ref_relerr_max"],
                                    acc["energy_err_max"] / inp["cli_exact"])
    return out


# ----------------------------------------------------------------------
# oracle: Monte Carlo and raster checks only; the control workload
# ----------------------------------------------------------------------

# Where 2 alpha < d the MC integrand has a finite second moment, so a
# 3-sigma gate is meaningful.  The sampling seeds are fixed (the workload
# seed moves and rescales the sets instead): a gate on a random seed would
# fail by chance in about 1 run in 100.
MC_CELLS = ((2, 64, 0.5, 101), (3, 12, 0.5, 102), (3, 12, 1.0, 103))
MC_SAMPLES = 1_000_000
# The check corpora draw shapes of random size, so their seed sets the
# amount of raster work; they keep the seed of ``isoshape verify``.
# run_rel_isop keeps its half-plane corpus (the extremal cut and six
# random cuts per annulus) and draws no star blobs: each blob adds about
# 0.6 s, and the unit must fit about three times into a run.
CHECKS = (("run_raster_agreement", {"seed": 0, "trials": 4}),
          ("run_v_lipschitz", {"seed": 0, "trials": 2}),
          ("run_rel_isop", {"seed": 0, "blobs": 0}),
          ("run_en_lower_bound", {}))


def setup_oracle(seed: int, outdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    cells = []
    for d, n, alpha, mc_seed in MC_CELLS:
        R = float(rng.uniform(0.8, 1.25))
        ball = G.make_ball(R, rng.uniform(-0.25, 0.25, d), G.make_grid(d, n))
        cells.append((d, alpha, mc_seed, ball, ref.riesz_ball(d, alpha, R)))
    return {"cells": cells}


def unit_oracle(inp: dict) -> Outcome:
    out = Outcome()
    acc = out.accuracy
    acc["mc_z_max"] = 0.0
    acc["ref_relerr_max"] = 0.0
    for d, alpha, mc_seed, ball, exact in inp["cells"]:
        label = f"mc_riesz d={d} alpha={alpha:g}"
        res = out.call(label, OR.mc_riesz, ball, None, alpha, MC_SAMPLES,
                       mc_seed)
        if res is None:
            continue
        est, se = res
        z = abs(est - exact) / se if se > 0 else math.inf
        acc["mc_z_max"] = max(acc["mc_z_max"], z)
        acc["ref_relerr_max"] = max(acc["ref_relerr_max"],
                                    abs(est - exact) / exact)
        out.check(label, z <= MC_Z_MAX, f"z = {z:.3f}")
    for name, kwargs in CHECKS:
        rep = out.call(name, getattr(OR, name), **kwargs)
        if rep is None:
            continue
        out.check(name, rep["violations"] == 0 and rep["worst_margin"] >= 0,
                  f"violations {rep['violations']}, "
                  f"margin {rep['worst_margin']:.3e}")
        if name == "run_raster_agreement":
            acc["raster_margin_min"] = rep["worst_margin"]
    return out


WORKLOADS = {
    "descent-d2": (setup_descent_d2, unit_descent_d2),
    "descent-d3": (setup_descent_d3, unit_descent_d3),
    "evaluate": (setup_evaluate, unit_evaluate),
    "oracle": (setup_oracle, unit_oracle),
}
