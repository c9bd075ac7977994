"""Optimizer: exact gradients, scaling maps, descent, sweeps, CSV."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from isoshape.energy import VolumeQuadrature, frozen_rule, total_energy
from isoshape.errors import (
    CriticalExponentError,
    OverlapError,
    ValidationError,
)
from isoshape.geometry import (
    Configuration,
    EnergyParams,
    StarShape,
    make_ball,
    make_grid,
    total_volume,
)
from isoshape.optimize import (
    OptimizerOptions,
    SweepRecord,
    SWEEP_CSV_HEADER,
    asphericity,
    build_initial_config,
    critical_exponent,
    gamma_to_mass,
    mass_to_gamma,
    minimize,
    records_to_csv,
    shape_gradient,
    sweep_gamma,
)
from isoshape.oracle import random_star


def _fd_energy(config, params, vq, comp, field, idx, h):
    def shifted(sign):
        shapes = list(config.components)
        s = shapes[comp]
        r, c = s.radii.copy(), s.center.copy()
        if field == "r":
            r[idx] += sign * h
        else:
            c[idx] += sign * h
        shapes[comp] = StarShape(grid=s.grid, center=c, radii=r)
        return total_energy(Configuration(shapes), params, vq).total
    return (shifted(+1) - shifted(-1)) / (2.0 * h)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    params = EnergyParams(d=2, p=1.5, alpha=1.0, gamma=0.5)
    shape = random_star(rng, n=32, d=2, amp=0.08, kmax=3)
    cfg = Configuration((shape,))
    vq = VolumeQuadrature.build(cfg)
    (gr, gc), = shape_gradient(cfg, params, vq)
    for j in (0, 7, 19):
        fd = _fd_energy(cfg, params, vq, 0, "r", j, 1e-5)
        assert gr[j] == pytest.approx(fd, abs=1e-6 * max(1.0, abs(fd)))
    for k in (0, 1):
        fd = _fd_energy(cfg, params, vq, 0, "c", k, 1e-5)
        assert gc[k] == pytest.approx(fd, abs=1e-6 * max(1.0, abs(fd)))


def test_gradient_matches_finite_differences_d3():
    rng = np.random.default_rng(8)
    params = EnergyParams(d=3, p=2.0, alpha=1.0, gamma=0.3)
    shape = random_star(rng, n=10, d=3, amp=0.05, kmax=2)
    cfg = Configuration((shape,))
    vq = VolumeQuadrature.build(cfg)
    (gr, gc), = shape_gradient(cfg, params, vq)
    fd = _fd_energy(cfg, params, vq, 0, "r", 13, 1e-5)
    assert gr[13] == pytest.approx(fd, abs=1e-6 * max(1.0, abs(fd)))
    fd = _fd_energy(cfg, params, vq, 0, "c", 2, 1e-5)
    assert gc[2] == pytest.approx(fd, abs=1e-6 * max(1.0, abs(fd)))


@pytest.mark.parametrize("d,n,alpha,seed", [(2, 32, 1.75, 3), (3, 10, 2.5, 8)])
def test_gradient_matches_finite_differences_volume_form(d, n, alpha, seed):
    # alpha > 3/2 runs on the volume rule; same checks as the tests above
    rng = np.random.default_rng(seed)
    params = EnergyParams(d=d, p=2.0, alpha=alpha, gamma=0.4)
    shape = random_star(rng, n=n, d=d, amp=0.06, kmax=2)
    cfg = Configuration((shape,))
    vq = VolumeQuadrature.build(cfg)
    (gr, gc), = shape_gradient(cfg, params, vq)
    for j in (0, 7, 13):
        fd = _fd_energy(cfg, params, vq, 0, "r", j, 1e-5)
        assert gr[j] == pytest.approx(fd, abs=1e-6 * max(1.0, abs(fd)))
    for k in range(d):
        fd = _fd_energy(cfg, params, vq, 0, "c", k, 1e-5)
        assert gc[k] == pytest.approx(fd, abs=1e-6 * max(1.0, abs(fd)))


def test_volume_form_descent_frozen_reference():
    # alpha = 1.75 descends on the volume rule, within the resolved band;
    # iterations and final shape are frozen from that descent
    params = EnergyParams(d=2, p=2.0, alpha=1.75, gamma=0.01)
    init = build_initial_config(params, make_grid(2, 20),
                                ("perturbed-ball", 0.2, 3))
    config, rec = minimize(init, params, OptimizerOptions(max_iter=300))
    assert (rec.iterations, rec.converged) == (10, True)
    s, = config.components
    assert s.radii.tolist() == [
        0.5641956321984543, 0.5641953483772616, 0.5641945211790004,
        0.5641932202392301, 0.5641915562213414, 0.564189677574846,
        0.5641877620281165, 0.564186002090995, 0.5641845857055717,
        0.5641836693748227, 0.5641833528476214, 0.5641836693744554,
        0.5641845857048728, 0.5641860020900338, 0.5641877620269853,
        0.5641896775736587, 0.5641915562202098, 0.5641932202382685,
        0.5641945211783017, 0.5641953483768939]
    assert s.center.tolist() == [-6.253371174053499e-06, 3.6634436269359904e-12]


@pytest.mark.parametrize("d,n,alpha", [(2, 16, 1.0), (2, 16, 1.6), (3, 8, 2.5)])
def test_record_breakdown_is_the_reported_energy(d, n, alpha):
    # the breakdown is taken at the rule the run froze, not at a fresh one
    params = EnergyParams(d=d, p=2.0, alpha=alpha, gamma=30.0)
    init = build_initial_config(params, make_grid(d, n),
                                ("perturbed-ball", 0.2, 2))
    config, rec = minimize(init, params, OptimizerOptions(max_iter=15))
    bd = rec.breakdown
    assert bd == total_energy(config, params, frozen_rule(init, params))
    assert (bd.total, bd.weighted_perimeter, bd.riesz, bd.volume) == (
        rec.energy, rec.perimeter, rec.riesz, rec.volume)


def _ball_config(d, n):
    grid = make_grid(d, n)
    return grid, Configuration((StarShape(grid=grid, center=np.zeros(d),
                                          radii=np.ones(grid.n_nodes)),))


def test_band_limit_commutes_with_the_h1_metric():
    # the solve of the cut is the cut of the dense solve
    from isoshape.optimize import _cut_and_solve
    rng = np.random.default_rng(5)
    for d, n in ((2, 20), (2, 21), (3, 8)):
        grid, cfg = _ball_config(d, n)
        v = rng.standard_normal(grid.n_nodes + d)
        cut, solve = _cut_and_solve(cfg, v)
        # centers pass through; the radial block keeps |k| <= m // 3
        assert np.array_equal(cut[-d:], v[-d:])
        assert np.array_equal(solve[-d:], v[-d:])
        m = n if d == 2 else 2 * n
        spec = np.fft.rfft(cut[:-d].reshape(-1, m), axis=1)
        assert np.abs(spec[:, m // 3 + 1:]).max() < 1e-12
        np.testing.assert_allclose(_cut_and_solve(cfg, cut)[0], cut,
                                   atol=1e-14)
        full = np.linalg.solve(_dense_h1_operator(grid), v[:-d])
        lhs = _cut_and_solve(cfg, np.append(full, np.zeros(d)))[0][:-d]
        np.testing.assert_allclose(lhs, solve[:-d], atol=1e-12)


@pytest.mark.parametrize("d,n", [(2, 20), (2, 21), (2, 25), (2, 64), (2, 128),
                                 (3, 8), (3, 12), (3, 16), (3, 20), (3, 48)])
def test_h1_solve_matches_the_dense_solve(d, n):
    from isoshape.optimize import _cut_and_solve
    grid, cfg = _ball_config(d, n)
    v = np.random.default_rng(n).standard_normal(grid.n_nodes + d)
    cut, solve = _cut_and_solve(cfg, v)
    ref = np.linalg.solve(_dense_h1_operator(grid), cut[:-d])
    err = np.abs(solve[:-d] - ref).max() / np.abs(ref).max()
    assert err <= 1e-12


@pytest.mark.parametrize("d,n", [(2, 20), (2, 64), (3, 8), (3, 12)])
def test_two_column_h1_solve_is_two_one_column_solves(d, n):
    from isoshape.optimize import _cut_and_solve
    grid, cfg = _ball_config(d, n)
    B = np.random.default_rng(n).standard_normal((grid.n_nodes + d, 2))
    both = _cut_and_solve(cfg, B)
    cols = [_cut_and_solve(cfg, B[:, j].copy()) for j in range(2)]
    for i in range(2):
        assert np.array_equal(both[i], np.column_stack([c[i] for c in cols]))


def test_h1_factor_is_read_only_and_the_solve_checks_its_rhs():
    # the per-mode inverse blocks are built once per grid, read-only and
    # exactly symmetric, one per mode of the grid's band
    from isoshape.optimize import _cut_and_solve
    grid3 = make_grid(3, 8)
    assert grid3.band == (16, 6)
    assert np.array_equal(grid3.h1_inverse, grid3.h1_inverse.swapaxes(1, 2))
    grid, cfg = _ball_config(2, 20)
    inv = grid.h1_inverse
    assert grid.h1_inverse is inv
    assert grid.band == (20, 7) and inv.shape == (7, 1, 1)
    assert not inv.flags.writeable
    for bad in (math.nan, math.inf, -math.inf):
        rhs = np.ones((grid.n_nodes + 2, 2))
        rhs[3, 1] = bad
        with pytest.raises(ValidationError):
            _cut_and_solve(cfg, rhs)
        with pytest.raises(ValueError):
            _cut_and_solve(cfg, rhs[:, 1].copy())


def _run_in_child(code, threads):
    """stdout of a Python child running code on this tree's src with
    the given number of BLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    t = str(threads)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=t, OMP_NUM_THREADS=t,
               MKL_NUM_THREADS=t,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_two_column_h1_solve_does_not_depend_on_two_blas_threads():
    # the descent transforms its gradient and volume normal as one
    # block; at two OpenBLAS threads the block must still give the bits
    # of two one-column calls
    code = (
        "import numpy as np\n"
        "from isoshape.geometry import Configuration, make_ball, make_grid\n"
        "from isoshape.optimize import _cut_and_solve\n"
        "for d, n in ((2, 128), (3, 16)):\n"
        "    grid = make_grid(d, n)\n"
        "    cfg = Configuration((make_ball(1.0, np.zeros(d), grid),))\n"
        "    B = np.random.default_rng(7).standard_normal(\n"
        "        (grid.n_nodes + d, 2))\n"
        "    cols = [_cut_and_solve(cfg, B[:, j].copy())[1] for j in (0, 1)]\n"
        "    print(d, n, np.array_equal(_cut_and_solve(cfg, B)[1],\n"
        "                               np.column_stack(cols)))\n")
    assert _run_in_child(code, threads=2) == "2 128 True\n3 16 True\n"


@pytest.mark.parametrize("d,n", [(2, 20), (2, 25), (3, 8)])
@pytest.mark.parametrize("count", [1, 2])
def test_band_limit_of_a_block_is_column_wise(d, n, count):
    from isoshape.optimize import _cut_and_solve
    rng = np.random.default_rng(10 * n + count)
    grid = make_grid(d, n)
    cfg = Configuration(tuple(
        StarShape(grid=grid, center=np.full(d, 3.0 * i),
                  radii=1.0 + 0.1 * rng.standard_normal(grid.n_nodes))
        for i in range(count)))
    B = rng.standard_normal((count * (grid.n_nodes + d), 2))
    both = _cut_and_solve(cfg, B)
    for j in range(2):
        col = _cut_and_solve(cfg, np.ascontiguousarray(B[:, j]))
        for i in range(2):
            assert np.array_equal(both[i][:, j], col[i])


@pytest.mark.parametrize("alpha,gamma", [(1.0, 1.0), (1.75, 0.5)])
def test_descent_returns_the_ball_not_a_zigzag(alpha, gamma):
    # d=2 n=20: the discrete E is lower on grid-scale ripples than on the
    # ball, because the central stencils barely see them; the descent
    # runs below those modes and recovers the ball, from the mode-3 start
    # and from an alternating (-1)^j one.  The boundary form (alpha = 1)
    # and the volume form (alpha = 1.75, below the ball's linear
    # thresholds gamma_2 = 0.912 and gamma_3 = 0.831) both do.
    grid = make_grid(2, 20)
    params = EnergyParams(d=2, p=2.0, alpha=alpha, gamma=gamma)
    ball = build_initial_config(params, grid)
    zigzag = StarShape(grid=grid, center=np.zeros(2), radii=(
        ball.components[0].radii * (1.0 + 0.05 * (-1.0) ** np.arange(20))))
    for init in (build_initial_config(params, grid, ("perturbed-ball", 0.2, 3)),
                 Configuration((zigzag,))):
        config, rec = minimize(init, params)
        assert rec.converged
        assert rec.asphericity <= 1e-3
        # the volume form's value depends on the rule frozen from the start
        ball_energy = total_energy(ball, params, frozen_rule(init, params))
        assert rec.energy == pytest.approx(ball_energy.total, rel=1e-9)
        # nothing left above the resolved band |k| <= 20 // 3
        spec = np.abs(np.fft.rfft(config.components[0].radii))
        assert spec[20 // 3 + 1:].max() <= 1e-12 * spec[0]


@pytest.mark.parametrize("d,n,alpha", [(2, 24, 1.0), (3, 8, 2.5)])
def test_reported_energy_is_the_minimized_objective(d, n, alpha):
    # boundary form (alpha = 1) and volume form (alpha = 2.5), from one
    # ball and from two: the record reports the objective of the final
    # configuration at the frozen rule, and its V is the union's
    from isoshape.energy import riesz_value
    from isoshape.optimize import _objective
    params = EnergyParams(d=d, p=2.0, alpha=alpha, gamma=0.5)
    for spec in (("perturbed-ball", 0.2, 2), ("multiball", 2, 2.5)):
        init = build_initial_config(params, make_grid(d, n), spec)
        config, rec = minimize(init, params, OptimizerOptions(max_iter=40))
        vq = VolumeQuadrature.build(init)
        assert config.n_components == init.n_components
        assert rec.energy == _objective(config, params, vq), spec
        assert rec.riesz == riesz_value(config.components, params, vq), spec


def test_critical_exponent_values():
    assert critical_exponent(2, 1.0) == 2.0
    assert critical_exponent(3, 1.5) == 2.5
    with pytest.raises(ValidationError):
        critical_exponent(2, 2.5)
    with pytest.raises(ValidationError):
        critical_exponent(2, 0.0)
    with pytest.raises(ValidationError):    # d outside {2, 3}
        critical_exponent(4, 1.0)


def test_scaling_maps_round_trip():
    params = EnergyParams(d=2, p=3.0, alpha=1.0)
    assert gamma_to_mass(0.25, params) == pytest.approx(16.0, rel=1e-12)
    assert mass_to_gamma(16.0, params) == pytest.approx(0.25, rel=1e-12)
    for g in (1e-3, 0.7, 40.0):
        assert mass_to_gamma(gamma_to_mass(g, params), params) == (
            pytest.approx(g, rel=1e-12))
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            gamma_to_mass(bad, params)
        with pytest.raises(ValidationError):
            mass_to_gamma(bad, params)


def test_scaling_maps_reject_critical_power():
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    with pytest.raises(CriticalExponentError):
        gamma_to_mass(0.5, params)
    with pytest.raises(CriticalExponentError):
        mass_to_gamma(2.0, params)


# malformed init specs: each must raise ValidationError
_BAD_INIT_SPECS = (
    (), ("perturbed-ball",), ("perturbed-ball", 0.1), ("multiball", 2),
    ("multiball", "x", 1.0), ("perturbed-ball", "a", 2),
    ("perturbed-ball", 0.1, -2), ("perturbed-ball", 0.1, 0),
    ("perturbed-ball", math.nan, 2), ("perturbed-ball", 0.1, 2.5),
    ("multiball", 0, 2.0), ("multiball", 2, -1.0), ("multiball", 2, math.inf),
    ("ball", 1.0), "ball", None, ("multiball", True, 2.5),
)


def test_build_initial_config_specs():
    grid = make_grid(2, 64)
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    ball = build_initial_config(params, grid)
    assert ball.n_components == 1
    assert total_volume(ball) == pytest.approx(1.0, abs=1e-12)

    pert = build_initial_config(params, grid, ("perturbed-ball", 0.1, 3))
    assert total_volume(pert) == pytest.approx(1.0, abs=1e-12)
    r = pert.components[0].radii
    u = r / r.mean() - 1.0
    assert np.argmax(np.abs(np.fft.rfft(u))) == 3

    multi = build_initial_config(params, grid, ("multiball", 3, 2.0))
    assert multi.n_components == 3
    assert total_volume(multi) == pytest.approx(1.0, abs=1e-12)
    xs = sorted(float(s.center[0]) for s in multi.components)
    assert xs == pytest.approx([-2.0, 0.0, 2.0])

    with pytest.raises(OverlapError):
        build_initial_config(params, grid, ("multiball", 3, 0.5))
    with pytest.raises(ValidationError):
        build_initial_config(params, grid, ("pentagon",))
    # malformed specs: typed errors, not IndexError or ValueError
    for d in (2, 3):
        grid = make_grid(d, 8)
        for init in _BAD_INIT_SPECS:
            with pytest.raises(ValidationError):
                build_initial_config(replace(params, d=d), grid, init)


def test_asphericity_values():
    grid = make_grid(2, 128)
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    assert asphericity(build_initial_config(params, grid)) <= 1e-12

    eps = 0.01
    pert = build_initial_config(params, grid, ("perturbed-ball", eps, 2))
    # u = eps cos(2 theta) has squared H^1 norm (1 + 4) pi eps^2
    assert asphericity(pert) == pytest.approx(
        eps * math.sqrt(5 * math.pi), rel=0.02)

    multi = build_initial_config(params, grid, ("multiball", 2, 2.0))
    assert asphericity(multi) == math.inf

    off = make_ball(1.0, np.array([0.3, 0.0]), grid)
    a = asphericity(off)
    assert math.isfinite(a) and a > 0.01
    assert asphericity(make_ball(1.0, np.array([3.0, 0.0]), grid)) == math.inf


def test_optimizer_options_validation():
    for max_iter in (0, 1.5, "5", True):
        with pytest.raises(ValidationError):
            OptimizerOptions(max_iter=max_iter)
    # a malformed init spec fails here, before any descent starts
    for init in _BAD_INIT_SPECS:
        with pytest.raises(ValidationError):
            OptimizerOptions(init=init)


def test_minimize_ball_is_fixed_point():
    grid = make_grid(2, 64)
    params = EnergyParams(d=2, p=3.0, alpha=1.0, gamma=0.1)
    init = build_initial_config(params, grid)
    config, rec = minimize(init, params)
    assert rec.converged
    assert rec.iterations == 1
    assert rec.asphericity <= 1e-12
    assert rec.volume == pytest.approx(1.0, abs=1e-12)
    assert rec.energy == pytest.approx(
        total_energy(init, params).total, abs=1e-12)
    assert config.n_components == 1


def test_minimize_descends_from_perturbed_ball():
    grid = make_grid(2, 32)
    params = EnergyParams(d=2, p=2.0, alpha=1.0, gamma=0.01)
    init = build_initial_config(params, grid, ("perturbed-ball", 0.15, 3))
    e0 = total_energy(init, params).total
    a0 = asphericity(init)
    config, rec = minimize(init, params, OptimizerOptions(max_iter=400))
    ball_rec = minimize(build_initial_config(params, grid), params)[1]
    assert rec.energy <= e0 - 1e-6
    assert rec.energy >= ball_rec.energy - 1e-8
    assert rec.asphericity < 0.1 * a0
    assert rec.volume == pytest.approx(1.0, abs=1e-12)


def test_minimize_rejects_bad_initial_volume():
    grid = make_grid(2, 32)
    params = EnergyParams(d=2, p=2.0, alpha=1.0, gamma=0.01)
    big = Configuration((make_ball(2.0, np.zeros(2), grid),))
    with pytest.raises(ValidationError):
        minimize(big, params)


def test_objective_guards_reject_bad_candidates():
    from isoshape.optimize import _objective
    grid = make_grid(2, 64)
    params = EnergyParams(d=2, p=2.0, alpha=1.0, gamma=0.5)
    a = make_ball(0.5, np.zeros(2), grid)
    b = make_ball(0.5, np.array([0.8, 0.0]), grid)
    vq = VolumeQuadrature.build(Configuration((a,)))
    assert _objective(Configuration((a, b)), params, vq) == math.inf

    theta = grid.theta
    spiky = StarShape(grid=grid, center=np.zeros(2),
                      radii=1.0 + 0.9 * np.cos(16 * theta))
    assert _objective(Configuration((spiky,)), params, vq) == math.inf



def test_line_search_requires_strict_decrease(monkeypatch):
    # A flat objective: f - c1*t*gd rounds to f once the step is small
    # enough, and a candidate with f_new == f must still be rejected.
    import isoshape.optimize as O
    monkeypatch.setattr(O, "_objective", lambda *args: 1.0)
    grid = make_grid(2, 32)
    params = EnergyParams(d=2, p=2.0, alpha=1.0, gamma=0.01)
    init = build_initial_config(params, grid, ("perturbed-ball", 0.15, 3))
    _, rec = minimize(init, params, OptimizerOptions(max_iter=50))
    assert rec.iterations == 1
    assert not rec.converged

def _counted_objectives(monkeypatch):
    import isoshape.optimize as O
    calls = []
    objective = O._objective

    def counted(*args):
        calls.append(None)
        return objective(*args)

    monkeypatch.setattr(O, "_objective", counted)
    return calls


def test_criterion_5_starts_take_few_objective_evaluations(monkeypatch):
    # 41 evaluations with the L-BFGS step; the bound is a 4x cut from the
    # 412 that steepest descent with step doubling takes on these starts
    calls = _counted_objectives(monkeypatch)
    grid = make_grid(2, 48)
    params = EnergyParams(d=2, p=2.0, alpha=1.0, gamma=0.01)
    for mode in (2, 3, 4, 5, 6):
        init = build_initial_config(params, grid,
                                    ("perturbed-ball", 0.2, mode))
        assert minimize(init, params)[1].converged
    assert len(calls) <= 103


def test_a_slope_cap_stop_takes_few_objective_evaluations(monkeypatch):
    # The run stops on the slope cap.  Without the first-trial cap after
    # a blocked search, every iteration would halve from the full step
    # towards 1e-16; the bounds are the evaluations and the energy of
    # steepest descent with step doubling on this start.
    calls = _counted_objectives(monkeypatch)
    params = EnergyParams(d=2, p=2.0, alpha=1.0, gamma=10.0)
    init = build_initial_config(params, make_grid(2, 20),
                                ("perturbed-ball", 0.2, 3))
    _, rec = minimize(init, params)
    assert not rec.converged
    assert len(calls) <= 111
    assert rec.energy <= 29.349118367237178


def test_sweep_gamma_basic():
    grid = make_grid(2, 24)
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    opts = OptimizerOptions(max_iter=150)
    gammas = [0.005, 0.01]
    records = sweep_gamma(gammas, params, grid, opts)
    assert [r.gamma for r in records] == gammas
    assert all(math.isfinite(r.energy) for r in records)
    assert records[0].energy < records[1].energy
    assert all(r.volume == pytest.approx(1.0, abs=1e-10) for r in records)

    for bad in ([], [0.01, 0.005], [-1.0, 1.0], [0.1, math.nan], [math.inf],
                [0.1, math.inf]):
        with pytest.raises(ValidationError):
            sweep_gamma(bad, params, grid, opts)


def test_sweep_gamma_catches_only_package_errors(monkeypatch):
    import isoshape.optimize as opt
    grid = make_grid(2, 16)
    params = EnergyParams(d=2, p=2.0, alpha=1.0)

    def typed_failure(init, p, opts):
        raise ValidationError("stub failure")

    monkeypatch.setattr(opt, "minimize", typed_failure)
    rec, = sweep_gamma([0.1], params, grid)
    assert rec.energy == math.inf and not rec.converged

    def programming_error(init, p, opts):
        raise TypeError("stub bug")

    monkeypatch.setattr(opt, "minimize", programming_error)
    with pytest.raises(TypeError):
        sweep_gamma([0.1], params, grid)

    # the fresh runs succeed, the warm one (the third call) has a bug
    calls = []

    def warm_bug(init, p, opts):
        calls.append(p.gamma)
        if len(calls) > 2:
            raise TypeError("stub bug")
        return init, opt.SweepRecord(p.gamma, p.p, p.alpha, p.d, 1.0, 1.0,
                                     0.0, 1.0, 1, 0.0, 1, True)

    monkeypatch.setattr(opt, "minimize", warm_bug)
    with pytest.raises(TypeError):
        sweep_gamma([0.1, 0.2], params, grid)


def test_sweep_gamma_validates_before_minimizing(monkeypatch):
    import isoshape.optimize as opt

    def no_descent(init, p, opts):
        raise AssertionError("a descent ran before validation")

    monkeypatch.setattr(opt, "minimize", no_descent)
    grid = make_grid(2, 16)
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    for bad in ([0.1, 1.0, math.nan], [0.1, 1.0, math.inf], [0.1, None],
                [0.1, "1"], [0.1, True], [0.1, 1.0, 0.5], None):
        with pytest.raises(ValidationError):
            sweep_gamma(bad, params, grid)


def test_sweep_builds_the_h1_operator_once_per_grid(monkeypatch):
    # 3 fresh and 2 warm descents on one grid share one table of
    # per-mode inverse blocks
    import isoshape.geometry as geometry
    builds = []
    inverse = geometry._spd_inverse

    def counted(M):
        builds.append(M.shape)
        return inverse(M)

    monkeypatch.setattr(geometry, "_spd_inverse", counted)
    grid = make_grid(2, 20)
    opts = OptimizerOptions(max_iter=10, init=("perturbed-ball", 0.2, 3))
    records = sweep_gamma([0.1, 1.0, 10.0], EnergyParams(d=2, p=2.0, alpha=1.0),
                          grid, opts)
    assert all(math.isfinite(r.energy) for r in records)
    assert builds == [(7, 1, 1)]


@pytest.mark.parametrize("d,n,alpha", [(2, 20, 1.0), (3, 8, 1.0), (3, 8, 2.5)])
def test_minimize_on_a_shared_grid_is_bit_identical(d, n, alpha):
    # the cached inverse blocks give the same descent as a fresh grid's
    params = EnergyParams(d=d, p=2.0, alpha=alpha, gamma=0.5)
    opts = OptimizerOptions(max_iter=25)
    shared = make_grid(d, n)

    def run(grid):
        init = build_initial_config(params, grid, ("perturbed-ball", 0.2, 2))
        return minimize(init, params, opts)

    runs = [run(shared), run(shared), run(make_grid(d, n))]
    (ref_cfg, ref_rec), rest = runs[0], runs[1:]
    assert ref_rec.iterations > 1
    for cfg, rec in rest:
        assert rec == ref_rec
        for a, b in zip(cfg.components, ref_cfg.components, strict=True):
            assert np.array_equal(a.radii, b.radii)
            assert np.array_equal(a.center, b.center)


@pytest.mark.parametrize("d,n", [(2, 20), (3, 8)])
def test_h1_operator_is_the_asphericity_norm(d, n):
    # in the H^1 inner product that asphericity measures, the solve of v
    # pairs with any u as the plain dot product with the cut of v
    from isoshape.optimize import _cut_and_solve
    grid, cfg = _ball_config(d, n)
    w = grid.weights
    rng = np.random.default_rng(d)
    for _ in range(3):
        u = rng.standard_normal(grid.n_nodes)
        cut, x = (a[:-d] for a in _cut_and_solve(
            cfg, rng.standard_normal(grid.n_nodes + d)))
        inner = float(w @ (u * x + sum(a * b for a, b in zip(
            grid.grad_components(u), grid.grad_components(x)))))
        assert inner == pytest.approx(float(u @ cut), rel=1e-12)


def _dense_h1_operator(grid):
    # the reference: M + sum_k D_k^T M D_k as a dense matrix, one column
    # at a time from the grid's stencils and their adjoints
    n = grid.n_nodes
    w = grid.weights
    H = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        H[:, j] = w * e + grid.grad_components_T(
            [w * c for c in grid.grad_components(e)])
        e[j] = 0.0
    return H


def test_h1_operator_does_not_depend_on_the_blas_thread_count():
    # the per-mode inverses take no LAPACK call: at d=3 n=128 LAPACK's
    # inverse of the same blocks differs between one and two threads
    code = (
        "import hashlib\n"
        "from isoshape.geometry import make_grid\n"
        "for d, n in ((2, 128), (3, 12), (3, 128)):\n"
        "    inv = make_grid(d, n).h1_inverse\n"
        "    print(d, n, hashlib.sha256(inv.tobytes()).hexdigest())\n")
    one, two = (_run_in_child(code, threads=t) for t in (1, 2))
    assert len(one.splitlines()) == 3
    assert one == two


@pytest.mark.parametrize("p", [0.5, 1.5])
def test_minimize_from_a_boundary_node_on_the_origin(p):
    # p <= 1: a typed error that names the origin, not the solve's
    # error on a NaN gradient; p > 1: the descent runs
    grid = make_grid(2, 20)
    R = math.pi ** -0.5
    start = StarShape(grid=grid, center=np.array([-R, 0.0]),
                      radii=np.full(grid.n_nodes, R))
    params = EnergyParams(d=2, p=p, alpha=1.0, gamma=0.5)
    opts = OptimizerOptions(max_iter=5)
    if p <= 1.0:
        with pytest.raises(ValidationError, match="origin"):
            minimize(start, params, opts)
    else:
        _, rec = minimize(start, params, opts)
        assert math.isfinite(rec.energy)


def test_descent_runs_above_the_old_grid_cap():
    # d=3 n=49 (N = 4802 nodes) was above the 4608-node cap of the dense
    # operator; the spectral solve needs no cap
    params = EnergyParams(d=3, p=2.0, alpha=1.0, gamma=0.1)
    init = build_initial_config(params, make_grid(3, 49),
                                ("perturbed-ball", 0.2, 2))
    _, rec = minimize(init, params, OptimizerOptions(max_iter=1))
    assert rec.iterations == 1
    assert math.isfinite(rec.energy) and math.isfinite(rec.asphericity)


def test_records_to_csv_format():
    rec = SweepRecord(gamma=0.5, p=2.0, alpha=1.0, d=2, energy=1.0 / 3.0,
                      perimeter=1.5, riesz=5.0, volume=1.0, n_components=1,
                      asphericity=0.0, iterations=10, converged=True)
    csv = records_to_csv([rec])
    lines = csv.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[1] == ("0.5,2,1,2,0.33333333333333331,1.5,5,1,1,0,10,1")
    assert csv.endswith("\n")
    assert records_to_csv([rec]) == csv


def test_project_volume_rejects_non_finite_trial_vectors():
    from isoshape.optimize import _pack, _project_volume
    grid = make_grid(2, 20)
    params = EnergyParams(d=2, p=2.0, alpha=1.0, gamma=0.5)
    config = build_initial_config(params, grid, ("multiball", 2, 2.5))
    z = _pack(config)
    projected = _project_volume(config, z)
    assert total_volume(projected) == pytest.approx(1.0, abs=1e-12)
    for bad in (math.nan, math.inf, -math.inf):
        for i in (0, 20, z.size - 1):   # a radius, a center, the last center
            trial = z.copy()
            trial[i] = bad
            with pytest.raises(ValidationError):
                _project_volume(config, trial)


# records_to_csv of three sweeps (p=2, alpha=1, max_iter=60), the same
# under one and two BLAS threads.  The converged rows end within 1e-9
# relative of the energies of the steepest descent that preceded the
# L-BFGS step; the d=3 gamma=1 row converges at its 10th iteration, where
# that descent zigzagged with the projected gradient just above G_TOL
# until its 60th.  The converged=0 rows stop on a constraint (the slope
# cap or overlap) and end lower than that descent did.
_FROZEN_SWEEPS = [
    (2, 20, ("perturbed-ball", 0.2, 3), [0.1, 1.0, 10.0], [
        "0.10000000000000001,2,1,2,1.4311463650442593,1.1283791670953951,3.0276719794886406,1,1,2.0147876810811568e-08,10,1",
        "1,2,1,2,4.1560511465840362,1.1283791670953951,3.0276719794886411,1,1,2.0147877110169271e-08,1,1",
        "10,2,1,2,29.346079260835374,2.1454230599856907,2.7200656200849682,1,1,3.7463437746495325,27,0",
    ]),
    (2, 20, ("multiball", 2, 2.5), [1.0, 30.0, 100.0], [
        "1,2,1,2,4.3891448566527567,1.5443286739910711,2.8448161826616856,1,2,inf,44,0",
        "30,2,1,2,72.951196039193263,5.9225624143606606,2.2342877874944205,1,2,inf,60,0",
        "100,2,1,2,225.39600869698651,12.775218279041303,2.1262079041794522,1,2,inf,45,0",
    ]),
    (3, 8, ("perturbed-ball", 0.2, 2), [0.1, 1.0], [
        "0.10000000000000001,2,1,3,2.0550415100847541,1.8610514930343462,1.9399001705040764,0.99999999999999989,1,0.0004376555247762742,8,1",
        "1,2,1,3,3.8009496154375757,1.8610545302915704,1.9398950851460055,1.0000000000000002,1,0.0053638474752214626,10,1",
    ]),
]


@pytest.mark.parametrize("d,n,init,gammas,rows", _FROZEN_SWEEPS)
def test_sweep_frozen_reference(d, n, init, gammas, rows):
    code = (
        "import sys\n"
        "from isoshape.geometry import EnergyParams, make_grid\n"
        "from isoshape.optimize import (OptimizerOptions, records_to_csv,\n"
        "                               sweep_gamma)\n"
        f"records = sweep_gamma({gammas!r}, EnergyParams(d={d}, p=2.0,"
        f" alpha=1.0), make_grid({d}, {n}),"
        f" OptimizerOptions(max_iter=60, init={init!r}))\n"
        "sys.stdout.write(records_to_csv(records))\n")
    for threads in (1, 2):
        assert (_run_in_child(code, threads)
                == "\n".join([SWEEP_CSV_HEADER, *rows]) + "\n"), threads
