"""Grids, star shapes, measures, and their exact invariants."""

import dataclasses
import decimal
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isoshape import geometry
from isoshape.energy import (
    VolumeQuadrature,
    interaction,
    potential,
    riesz_self,
    total_energy,
    weighted_perimeter,
)
from isoshape.errors import IsoshapeError, OverlapError, ValidationError
from isoshape.geometry import (
    Configuration,
    EnergyParams,
    StarShape,
    _bilinear,
    _cubic,
    _periodic_d1,
    _spline_range,
    config_membership,
    config_to_dict,
    dilate,
    load_configuration,
    make_ball,
    make_grid,
    membership,
    radial_at_directions,
    ray_radius,
    save_configuration,
    sphere_area,
    tangential_gradient,
    total_volume,
    unit_ball_volume,
    volume,
)
from isoshape.optimize import asphericity, minimize, shape_gradient
from isoshape.oracle import mc_riesz, random_star, rasterize


def test_grid_weights_sum_to_sphere_area():
    assert abs(make_grid(2, 64).weights.sum() - 2 * math.pi) <= 1e-10
    assert abs(make_grid(3, 32).weights.sum() - 4 * math.pi) <= 1e-10
    assert sphere_area(2) == pytest.approx(2 * math.pi, abs=1e-14)
    assert sphere_area(3) == pytest.approx(4 * math.pi, abs=1e-14)


def test_importing_the_package_leaves_scipy_interpolate_unloaded():
    # StarShape.spline imports it when a d=2 shape first builds one
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, isoshape; print('scipy.interpolate' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]


def test_grid_nodes_unit_length():
    for d, n in ((2, 64), (3, 16)):
        g = make_grid(d, n)
        norms = np.linalg.norm(g.nodes, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12
        assert np.all(g.weights > 0)


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        make_grid(4, 32)
    with pytest.raises(ValidationError):
        make_grid(2, 4)
    for d in (2, 3):
        with pytest.raises(ValidationError):
            make_grid(d, 8.5)


def test_grid_deterministic():
    a, b = make_grid(3, 24), make_grid(3, 24)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)


def test_ball_volume_closed_forms():
    g2, g3 = make_grid(2, 64), make_grid(3, 24)
    assert volume(make_ball(1.0, np.zeros(2), g2)) == pytest.approx(
        math.pi, rel=1e-10)
    r0 = math.pi ** -0.5
    assert volume(make_ball(r0, np.zeros(2), g2)) == pytest.approx(1.0, rel=1e-10)
    assert volume(make_ball(2.0, np.zeros(3), g3)) == pytest.approx(
        32 * math.pi / 3, rel=1e-10)
    for R in (0.1, 0.7, 1.0, 4.0, 10.0):
        for d, g in ((2, g2), (3, g3)):
            got = volume(make_ball(R, np.zeros(d), g))
            assert got == pytest.approx(unit_ball_volume(d) * R ** d, rel=1e-10)


def test_volume_translation_invariant_exactly():
    g = make_grid(2, 64)
    assert volume(make_ball(1.0, np.array([5.0, 0.0]), g)) == volume(
        make_ball(1.0, np.zeros(2), g))


def test_volume_fourier_example():
    g = make_grid(2, 128)
    shape = StarShape(grid=g, center=np.zeros(2),
                      radii=1.0 + 0.5 * np.cos(g.theta))
    assert volume(shape) == pytest.approx(9 * math.pi / 8, rel=1e-12)


def test_radius_floor_enforced():
    g = make_grid(2, 32)
    with pytest.raises(ValidationError):
        StarShape(grid=g, center=np.zeros(2), radii=np.full(32, 1e-9))
    with pytest.raises(ValidationError):
        make_ball(1e-9, np.zeros(2), g)


def test_dilate_homogeneity_and_center():
    g = make_grid(2, 48)
    rng = np.random.default_rng(3)
    shape = StarShape(grid=g, center=np.array([3.0, 0.0]),
                      radii=1.0 + 0.2 * rng.standard_normal(48).clip(-0.9, 0.9))
    v = volume(shape)
    for t in (0.5, 2.0, 3.0):
        big = dilate(shape, t)
        assert volume(big) == pytest.approx(t ** 2 * v, rel=1e-10)
        assert big.center[0] == pytest.approx(t * 3.0, rel=1e-14)
    same = dilate(shape, 1.0)
    assert np.array_equal(same.radii, shape.radii)
    with pytest.raises(ValidationError):
        dilate(shape, -1.0)


def test_configuration_disjointness_certificate():
    g = make_grid(2, 32)
    a = make_ball(1.0, np.zeros(2), g)
    b = make_ball(1.0, np.array([4.0, 0.0]), g)
    cfg = Configuration((a, b))
    assert total_volume(cfg) == pytest.approx(2 * math.pi, rel=1e-10)
    with pytest.raises(OverlapError):
        Configuration((a, make_ball(1.0, np.array([1.5, 0.0]), g))).validate()


def test_total_volume_empty_and_single():
    g = make_grid(2, 32)
    with pytest.raises(ValidationError):    # no empty configuration
        Configuration(())
    r0 = math.pi ** -0.5
    cfg = Configuration((make_ball(r0, np.zeros(2), g),))
    assert total_volume(cfg) == pytest.approx(1.0, rel=1e-10)


_DISK = make_ball(math.pi ** -0.5, np.zeros(2), make_grid(2, 16))
_FAR = make_ball(0.3, np.array([3.0, 0.0]), make_grid(2, 16))
_BALL = make_ball(0.5, np.zeros(3), make_grid(3, 8))
_P = EnergyParams(d=2, p=2.0, alpha=1.0, gamma=1.0)

# A list is not a set, a configuration is not a shape, and a
# configuration holds StarShapes of one dimension: each probe must raise
# a typed error.  The last three were typed before Configuration was.
_BAD_SET_PROBES = {
    "total_energy-list": lambda: total_energy([_DISK], _P),
    "shape_gradient-list": lambda: shape_gradient([_DISK], _P),
    "minimize-list": lambda: minimize([_DISK], _P),
    "asphericity-list": lambda: asphericity([_DISK]),
    "rasterize-list": lambda: rasterize([_DISK], 0.1),
    "dilate-list": lambda: dilate([_DISK], 2.0),
    "volume-list": lambda: volume([_DISK]),
    "total_volume-list": lambda: total_volume([_DISK]),
    "config_membership-list": lambda: config_membership([_DISK], np.zeros(2)),
    "config_to_dict-list": lambda: config_to_dict([_DISK]),
    "interaction-list": lambda: interaction([_DISK], _FAR, _P),
    "riesz_self-configuration": lambda: riesz_self(Configuration((_DISK,)), _P),
    "weighted_perimeter-configuration":
        lambda: weighted_perimeter(Configuration((_DISK,)), _P),
    "volume-configuration": lambda: volume(Configuration((_DISK,))),
    "mixed-dimension-configuration": lambda: Configuration((_DISK, _BALL)),
    "int-component-configuration": lambda: Configuration((1, 2)),
    "potential-list": lambda: potential([_DISK], np.zeros(2), _P),
    "volume_quadrature-list": lambda: VolumeQuadrature.build([_DISK]),
    "mc_riesz-list": lambda: mc_riesz([_DISK], None, 0.5, 1_000_000, 0),
    "ray_radius-configuration": lambda: ray_radius(Configuration((_DISK,))),
    "ray_radius-none": lambda: ray_radius(None),
}


@pytest.mark.parametrize("probe", list(_BAD_SET_PROBES))
def test_bad_set_raises_a_typed_error(probe):
    with pytest.raises(IsoshapeError):
        _BAD_SET_PROBES[probe]()


def test_tangential_gradient_linearity_and_const():
    g = make_grid(2, 64)
    rng = np.random.default_rng(1)
    f, h = rng.standard_normal(64), rng.standard_normal(64)
    gf, gh = tangential_gradient(f, g), tangential_gradient(h, g)
    combo = tangential_gradient(2.0 * f - 3.0 * h, g)
    assert np.abs(combo - (2.0 * gf - 3.0 * gh)).max() <= 1e-12
    assert np.abs(tangential_gradient(np.ones(64), g)).max() == 0.0


def test_tangential_gradient_cos_theta():
    g = make_grid(2, 256)
    grad = tangential_gradient(np.cos(g.theta), g)
    mags = np.linalg.norm(grad, axis=1)
    assert np.abs(mags - np.abs(np.sin(g.theta))).max() <= 1e-6


def test_tangential_gradient_mode3_norm():
    g = make_grid(2, 512)
    grad = tangential_gradient(np.cos(3 * g.theta), g)
    norm_sq = float(g.weights @ (grad ** 2).sum(axis=1))
    assert norm_sq == pytest.approx(9 * math.pi, rel=1e-6)


def test_membership_ball_and_config():
    g = make_grid(2, 64)
    cfg = Configuration((make_ball(1.0, np.zeros(2), g),
                         make_ball(0.5, np.array([3.0, 0.0]), g)))
    pts = np.array([[0.0, 0.0], [0.9, 0.0], [1.1, 0.0],
                    [3.0, 0.4], [3.0, 0.6], [2.0, 0.0]])
    got = config_membership(cfg, pts)
    assert got.tolist() == [True, True, False, True, False, False]


def _membership_reference(shape, pts):
    """Row norms, then the radial test on the points off the center."""
    y = pts - shape.center
    rho = np.linalg.norm(y, axis=1)
    out = np.empty(rho.size, dtype=bool)
    at_center = rho == 0.0
    out[at_center] = True
    dirs = y[~at_center] / rho[~at_center, None]
    out[~at_center] = rho[~at_center] <= radial_at_directions(shape, dirs)
    return out


@pytest.mark.parametrize("d, n", [(2, 48), (3, 10)])
def test_membership_matches_norm_reference(d, n):
    rng = np.random.default_rng(d)
    g = make_grid(d, n)
    shape = StarShape(grid=g, center=rng.uniform(-0.3, 0.3, d),
                      radii=1.0 + 0.15 * rng.standard_normal(g.n_nodes))
    pts = shape.center + rng.uniform(-1.4, 1.4, (200_000, d))
    pts[::997] = shape.center                   # exactly at the center
    on_nodes = np.arange(pts[1::991].shape[0]) % g.n_nodes
    pts[1::991] = shape.center + shape.radii[on_nodes, None] * g.nodes[on_nodes]
    got = membership(shape, pts)
    ref = _membership_reference(shape, pts)
    assert np.array_equal(got, ref)
    assert got[::997].all()
    assert 0.1 < got.mean() < 0.9
    # a transposed (column-major) cloud gives the same answer
    assert np.array_equal(membership(shape, np.ascontiguousarray(pts.T).T),
                          ref)


def test_configuration_json_round_trip(tmp_path):
    g = make_grid(2, 48)
    rng = np.random.default_rng(7)
    shape = StarShape(grid=g, center=np.array([0.1, -0.2]),
                      radii=1.0 + 0.1 * rng.standard_normal(48))
    cfg = Configuration((shape, make_ball(0.4, np.array([5.0, 0.0]), g)))
    path = tmp_path / "cfg.json"
    save_configuration(path, cfg)
    back = load_configuration(path)
    assert len(back.components) == 2
    for a, b in zip(cfg.components, back.components):
        assert np.array_equal(a.radii, b.radii)
        assert np.array_equal(a.center, b.center)
        assert a.grid.d == b.grid.d and a.grid.n == b.grid.n


def _shape_file(**component):
    """A one-disk d=2 shape file with the given component keys replaced
    (a value of None deletes the key)."""
    comp = {"center": [0, 0], "grid": {"kind": "uniform-angle", "n": 8},
            "radial": [1.0] * 8}
    comp.update(component)
    return {"d": 2, "components": [{k: v for k, v in comp.items()
                                    if v is not None}]}


def test_load_rejects_invalid_file(tmp_path):
    path = tmp_path / "bad.json"
    disk = _shape_file()["components"][0]
    bad = [json.dumps(obj) for obj in (
            _shape_file(radial=[-1.0] * 8),
            _shape_file(radial=None),
            _shape_file(center=None),
            {"d": 2, "components": ["disk"]},
            {"d": 2, "components": {"disk": disk}},
            _shape_file(grid="uniform-angle"),
            _shape_file(grid={"kind": "uniform-angle", "n": "x"}),
            _shape_file(grid={"kind": "uniform-angle", "n": 8.7}),
            {"d": "x", "components": [disk]},
            _shape_file(radial=["x"] * 8),
            _shape_file(radial=["1.0"] * 8),
            _shape_file(radial=[[1.0], [1.0, 2.0]]),
            {"d": 2, "components": []},
            [2])]
    # truncated text is not JSON
    for text in bad + [json.dumps(_shape_file())[:40], ""]:
        path.write_text(text)
        with pytest.raises(ValidationError):
            load_configuration(path)
    # the well-formed file loads
    path.write_text(json.dumps(_shape_file()))
    assert load_configuration(path).components[0].grid.n == 8


# ----------------------------------------------------------------------
# stencils and per-grid / per-shape caches
# ----------------------------------------------------------------------

def _rolled_d1(f, h):
    """The periodic stencil written with np.roll along the last axis."""
    fm1, fp1 = np.roll(f, 1, axis=-1), np.roll(f, -1, axis=-1)
    fm2, fp2 = np.roll(f, 2, axis=-1), np.roll(f, -2, axis=-1)
    return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)


@pytest.mark.parametrize("d,n", [(2, 8), (2, 9), (2, 20), (3, 8), (3, 9)])
def test_periodic_stencil_matches_the_rolled_form(d, n):
    g = make_grid(d, n)
    rng = np.random.default_rng(n)
    f = rng.standard_normal(g.n_nodes)
    t = [rng.standard_normal(g.n_nodes) for _ in range(d - 1)]
    if d == 2:
        h = 2.0 * math.pi / n
        assert np.array_equal(_periodic_d1(f, h), _rolled_d1(f, h))
        assert np.array_equal(g.grad_components(f)[0], _rolled_d1(f, h))
        assert np.array_equal(g.grad_components_T(t), -_rolled_d1(t[0], h))
        return
    # d=3: the stencil runs along the azimuth, the last axis of shape2d
    h = 2.0 * math.pi / g.azimuth.size
    F = f.reshape(g.shape2d)
    sin = np.sin(g.polar)[:, None]
    assert np.array_equal(_periodic_d1(F, h), _rolled_d1(F, h))
    assert np.array_equal(g.grad_components(f)[1],
                          (_rolled_d1(F, h) / sin).ravel())
    want = (g.dpolar.T @ t[0].reshape(g.shape2d)
            - _rolled_d1(t[1].reshape(g.shape2d) / sin, h)).ravel()
    assert np.array_equal(g.grad_components_T(t), want)


@pytest.mark.parametrize("d,n", [(2, 20), (2, 9), (3, 8)])
def test_tangent_frame_is_built_once_and_read_only(d, n):
    # and the coarse level: every other node, or for odd d=2 n the
    # uniform grid of (n+1)/2 angles
    g = make_grid(d, n)
    frame = g.tangent_frame
    again = g.tangent_frame
    assert len(frame) == d - 1
    assert all(a is b for a, b in zip(frame, again, strict=True))
    for e in frame:
        assert not e.flags.writeable
        assert np.abs(np.einsum("ij,ij->i", e, e) - 1.0).max() <= 1e-14
        assert np.abs(np.einsum("ij,ij->i", e, g.nodes)).max() <= 1e-14
        with pytest.raises(ValueError):
            e[0, 0] = 0.0
    coarse = g.coarse
    assert g.coarse is coarse
    assert coarse.n_nodes == (g.n_nodes + 1) // 2
    assert abs(coarse.weights.sum() - sphere_area(d)) <= 1e-12
    with pytest.raises(dataclasses.FrozenInstanceError):
        coarse.weights = g.weights
    if not (d == 2 and n % 2):
        assert np.array_equal(coarse.nodes, g.nodes[::2])
    if d == 3:
        cells = g.polar_cells
        assert g.polar_cells is cells
        for a in (cells[0], cells[1], cells[3]):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0


def test_coarse_level_d2_even_is_the_uniform_half_grid():
    # every other node of an even grid equals the fresh uniform grid of
    # n/2 angles bit for bit (built by hand: n/2 may be below 8)
    for n in range(8, 201, 2):
        coarse = make_grid(2, n).coarse
        m = n // 2
        theta = 2.0 * math.pi * np.arange(m) / m
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        assert coarse.n == m
        for got, want in ((coarse.theta, theta), (coarse.nodes, nodes),
                          (coarse.weights, np.full(m, 2.0 * math.pi / m))):
            assert got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("d,n", [(2, 20), (2, 9), (3, 8)])
def test_shape_slopes_are_the_grid_components_cached(d, n):
    shape = random_star(np.random.default_rng(n), n=n, d=d)
    slopes = shape.slopes
    assert shape.slopes is slopes
    want = shape.grid.grad_components(shape.radii)
    assert len(slopes) == len(want) == d - 1
    for c, w in zip(slopes, want):
        assert np.array_equal(c, w)
        assert not c.flags.writeable
    if d == 2:
        spline = shape.spline
        assert shape.spline is spline
        assert np.array_equal(spline(shape.grid.theta), shape.radii)
        for a in (spline.x, spline.c):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
    else:
        wrapped = shape.wrapped_radii
        assert shape.wrapped_radii is wrapped
        rows = wrapped.reshape(shape.grid.polar.size, -1)
        assert np.array_equal(rows[:, :-2].ravel(), shape.radii)
        assert np.array_equal(rows[:, -2:], rows[:, :2])
        assert not wrapped.flags.writeable
        with pytest.raises(ValueError):
            wrapped[0] = 0.0


@pytest.mark.parametrize("d,n", [(2, 64), (3, 12)])
def test_radial_at_directions_wraps_the_azimuth_like_np_mod(d, n):
    # including azimuths in (-4.4e-16, 0), which np.mod rounds up to
    # 2 pi; on some shapes the spline differs there from its value at 0
    rng = np.random.default_rng(n)
    psi = np.concatenate([-rng.uniform(0.0, 4.4e-16, 100),
                          rng.uniform(-math.pi, math.pi, 500),
                          [0.0, -0.0, math.pi, -math.pi]])
    phi = (rng.uniform(0.0, math.pi, psi.size) if d == 3
           else np.full(psi.size, 0.5 * math.pi))
    dirs = np.stack([np.sin(phi) * np.cos(psi), np.sin(phi) * np.sin(psi),
                     np.cos(phi)], axis=1)[:, :d]
    wrapped = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * math.pi)
    for seed in range(8):
        shape = random_star(np.random.default_rng(seed), n=n, d=d)
        if d == 2:
            want = shape.spline(wrapped)
        else:
            want = _bilinear(shape, np.arccos(np.clip(dirs[:, 2], -1.0, 1.0)),
                             wrapped)
        assert np.array_equal(radial_at_directions(shape, dirs), want)


def _bilinear_reference(shape, phi, psi):
    """The bilinear interpolant by searchsorted, % na and four gathers."""
    g = shape.grid
    pol, na = g.polar, g.azimuth.size
    i = np.clip(np.searchsorted(pol, phi) - 1, 0, pol.size - 2)
    t = np.clip((phi - pol[i]) / (pol[i + 1] - pol[i]), 0.0, 1.0)
    u = psi / (2.0 * math.pi / na)
    j = np.floor(u)
    u -= j
    j = j.astype(int) % na
    jp = (j + 1) % na
    R = shape.radii
    r00, r01 = R[i * na + j], R[i * na + jp]
    r10, r11 = R[(i + 1) * na + j], R[(i + 1) * na + jp]
    return (1 - t) * ((1 - u) * r00 + u * r01) + t * ((1 - u) * r10 + u * r11)


@pytest.mark.parametrize("n", [8, 9, 12, 16, 24])
def test_bilinear_tables_match_the_searchsorted_formula(n):
    rng = np.random.default_rng(n)
    shape = random_star(rng, n=n, d=3, amp=0.2)
    g = shape.grid
    pol, az = g.polar, g.azimuth
    # random directions; both poles and every polar node, with their
    # neighbouring floats; phi beyond the extreme rows
    phi = np.concatenate([
        rng.uniform(0.0, math.pi, 4000), [0.0, math.pi], pol,
        np.nextafter(pol, 0.0), np.nextafter(pol, 4.0),
        rng.uniform(0.0, pol[0], 50), rng.uniform(pol[-1], math.pi, 50)])
    for psi in (rng.uniform(0.0, 2.0 * math.pi, phi.size),
                np.resize(np.concatenate([az, [0.0, 2.0 * math.pi]]),
                          phi.size)):
        assert np.array_equal(_bilinear(shape, phi, psi),
                              _bilinear_reference(shape, phi, psi))
    # every node azimuth at every polar node, and the 2 pi seam
    P, A = np.meshgrid(pol, np.append(az, 2.0 * math.pi), indexing="ij")
    got = _bilinear(shape, P.ravel(), A.ravel())
    assert np.array_equal(got,
                          _bilinear_reference(shape, P.ravel(), A.ravel()))
    # node azimuths divided by the azimuth step round near, not onto, j
    assert np.allclose(got.reshape(P.shape)[:, :-1].ravel(), shape.radii,
                       rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_radial_at_directions_rejects_non_finite_directions(d):
    shape = random_star(np.random.default_rng(d), n=12, d=d)
    for bad in (math.nan, math.inf):
        dirs = np.eye(d)
        dirs[1, 0] = bad
        with pytest.raises(ValidationError):
            radial_at_directions(shape, dirs)
        with pytest.raises(ValidationError):
            membership(shape, dirs)


@pytest.mark.parametrize("d", [2, 3])
def test_membership_and_radial_at_directions_check_the_column_count(d):
    # (0.1, 0.2, 5.0) is far outside a d=2 disk of radius 0.5; read as
    # its first two coordinates it would be inside
    shape = make_ball(0.5, np.zeros(d), make_grid(d, 12))
    other = 5 - d
    for bad in (np.array([[0.1, 0.2, 5.0][:other]]), np.ones((1, 1)),
                np.zeros((2, d, 1))):
        with pytest.raises(ValidationError):
            membership(shape, bad)
        with pytest.raises(ValidationError):
            radial_at_directions(shape, bad)
    assert membership(shape, np.full(d, 0.1)).tolist() == [True]
    assert radial_at_directions(shape, np.eye(d)).tolist() == [0.5] * d


@pytest.mark.parametrize("n", [8, 9, 20, 64, 96, 128])
def test_cubic_kernel_matches_the_spline_bit_for_bit(n):
    # scipy's CubicSpline.__call__ is the reference: random angles,
    # every knot with its neighbouring floats, 0 and 2 pi, the extrema
    # of every piece, and angles just past 2 pi, which callers wrap with
    # np.mod as the spline does
    rng = np.random.default_rng(n)
    for amp in (0.08, 0.25):
        shape = random_star(rng, n=n, d=2, amp=amp, kmax=5)
        sp = shape.spline
        x = sp.x
        extrema = sp.derivative().roots(extrapolate=False)
        ext = np.append(extrema, x[-1] + np.array([4.4e-16, 1e-15, 1e-12]))
        a = np.concatenate([
            rng.uniform(0.0, 2.0 * math.pi, 1 << 14), x,
            np.nextafter(x[1:], 0.0), np.nextafter(x[:-1], 7.0),
            [0.0, 2.0 * math.pi], np.mod(ext, 2.0 * math.pi)])
        assert np.array_equal(_cubic(shape, a), sp(a))
        assert np.array_equal(_cubic(shape, np.mod(ext, 2.0 * math.pi)),
                              sp(ext))
    _, knots, rows = shape.spline_table
    assert shape.spline_table[1] is knots
    for arr in (knots, *rows):
        assert not arr.flags.writeable


def _membership_one_pass(shape, pts):
    """membership written as one function: offsets, norms, the stacked
    directions and the public radial_at_directions."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    cols = [pts[:, k] - c for k, c in enumerate(shape.center)]
    rho = np.sqrt(sum(y * y for y in cols))
    at_center = rho == 0.0
    safe = np.where(at_center, 1.0, rho)
    dirs = np.stack([y / safe for y in cols])
    return (rho <= radial_at_directions(shape, dirs.T)) | at_center


@pytest.mark.parametrize("d,n", [(2, 24), (2, 64), (3, 8), (3, 12)])
def test_membership_is_the_one_pass_test_bit_for_bit(d, n):
    rng = np.random.default_rng(n + d)
    shape = random_star(rng, n=n, d=d, amp=0.2, center_scale=0.3)
    pts = shape.center + shape.max_radius * rng.uniform(-1.3, 1.3, (20_000, d))
    pts[::101] = shape.center
    got = membership(shape, pts)
    assert np.array_equal(got, _membership_one_pass(shape, pts))
    assert got[::101].all() and 0.1 < got.mean() < 0.9


@pytest.mark.parametrize("d,n", [(2, 20), (2, 25), (3, 8)])
def test_cached_boundary_data_are_the_inline_expressions(d, n):
    from isoshape.energy import _norms
    shape = random_star(np.random.default_rng(n), n=n, d=d, amp=0.2,
                        center_scale=0.3)
    g, r = shape.grid, shape.radii
    comps = g.grad_components(r)
    T = r[:, None] * g.nodes
    for c, t in zip(comps, g.tangent_frame):
        T -= c[:, None] * t
    want = {"points": shape.center[None, :] + r[:, None] * g.nodes,
            "normals": (g.weights * r ** (d - 2))[:, None] * T,
            "slope_sq": sum(c * c for c in comps)}
    for name, value in want.items():
        got = getattr(shape, name)
        assert np.array_equal(got, value), name
        assert not got.flags.writeable, name
        assert getattr(shape, name) is got, name
    assert np.array_equal(_norms(shape.points),
                          np.linalg.norm(shape.points, axis=1))


@pytest.mark.parametrize("n", [64, 256])
def test_ray_radius_reaches_a_spline_beyond_the_nodal_maximum(n):
    # a wave of k = n/4 crests: the spline overshoots the largest radius
    # between the nodes, beyond the nodal bracket |c| + max(radii)
    g = make_grid(2, n)
    shape = StarShape(grid=g, center=np.array([0.0, 1e-3]),
                      radii=1.0 + 0.2 * np.cos(n // 4 * g.theta + 0.3))
    assert _spline_range(shape)[1] > shape.max_radius * (1.0 + 1e-4)
    lo, hi = np.zeros(g.n_nodes), np.full(g.n_nodes, 2.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        inside = membership(shape, mid[:, None] * g.nodes)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    np.testing.assert_allclose(ray_radius(shape), 0.5 * (lo + hi),
                               rtol=1e-12, atol=0.0)


def _ray_radius_64_steps(shape):
    """The ray cast with all 64 bisection steps."""
    g = shape.grid
    lo = np.zeros(g.n_nodes)
    hi = np.full(g.n_nodes, float(np.linalg.norm(shape.center))
                 + shape.max_radius * (1.0 + 1e-9))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = membership(shape, mid[:, None] * g.nodes)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("d,n", [(2, 20), (2, 64), (3, 12), (3, 20)])
def test_ray_radius_stops_at_its_fixed_point(d, n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        shape = random_star(rng, n=n, d=d, amp=0.2, center_scale=0.3)
        assert np.linalg.norm(shape.center) > 0.0
        assert np.array_equal(ray_radius(shape), _ray_radius_64_steps(shape))


def _ball_crossing(e, c, R):
    """t = e.c + sqrt((e.c)^2 - |c|^2 + R^2), the crossing of the ray
    t e with the sphere |x - c| = R, in 40-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        D = decimal.Decimal
        c = [D(float(x)) for x in c]
        cc = sum(x * x for x in c)
        out = []
        for row in e:
            ec = sum(D(float(x)) * y for x, y in zip(row, c))
            out.append(float(ec + (ec * ec - cc + D(R) * D(R)).sqrt()))
    return np.array(out)


@pytest.mark.parametrize("d,n", [(2, 20), (2, 64), (3, 8), (3, 12)])
def test_ray_radius_of_an_off_center_ball_is_its_closed_form_crossing(d, n):
    # every ray within 4 ulps of the exact crossing; the interpolated
    # radius of a ball is R in every direction, so the estimate is the
    # crossing up to rounding at every |c|
    g = make_grid(d, n)
    rng = np.random.default_rng(40 + n)
    for c_norm in (1e-11, 1e-5, 1e-2, 0.2):
        u = rng.standard_normal(d)
        R = float(rng.uniform(0.5, 1.5))
        c = c_norm * u / np.linalg.norm(u)
        want = _ball_crossing(g.nodes, c, R)
        got = ray_radius(make_ball(R, c, g))
        assert (np.abs(got - want) <= 4 * np.spacing(want)).all(), c_norm


def _near_round(d, n):
    """An off-center shape a hair from the unit ball: |c| = 1e-5 and a
    1e-3 ripple of mode 2."""
    g = make_grid(d, n)
    x = g.nodes
    mode = x[:, 0] ** 2 - x[:, 1] ** 2 if d == 2 else 1.5 * x[:, 2] ** 2 - 0.5
    return StarShape(grid=g, center=np.full(d, 1e-5 / math.sqrt(d)),
                     radii=1.0 + 1e-3 * mode)


@pytest.mark.parametrize("d,n", [(2, 20), (2, 64), (3, 8), (3, 12)])
def test_ray_radius_of_a_near_round_shape_is_a_flip_from_a_narrow_bracket(
        monkeypatch, d, n):
    # the estimate certifies every ray: one bisection from brackets of
    # 32 ulps; each radius x is a flip of the membership test between x
    # and a neighbouring float, within 3 ulps of the cast from [0, top]
    shape = _near_round(d, n)
    bisect = geometry._bisect
    brackets = []

    def spy(shape, e, lo, hi):
        brackets.append((lo.copy(), hi.copy()))
        return bisect(shape, e, lo, hi)

    monkeypatch.setattr(geometry, "_bisect", spy)
    got = ray_radius(shape)
    assert len(brackets) == 1
    lo, hi = brackets[0]
    assert lo.size == got.size and (hi - lo <= 32 * np.spacing(hi)).all()

    def inside(t):
        return membership(shape, t[:, None] * shape.grid.nodes)

    up, down = np.nextafter(got, math.inf), np.nextafter(got, 0.0)
    flip = inside(got) & ~inside(up) | inside(down) & ~inside(got)
    assert flip.all()
    full = _ray_radius_64_steps(shape)
    assert (np.abs(got - full) <= 3 * np.spacing(full)).all()
