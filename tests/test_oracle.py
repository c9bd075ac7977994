"""Independent verification paths: rasters, Monte Carlo, checkers."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import isoshape.oracle as OR
from isoshape.errors import (
    DegenerateAnnulusError,
    MassPreconditionError,
    OutOfBoundsError,
    OverlapError,
    ResolutionError,
    ValidationError,
)
from isoshape.geometry import (
    Configuration,
    StarShape,
    config_membership,
    dilate,
    make_ball,
    make_grid,
    radial_at_directions,
)
from isoshape.oracle import (
    EDGE_FACTOR,
    RasterSet,
    check_en_lower_bound,
    check_rel_isop,
    check_v_lipschitz,
    lattice_riesz,
    mc_riesz,
    raster_from_predicate,
    raster_measures,
    rasterize,
    random_star,
    run_en_lower_bound,
    run_raster_agreement,
    run_rel_isop,
    run_v_lipschitz,
    symmetric_difference_area,
    weighted_density,
)

from closed_forms import exact_ball


def _disk_raster(R=1.0, h=0.005):
    ball = make_ball(R, np.zeros(2), make_grid(2, 128))
    return rasterize(ball, h)


def _square_raster(x_lo=0.0, h=0.05):
    def pred(x, y):
        return ((x >= x_lo) & (x <= x_lo + 1.0)
                & (y >= 0.0) & (y <= 1.0))
    return raster_from_predicate(
        pred, ((x_lo, x_lo + 1.0), (0.0, 1.0)), h)


def test_raster_set_validation():
    with pytest.raises(ValidationError):
        RasterSet(h=0.0, x0=0.0, y0=0.0, mask=np.ones((4, 4), dtype=bool))
    with pytest.raises(ValidationError):
        RasterSet(h=0.1, x0=0.0, y0=0.0, mask=np.ones(16, dtype=bool))


def test_unit_square_volume_exact():
    rs = _square_raster()
    assert rs.volume == pytest.approx(1.0, abs=1e-12)
    assert rs.count == 400


def test_disk_raster_calibration():
    rs = _disk_raster(h=0.005)
    vol, per, wper = raster_measures(rs, 2.0)
    assert vol == pytest.approx(math.pi, rel=1e-3)
    # boundary |x| = 1, so the p = 2 weighted perimeter matches the
    # plain one up to pixel jitter of the density at the edge midpoints
    assert per == pytest.approx(2 * math.pi, rel=0.01)
    assert wper == pytest.approx(2 * math.pi, rel=0.01)
    assert wper == pytest.approx(per, rel=5e-3)


def test_rasterize_guards():
    small = make_ball(0.05, np.zeros(2), make_grid(2, 64))
    with pytest.raises(ResolutionError):
        rasterize(small, 0.02)
    with pytest.raises(ValidationError):
        rasterize(make_ball(1.0, np.zeros(3), make_grid(3, 12)), 0.1)
    for h in (-0.1, math.inf, math.nan):
        with pytest.raises(ValidationError):
            rasterize(make_ball(1.0, np.zeros(2), make_grid(2, 64)), h)
    with pytest.raises(ValidationError):
        rasterize(Configuration(()), 0.1)


def test_symmetric_difference_exact_cells():
    a = _square_raster(0.0)
    b = _square_raster(0.1)
    assert symmetric_difference_area(a, b) == pytest.approx(0.2, abs=1e-12)
    assert symmetric_difference_area(a, a) == 0.0

    other_h = _square_raster(0.0, h=0.04)
    with pytest.raises(ValidationError):
        symmetric_difference_area(a, other_h)
    shifted = RasterSet(h=0.05, x0=0.025, y0=0.0,
                        mask=np.ones((20, 20), dtype=bool))
    with pytest.raises(ValidationError):
        symmetric_difference_area(a, shifted)


def test_mc_riesz_deterministic_and_guarded():
    disk = make_ball(1.0, np.zeros(2), make_grid(2, 64))
    est1, se1 = mc_riesz(disk, None, 0.5, 1_000_000, 7)
    est2, se2 = mc_riesz(disk, None, 0.5, 1_000_000, 7)
    assert (est1, se1) == (est2, se2)
    est3, _ = mc_riesz(disk, None, 0.5, 1_000_000, 8)
    assert est3 != est1
    assert se1 > 0.0

    with pytest.raises(ValidationError):
        mc_riesz(disk, None, 0.5, 250_000, 7)
    with pytest.raises(ValidationError):
        mc_riesz(disk, None, 2.5, 1_000_000, 7)


def test_mc_riesz_validates_before_sampling(monkeypatch):
    disk = make_ball(1.0, np.zeros(2), make_grid(2, 32))
    ball = make_ball(1.0, np.zeros(3), make_grid(3, 8))

    def no_sampler(obj):
        raise AssertionError("a sampler was built before validation")

    monkeypatch.setattr(OR, "_sampler", no_sampler)
    for args in ((disk, ball, 0.5, 1_000_000, 7),     # d=2 against d=3
                 (ball, disk, 0.5, 1_000_000, 7),
                 (disk, None, 0.5, 1.5e6, 7),         # not an integer
                 (disk, None, 0.5, 1e6, 7),
                 (disk, None, 0.5, True, 7),
                 (disk, None, 0.5, 1_000_000, -1),    # seeds
                 (disk, None, 0.5, 1_000_000, 1.5),
                 (disk, None, 2.0, 1_000_000, 7),     # alpha outside (0, d)
                 (disk, None, 0.0, 1_000_000, 7),
                 (disk, None, math.nan, 1_000_000, 7),
                 ("disk", None, 0.5, 1_000_000, 7)):
        with pytest.raises(ValidationError):
            mc_riesz(*args)
    # a raster's Riesz energy is the lattice sum, not a Monte Carlo draw
    raster = _square_raster()
    for args in ((raster, None, 0.5, 1_000_000, 7),
                 (raster, disk, 0.5, 1_000_000, 7),
                 (disk, raster, 0.5, 1_000_000, 7)):
        with pytest.raises(ValidationError, match="lattice_riesz"):
            mc_riesz(*args)
    # overlapping components would be sampled as if disjoint: two disks
    # 0.3 apart read 4.03 where each alone reads 1.05
    g2 = make_grid(2, 64)
    overlap = Configuration((make_ball(0.5, np.zeros(2), g2),
                             make_ball(0.5, np.array([0.3, 0.0]), g2)))
    for args in ((overlap, None, 0.5, 1_000_000, 1),
                 (disk, overlap, 0.5, 1_000_000, 1)):
        with pytest.raises(OverlapError):
            mc_riesz(*args)


# (estimate, standard error) of mc_riesz, frozen bit for bit: any change
# to the draw order of the random stream or to the arithmetic moves them
MC_FROZEN = {
    "disk": (11.838976239330961, 0.005008796785616734),
    "ball": (12.419437212212848, 0.009238601361983671),
    "cross": (0.03841097118510646, 7.058538695432608e-06),
    "config": (0.2614929857048456, 0.0001554120471945991),
}


def test_mc_riesz_frozen_stream():
    g2 = make_grid(2, 64)
    a = make_ball(0.25, np.zeros(2), g2)
    b = make_ball(0.25, np.array([1.0, 0.2]), g2)
    cases = {
        "disk": (make_ball(1.0, np.array([0.1, -0.05]), g2), None, 0.5, 3),
        "ball": (make_ball(0.9, np.array([0.05, 0.0, -0.1]),
                           make_grid(3, 12)), None, 1.0, 4),
        "cross": (a, b, 1.0, 6),
        "config": (Configuration((a, b)), None, 0.5, 8),
    }
    for name, (set_a, set_b, alpha, seed) in cases.items():
        got = mc_riesz(set_a, set_b, alpha, 1_000_000, seed)
        assert got == MC_FROZEN[name], name


# frozen before the samplers drew into reused point buffers, on the paths
# MC_FROZEN leaves out: retry passes of more than 1024 samples (strongly
# non-round stars), a d=3 configuration's components drawn into row
# slices and then permuted, and a last chunk of 5 samples
MC_FROZEN_PATHS = {
    "star d=2": (1.584567239743452, 0.0006868906535090032),
    "star d=3": (1.9156402435358837, 0.0014229571958010794),
    "config d=3": (2.1002084937039283, 0.0017457179958598789),
    "short chunk": (11.834941311084103, 0.0049000257167886325),
}


def test_mc_riesz_frozen_stream_paths():
    g3 = make_grid(3, 12)
    star3 = random_star(np.random.default_rng(33), n=12, d=3, amp=0.3)
    cases = {
        "star d=2": (random_star(np.random.default_rng(31), n=64, d=2,
                                 amp=0.3), 0.5, 1_000_000, 10),
        "star d=3": (random_star(np.random.default_rng(32), n=12, d=3,
                                 amp=0.3), 1.0, 1_000_000, 11),
        "config d=3": (Configuration((star3, make_ball(
            0.3, np.array([1.5, 0.0, 0.1]), g3))), 1.0, 1_000_000, 12),
        "short chunk": (make_ball(1.0, np.array([0.1, -0.05]),
                                  make_grid(2, 64)), 0.5, 2 ** 20 + 5, 13),
    }
    for name, (obj, alpha, n_samples, seed) in cases.items():
        got = mc_riesz(obj, None, alpha, n_samples, seed)
        assert got == MC_FROZEN_PATHS[name], name


def test_mc_riesz_working_set():
    # two (2^19, 3) point buffers and the kernel hold 28 MiB; a draw's
    # uniforms and the block temporaries come on top (38.8 MiB in all),
    # where fresh arrays for every draw reach 70.7 MiB
    ball = make_ball(1.0, np.zeros(3), make_grid(3, 12))
    tracemalloc.start()
    try:
        mc_riesz(ball, None, 1.0, 1_000_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2 ** 20


@pytest.mark.parametrize("n", [64, 256])
def test_shape_sampler_envelope_bounds_the_spline(n):
    # r = 1 + 0.2 cos(k theta + 0.3) with k = n/4 peaks between the
    # 4096 scan directions; the angular rejection is exact only under a
    # true majorant of the spline
    g = make_grid(2, n)
    wavy = StarShape(grid=g, center=np.zeros(2),
                     radii=1.0 + 0.2 * np.cos(n // 4 * g.theta + 0.3))
    dense = wavy.spline(np.linspace(0.0, 2.0 * math.pi, 2_000_001))
    assert OR._envelope(wavy) >= dense.max()
    # a shape the padded scan already covers keeps the scan's value
    star = random_star(np.random.default_rng(n), n=n, d=2, amp=0.1, kmax=3)
    ang = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    scan = float(radial_at_directions(
        star, np.stack([np.cos(ang), np.sin(ang)], axis=1)).max())
    assert OR._envelope(star) == scan * (1.0 + 1e-5)


def test_mc_riesz_ball_d3_exact():
    # V(B_1) = 32 pi^2 / 15 in d=3 at alpha=1; 2 alpha < d, so the
    # sample standard error is trustworthy and 3 sigma is a real gate
    ball = make_ball(1.0, np.zeros(3), make_grid(3, 24))
    est, se = mc_riesz(ball, None, 1.0, 1_000_000, 11)
    assert type(est) is float and type(se) is float
    exact = 32 * math.pi ** 2 / 15
    assert abs(est - exact) <= 3 * se
    assert se < 0.005 * exact


def test_mc_riesz_far_cross_term():
    a = make_ball(0.25, np.zeros(2), make_grid(2, 64))
    b = make_ball(0.25, np.array([8.0, 0.0]), make_grid(2, 64))
    est, se = mc_riesz(a, b, 1.0, 1_000_000, 13)
    far = (math.pi * 0.25 ** 2) ** 2 / 8.0
    assert est == pytest.approx(far, rel=5e-3)
    assert abs(est - far) <= 3 * se + 2e-3 * far


def test_mc_riesz_sampler_homogeneity():
    rng = np.random.default_rng(17)
    shape = random_star(rng, n=64, d=2, amp=0.08, kmax=3)
    big = dilate(shape, 2.0)
    alpha = 0.5
    est1, se1 = mc_riesz(shape, None, alpha, 1_000_000, 21)
    est2, se2 = mc_riesz(big, None, alpha, 1_000_000, 22)
    factor = 2.0 ** (2 * 2 - alpha)
    assert abs(est2 - factor * est1) <= 3 * math.hypot(se2, factor * se1)


def test_halfplane_relative_perimeter_direction_averaged():
    # a line through the origin meets the annulus 1 < |x| < 2 in two
    # segments of total length 2; the staircase estimate is only
    # isotropic on average, so gate the 8-angle mean, not each angle
    h = 1.0 / 96
    lengths = []
    for i in range(8):
        ang = i * math.pi / 8 + 0.0123
        nrm = np.array([math.cos(ang), math.sin(ang)])

        def pred(x, y):
            return ((x * nrm[0] + y * nrm[1] <= 0.0)
                    & (np.sqrt(x * x + y * y) <= 3.0))

        rs = raster_from_predicate(pred, ((-3.2, 3.2), (-3.2, 3.2)), h)
        lhs, per, ratio = check_rel_isop(rs, 0)
        assert lhs == pytest.approx(math.sqrt(1.5 * math.pi), rel=0.02)
        assert ratio == pytest.approx(lhs / per, rel=1e-12)
        lengths.append(per)
    assert np.mean(lengths) == pytest.approx(2.0, abs=0.05)


def _exposed_midpoints(rs):
    """Midpoint of every exposed edge, cell by cell in four directions."""
    m = np.pad(rs.mask, 1, constant_values=False)
    core = m[1:-1, 1:-1]
    mids = []
    for (di, dj), (oi, oj) in (((1, 0), (1.0, 0.5)), ((-1, 0), (0.0, 0.5)),
                               ((0, 1), (0.5, 1.0)), ((0, -1), (0.5, 0.0))):
        nb = m[1 + di:m.shape[0] - 1 + di, 1 + dj:m.shape[1] - 1 + dj]
        ii, jj = np.nonzero(core & ~nb)
        mids.append(np.stack([rs.x0 + (ii + oi) * rs.h,
                              rs.y0 + (jj + oj) * rs.h], axis=1))
    return np.concatenate(mids)


def _rel_isop_reference(rs, j):
    """check_rel_isop by enumerating the midpoint of every exposed edge."""
    mids = _exposed_midpoints(rs)
    r_in, r_out = 2.0 ** j, 2.0 ** (j + 1)
    cx, cy = rs.cell_centers()
    rho2 = cx[:, None] ** 2 + cy[None, :] ** 2
    in_annulus = (rho2 >= r_in * r_in) & (rho2 < r_out * r_out)
    inter = int(np.count_nonzero(rs.mask & in_annulus)) * rs.h ** 2
    area = math.pi * (r_out ** 2 - r_in ** 2)
    minus = max(area - inter, 0.0)
    lhs = min(inter, minus) ** 0.5
    rr = np.linalg.norm(mids, axis=1)
    per = OR.EDGE_FACTOR * rs.h * int(np.count_nonzero(
        (rr > r_in) & (rr < r_out)))
    if per == 0.0:
        if min(inter, minus) > 16.0 * rs.h * r_out:
            raise DegenerateAnnulusError("no relative perimeter")
        return lhs, per, 0.0
    return lhs, per, 0.0 if lhs == 0.0 else lhs / per


def _rel_isop_cases():
    rng = np.random.default_rng(12)
    for j in range(4):
        r_in = 2.0 ** j
        h = r_in / 40
        for ang, off in ((0.0, 0.0), (0.7, 0.3 * r_in), (4.1, -0.45 * r_in)):
            yield OR._halfplane_raster(ang, off, 2 * r_in, h), j
        shape = random_star(rng, n=64, d=2, amp=0.25, kmax=5,
                            center_scale=0.3, normalize=False)
        yield rasterize(dilate(shape, 1.7 * r_in
                               / float(shape.radii.mean())), h), j
    g = make_grid(2, 64)
    # annulus 1 < |x| < 2 clipped by the raster box, entirely outside it,
    # and a box off the origin
    yield rasterize(make_ball(1.5, np.zeros(2), g), 1.0 / 64), 0
    yield rasterize(make_ball(1.0, np.array([10.0, 10.0]), g), 1.0 / 32), 0
    yield rasterize(make_ball(1.3, np.array([0.7, -0.4]), g), 1.0 / 48), 0
    # lattices not anchored at multiples of h, random and extreme masks
    for shape in ((100, 90), (7, 130)):
        for mask in (rng.random(shape) < 0.5, np.zeros(shape, dtype=bool),
                     np.ones(shape, dtype=bool)):
            for j in (0, 1):
                yield RasterSet(h=0.05, x0=-2.013, y0=-1.37, mask=mask), j


def test_rel_isop_matches_midpoint_enumeration():
    n = 0
    for rs, j in _rel_isop_cases():
        assert check_rel_isop(rs, j) == _rel_isop_reference(rs, j)
        n += 1
    assert n == 31


def test_rel_isop_shared_annulus_matches_fresh_masks():
    # run_rel_isop's seven cuts per annulus, checked on one shared clip
    # disk and annulus and on masks built afresh for every cut
    rng = np.random.default_rng(0)
    for j in range(4):
        r_in, r_out = 2.0 ** j, 2.0 ** (j + 1)
        h = r_in / 192
        disk = OR._clip_disk(r_out, h)
        annulus = OR._Annulus(disk, j)
        cuts = [(0.0, 0.0)] + [(rng.uniform(0, 2 * math.pi),
                                rng.uniform(-0.5, 0.5) * r_in)
                               for _ in range(6)]
        for ang, off in cuts:
            fresh = OR._halfplane_raster(ang, off, r_out, h)
            shared = OR._halfplane_raster(ang, off, r_out, h, disk)
            assert np.array_equal(shared.mask, fresh.mask)
            assert (shared.h, shared.x0, shared.y0) \
                == (fresh.h, fresh.x0, fresh.y0)
            assert annulus.check(shared) == check_rel_isop(fresh, j)
        other = OR._halfplane_raster(0.0, 0.0, r_out, h / 2)
        with pytest.raises(ValidationError):
            annulus.check(other)


def test_raster_measures_matches_midpoint_enumeration():
    for rs, _ in _rel_isop_cases():
        mids = _exposed_midpoints(rs)
        for p in (0.0, 1.0, 2.0, 2.5):
            vol, per, wper = raster_measures(rs, p)
            assert vol == rs.volume
            assert per == OR.EDGE_FACTOR * rs.h * mids.shape[0]
            # same edge weights, summed in another order
            ref = OR.EDGE_FACTOR * rs.h * float(
                (np.linalg.norm(mids, axis=1) ** p).sum())
            assert wper == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_rel_isop_degenerate_annulus(monkeypatch):
    # with a zero edge weight every proper intersection has no relative
    # perimeter, so both forms must take the DegenerateAnnulusError path
    monkeypatch.setattr(OR, "EDGE_FACTOR", 0.0)
    rs = OR._halfplane_raster(0.3, 0.0, 2.0, 1.0 / 40)
    for check in (check_rel_isop, _rel_isop_reference):
        with pytest.raises(DegenerateAnnulusError):
            check(rs, 0)
    empty = RasterSet(h=0.05, x0=-2.5, y0=-2.5,
                      mask=np.zeros((100, 100), dtype=bool))
    assert check_rel_isop(empty, 0) == _rel_isop_reference(empty, 0) \
        == (0.0, 0.0, 0.0)


def test_halfplane_raster_matches_point_cloud():
    for j, ang, off in ((0, 0.0, 0.0), (1, 1.234, 0.4), (2, 5.5, -1.7),
                        (3, 2.9, 3.0)):
        r_out = 2.0 ** (j + 1)
        h = r_out / 96
        rs = OR._halfplane_raster(ang, off, r_out, h)
        cx, cy = rs.cell_centers()
        pts = np.stack(np.meshgrid(cx, cy, indexing="ij"),
                       axis=-1).reshape(-1, 2)
        nrm = np.array([math.cos(ang), math.sin(ang)])
        ref = ((pts @ nrm <= off)
               & (np.linalg.norm(pts, axis=1) <= 1.5 * r_out))
        assert np.array_equal(rs.mask, ref.reshape(rs.mask.shape))


def test_weighted_density_probes():
    rs = raster_from_predicate(lambda x, y: x * x + y * y <= 1.0,
                               ((-1.3, 1.3), (-1.3, 1.3)), 0.005)
    assert weighted_density(rs, (0.0, 0.0), 0.3, 0.0) == 0.0
    # lens fractions of B_0.15((1, 0)) against the unit disk, computed
    # on a 0.0005 reference grid; the |x|^2 weight favors the outer half
    for p, lens in ((0.0, 0.4841), (2.0, 0.4212)):
        val = weighted_density(rs, (1.0, 0.0), 0.15, p)
        assert val == pytest.approx(lens, abs=0.02)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 2)
        val = weighted_density(rs, x, 0.2, 2.0)
        assert 0.0 <= val <= 0.5
    with pytest.raises(OutOfBoundsError):
        weighted_density(rs, (1.2, 0.0), 0.5, 2.0)
    for x, r, p in (((0.0, 0.0), -1.0, 2.0), ((0.0, 0.0), 0.0, 2.0),
                    ((0.0, 0.0), math.nan, 2.0), ((0.0, 0.0), 0.3, math.nan),
                    ((0.0, 0.0), 0.3, -1.0), ((0.0, 0.0), 0.3, math.inf),
                    ((math.nan, 0.0), 0.3, 2.0)):
        with pytest.raises(ValidationError):
            weighted_density(rs, x, r, p)


def test_v_lipschitz_mass_precondition():
    rs = _disk_raster(h=0.01)  # area pi > 1
    with pytest.raises(MassPreconditionError):
        check_v_lipschitz(rs, rs, 1.0)


def test_en_lower_bound_expansion():
    lhs, expansion = check_en_lower_bound(1e-4, 2.0, 2)
    assert lhs > 0.0
    assert lhs / expansion == pytest.approx(1.0, abs=0.02)
    with pytest.raises(ValidationError):
        check_en_lower_bound(0.5, 2.0, 2)
    with pytest.raises(ValidationError):
        check_en_lower_bound(1e-4, 0.0, 2)


def test_run_all_checks_validates_before_checking(monkeypatch):
    def no_corpus(**kwargs):
        raise AssertionError("a corpus ran before validation")

    monkeypatch.setattr(OR, "run_raster_agreement", no_corpus)
    for seed in (-1, 1.5, math.nan, None, "0", True):
        with pytest.raises(ValidationError):
            OR.run_all_checks(seed=seed)


def test_random_star_contract():
    rng = np.random.default_rng(5)
    from isoshape.geometry import volume
    for d, n in ((2, 64), (3, 16)):
        shape = random_star(rng, n=n, d=d)
        assert volume(shape) == pytest.approx(1.0, rel=1e-12)
        assert shape.radii.min() > 0.0
    fixed = random_star(np.random.default_rng(9), n=64, d=2)
    again = random_star(np.random.default_rng(9), n=64, d=2)
    assert np.array_equal(fixed.radii, again.radii)
    assert np.array_equal(fixed.center, again.center)


def test_checker_suites_single_trials():
    rep = run_raster_agreement(seed=1, trials=3)
    assert rep["check"] == "raster_agreement"
    assert rep["violations"] == 0
    assert rep["worst_margin"] > 0.0

    rep = run_v_lipschitz(seed=1, trials=2)
    assert rep["violations"] == 0

    rep = run_rel_isop(seed=1, blobs=2)
    assert rep["violations"] == 0
    assert len(rep["params"]["constants"]) == 4

    rep = run_en_lower_bound()
    assert rep["violations"] == 0
    assert rep["worst_margin"] > 0.0


def _plain_mask(obj, rs):
    """The mask of ``rs``'s lattice by the membership test on every cell."""
    if isinstance(obj, StarShape):
        obj = Configuration((obj,))
    cx, cy = rs.cell_centers()
    pts = np.stack(np.broadcast_arrays(cx[:, None], cy[None, :]), axis=-1)
    return config_membership(obj, pts.reshape(-1, 2)).reshape(rs.mask.shape)


@pytest.mark.parametrize("n", [20, 64, 128])
def test_spline_range_brackets_the_spline(n):
    # the rasterize shortcut is exact only if no spline value lies
    # outside (r_min (1 - 1e-12), r_max (1 + 1e-12))
    rng = np.random.default_rng(n)
    dense = np.linspace(0.0, 2.0 * math.pi, 400_001)
    for amp in (0.08, 0.25):
        star = random_star(rng, n=n, d=2, amp=amp, kmax=5)
        r_min, r_max = OR._spline_range(star)
        vals = star.spline(dense)
        assert r_min * (1.0 - 1e-12) <= vals.min() <= r_min + 1e-9
        assert r_max * (1.0 + 1e-12) >= vals.max() >= r_max - 1e-9


@pytest.mark.parametrize("amp", [0.08, 0.25])
@pytest.mark.parametrize("h", [1.0 / 128, 1.0 / 512])
def test_rasterize_shortcut_matches_the_membership_test(amp, h):
    rng = np.random.default_rng(int(amp * 100))
    for _ in range(2):
        star = random_star(rng, n=64, d=2, amp=amp, kmax=5)
        rs = rasterize(star, h)
        assert np.array_equal(rs.mask, _plain_mask(star, rs))


def test_rasterize_shortcut_matches_the_membership_test_on_two_components():
    rng = np.random.default_rng(4)
    a = dilate(random_star(rng, n=64, d=2, amp=0.25, kmax=5), 0.5)
    b = StarShape(grid=a.grid, center=a.center + np.array([1.2, 0.3]),
                  radii=a.radii[::-1] * 0.8)
    pair = Configuration((a, b))
    for h in (1.0 / 128, 1.0 / 512):
        rs = rasterize(pair, h)
        assert np.array_equal(rs.mask, _plain_mask(pair, rs))


def test_kappa_closed_form_at_lag_zero():
    # mean of |x - y|^(-1) over the unit square, squared cell area 1
    exact = 4.0 / 3.0 * (1.0 - math.sqrt(2.0)) \
        + 4.0 * math.log(1.0 + math.sqrt(2.0))
    assert abs(OR._kappa(0, 0, 1.0) - exact) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_kappa_has_the_lattice_symmetries(alpha):
    # the signed triangle sums cancel to about |D|^3 ulp of kappa(D)
    for d1, d2 in ((0, 0), (1, 0), (1, 1), (3, -2), (7, 4), (16, 9)):
        images = [(d1, d2), (-d1, d2), (d1, -d2), (-d1, -d2),
                  (d2, d1), (-d2, d1), (d2, -d1), (-d2, -d1)]
        vals = np.array([OR._kappa(a, b, alpha) for a, b in images])
        assert np.ptp(vals) <= 1e-11 * vals[0], (d1, d2)


def _direct_lattice_sum(mask, h, alpha, lags):
    """V by the double loop over occupied cell pairs: kappa from
    ``_kappa_table`` up to |D|_inf = lags, the far field beyond."""
    ii, jj = np.nonzero(mask)
    d1 = np.abs(ii[:, None] - ii[None, :])
    d2 = np.abs(jj[:, None] - jj[None, :])
    r2 = (d1 ** 2 + d2 ** 2).astype(float)
    r2[r2 == 0.0] = 1.0
    kap = r2 ** (-0.5 * alpha) * (1.0 + alpha ** 2 / (12.0 * r2))
    near = np.maximum(d1, d2) <= lags
    kap[near] = OR._kappa_table(alpha)[d1[near], d2[near]]
    return h ** (4.0 - alpha) * math.fsum(kap.ravel())


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_lattice_riesz_matches_the_direct_pair_sum(alpha):
    mask = np.random.default_rng(20).random((20, 20)) < 0.5
    rs = RasterSet(h=0.05, x0=-0.5, y0=-0.5, mask=mask)
    # the FFT's lag counts are the exact pair counts
    ii, jj = np.nonzero(mask)
    counts = np.zeros(mask.shape)
    np.add.at(counts, (np.abs(ii[:, None] - ii[None, :]),
                       np.abs(jj[:, None] - jj[None, :])), 1.0)
    assert np.array_equal(OR._lag_counts(mask), counts)
    value, bar = lattice_riesz(rs, alpha)
    v_wide = _direct_lattice_sum(mask, rs.h, alpha, 2 * OR._LAGS)
    v_narrow = _direct_lattice_sum(mask, rs.h, alpha, OR._LAGS)
    assert abs(value - v_wide) <= 1e-12 * v_wide
    assert abs(bar - abs(v_wide - v_narrow)) <= 1e-12 * v_wide
    assert bar > 0.0


def _subdivided(rs, k):
    """The same set on the lattice of pixel size h / k."""
    return RasterSet(h=rs.h / k, x0=rs.x0, y0=rs.y0,
                     mask=np.repeat(np.repeat(rs.mask, k, 0), k, 1))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_lattice_riesz_bar_covers_the_subdivided_lattice(alpha):
    disk = make_ball(math.pi ** -0.5, np.zeros(2), make_grid(2, 128))
    star = random_star(np.random.default_rng(3), n=64, d=2, amp=0.25)
    for shape in (disk, star):
        rs = rasterize(shape, 1.0 / 64)
        value, bar = lattice_riesz(rs, alpha)
        fine, _ = lattice_riesz(_subdivided(rs, 4), alpha)
        assert abs(value - fine) <= bar
        assert bar <= 1e-5 * value


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_lattice_riesz_of_a_full_square_is_kappa_at_lag_zero(alpha):
    # the k x k mask at h = 1/k is the unit square, whose V is kappa(0)
    # by definition, whatever k: homogeneity of degree 4 - alpha
    k0 = OR._kappa(0, 0, alpha)
    for k in (2, 3, 5, 8, 16):
        rs = RasterSet(h=1.0 / k, x0=0.0, y0=0.0,
                       mask=np.ones((k, k), dtype=bool))
        value, _ = lattice_riesz(rs, alpha)
        assert abs(value - k0) <= 1e-13 * k0, k


def _tensor_gauss_kappa(d1, d2, alpha):
    """kappa(D) by a tensor Gauss-Legendre rule of 16 points per axis
    over both cells: x - y = D + u - v with u, v in [0, 1]^2."""
    t, w = np.polynomial.legendre.leggauss(16)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    lag = (t[:, None] - t[None, :]).ravel()
    weight = (w[:, None] * w[None, :]).ravel()
    r2 = (d1 + lag)[:, None] ** 2 + (d2 + lag)[None, :] ** 2
    return math.fsum((weight[:, None] * weight[None, :]
                      * r2 ** (-0.5 * alpha)).ravel())


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_kappa_matches_tensor_gauss_away_from_the_singularity(alpha):
    # at |D|_inf >= 2 the two cells are at least a unit apart, so the
    # integrand is smooth and a plain product rule converges fast
    for d1, d2 in ((2, 0), (0, 2), (2, 1), (2, 2), (3, -2), (-5, 3),
                   (7, 4), (8, 8), (16, 0), (16, 9), (16, 16)):
        ref = _tensor_gauss_kappa(d1, d2, alpha)
        assert abs(OR._kappa(d1, d2, alpha) - ref) <= 1e-11 * ref, (d1, d2)


@pytest.mark.parametrize("h", [1.0 / 128, 1.0 / 256, 1.0 / 512])
def test_lattice_riesz_unit_area_disk(h):
    # V of the unit-area disk at alpha = 1 is 16 / (3 sqrt(pi)); the
    # raster's own area error is O(h)
    rs = rasterize(make_ball(math.pi ** -0.5, np.zeros(2), make_grid(2, 128)),
                   h)
    value, bar = lattice_riesz(rs, 1.0)
    assert abs(value - 16.0 / (3.0 * math.sqrt(math.pi))) <= 2e-3
    assert 0.0 < bar <= 1e-6


@pytest.mark.parametrize("h", [1.0 / 128, 1.0 / 256, 1.0 / 512])
def test_lattice_riesz_difference_of_concentric_disks(h):
    # dV between the unit-area disk and the disks of 0.9 and 0.75 its
    # radius, against the closed form; the error is the rasters' own
    # area error, about 1.7e-3 at worst, and the bars are below 1e-5
    R = math.pi ** -0.5
    g = make_grid(2, 128)
    big, *small = [rasterize(make_ball(s * R, np.zeros(2), g), h)
                   for s in (1.0, 0.9, 0.75)]
    for alpha in (0.5, 1.0, 1.5):
        v_big, bar_big = lattice_riesz(big, alpha)
        for s, rs in zip((0.9, 0.75), small):
            value, bar = lattice_riesz(rs, alpha)
            exact = exact_ball(2, alpha) * R ** (4.0 - alpha) \
                * (1.0 - s ** (4.0 - alpha))
            assert abs(v_big - value - exact) <= 5e-3 * exact, (alpha, s)
            assert bar_big + bar <= 1e-5 * exact


def test_lattice_riesz_guards_alpha():
    rs = _square_raster()
    for alpha in (0.0, 2.0, -1.0, math.nan):
        with pytest.raises(ValidationError):
            lattice_riesz(rs, alpha)


def test_lattice_riesz_does_not_depend_on_the_blas_threads():
    code = ("import numpy as np; from isoshape.oracle import lattice_riesz, "
            "random_star, rasterize; "
            "rs = rasterize(random_star(np.random.default_rng(2), n=64, d=2, "
            "amp=0.2), 1.0 / 128); "
            "print(*(repr(v) for a in (0.5, 1.0, 1.5) "
            "for v in lattice_riesz(rs, a)))")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out.append(subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  check=True).stdout)
    assert out[0] == out[1] and len(out[0].split()) == 6
