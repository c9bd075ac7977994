"""Energy terms: weighted perimeter, Riesz quadrature, potential, breakdown."""

import math

import numpy as np
import pytest

from isoshape.energy import (
    VolumeQuadrature,
    boundary_field,
    boundary_sum,
    interaction,
    pair_potential_field,
    pair_sum,
    perimeter_gradient,
    potential,
    riesz_self,
    riesz_sums,
    total_energy,
    weighted_perimeter,
)
from isoshape.errors import OverlapError, ValidationError
from isoshape.geometry import (
    Configuration,
    EnergyParams,
    StarShape,
    dilate,
    make_ball,
    make_grid,
    unit_ball_volume,
)
from isoshape.oracle import random_star

from closed_forms import exact_ball

# Riesz self-energy of the unit disk at alpha=1
V_B1_D2_A1 = 16.0 * math.pi / 3.0


def _ball(d, R, n=96, c=None):
    center = np.zeros(d) if c is None else np.asarray(c, dtype=float)
    return make_ball(R, center, make_grid(d, n))


def test_perimeter_closed_forms():
    p2 = EnergyParams(d=2, p=0.0, alpha=1.0)
    assert weighted_perimeter(_ball(2, 1.0), p2) == pytest.approx(
        2 * math.pi, rel=1e-10)
    p3 = EnergyParams(d=3, p=1.0, alpha=1.0)
    assert weighted_perimeter(_ball(3, 2.0, n=24), p3) == pytest.approx(
        32 * math.pi, rel=1e-10)


def test_perimeter_homogeneity():
    rng = np.random.default_rng(5)
    for d, n in ((2, 64), (3, 16)):
        shape = random_star(rng, n=n, d=d, center_scale=0.0)
        shape = StarShape(grid=shape.grid, center=np.zeros(d),
                          radii=shape.radii)
        for p in (0.5, 2.0):
            params = EnergyParams(d=d, p=p, alpha=1.0)
            base = weighted_perimeter(shape, params)
            for t in (0.5, 2.0):
                got = weighted_perimeter(dilate(shape, t), params)
                assert got == pytest.approx(t ** (d - 1 + p) * base, rel=1e-9)


def _disk_through_origin():
    # unit-area disk centered at (-R, 0): its node at theta = 0 lies
    # exactly on the origin
    grid = make_grid(2, 20)
    R = math.pi ** -0.5
    shape = StarShape(grid=grid, center=np.array([-R, 0.0]),
                      radii=np.full(grid.n_nodes, R))
    (i0,) = np.flatnonzero(np.linalg.norm(shape.points, axis=1) == 0.0)
    return shape, i0


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_perimeter_gradient_rejects_a_node_on_the_origin(p):
    # |y|^p has no derivative at y = 0 for p <= 1
    shape, _ = _disk_through_origin()
    params = EnergyParams(d=2, p=p, alpha=1.0, gamma=0.5)
    assert math.isfinite(weighted_perimeter(shape, params))
    with pytest.raises(ValidationError, match="origin"):
        perimeter_gradient(shape, params)


@pytest.mark.parametrize("p", [0.0, 1.5, 2.0, 3.0])
def test_perimeter_gradient_at_a_node_on_the_origin(p):
    # for p = 0 and p > 1 the derivative of |y|^p at y = 0 is 0: the
    # gradient is finite and matches central differences, at that node
    # too
    shape, i0 = _disk_through_origin()
    params = EnergyParams(d=2, p=p, alpha=1.0)
    gr, gc = perimeter_gradient(shape, params)
    assert np.isfinite(gr).all() and np.isfinite(gc).all()
    h = 1e-6

    def central(dc, dr):
        def P(s):
            return weighted_perimeter(
                StarShape(grid=shape.grid, center=shape.center + s * dc,
                          radii=shape.radii + s * dr), params)
        return (P(h) - P(-h)) / (2 * h)

    for i in (i0, i0 + 1, i0 + 7):
        dr = np.zeros(shape.grid.n_nodes)
        dr[i] = 1.0
        assert gr[i] == pytest.approx(central(np.zeros(2), dr),
                                      rel=1e-7, abs=1e-9)
    for k in range(2):
        dc = np.zeros(2)
        dc[k] = 1.0
        assert gc[k] == pytest.approx(central(dc, 0.0), rel=1e-7, abs=1e-9)


def test_volume_quadrature_weights():
    shape = _ball(2, 1.3)
    vq = VolumeQuadrature.build(shape)
    X, W = vq.nodes(shape)
    assert np.all(W > 0)
    assert math.fsum(W) == pytest.approx(math.pi * 1.3 ** 2, rel=1e-8)
    with pytest.raises(ValidationError):
        VolumeQuadrature(s=np.empty(0), v=np.empty(0), h=vq.h)


def test_empty_configuration_has_no_rule():
    # no rule, energy or file is made of an empty configuration: it
    # cannot be built
    for empty in ((), []):
        with pytest.raises(ValidationError):
            Configuration(empty)


def test_riesz_ball_frozen_reference():
    shape = _ball(2, 1.0, n=128)
    r = riesz_self(shape, EnergyParams(d=2, p=2.0, alpha=1.0),
                   VolumeQuadrature.build(shape))
    assert abs(float(r) - V_B1_D2_A1) <= r.error


def test_riesz_ball_exact_d3():
    shape = _ball(3, 1.0, n=24)
    r = riesz_self(shape, EnergyParams(d=3, p=2.0, alpha=1.0),
                   VolumeQuadrature.build(shape))
    assert float(r) == pytest.approx(32 * math.pi ** 2 / 15, rel=5e-3)
    assert abs(float(r) - 32 * math.pi ** 2 / 15) <= r.error


def test_riesz_homogeneity_ratio():
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    b1, b2 = _ball(2, 1.0), _ball(2, 2.0)
    v1 = float(riesz_self(b1, params, VolumeQuadrature.build(b1)))
    v2 = float(riesz_self(b2, params, VolumeQuadrature.build(b2)))
    assert v2 / v1 == pytest.approx(8.0, rel=1e-4)


def test_riesz_monotone_under_inclusion():
    g = make_grid(2, 48)
    small = make_ball(1e-6, np.zeros(2), g)
    big = make_ball(2e-6, np.zeros(2), g)
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    vs = float(riesz_self(small, params, VolumeQuadrature.build(small)))
    vb = float(riesz_self(big, params, VolumeQuadrature.build(big)))
    assert 0.0 <= vs <= vb


def test_riesz_ball_maximality():
    rng = np.random.default_rng(11)
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    for _ in range(5):
        shape = random_star(rng, n=96, d=2, amp=0.15, center_scale=0.0)
        ball = _ball(2, unit_ball_volume(2) ** -0.5)
        vq = VolumeQuadrature.build(shape)
        vs = riesz_self(shape, params, vq)
        vb = riesz_self(ball, params, VolumeQuadrature.build(ball))
        assert float(vb) >= float(vs) - (vs.error + vb.error)


def test_interaction_bounds_and_symmetry():
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    a = _ball(2, unit_ball_volume(2) ** -0.5)
    b = _ball(2, unit_ball_volume(2) ** -0.5, c=[3.0, 0.0])
    vq = VolumeQuadrature.build(Configuration((a, b)))
    i_ab = interaction(a, b, params, vq)
    i_ba = interaction(b, a, params, vq)
    assert i_ab == i_ba
    rho = unit_ball_volume(2) ** -0.5
    assert 1.0 / (3.0 + 2 * rho) <= i_ab <= 1.0 / (3.0 - 2 * rho)
    with pytest.raises(OverlapError):
        interaction(a, _ball(2, 1.0, c=[0.5, 0.0]), params, vq)


def test_interaction_far_field_limit():
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    a = _ball(2, 0.25)
    area = math.pi * 0.25 ** 2
    prev = math.inf
    for dist in (20.0, 40.0, 80.0):
        b = _ball(2, 0.25, c=[dist, 0.0])
        val = interaction(a, b, params,
                          VolumeQuadrature.build(Configuration((a, b))))
        assert val < prev
        prev = val
        assert dist * val == pytest.approx(area * area, rel=1e-3)


@pytest.mark.parametrize("d,alpha,n", [(2, 1.75, 96), (3, 2.5, 12)])
def test_interaction_far_field_limit_volume_form(d, alpha, n):
    # alpha > 3/2: the volume rule; D^alpha I -> |A| |B| far apart
    params = EnergyParams(d=d, p=2.0, alpha=alpha)
    grid = make_grid(d, n)
    a = make_ball(0.25, np.zeros(d), grid)
    vol = unit_ball_volume(d) * 0.25 ** d
    for dist in (20.0, 40.0, 80.0):
        c = np.zeros(d)
        c[0] = dist
        b = make_ball(0.25, c, grid)
        val = interaction(a, b, params)
        assert val == interaction(b, a, params)
        assert dist ** alpha * val == pytest.approx(vol * vol, rel=1e-3)


def test_interaction_matches_mc_cross_term_volume_form():
    from isoshape.oracle import mc_riesz
    params = EnergyParams(d=2, p=2.0, alpha=1.75)
    a, b = _ball(2, 0.25), _ball(2, 0.25, c=[4.0, 0.0])
    quad = interaction(a, b, params,
                       VolumeQuadrature.build(Configuration((a, b))))
    est, se = mc_riesz(a, b, 1.75, 1_000_000, 42)
    assert abs(quad - est) <= 3 * se


def test_interaction_matches_mc_cross_term():
    # Disjoint-ball cross-check against MC, with R=0.25 so the
    # quadrupole correction ~ alpha R^2 (alpha+2-d) / ((d+2) D^2) sits
    # below the Monte Carlo noise of 1e6 pairs (at R=1 it exceeds 3
    # sigma and the test would reject a correct quadrature).
    from isoshape.oracle import mc_riesz
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    a, b = _ball(2, 0.25), _ball(2, 0.25, c=[4.0, 0.0])
    quad = interaction(a, b, params,
                       VolumeQuadrature.build(Configuration((a, b))))
    est, se = mc_riesz(a, b, 1.0, 1_000_000, 42)
    assert abs(quad - est) <= 3 * se


def test_potential_center_closed_form():
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    ball = _ball(2, 1.0, n=128)
    v0 = potential(ball, np.zeros(2), params)
    assert v0 == pytest.approx(2 * math.pi, rel=2e-3)


def test_potential_far_field():
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    ball = _ball(2, 1.0)
    x = np.array([60.0, 0.0])
    assert 60.0 * potential(ball, x, params) == pytest.approx(
        math.pi, rel=1e-3)


def test_potential_closed_forms_volume_form():
    # alpha > 3/2: the volume rule; v(0) = |S^1| R^(d-alpha) / (d-alpha)
    # at the center and v(x) -> |B| / |x|^alpha far away
    params = EnergyParams(d=2, p=2.0, alpha=1.75)
    ball = _ball(2, 1.0, n=128)
    assert potential(ball, np.zeros(2), params) == pytest.approx(
        2 * math.pi / 0.25, rel=2e-3)
    for d, n, alpha in ((2, 96, 1.75), (3, 12, 2.5)):
        params = EnergyParams(d=d, p=2.0, alpha=alpha)
        x = np.zeros(d)
        x[0] = 60.0
        v = potential(make_ball(1.0, np.zeros(d), make_grid(d, n)), x, params)
        assert 60.0 ** alpha * v == pytest.approx(unit_ball_volume(d), rel=1e-3)


def test_potential_matches_mc_at_boundary():
    # alpha = 0.75 keeps the second moment of the integrand finite at a
    # boundary point (2 alpha < d), so the 3 sigma gate is meaningful.
    rng = np.random.default_rng(4)
    shape = random_star(rng, n=96, d=2, amp=0.08, kmax=3)
    params = EnergyParams(d=2, p=2.0, alpha=0.75)
    j = 17
    x = shape.center + shape.radii[j] * shape.grid.nodes[j]
    quad = potential(shape, x, params)

    lo = shape.center - shape.radii.max() - 0.1
    hi = shape.center + shape.radii.max() + 0.1
    n, hits, total1, total2 = 400_000, 0, [], []
    from isoshape.geometry import config_membership
    cfg = Configuration((shape,))
    box = float(np.prod(hi - lo))
    pts = lo + rng.random((4 * n, 2)) * (hi - lo)
    inside = config_membership(cfg, pts)
    pts = pts[inside][:n]
    kern = ((pts - x) ** 2).sum(axis=1) ** (-params.alpha / 2)
    area = box * inside.mean()
    est = area * float(kern.mean())
    se = area * float(kern.std(ddof=1)) / math.sqrt(pts.shape[0])
    assert abs(quad - est) <= 3 * se + 1e-3


def test_potential_points_and_components():
    rng = np.random.default_rng(11)
    for d, n in ((2, 32), (3, 8)):
        params = EnergyParams(d=d, p=2.0, alpha=1.0)
        a = random_star(rng, n=n, d=d, amp=0.08, kmax=3)
        c = np.zeros(d)
        c[0] = 3.0
        b = make_ball(0.7, c, a.grid)
        cfg = Configuration((a, b))
        vq = VolumeQuadrature.build(cfg)
        pts = rng.standard_normal((4, d))
        vals = potential(cfg, pts, params, vq)
        assert vals.shape == (4,)
        # an array of points gives the per-point values
        for x, v in zip(pts, vals):
            assert potential(cfg, x, params, vq) == v
        # a configuration's potential is the sum over its components
        parts = potential(a, pts, params, vq) + potential(b, pts, params, vq)
        np.testing.assert_allclose(vals, parts, rtol=1e-12)
        # a non-finite point is an error, not a nan value
        for bad in (math.nan, math.inf):
            x = np.zeros(d)
            x[0] = bad
            for obj in (a, cfg):
                with pytest.raises(ValidationError):
                    potential(obj, x, params, vq)


def test_total_energy_breakdown_identities():
    params = EnergyParams(d=2, p=1.0, alpha=1.0, gamma=0.1)
    r0 = math.pi ** -0.5
    ball = _ball(2, r0)
    bd = total_energy(ball, params)
    assert bd.total == pytest.approx(
        bd.weighted_perimeter + params.gamma * bd.riesz, abs=1e-12)
    assert bd.weighted_perimeter == pytest.approx(2.0, rel=1e-10)
    # ball B_{r0} Riesz value from the exact unit-disk value by
    # homogeneity: V(r0 B_1) = r0^(2d-alpha) V(B_1)
    assert bd.riesz == pytest.approx(r0 ** 3 * V_B1_D2_A1,
                                     abs=bd.riesz_error_estimate)
    assert bd.total == pytest.approx(2.0 + 0.1 * bd.riesz, abs=1e-12)


def test_total_energy_gamma_zero_is_perimeter():
    params = EnergyParams(d=2, p=2.0, alpha=1.0, gamma=0.0)
    rng = np.random.default_rng(9)
    shape = random_star(rng, n=64, d=2)
    bd = total_energy(shape, params)
    assert bd.total == weighted_perimeter(shape, params)


def test_total_energy_decomposition_two_components():
    params = EnergyParams(d=2, p=2.0, alpha=1.0, gamma=1.0)
    a = _ball(2, 0.5)
    b = _ball(2, 0.5, c=[2.5, 0.0])
    cfg = Configuration((a, b))
    vq = VolumeQuadrature.build(cfg)
    bd = total_energy(cfg, params, vq)
    parts = (float(riesz_self(a, params, vq))
             + float(riesz_self(b, params, vq))
             + 2.0 * interaction(a, b, params, vq))
    assert bd.riesz == pytest.approx(parts, abs=1e-12)


def test_alpha_range_enforced():
    vq = VolumeQuadrature.build(_ball(2, 1.0))
    with pytest.raises(ValidationError):
        VolumeQuadrature(s=vq.s, v=vq.v, h=-1.0)
    with pytest.raises(ValidationError):
        EnergyParams(d=2, p=2.0, alpha=2.5)
    with pytest.raises(ValidationError):
        EnergyParams(d=2, p=-1.0, alpha=1.0)
    # a non-real exponent or strength is a typed error, not a TypeError
    # from a comparison
    for bad in ({"p": "2"}, {"alpha": None}, {"gamma": None}, {"gamma": 1j}):
        with pytest.raises(ValidationError):
            EnergyParams(**{"d": 2, "p": 2.0, "alpha": 1.0, **bad})


def test_dimension_mismatch_rejected():
    # a d=2 disk under d=3 parameters, and d=3 points against a disk
    disk = _ball(2, 1.0, n=32)
    far = _ball(2, 0.5, n=32, c=(5.0, 0.0))
    p3 = EnergyParams(d=3, p=2.0, alpha=2.5)
    p2 = EnergyParams(d=2, p=2.0, alpha=1.0)
    with pytest.raises(ValidationError):
        riesz_self(disk, p3)
    with pytest.raises(ValidationError):
        interaction(disk, far, p3)
    with pytest.raises(ValidationError):
        potential(disk, np.zeros(2), p3)
    with pytest.raises(ValidationError):
        potential(disk, np.zeros(3), p2)
    with pytest.raises(ValidationError):
        potential(disk, np.zeros((4, 3)), p2)
    with pytest.raises(ValidationError):
        weighted_perimeter(disk, p3)


# ----------------------------------------------------------------------
# pair kernels against a plain broadcast reference
# ----------------------------------------------------------------------

KERNEL_LEVELS = (0.1, 0.05)


def _dense_pairs(XA, XB, alpha, h):
    """Differences, kernel and field kernel of every pair, by broadcasting."""
    diff = XA[:, None, :] - XB[None, :, :]
    s = (diff * diff).sum(axis=2) + h * h
    return diff, s ** (-alpha / 2.0), s ** (-alpha / 2.0 - 1.0)


def _cloud(rng, n, d=2):
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    return X, rng.uniform(0.1, 1.0, size=n)


# sizes around the 64-row minimum block; 1153 rows make eight blocks of 145
# rows, the last one shorter
KERNEL_SIZES = (1, 63, 64, 65, 200, 1153)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_pair_sum_matches_dense_reference(n, alpha):
    rng = np.random.default_rng(n)
    X, W = _cloud(rng, n)
    Y, V = _cloud(rng, n + 5)
    self_sums = pair_sum(X, W, X, W, -alpha / 2.0, KERNEL_LEVELS)
    cross_sums = pair_sum(X, W, Y, V, -alpha / 2.0, KERNEL_LEVELS)
    for t, h in enumerate(KERNEL_LEVELS):
        _, k, _ = _dense_pairs(X, X, alpha, h)
        assert self_sums[t] == pytest.approx(float(W @ k @ W), rel=1e-12)
        _, k, _ = _dense_pairs(X, Y, alpha, h)
        assert cross_sums[t] == pytest.approx(float(W @ k @ V), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_pair_potential_field_matches_dense_reference(n, alpha):
    rng = np.random.default_rng(n)
    X, W = _cloud(rng, n, d=3)
    for (phi, G), h in zip(pair_potential_field(X, W, alpha, KERNEL_LEVELS),
                           KERNEL_LEVELS):
        diff, k, g = _dense_pairs(X, X, alpha, h)
        np.testing.assert_allclose(phi, k @ W, rtol=1e-12)
        G_ref = -alpha * np.einsum("ab,b,abt->at", g, W, diff)
        # G_a = -alpha (X_a sum_b g W_b - sum_b g W_b X_b) cancels towards
        # zero: the absolute floor is 1e-12 of the size of the two terms
        scale = alpha * np.abs(g @ W).max() * np.abs(X).max()
        np.testing.assert_allclose(G, G_ref, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_pair_sum_self_path_equals_cross_path(n):
    rng = np.random.default_rng(n)
    X, W = _cloud(rng, n)
    upper = pair_sum(X, W, X, W, -0.5, KERNEL_LEVELS)
    full = pair_sum(X, W, X.copy(), W, -0.5, KERNEL_LEVELS)
    assert upper == pytest.approx(full, rel=1e-12)


def test_pair_kernels_are_bit_reproducible():
    rng = np.random.default_rng(7)
    X, W = _cloud(rng, 1153)
    Y, V = _cloud(rng, 200)
    assert (pair_sum(X, W, X, W, -0.5, KERNEL_LEVELS)
            == pair_sum(X, W, X, W, -0.5, KERNEL_LEVELS))
    assert (pair_sum(X, W, Y, V, -0.5, KERNEL_LEVELS)
            == pair_sum(X, W, Y, V, -0.5, KERNEL_LEVELS))
    first = pair_potential_field(X, W, 1.0, KERNEL_LEVELS)
    second = pair_potential_field(X, W, 1.0, KERNEL_LEVELS)
    for (phi1, G1), (phi2, G2) in zip(first, second):
        assert np.array_equal(phi1, phi2) and np.array_equal(G1, G2)


# ----------------------------------------------------------------------
# boundary kernel
# ----------------------------------------------------------------------

# sizes around the 64-row minimum block; 1153 rows make eight blocks
BOUNDARY_SIZES = (1, 63, 64, 65, 1153)


def _c_alpha(d, alpha):
    return -1.0 / ((2.0 - alpha) * (d - alpha))


def _boundary_like(rng, n, d):
    """Points and vectors with positive components, so that the sums do
    not cancel and a relative tolerance is meaningful."""
    return (rng.uniform(-1.0, 1.0, size=(n, d)),
            rng.uniform(0.1, 1.0, size=(n, d)))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_boundary_sum_matches_dense_reference(n, alpha):
    rng = np.random.default_rng(n)
    for d in (2, 3):
        Y, N = _boundary_like(rng, n, d)
        Z, M = _boundary_like(rng, n + 5, d)
        for (YA, NA, YB, NB) in ((Y, N, Y, N), (Y, N, Z, M)):
            diff = YA[:, None, :] - YB[None, :, :]
            k = (diff * diff).sum(axis=2) ** (1.0 - alpha / 2.0)
            ref = _c_alpha(d, alpha) * float(np.einsum("ab,at,bt->", k, NA, NB))
            assert boundary_sum(YA, NA, YB, NB, alpha) == pytest.approx(
                ref, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_boundary_field_matches_dense_reference(n, alpha):
    rng = np.random.default_rng(n)
    for d in (2, 3):
        Y, N = _boundary_like(rng, n, d)
        gY, gN = boundary_field(Y, N, alpha)
        diff = Y[:, None, :] - Y[None, :, :]
        d2 = (diff * diff).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        s = d2 ** (-alpha / 2.0)
        np.fill_diagonal(d2, 0.0)
        c = 2.0 * _c_alpha(d, alpha)
        np.testing.assert_allclose(gN, c * (d2 * s) @ N, rtol=1e-12)
        m = s * (N @ N.T)
        gY_ref = c * (2.0 - alpha) * np.einsum("ab,abt->at", m, diff)
        # gY is assembled as Y_a sum_b m_ab - sum_b m_ab Y_b, which cancels
        # towards zero: the absolute floor is 1e-12 of the two terms' size
        scale = abs(c) * (2.0 - alpha) * np.abs(m.sum(axis=1)).max() * np.abs(Y).max()
        np.testing.assert_allclose(gY, gY_ref, rtol=1e-12, atol=1e-12 * scale)


def test_boundary_kernels_are_bit_reproducible():
    rng = np.random.default_rng(7)
    Y, N = _boundary_like(rng, 1153, 3)
    Z, M = _boundary_like(rng, 200, 3)
    assert boundary_sum(Y, N, Y, N, 1.0) == boundary_sum(Y, N, Y, N, 1.0)
    assert boundary_sum(Y, N, Z, M, 1.0) == boundary_sum(Y, N, Z, M, 1.0)
    first, second = boundary_field(Y, N, 1.0), boundary_field(Y, N, 1.0)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_exact_ball_constants_reproduce_closed_forms():
    assert exact_ball(2, 1.0) == pytest.approx(16 * math.pi / 3, rel=1e-12)
    assert exact_ball(3, 1.0) == pytest.approx(32 * math.pi ** 2 / 15,
                                                rel=1e-12)


# the d=2 and d=3 resolution ladders of the error-bar table, plus the odd
# d=2 grid n=25, whose coarse level is the trigonometric interpolant
BAR_CELLS = ([(2, n) for n in (16, 20, 25, 32, 48, 64, 128)]
             + [(3, n) for n in (8, 12, 16, 24, 32)])


@pytest.mark.parametrize("d,n", BAR_CELLS)
def test_boundary_error_bar_covers_exact_ball(d, n):
    for alpha in (0.5, 1.0, 1.5):
        R = 1.3
        ball = make_ball(R, np.full(d, 0.2), make_grid(d, n))
        r = riesz_self(ball, EnergyParams(d=d, p=2.0, alpha=alpha))
        exact = exact_ball(d, alpha) * R ** (2 * d - alpha)
        assert abs(r.value - exact) <= r.error, (alpha, r, exact)


@pytest.mark.parametrize("n", [25, 48])
def test_coarse_level_d2_is_the_half_grid(n):
    # for a band-limited radial graph the coarse level of n nodes is the
    # same shape on the uniform grid of ceil(n/2) angles: the even-indexed
    # nodes for even n, the trigonometric interpolant for odd n
    params = EnergyParams(d=2, p=2.0, alpha=1.0)
    fine, half = make_grid(2, n), make_grid(2, (n + 1) // 2)

    def radii(theta):
        return 1.0 + 0.1 * np.cos(2 * theta) + 0.05 * np.sin(3 * theta)

    shape = StarShape(grid=fine, center=np.array([0.3, -0.1]),
                      radii=radii(fine.theta))
    coarse = StarShape(grid=half, center=shape.center, radii=radii(half.theta))
    _, s_c = riesz_sums((shape,), params, None)
    s_half, _ = riesz_sums((coarse,), params, None)
    assert s_c == pytest.approx(s_half, rel=1e-13)


@pytest.mark.parametrize("n", [9, 25, 257, 1025])
def test_odd_coarse_level_is_the_trigonometric_interpolant(n):
    # the FFT fold of _coarse_nodes against the interpolant summed term by
    # term, with each angle j k 2 pi / m reduced mod 2 pi in integers
    from isoshape.energy import _coarse_nodes
    grid = make_grid(2, n)
    m = (n + 1) // 2
    radii = 1.0 + 0.1 * np.random.default_rng(n).standard_normal(n)
    shape = StarShape(grid=grid, center=np.array([0.2, -0.1]), radii=radii)
    k = np.fft.fftfreq(n, 1.0 / n).astype(int)
    E = np.exp(2j * math.pi * (np.outer(np.arange(m), k) % m) / m)
    want = (E @ np.fft.fft(radii)).real / n
    Y, _ = _coarse_nodes(shape)
    got = np.linalg.norm(Y - shape.center, axis=1)
    assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("d,n", [(2, 48), (2, 49), (3, 12)])
def test_coarse_level_cache_keeps_riesz_values(d, n):
    # the coarse grid is built once per grid; values and bars on a reused grid equal those on a
    # fresh one bit for bit
    params = EnergyParams(d=d, p=2.0, alpha=1.0)
    grid = make_grid(d, n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        shape = random_star(rng, n=n, d=d)
        on_grid = StarShape(grid=grid, center=shape.center, radii=shape.radii)
        first = riesz_self(on_grid, params)
        again = riesz_self(on_grid, params)
        fresh = riesz_self(shape, params)
        assert first == again == fresh
    assert grid.coarse is grid.coarse


def test_volume_form_above_boundary_alpha_max():
    # alpha = 2.5 in d=3 stays on the volume rule: the values below are
    # the Richardson-extrapolated volume sums, frozen bit for bit from
    # the code before the boundary form existed
    params = EnergyParams(d=3, p=2.0, alpha=2.5)
    ball = make_ball(1.0, np.zeros(3), make_grid(3, 8))
    r = riesz_self(ball, params, VolumeQuadrature.build(ball))
    assert (r.value, r.error) == (84.287162839333, 39.48118007922784)
    star = random_star(np.random.default_rng(3), n=8, d=3, amp=0.08, kmax=3)
    r = riesz_self(star, params)
    assert (r.value, r.error) == (15.90941275902003, 7.461229182490621)
