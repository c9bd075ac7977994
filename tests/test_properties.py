"""Property tests of the discrete energy on random star shapes.

alpha is drawn as a fraction of d, so both the boundary form
(alpha <= 3/2) and the volume form are exercised.  Example counts are
bounded so that the file runs in a few seconds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoshape.energy import (
    VolumeQuadrature,
    interaction,
    riesz_self,
    weighted_perimeter,
)
from isoshape.geometry import (
    EnergyParams,
    StarShape,
    dilate,
    make_ball,
    make_grid,
)
from isoshape.optimize import shape_gradient
from isoshape.oracle import random_star

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
# alpha / d
fractions = st.floats(min_value=0.05, max_value=0.95)
cells = st.sampled_from([(2, 24), (2, 33), (3, 8)])


def _star(seed, d, n):
    return random_star(np.random.default_rng(seed), n=n, d=d, amp=0.1, kmax=4)


@SETTINGS
@given(seed=seeds, cell=cells, frac=fractions,
       t=st.floats(min_value=0.25, max_value=4.0))
def test_riesz_and_perimeter_are_homogeneous(seed, cell, frac, t):
    d, n = cell
    shape = _star(seed, d, n)
    alpha = frac * d
    params = EnergyParams(d=d, p=1.5, alpha=alpha)
    big = dilate(shape, t)
    v, vt = riesz_self(shape, params), riesz_self(big, params)
    assert vt.value == pytest.approx(t ** (2 * d - alpha) * v.value, rel=1e-12)
    assert vt.error == pytest.approx(t ** (2 * d - alpha) * v.error,
                                     rel=1e-9, abs=1e-12 * vt.value)
    assert weighted_perimeter(big, params) == pytest.approx(
        t ** (d - 1 + params.p) * weighted_perimeter(shape, params), rel=1e-12)


@SETTINGS
@given(seed=seeds, frac=fractions, n=st.sampled_from([24, 33]),
       k=st.integers(min_value=1, max_value=32))
def test_d2_rotation_by_grid_steps(seed, frac, n, k):
    shape = _star(seed, 2, n)
    phi = 2.0 * math.pi * k / n
    rot = np.array([[math.cos(phi), -math.sin(phi)],
                    [math.sin(phi), math.cos(phi)]])
    turned = StarShape(grid=shape.grid, center=rot @ shape.center,
                       radii=np.roll(shape.radii, k))
    params = EnergyParams(d=2, p=2.0, alpha=2 * frac)
    assert riesz_self(turned, params).value == pytest.approx(
        riesz_self(shape, params).value, rel=1e-12)
    assert weighted_perimeter(turned, params) == pytest.approx(
        weighted_perimeter(shape, params), rel=1e-12)


@SETTINGS
@given(seed=seeds, cell=cells, frac=fractions,
       gap=st.floats(min_value=0.1, max_value=5.0))
def test_interaction_is_symmetric(seed, cell, frac, gap):
    d, n = cell
    a = _star(seed, d, n)
    c = a.center.copy()
    c[0] += a.max_radius + 0.7 + gap
    b = make_ball(0.7, c, make_grid(d, n))
    params = EnergyParams(d=d, p=2.0, alpha=frac * d)
    assert interaction(a, b, params) == interaction(b, a, params)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=seeds, cell=st.sampled_from([(2, 16), (3, 8)]), frac=fractions,
       gamma=st.floats(min_value=0.1, max_value=10.0))
def test_shape_gradient_matches_central_differences(seed, cell, frac, gamma):
    d, n = cell
    shape = _star(seed, d, n)
    params = EnergyParams(d=d, p=2.0, alpha=frac * d, gamma=gamma)
    vq = VolumeQuadrature.build(shape)   # frozen, as in a descent
    (gr, gc), = shape_gradient(shape, params, vq)
    g = np.concatenate([gr, gc])
    floor = 1e-4 * float(np.abs(g).max())
    h = 1e-5

    def energy(radii, center):
        s = StarShape(grid=shape.grid, center=center, radii=radii)
        return (weighted_perimeter(s, params)
                + gamma * riesz_self(s, params, vq).value)

    rng = np.random.default_rng(seed)
    for i in rng.choice(g.size, size=6, replace=False):
        step = np.zeros(g.size)
        step[i] = h
        r, c = shape.radii, shape.center
        fd = (energy(r + step[:r.size], c + step[r.size:])
              - energy(r - step[:r.size], c - step[r.size:])) / (2 * h)
        assert abs(g[i] - fd) <= 1e-4 * max(abs(fd), floor)
