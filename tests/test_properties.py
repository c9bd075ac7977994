"""Property tests of the discrete energy on random star shapes, of the
shape-file round trip and of configuration parsing.

alpha is drawn as a fraction of d, so both the boundary form
(alpha <= 3/2) and the volume form are exercised.  Example counts are
bounded so that the file runs in a few seconds.
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isoshape.cli import parse_config

from isoshape.energy import (
    VolumeQuadrature,
    boundary_form,
    interaction,
    riesz_self,
    riesz_sums,
    total_energy,
    weighted_perimeter,
)
from isoshape.errors import ConfigError
from isoshape.geometry import (
    R_MIN,
    Configuration,
    EnergyParams,
    StarShape,
    config_to_dict,
    dilate,
    load_configuration,
    make_ball,
    make_grid,
    save_configuration,
)
from isoshape.optimize import _objective, shape_gradient
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
@given(seed=seeds, form=st.sampled_from([(2, 24, 1.0), (3, 8, 2.5)]),
       gap=st.floats(min_value=0.01, max_value=2.0),
       gamma=st.floats(min_value=0.1, max_value=100.0))
def test_total_energy_of_two_components_is_the_objective(seed, form, gap,
                                                         gamma):
    # one V path, in the boundary form (alpha = 1) and the volume form
    # (alpha = 2.5): a breakdown's total is the descent's objective bit
    # for bit, and its bar is the union's |S_n - S_c| or Richardson term
    d, n, alpha = form
    rng = np.random.default_rng(seed)
    a, b = _star(seed, d, n), _star(seed + 1, d, n)
    u = rng.standard_normal(d)
    u *= (a.max_radius + b.max_radius + gap) / np.linalg.norm(u)
    b = StarShape(grid=b.grid, center=a.center + u, radii=b.radii)
    cfg = Configuration((a, b)).validate()
    params = EnergyParams(d=d, p=2.0, alpha=alpha, gamma=gamma)
    vq = VolumeQuadrature.build(cfg)
    bd = total_energy(cfg, params, vq)
    assert math.isfinite(bd.total)
    assert bd.total == _objective(cfg, params, vq)
    s1, s2 = riesz_sums(cfg.components, params, vq)
    if boundary_form(params):
        bar = abs(s1 - s2)
    else:
        bar = abs((s2 - s1) / (2.0 ** min(2.0, d - alpha) - 1.0))
    assert bd.riesz_error_estimate == bar


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


@settings(max_examples=25, deadline=None, derandomize=True)
@given(grid=st.sampled_from([(2, 8), (2, 21), (3, 8)]), data=st.data())
def test_configuration_file_round_trip(grid, data):
    g = make_grid(*grid)
    comps = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        center = data.draw(arrays(float, g.d, elements=st.floats(
            -1e300, 1e300, allow_nan=False)))
        radii = data.draw(arrays(float, g.n_nodes, elements=st.floats(
            R_MIN, 1e300)))
        comps.append(StarShape(grid=g, center=center, radii=radii))
    cfg = Configuration(tuple(comps))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "shape.json")
        save_configuration(path, cfg)
        back = load_configuration(path)
    assert config_to_dict(back) == config_to_dict(cfg)
    for a, b in zip(cfg.components, back.components, strict=True):
        assert np.array_equal(a.center, b.center)
        assert np.array_equal(a.radii, b.radii)
        assert (a.grid.d, a.grid.n) == (b.grid.d, b.grid.n)


_FLAGS = ("--d", "--p", "--alpha", "--gamma", "--gammas", "--n", "--seed",
          "--out", "--svg", "--config", "--bogus")
_VALUES = ("eval", "sweep", "verify", "2", "3", "8", "0", "-1", "0.5",
           "1e400", "nan", "-inf", "1,2", ",", "1,x", "", "x", ".")
_FILE_KEYS = ("d", "p", "alpha", "gamma", "gammas", "n", "seed", "out",
              "svg", "max_iter", "g_tol", "mode", "lam")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["penalty", "projection", "1", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5)


def _parse_or_config_error(argv):
    try:
        parse_config(argv)
    except ConfigError:
        pass


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=st.lists(st.sampled_from(_FLAGS + _VALUES) | st.text(max_size=6),
                     max_size=8))
def test_parse_config_fuzz_raises_only_config_error(argv):
    # help flags (and their argparse abbreviations) exit with status 0
    assume(not any(a.startswith(("-h", "--h")) for a in argv))
    _parse_or_config_error(argv)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(raw=st.dictionaries(st.sampled_from(_FILE_KEYS) | st.text(max_size=4),
                           _JSON, max_size=5) | _JSON)
def test_config_file_fuzz_raises_only_config_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        _parse_or_config_error(["eval", "--config", path])
