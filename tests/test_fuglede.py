"""Stability analysis: perturbations, deficits, frozen mode-2 ratio."""

import math

import numpy as np
import pytest

from isoshape.errors import (
    DegenerateDeficitError,
    GraphConditionError,
    ValidationError,
)
from isoshape.fuglede import (
    DEFICIT_CSV_HEADER,
    Perturbation,
    deficit_report,
    h1_norm_sq,
    i1_i2_split,
    mode_perturbation,
    perimeter_deficit,
    random_perturbation,
    report_to_csv,
    riesz_deficit,
    shape_from_perturbation,
    stability_ratio,
)
from isoshape.geometry import make_grid, volume

# Riesz deficit of the mode-2 perturbation of the unit disk at
# alpha = 1, as deficit / eps^2 in the eps -> 0 limit.  Frozen from a
# coupled common-random-numbers Monte Carlo run (1e8 pair samples,
# eps = 0.05): 4.090 with a 3 sigma band of 0.18.  The quadrature
# truncation decays as ~31.5/n, so the test extrapolates the n = 96 and
# n = 128 values to 1/n -> 0 before comparing.
MODE2_DEFICIT_RATIO = 4.090
MODE2_DEFICIT_3SIG = 0.18


def test_perturbation_validation():
    g = make_grid(2, 64)
    with pytest.raises(ValidationError):
        Perturbation(grid=g, u=np.full(g.n_nodes, 0.1))  # not zero-mean
    with pytest.raises(ValidationError):
        Perturbation(grid=g, u=1.2 * np.cos(g.theta))  # max |u| >= 1
    with pytest.raises(ValidationError):
        Perturbation(grid=g, u=np.zeros(g.n_nodes - 1))
    with pytest.raises(ValidationError):
        Perturbation(grid=g, u=np.zeros(g.n_nodes), R=-1.0)
    with pytest.raises(ValidationError):
        mode_perturbation(g, 0.1, 0)


def test_graph_condition():
    g = make_grid(2, 64)
    pert = mode_perturbation(g, 0.6, 2)
    with pytest.raises(GraphConditionError):
        shape_from_perturbation(pert)
    shape = shape_from_perturbation(mode_perturbation(g, 0.3, 2, R=2.0))
    assert shape.radii.max() == pytest.approx(2.6, rel=1e-12)


def test_h1_norm_mode_formulas():
    g = make_grid(2, 128)
    for k in (1, 2, 5):
        pert = mode_perturbation(g, 0.05, k)
        assert h1_norm_sq(pert) == pytest.approx(
            0.05 ** 2 * math.pi * (1 + k * k), rel=1e-12)
    # d=3: int P_k(cos phi)^2 = 4 pi / (2k+1), gradient factor k(k+1)
    g3 = make_grid(3, 24)
    pert3 = mode_perturbation(g3, 0.05, 2)
    assert h1_norm_sq(pert3) == pytest.approx(
        0.05 ** 2 * (4 * math.pi / 5) * (1 + 6), rel=1e-3)


def test_perimeter_deficit_mode_limit():
    # per-mode limit pi R^(p+1) (p(p+1)/2 + k^2/2) eps^2 at k=2, p=2
    g = make_grid(2, 128)
    pert = mode_perturbation(g, 0.01, 2)
    assert perimeter_deficit(pert) / 1e-4 == pytest.approx(
        5 * math.pi, rel=1e-3)


def test_i1_i2_split_reassembles_deficit():
    rng = np.random.default_rng(6)
    for d, n in ((2, 96), (3, 16)):
        g = make_grid(d, n)
        field = random_perturbation(g, rng, c1_bound=0.1)
        for R in (1.0, 1.3):
            pert = Perturbation(grid=g, u=field.u, R=R, p=field.p)
            i1, i2 = i1_i2_split(pert)
            deficit = perimeter_deficit(pert)
            assert R ** (d - 1) * (i1 + i2) == pytest.approx(
                deficit, abs=1e-12 * max(1.0, abs(deficit)))


def test_deficit_signs_random_family():
    rng = np.random.default_rng(7)
    for d, n in ((2, 96), (3, 16)):
        g = make_grid(d, n)
        for _ in range(10):
            pert = random_perturbation(g, rng, c1_bound=0.1)
            i1, i2 = i1_i2_split(pert)
            assert i1 >= 0.0
            assert i2 >= -1e-12
            assert perimeter_deficit(pert) >= -1e-12


def test_riesz_deficit_positive_for_modes():
    g = make_grid(2, 96)
    for k in (2, 3):
        rd = riesz_deficit(mode_perturbation(g, 0.1, k), alpha=1.0)
        assert float(rd) > rd.error > 0.0


def test_riesz_deficit_volume_matching():
    g = make_grid(2, 96)
    pert = mode_perturbation(g, 0.1, 2)
    shape = shape_from_perturbation(pert)
    # the comparison ball matches the quadrature volume of the shape,
    # so the deficit measures shape, not mass
    assert volume(shape) != pytest.approx(math.pi, rel=1e-4)
    rd = riesz_deficit(pert, alpha=1.0)
    assert float(rd) > 0.0


def test_mode2_deficit_frozen_reference():
    ratios = []
    for n in (96, 128):
        pert = mode_perturbation(make_grid(2, n), 0.05, 2)
        ratios.append(float(riesz_deficit(pert, alpha=1.0)) / 0.05 ** 2)
    # two-point 1/n extrapolation: r = r_128 + 3 (r_128 - r_96)
    extrapolated = ratios[1] + 3.0 * (ratios[1] - ratios[0])
    assert abs(extrapolated - MODE2_DEFICIT_RATIO) <= MODE2_DEFICIT_3SIG


# Riesz deficit of the mode-2, eps = 0.1 perturbation of the unit disk
# at alpha = 1: the boundary-form deficit at n = 768, 0.04172025 with a
# coarse-level bar of 7.9e-6 (at n = 192 and 384 it reads 0.0416807 and
# 0.0417123; the differences shrink fourfold per doubling, the h^2 order
# of the trapezoid sum at alpha = 1).
MODE2_EPS01_DEFICIT = 0.0417202


@pytest.mark.parametrize("n", [48, 96])
def test_riesz_deficit_error_bar_covers_reference(n):
    rd = riesz_deficit(mode_perturbation(make_grid(2, n), 0.1, 2), alpha=1.0)
    assert abs(float(rd) - MODE2_EPS01_DEFICIT) <= rd.error, rd


def test_stability_ratio_gamma_scaling():
    g = make_grid(2, 96)
    pert = mode_perturbation(g, 0.1, 2)
    r1 = stability_ratio(pert, alpha=1.0, gamma=1.0)
    r2 = stability_ratio(pert, alpha=1.0, gamma=2.0)
    assert r1 > 0.0
    assert r2 == pytest.approx(r1 / 2.0, rel=1e-12)
    with pytest.raises(ValidationError):
        stability_ratio(pert, gamma=0.0)


def test_stability_ratio_degenerate_translation_mode():
    # k=1 is an infinitesimal translation: the volume-matched Riesz
    # deficit is O(eps^4) and drowns in the extrapolation error bar
    g = make_grid(2, 96)
    pert = mode_perturbation(g, 0.01, 1)
    with pytest.raises(DegenerateDeficitError):
        stability_ratio(pert, alpha=1.0, gamma=1.0)


def test_radius_is_not_positional():
    # R belongs to the Perturbation; a positional 1.3 must not be taken
    # silently as alpha
    pert = mode_perturbation(make_grid(2, 64), 0.1, 2)
    with pytest.raises(TypeError):
        riesz_deficit(pert, 1.3)
    with pytest.raises(TypeError):
        stability_ratio(pert, 1.3)


def test_deficit_report_and_csv():
    g = make_grid(2, 48)
    rows = deficit_report(g, (2, 3), (0.1,), R=1.0, p=2.0, alpha=1.0,
                          gamma=1.0)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {"mode_k", "eps", "R", "p", "alpha", "gamma",
                            "per_deficit", "riesz_deficit", "h1_sq", "ratio"}
        assert row["gamma"] == 1.0
        assert row["per_deficit"] > 0.0
    csv = report_to_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == DEFICIT_CSV_HEADER
    assert len(lines) == 3
    assert csv.endswith("\n")

    rows[0]["ratio"] = None
    assert "indeterminate" in report_to_csv(rows).splitlines()[1]


def test_deficit_report_computes_each_riesz_deficit_once(monkeypatch):
    import isoshape.fuglede as fug
    calls = []
    deficit = fug.riesz_deficit

    def counted(*args, **kwargs):
        calls.append(args)
        return deficit(*args, **kwargs)

    monkeypatch.setattr(fug, "riesz_deficit", counted)
    g = make_grid(2, 48)
    # mode 1 at this resolution is the degenerate translation mode
    rows = deficit_report(g, (1, 2, 3), (0.05, 0.1), R=1.0, p=2.0, alpha=1.0,
                          gamma=2.0)
    assert len(calls) == len(rows) == 6
    monkeypatch.undo()
    for row in rows:
        pert = mode_perturbation(g, row["eps"], row["mode_k"], R=1.0, p=2.0)
        try:
            ratio = stability_ratio(pert, alpha=1.0, gamma=2.0)
        except DegenerateDeficitError:
            ratio = None
        assert row["ratio"] == ratio
        assert row["riesz_deficit"] == float(riesz_deficit(pert, alpha=1.0))


def test_deficit_report_validates_before_summing(monkeypatch):
    import isoshape.fuglede as fug

    def no_deficit(pert, *, alpha=1.0):
        raise AssertionError("a Riesz deficit was summed before validation")

    monkeypatch.setattr(fug, "riesz_deficit", no_deficit)
    g = make_grid(2, 32)
    good = dict(modes=(2, 3), epsilons=(0.1, 0.05), R=1.0, p=2.0,
                alpha=1.0, gamma=1.0)
    # each bad value sits in the last row or in a scalar of every row
    for key, bad in (("modes", (2, 0)), ("modes", (2, 2.5)),
                     ("epsilons", (0.1, math.nan)),
                     ("epsilons", (0.1, 1.5)),      # max |u| >= 1
                     ("R", -1.0), ("p", math.inf), ("alpha", 2.0),
                     ("alpha", None), ("gamma", 0.0), ("gamma", "1")):
        with pytest.raises(ValidationError):
            fug.deficit_report(g, **{**good, key: bad})
