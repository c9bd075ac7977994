"""Second-order stability analysis of nearly spherical sets.

A zero-mean field u on S^(d-1) with max |u| < 1 defines the graph shape

    Omega_u = { rho theta : 0 <= rho <= R (1 + u(theta)) },

compared against reference balls.  The weighted perimeter with density
a(x) = |x|^p splits exactly at the quadrature level as

    P_a(Omega_u) - P_a(B_R) = R^(d-1) (I1 + I2),
    I1 = R^p int (1+u)^(p+d-2) [ sqrt((1+u)^2 + |grad u|^2) - (1+u) ],
    I2 = R^p int [ (1+u)^(p+d-1) - 1 ],

where I1 >= 0 always (the slant excess), I2 >= 0 for zero-mean u by
Bernoulli's inequality (1+t)^q >= 1 + q t, and to leading order

    I1 ~ (R^p / 2) int |grad u|^2,    per-mode limit in d=2:
    perimeter_deficit / eps^2 -> pi R^(p+1) (p(p+1)/2 + k^2/2)

for u = eps cos(k theta).  The Riesz energy moves the other way: at
fixed volume the ball maximizes V(Omega) = int int |x-y|^(-alpha), so
the volume-matched deficit V(B) - V(Omega_u) is nonnegative and also of
order ||u||_{H^1}^2.  The ratio

    stability_ratio = perimeter_deficit / (gamma * riesz_deficit)

exceeding 1 certifies numerically that the ball beats the perturbed
shape at strength gamma.

Deficit conventions.  The base radius R and the density exponent p
come from the Perturbation; no deficit takes them again.
perimeter_deficit compares with the same-radius ball B_R, which is the
comparison the per-mode series limit above refers to.  riesz_deficit
compares with the ball whose radius is computed from the exact
quadrature volume of the perturbed shape, so the sign test is
meaningful.  Both shapes are summed on the same grid, and the error bar
is taken from the difference of their sums, which cancels the
common-mode quadrature bias of two nearly identical shapes
(``riesz_deficit``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import Legendre

from .energy import (
    RieszResult,
    frozen_rule,
    riesz_estimate,
    riesz_sums,
    weighted_perimeter,
)
from .errors import (
    DegenerateDeficitError,
    GraphConditionError,
    ValidationError,
    _array,
    _integer,
    _real,
)
from .geometry import (
    EnergyParams,
    SphereGrid,
    StarShape,
    _mode_field,
    make_ball,
    unit_ball_volume,
    volume,
)

__all__ = [
    "Perturbation",
    "mode_perturbation",
    "random_perturbation",
    "h1_norm_sq",
    "shape_from_perturbation",
    "perimeter_deficit",
    "i1_i2_split",
    "riesz_deficit",
    "stability_ratio",
    "deficit_report",
    "report_to_csv",
    "DEFICIT_CSV_HEADER",
]

ZERO_MEAN_TOL = 1e-10


@dataclass(frozen=True)
class Perturbation:
    """Zero-mean radial field over a sphere grid with base radius and density.

    u is dimensionless; the shape it encodes has radial graph R (1 + u).
    """

    grid: SphereGrid
    u: np.ndarray
    R: float = 1.0
    p: float = 2.0

    def __post_init__(self):
        _real("R", self.R, 0.0, open_lo=True)
        _real("p", self.p, 0.0)
        u = np.ascontiguousarray(_array("u", self.u, (self.grid.n_nodes,)))
        object.__setattr__(self, "u", u)
        total = float(self.grid.weights.sum())
        mean = abs(float(self.grid.weights @ u))
        if mean > ZERO_MEAN_TOL * total:
            raise ValidationError(
                f"perturbation is not zero-mean: |int u| = {mean:.3e}")
        if not float(np.abs(u).max(initial=0.0)) < 1.0:
            raise ValidationError("graph condition requires max |u| < 1")


def mode_perturbation(grid: SphereGrid, eps: float, k: int,
                      R: float = 1.0, p: float = 2.0) -> Perturbation:
    """Single-mode perturbation: eps cos(k theta) in d=2, eps P_k(cos phi) in d=3."""
    _real("eps", eps)
    _integer("k", k, 1)     # mode 0 is not zero-mean
    return Perturbation(grid=grid, u=_mode_field(grid, eps, k), R=R, p=p)


def random_perturbation(grid: SphereGrid, rng: np.random.Generator,
                        c1_bound: float = 0.1, kmax: int = 6,
                        R: float = 1.0, p: float = 2.0) -> Perturbation:
    """Random zero-mean field with ||u||_{C^1} = max|u| + max|grad u| = c1_bound.

    d=2: random Fourier modes 1..kmax.  d=3: random zonal Legendre modes
    plus the sectoral harmonics sin^m(phi) cos/sin(m psi), all zero-mean.
    """
    _real("c1_bound", c1_bound, 0.0, open_lo=True)
    _integer("kmax", kmax, 1)
    if grid.d == 2:
        u = np.zeros(grid.n_nodes)
        for k in range(1, kmax + 1):
            a, b = rng.standard_normal(2) / k
            u += a * np.cos(k * grid.theta) + b * np.sin(k * grid.theta)
    else:
        phi = np.repeat(grid.polar, grid.azimuth.size)
        psi = np.tile(grid.azimuth, grid.polar.size)
        u = np.zeros(grid.n_nodes)
        for k in range(1, kmax + 1):
            u += rng.standard_normal() / k * np.repeat(
                Legendre.basis(k)(np.cos(grid.polar)), grid.azimuth.size)
        for m in range(1, min(kmax, 4) + 1):
            a, b = rng.standard_normal(2) / m
            u += np.sin(phi) ** m * (a * np.cos(m * psi) + b * np.sin(m * psi))
    u -= float(grid.weights @ u) / float(grid.weights.sum())
    comps = grid.grad_components(u)
    c1 = float(np.abs(u).max()) + float(np.sqrt(sum(c * c for c in comps)).max())
    u *= c1_bound / c1
    return Perturbation(grid=grid, u=u, R=R, p=p)


def h1_norm_sq(pert: Perturbation) -> float:
    """||u||^2_{H^1(S^(d-1))} = int u^2 + |grad_tau u|^2 dsigma.

    d=2 uses the Fourier form 2 pi sum (1+k^2) |u_hat_k|^2, exact for
    band-limited fields (u = eps cos(k theta) gives eps^2 pi (1+k^2) to
    roundoff); d=3 uses grid quadrature with the tangential stencils.
    """
    u, g = pert.u, pert.grid
    if g.d == 2:
        n = g.n
        c = np.fft.rfft(u) / n
        k = np.arange(c.size, dtype=float)
        mult = np.full(c.size, 2.0)
        mult[0] = 1.0
        if n % 2 == 0:
            mult[-1] = 1.0
        return 2.0 * math.pi * float(np.sum(mult * (1.0 + k * k) * np.abs(c) ** 2))
    comps = g.grad_components(u)
    return float(g.weights @ (u * u + sum(c * c for c in comps)))


def shape_from_perturbation(pert: Perturbation) -> StarShape:
    """Star shape with radial graph r = R (1 + u) about the origin."""
    low = float(1.0 + pert.u.min())
    if low < 0.5:
        raise GraphConditionError(
            f"graph condition 1 + u >= 1/2 violated: min(1+u) = {low:.4f}")
    return StarShape(grid=pert.grid, center=np.zeros(pert.grid.d),
                     radii=pert.R * (1.0 + pert.u))


def perimeter_deficit(pert: Perturbation) -> float:
    """P_a(Omega_u) - P_a(B_R), same-radius comparison ball."""
    g = pert.grid
    # alpha is irrelevant for the perimeter; pick any admissible value
    params = EnergyParams(d=g.d, p=pert.p, alpha=0.5 * g.d, gamma=0.0)
    ball = make_ball(pert.R, np.zeros(g.d), g)
    return (weighted_perimeter(shape_from_perturbation(pert), params)
            - weighted_perimeter(ball, params))


def i1_i2_split(pert: Perturbation):
    """Gradient term I1 and density/volume term I2 of the perimeter deficit.

    R^(d-1) (I1 + I2) equals perimeter_deficit to roundoff because both
    sides are assembled from the same grid quadrature and tangential
    stencils.
    """
    g = pert.grid
    u, w = pert.u, g.weights
    one = 1.0 + u
    grad2 = sum(c * c for c in g.grad_components(u))
    slant = np.sqrt(one * one + grad2)
    q = pert.p + g.d - 2
    i1 = pert.R ** pert.p * float(w @ (one ** q * (slant - one)))
    i2 = pert.R ** pert.p * float(w @ (one ** (q + 1.0) - 1.0))
    return i1, i2


def riesz_deficit(pert: Perturbation, *, alpha: float = 1.0) -> RieszResult:
    """V(B) - V(Omega_u) against the ball of exactly matched quadrature volume.

    Both shapes are summed on the same grid (energy.riesz_sums), and the
    value and error bar come from the difference of the two level sums,
    so the bar measures the deficit itself, not the two energies.  In
    the boundary form (alpha <= 3/2) the value is the fine-grid
    difference D_n and the bar is |D_n - D_c|, with D_c the difference
    on the coarse level.  For alpha > 3/2 both shapes use the volume rule
    built for the perturbed shape, at the frozen kernel lengths
    {h0, h0/2}, and the Richardson step extrapolates the difference, so
    the bar is the h-sensitivity of the deficit.
    """
    g = pert.grid
    params = EnergyParams(d=g.d, p=pert.p, alpha=alpha)
    shape = shape_from_perturbation(pert)
    r_b = (volume(shape) / unit_ball_volume(g.d)) ** (1.0 / g.d)
    ball = make_ball(r_b, np.zeros(g.d), g)
    vq = frozen_rule(shape, params)
    s_shape = riesz_sums((shape,), params, vq)
    s_ball = riesz_sums((ball,), params, vq)
    value, error = riesz_estimate([s_ball[0] - s_shape[0],
                                   s_ball[1] - s_shape[1]], params)
    return RieszResult(value=value, error=error)


def stability_ratio(pert: Perturbation, *, alpha: float = 1.0,
                    gamma: float = 1.0) -> float:
    """perimeter_deficit / (gamma * riesz_deficit); > 1 certifies the ball.

    Raises DegenerateDeficitError when the Riesz deficit does not exceed
    its own extrapolation error bar (the ratio would be noise).
    """
    _real("gamma", gamma, 0.0, open_lo=True)
    return _ratio(perimeter_deficit(pert), riesz_deficit(pert, alpha=alpha),
                  gamma)


def _ratio(per: float, rd: RieszResult, gamma: float) -> float:
    if not float(rd) > rd.error:
        raise DegenerateDeficitError(
            f"riesz deficit {float(rd):.3e} within its error bar {rd.error:.3e}")
    return per / (gamma * float(rd))


# ----------------------------------------------------------------------
# deficit reports
# ----------------------------------------------------------------------

DEFICIT_CSV_HEADER = ("mode_k,eps,R,p,alpha,gamma,per_deficit,riesz_deficit,"
                      "h1_sq,ratio")


def deficit_report(grid: SphereGrid, modes, epsilons, R: float, p: float,
                   alpha: float, gamma: float) -> list:
    """One row per (mode, eps): both deficits, the H^1 norm and the ratio.
    Every argument is checked before the first deficit is summed."""
    _real("gamma", gamma, 0.0, open_lo=True)
    EnergyParams(d=grid.d, p=p, alpha=alpha)    # the domains of p and alpha
    modes = [_integer(f"modes[{i}]", k, 1) for i, k in enumerate(modes)]
    epsilons = [_real(f"epsilons[{i}]", e) for i, e in enumerate(epsilons)]
    perts = [(k, eps, mode_perturbation(grid, eps, k, R=R, p=p))
             for k in modes for eps in epsilons]
    rows = []
    for k, eps, pert in perts:
        rd = riesz_deficit(pert, alpha=alpha)
        per = perimeter_deficit(pert)
        try:
            ratio = _ratio(per, rd, gamma)
        except DegenerateDeficitError:
            ratio = None
        rows.append({
            "mode_k": k, "eps": eps, "R": R, "p": p, "alpha": alpha,
            "gamma": gamma,
            "per_deficit": per,
            "riesz_deficit": float(rd),
            "h1_sq": h1_norm_sq(pert),
            "ratio": ratio,
        })
    return rows


def report_to_csv(rows) -> str:
    """Serialize deficit rows; an indeterminate ratio is spelled out."""
    lines = [DEFICIT_CSV_HEADER]
    for r in rows:
        ratio = "indeterminate" if r["ratio"] is None else f"{r['ratio']:.17g}"
        lines.append(
            f"{r['mode_k']:d},{r['eps']:.17g},{r['R']:.17g},{r['p']:.17g},"
            f"{r['alpha']:.17g},{r['gamma']:.17g},{r['per_deficit']:.17g},"
            f"{r['riesz_deficit']:.17g},{r['h1_sq']:.17g},{ratio}")
    return "\n".join(lines) + "\n"
