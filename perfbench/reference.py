"""Exact ball constants the benchmark checks isoshape against.

Nothing here calls isoshape: the references are independent of the code
under test.

    P_a(B_R) = |S^(d-1)| R^(d-1+p)                    (centered ball, a = |x|^p)
    V(B_1)   = int_0^2 t^(-alpha) |S^(d-1)| t^(d-1) |B_1 cap (B_1 + t e)| dt
    V(B_R)   = R^(2d-alpha) V(B_1)

The lens volume |B_1 cap (B_1 + t e)| is elementary in d = 2 and 3, and
the t^(d-1-alpha) endpoint singularity is handled by QUADPACK's algebraic
weight, so V(B_1) is accurate to about 1e-12 relative.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

# Closed forms at alpha = 1 that the lens integral must reproduce.
KNOWN = {(2, 1.0): 16.0 * math.pi / 3.0,
         (3, 1.0): 32.0 * math.pi ** 2 / 15.0}


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def sphere_area(d: int) -> float:
    return d * unit_ball_volume(d)


def unit_volume_radius(d: int) -> float:
    return unit_ball_volume(d) ** (-1.0 / d)


def lens_volume(d: int, t: float) -> float:
    """|B_1 cap (B_1 + t e)| for a unit vector e and 0 <= t <= 2."""
    if d == 2:
        return 2.0 * math.acos(t / 2.0) - (t / 2.0) * math.sqrt(4.0 - t * t)
    if d == 3:
        return math.pi / 12.0 * (4.0 + t) * (2.0 - t) ** 2
    raise ValueError(f"unsupported dimension d={d}")


def riesz_ball(d: int, alpha: float, R: float = 1.0) -> float:
    """V(B_R) by the one-dimensional lens integral."""
    val, _ = quad(lambda t: lens_volume(d, t), 0.0, 2.0,
                  weight="alg", wvar=(d - 1.0 - alpha, 0.0),
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return R ** (2 * d - alpha) * sphere_area(d) * val


def perimeter_ball(d: int, p: float, R: float) -> float:
    """Weighted perimeter of the origin-centered ball of radius R."""
    return sphere_area(d) * R ** (d - 1 + p)


def ball_energy(d: int, p: float, alpha: float, gamma: float) -> float:
    """E_gamma of the unit-volume origin-centered ball."""
    R = unit_volume_radius(d)
    return perimeter_ball(d, p, R) + gamma * riesz_ball(d, alpha, R)


def self_check(rtol: float = 1e-10) -> None:
    """Raise if the lens integral misses the closed forms at alpha = 1."""
    for (d, alpha), exact in KNOWN.items():
        got = riesz_ball(d, alpha)
        if not abs(got - exact) <= rtol * exact:
            raise RuntimeError(f"lens integral V(B_1) d={d} alpha={alpha}: "
                               f"{got!r} != {exact!r}")
