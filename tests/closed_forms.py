"""Closed-form references shared by the test modules."""

import math

from scipy.integrate import quad

from isoshape.geometry import sphere_area


def exact_ball(d, alpha):
    """V(B_1) = |S^(d-1)| int_0^2 t^(d-1-alpha) |B_1 cap (B_1 + t e)| dt."""
    if d == 2:
        def lens(t):
            return 2.0 * math.acos(t / 2.0) - (t / 2.0) * math.sqrt(4.0 - t * t)
    else:
        def lens(t):
            return math.pi / 12.0 * (4.0 + t) * (2.0 - t) ** 2
    val, _ = quad(lens, 0.0, 2.0, weight="alg", wvar=(d - 1.0 - alpha, 0.0),
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return sphere_area(d) * val
