"""Star-shaped geometry over sphere quadrature grids.

A component is the radial graph

    x = c + r(theta) theta,    theta in S^(d-1),    r > 0,

sampled at the nodes of a quadrature grid on the unit sphere, so that
every measure-theoretic primitive reduces to a weighted nodal sum:

    |Omega| = (1/d) int_{S^(d-1)} r(theta)^d dsigma(theta).

Grids: d=2 uses n uniform angles with trapezoid weights 2*pi/n
(spectrally accurate for smooth integrands); d=3 uses Gauss-Legendre
nodes in the polar angle (poles excluded, avoiding the lat-long
coordinate singularity) times 2n uniform azimuths, weights scaled so
they sum to 4*pi.

Tangential derivatives are 4th-order finite differences: periodic
central stencils along uniform directions, Fornberg stencils on the
nonuniform polar nodes.  Finite differences (rather than spectral
transforms) keep the discrete energy a smooth function of the radial
samples, so the energy module can differentiate its quadrature sums
exactly.  The periodic stencil wrap-pads its axis once and reads the
four shifted operands as slices of the padded copy.

What depends only on the grid or only on the shape is a cached
property of that object, computed once and read-only: a grid's
``tangent_frame``, ``coarse`` level of the Riesz error bar, d=3
``polar_cells`` table and ``h1_inverse`` blocks; a shape's radial
``slopes`` and their squared norm ``slope_sq``, its boundary
``points`` c + r theta and weighted ``normals`` (the nodes of the
boundary form of the Riesz energy), its d=2 ``spline`` interpolant
with its ``spline_table`` and its d=3 ``wrapped_radii``.  Every
perimeter, boundary-node, gradient and resolvability evaluation of one
shape reads the same arrays.

A StarShape also has a continuous interpretation used by the raster and
Monte Carlo oracles: the radial samples are interpolated (periodic
cubic spline for d=2, bilinear on the lat-long grid for d=3) and
membership of a point x is the test |x - c| <= r_interp(angle(x - c)).
The public ``membership`` and ``radial_at_directions`` check their
input, finite rows of d coordinates, and call the unchecked ``_inside``
and ``_radial_at``, which work on coordinate columns.  The ray cast
calls both directly: ``_radial_at`` to estimate where each ray from the
origin crosses the boundary, and ``_inside`` to certify a narrow
bracket around that estimate and to bisect it.
The bilinear kernel is table-driven: a uniform bucket table in the
polar angle, with at most one node per bucket, gives the polar interval
with one comparison, and the radii padded with two wrap-around azimuth
columns give all four corners from one flat index, without a modulo.
It computes the same bits as a binary search with a periodic wrap.
The d=2 spline is evaluated the same way, from a shape's
``spline_table``: a bucket estimate of the piece, corrected by one
comparison on each side, and the piece summed in scipy's order, so
``_cubic`` gives the bits of ``CubicSpline.__call__`` without its
binary search per point.  The quadrature path never touches the
interpolant.

Every radial sample is at least the floor R_MIN: shapes below it are
rejected, and the optimizer clamps its trial radii to it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import OverlapError, ValidationError, _array, _integer, _real

R_MIN = 1e-6

# ray_radius: fixed-point sweeps of the crossing estimate after the
# nodal one, and the half-width in ulps of the bracket around it
_RAY_SWEEPS = 2
_RAY_ULPS = 16

GRID_KIND = {2: "uniform-angle", 3: "gauss-latlong"}


def unit_ball_volume(d: int) -> float:
    _integer("d", d, 2, 3)
    return math.pi if d == 2 else 4.0 * math.pi / 3.0


def sphere_area(d: int) -> float:
    """Surface measure of S^(d-1), i.e. d * omega_d."""
    return d * unit_ball_volume(d)


# ----------------------------------------------------------------------
# finite-difference stencils
# ----------------------------------------------------------------------

def _fornberg_weights(x, x0):
    """First-derivative weights on arbitrary nodes x at the point x0.

    Standard Fornberg recursion for derivative order 1: w[0] holds the
    interpolation weights, w[1] the returned derivative weights.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    w = np.zeros((2, n))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                w[1, i] = c1 * (w[0, i - 1] - c5 * w[1, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            w[1, j] = (c4 * w[1, j] - w[0, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w[1]


def _nonuniform_d1_matrix(x):
    """Dense first-derivative matrix on nonuniform nodes, 5-point stencils."""
    n = x.size
    D = np.zeros((n, n))
    for i in range(n):
        lo = min(max(i - 2, 0), n - 5)
        D[i, lo:lo + 5] = _fornberg_weights(x[lo:lo + 5], x[i])
    return D


def _periodic_d1(f, h):
    """4th-order central difference along the last axis, which is uniform
    and periodic.

    The axis is wrap-padded by two samples on each side once, and the
    four shifted operands are slices of the padded copy.  The stencil is
    antisymmetric, so the matrix of this map is skew-symmetric: the
    adjoint is the negated operator.
    """
    n = f.shape[-1]
    P = np.concatenate((f[..., -2:], f, f[..., :2]), axis=-1)
    fm2, fm1 = P[..., 0:n], P[..., 1:n + 1]
    fp1, fp2 = P[..., 3:n + 3], P[..., 4:n + 4]
    return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)


def _spd_inverse(M):
    """Inverses of a (K, p, p) stack of symmetric positive definite
    matrices, by Gauss-Jordan elimination in place without pivoting,
    with the upper triangle copied to the lower so that each inverse is
    exactly symmetric.  Elementwise numpy only: LAPACK's inverse changes
    its bits with the BLAS thread count from p = 100 on."""
    for j in range(M.shape[1]):
        d = M[:, j, j].copy()
        r = M[:, j, :] / d[:, None]
        c = M[:, :, j].copy()
        M -= c[:, :, None] * r[:, None, :]
        M[:, j, :] = r
        M[:, :, j] = -c / d[:, None]
        M[:, j, j] = 1.0 / d
    i, j = np.triu_indices(M.shape[1], 1)
    M[:, j, i] = M[:, i, j]
    return M


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Quadrature nodes and weights on S^(d-1), with derivative stencils."""

    d: int
    n: int
    nodes: np.ndarray      # (N, d) unit directions
    weights: np.ndarray    # (N,), sum = d * omega_d
    theta: np.ndarray | None = None    # d=2: angles of the nodes
    polar: np.ndarray | None = None    # d=3: polar angles, ascending, no poles
    azimuth: np.ndarray | None = None  # d=3: uniform azimuths
    dpolar: np.ndarray | None = None   # d=3: dense polar derivative matrix

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def shape2d(self):
        # lat-long layout of flat node index: i_polar * n_azimuth + i_azimuth
        return (self.polar.size, self.azimuth.size)

    # -- first-derivative components in an orthonormal tangent frame --
    # d=2: [df/dtheta]; d=3: [df/dphi, (df/dpsi)/sin(phi)].
    # Linear maps of the nodal field; the _T variant applies the plain
    # coordinate transpose of each map (needed for exact gradients of
    # quadrature sums).

    def grad_components(self, f):
        f = np.asarray(f, dtype=float)
        if self.d == 2:
            return [_periodic_d1(f, 2.0 * math.pi / self.n)]
        F = f.reshape(self.shape2d)
        dp = self.dpolar @ F
        da = _periodic_d1(F, 2.0 * math.pi / self.azimuth.size)
        da /= np.sin(self.polar)[:, None]
        return [dp.ravel(), da.ravel()]

    def grad_components_T(self, comps):
        if self.d == 2:
            return -_periodic_d1(np.asarray(comps[0], dtype=float),
                                 2.0 * math.pi / self.n)
        shp = self.shape2d
        t1 = np.asarray(comps[0], dtype=float).reshape(shp)
        t2 = np.asarray(comps[1], dtype=float).reshape(shp)
        out = self.dpolar.T @ t1
        out -= _periodic_d1(t2 / np.sin(self.polar)[:, None],
                            2.0 * math.pi / self.azimuth.size)
        return out.ravel()

    @cached_property
    def tangent_frame(self) -> tuple:
        """Orthonormal tangent vectors at each node, ambient coordinates;
        built once per grid and read-only."""
        if self.d == 2:
            t = self.theta
            frame = (np.stack([-np.sin(t), np.cos(t)], axis=1),)
        else:
            phi = np.repeat(self.polar, self.azimuth.size)
            psi = np.tile(self.azimuth, self.polar.size)
            e_phi = np.stack([np.cos(phi) * np.cos(psi),
                              np.cos(phi) * np.sin(psi),
                              -np.sin(phi)], axis=1)
            e_psi = np.stack([-np.sin(psi), np.cos(psi), np.zeros_like(psi)],
                             axis=1)
            frame = (e_phi, e_psi)
        for e in frame:
            e.setflags(write=False)
        return frame

    @cached_property
    def polar_cells(self) -> tuple:
        """(ilo, edge, scale, gaps): the d=3 table that maps a polar angle
        phi in [0, pi] to its interpolation interval, built once per grid
        and read-only.

        Bucket b = int(phi * scale) holds at most one polar node, so
        ilo[b] + (phi > edge[b]) is exactly
        clip(searchsorted(polar, phi) - 1, 0, n - 2): edge[b] is the node
        in bucket b when it is an inner node, else +inf (no node, or the
        clip makes the comparison moot).  gaps = diff(polar).
        """
        pol = self.polar
        gaps = np.diff(pol)
        # buckets at most half the smallest gap wide: two nodes lie two
        # buckets apart, whatever the rounding of phi * scale
        nb = 2 * math.ceil(math.pi / float(gaps.min()))
        scale = nb / math.pi
        node_bucket = (pol * scale).astype(np.intp)
        ilo = np.clip(np.searchsorted(node_bucket, np.arange(nb + 1)) - 1,
                      0, pol.size - 2)
        edge = np.full(nb + 1, math.inf)
        edge[node_bucket[1:-1]] = pol[1:-1]
        for a in (ilo, edge, gaps):
            a.setflags(write=False)
        return ilo, edge, scale, gaps

    @cached_property
    def coarse(self) -> "SphereGrid":
        """The coarse level of the Riesz error bar, built once.

        Every other node of the uniform axis (the angle in d=2, the
        azimuth in d=3), with doubled weights: that axis has even length
        and runs fastest in the flat node order, so its coarse radii are
        r[::2].  For odd d=2 n, the uniform grid of m = (n+1)/2 angles,
        at which ``energy._coarse_nodes`` takes the trigonometric
        interpolant of the n radii.
        """
        if self.d == 2 and self.n % 2:
            m = (self.n + 1) // 2
            theta = 2.0 * math.pi * np.arange(m) / m
            nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            return SphereGrid(d=2, n=m, nodes=nodes, theta=theta,
                              weights=np.full(m, 2.0 * math.pi / m))
        half = dict(nodes=self.nodes[::2].copy(), weights=2.0 * self.weights[::2])
        if self.d == 2:
            return replace(self, n=self.n // 2, theta=self.theta[::2].copy(),
                           **half)
        return replace(self, azimuth=self.azimuth[::2].copy(), **half)

    @property
    def band(self) -> tuple:
        """(m, K): the m samples of the uniform axis (n angles in d=2, 2n
        azimuths in d=3) and the K = m // 3 + 1 Fourier modes of it that
        a descent moves in.  The stencils of ``grad_components``
        differentiate mode k with (8 sin kh - sin 2kh) / (6h) in place
        of k: at least 62% of k for k <= m/3, 0 at k = m/2.  Above the
        band the discrete perimeter misses most of a ripple's cost (d=2
        n=20, mode 9: 1.6e-4 against 2.4e-3 at n=200, for eps = 1e-2),
        so unfiltered descents end in grid-scale zigzags."""
        m = self.n if self.d == 2 else self.azimuth.size
        return m, m // 3 + 1

    @cached_property
    def h1_inverse(self) -> np.ndarray:
        """(K, p, p): per mode k of the ``band``, the inverse of the H^1
        block A + sigma_k^2 diag(B), built once and read-only.  The
        operator commutes with shifts along the uniform axis (p = N / m
        rows along it), so the DFT splits it into these blocks; sigma_k
        is the symbol of ``_periodic_d1``.  With w the weight of one node
        per row, A = diag(w) + dpolar^T diag(w) dpolar and
        B = w / sin^2(phi) in d=3, A = B = w in d=2."""
        m, K = self.band
        w = self.weights[::m]
        h = 2.0 * math.pi / m
        kh = h * np.arange(K)
        sigma = (8.0 * np.sin(kh) - np.sin(2.0 * kh)) / (6.0 * h)
        A, B = np.diag(w), w
        if self.d == 3:
            A = A + np.einsum("ji,j,jk->ik", self.dpolar, w, self.dpolar)
            B = w / np.sin(self.polar) ** 2
        inv = _spd_inverse(A + sigma[:, None, None] ** 2 * np.diag(B))
        inv.setflags(write=False)
        return inv


def make_grid(d: int, n: int) -> SphereGrid:
    """Build the quadrature grid on S^(d-1).

    Parameters
    ----------
    d : 2 or 3.
    n : resolution, n >= 8.  d=2: n uniform angles; d=3: n Gauss polar
        nodes times 2n uniform azimuths.
    """
    _integer("d", d, 2, 3)
    _integer("n", n, 8)
    if d == 2:
        theta = 2.0 * math.pi * np.arange(n) / n
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(n, 2.0 * math.pi / n)
        return SphereGrid(d=2, n=n, nodes=nodes, weights=weights, theta=theta)
    x, v = np.polynomial.legendre.leggauss(n)
    polar = np.arccos(x)[::-1].copy()          # ascending, strictly inside (0, pi)
    vpol = v[::-1].copy()
    na = 2 * n
    azimuth = 2.0 * math.pi * np.arange(na) / na
    phi = np.repeat(polar, na)
    psi = np.tile(azimuth, n)
    nodes = np.stack([np.sin(phi) * np.cos(psi),
                      np.sin(phi) * np.sin(psi),
                      np.cos(phi)], axis=1)
    weights = np.repeat(vpol * (2.0 * math.pi / na), na)
    return SphereGrid(d=3, n=n, nodes=nodes, weights=weights,
                      polar=polar, azimuth=azimuth,
                      dpolar=_nonuniform_d1_matrix(polar))


def tangential_gradient(field, grid: SphereGrid) -> np.ndarray:
    """Tangential gradient of a nodal field, as ambient (N, d) vectors."""
    comps = grid.grad_components(_array("field", field, (grid.n_nodes,)))
    frame = grid.tangent_frame
    out = comps[0][:, None] * frame[0]
    for c, e in zip(comps[1:], frame[1:]):
        out += c[:, None] * e
    return out


def _mode_field(grid: SphereGrid, eps, k) -> np.ndarray:
    """The single-mode field eps cos(k theta) on a d=2 grid, eps P_k(cos
    phi) on a d=3 grid."""
    if grid.d == 2:
        return eps * np.cos(k * grid.theta)
    return eps * np.repeat(np.polynomial.legendre.Legendre.basis(k)(
        np.cos(grid.polar)), grid.azimuth.size)


def _weighted_normals(grid: SphereGrid, r, comps) -> np.ndarray:
    """Weighted outer normals N = w r^(d-2) (r theta - sum_k D_k(r) t_k)
    of the radial graph r at the grid nodes, from its tangential
    components comps = D_k(r) on that grid: the normals of the boundary
    form of the Riesz energy."""
    T = r[:, None] * grid.nodes
    for c, t in zip(comps, grid.tangent_frame):
        T -= c[:, None] * t
    return (grid.weights * r ** (grid.d - 2))[:, None] * T


# ----------------------------------------------------------------------
# shapes and configurations
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StarShape:
    """Radial graph x = c + r(theta) theta over a sphere grid."""

    grid: SphereGrid
    center: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        # copies: the stored arrays are made read-only
        c = np.array(_array("center", self.center, (self.grid.d,)))
        r = np.array(_array("radii", self.radii, (self.grid.n_nodes,)))
        if (r < R_MIN).any():
            raise ValidationError(f"radii below the floor R_MIN={R_MIN:g}")
        c.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radii", r)

    @property
    def max_radius(self) -> float:
        return float(self.radii.max())

    @cached_property
    def slopes(self) -> tuple:
        """Tangential components of grad r, ``grid.grad_components(radii)``,
        computed once per shape and read-only."""
        comps = tuple(self.grid.grad_components(self.radii))
        for c in comps:
            c.setflags(write=False)
        return comps

    @cached_property
    def slope_sq(self) -> np.ndarray:
        """|grad_tau r|^2 = sum_k D_k(r)^2 at the grid nodes, computed once
        per shape and read-only."""
        sq = sum(c * c for c in self.slopes)
        sq.setflags(write=False)
        return sq

    @cached_property
    def points(self) -> np.ndarray:
        """Boundary points c + r theta at the grid nodes, (N, d), computed
        once per shape and read-only."""
        y = self.center[None, :] + self.radii[:, None] * self.grid.nodes
        y.setflags(write=False)
        return y

    @cached_property
    def normals(self) -> np.ndarray:
        """Weighted outer normals w r^(d-2) (r theta - sum_k D_k(r) t_k)
        at the grid nodes (``_weighted_normals``), (N, d), computed once
        per shape and read-only."""
        N = _weighted_normals(self.grid, self.radii, self.slopes)
        N.setflags(write=False)
        return N

    @cached_property
    def wrapped_radii(self) -> np.ndarray:
        """The d=3 radii as flat polar rows of n_azimuth + 2 samples, each
        row followed by its first two samples again, built once per shape
        and read-only: the bilinear corners of azimuth cell j in
        [0, n_azimuth] sit at columns j and j + 1 without a wrap."""
        rows = self.radii.reshape(self.grid.shape2d)
        wrapped = np.concatenate((rows, rows[:, :2]), axis=1).ravel()
        wrapped.setflags(write=False)
        return wrapped

    @cached_property
    def spline(self):
        """Periodic scipy ``CubicSpline`` of the d=2 radii over [0, 2 pi],
        built once per shape, with read-only knots and coefficients; its
        import waits for the first spline, which most runs never build."""
        from scipy.interpolate import CubicSpline
        sp = CubicSpline(np.append(self.grid.theta, 2.0 * math.pi),
                         np.append(self.radii, self.radii[0]),
                         bc_type="periodic")
        for a in (sp.x, sp.c):
            a.setflags(write=False)
        return sp

    @cached_property
    def spline_table(self) -> tuple:
        """(scale, knots, (c0, c1, c2, c3)): the d=2 ``spline`` as the
        table that ``_cubic`` reads, built once per shape and read-only.

        knots are the n + 1 spline knots followed by +inf, and each
        coefficient row holds the spline's n pieces followed by piece 0
        again as piece n, so that the knot 2 pi starts a piece equal to
        piece 0 at s = 0, as the spline's periodic wrap has it.  The
        bucket int(a * scale), scale = n / (2 pi), is the piece of a up
        to one knot on either side.
        """
        sp = self.spline
        knots = np.append(sp.x, math.inf)
        rows = tuple(np.append(c, c[0]) for c in sp.c)
        for a in (knots, *rows):
            a.setflags(write=False)
        return (sp.x.size - 1) / (2.0 * math.pi), knots, rows


def make_ball(R: float, center, grid: SphereGrid) -> StarShape:
    _real("R", R, R_MIN)
    return StarShape(grid=grid, center=center,
                     radii=np.full(grid.n_nodes, float(R)))


@dataclass(frozen=True, eq=False)
class Configuration:
    """One or more ordered StarShapes of one dimension."""

    components: tuple

    def __post_init__(self):
        try:
            comps = tuple(self.components)
        except TypeError:       # not iterable
            comps = ()
        if not comps or not all(isinstance(s, StarShape) for s in comps) \
                or len({s.grid.d for s in comps}) > 1:
            raise ValidationError("a configuration holds one or more "
                                  "StarShapes of one dimension")
        object.__setattr__(self, "components", comps)

    @property
    def n_components(self) -> int:
        return len(self.components)

    def validate(self):
        """Certify pairwise disjointness by the bounding-sphere test."""
        comps = self.components
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                dist = float(np.linalg.norm(comps[i].center - comps[j].center))
                if dist <= comps[i].max_radius + comps[j].max_radius:
                    raise OverlapError(
                        f"components {i} and {j}: center distance {dist:g} "
                        f"<= sum of bounding radii "
                        f"{comps[i].max_radius + comps[j].max_radius:g}")
        return self


def _as_configuration(obj) -> Configuration:
    """obj as the one set type: a StarShape becomes the configuration of
    that one component; anything but these two raises ValidationError."""
    if isinstance(obj, Configuration):
        return obj
    if isinstance(obj, StarShape):
        return Configuration((obj,))
    raise ValidationError("expected a StarShape or a Configuration, got "
                          f"{type(obj).__name__}")


@dataclass(frozen=True)
class EnergyParams:
    """Physical parameters: a(x) = |x|^p, kernel |x-y|^(-alpha), strength gamma."""

    d: int
    p: float
    alpha: float
    gamma: float = 0.0

    def __post_init__(self):
        _integer("d", self.d, 2, 3)
        _real("p", self.p, 0.0)
        _real("alpha", self.alpha, 0.0, self.d, open_lo=True, open_hi=True)
        _real("gamma", self.gamma, 0.0)


# ----------------------------------------------------------------------
# measures
# ----------------------------------------------------------------------

def volume(shape: StarShape) -> float:
    """|Omega| = (1/d) int r^d dsigma by grid quadrature."""
    if not isinstance(shape, StarShape):
        raise ValidationError(f"expected a StarShape, got {type(shape).__name__}")
    d = shape.grid.d
    return float(np.dot(shape.grid.weights, shape.radii ** d)) / d


def total_volume(config) -> float:
    return sum(volume(s) for s in _as_configuration(config).validate().components)


def dilate(obj, t: float):
    """Dilation about the origin: scales centers and radial samples by t,
    and returns the type it is given."""
    _real("t", t, 0.0, open_lo=True)
    out = Configuration(tuple(
        StarShape(grid=s.grid, center=s.center * t, radii=s.radii * t)
        for s in _as_configuration(obj).components))
    return out if isinstance(obj, Configuration) else out.components[0]


# ----------------------------------------------------------------------
# continuous interpretation (shared by the raster / Monte Carlo oracles)
# ----------------------------------------------------------------------

def radial_at_directions(shape: StarShape, dirs) -> np.ndarray:
    """Interpolated radial function at arbitrary unit directions, given
    as the rows of an (N, d) array."""
    return _radial_at(shape, _array("dirs", dirs, (None, shape.grid.d)).T)


def _radial_at(shape: StarShape, cols) -> np.ndarray:
    """The interpolated radial function at the unit directions whose
    coordinate columns are cols[0], ..., cols[d-1]; unchecked."""
    # the azimuth in [0, 2 pi], as np.mod gives it: an angle in
    # (-4.4e-16, 0) rounds up to 2 pi, which the periodic spline wraps
    # to 0, and -0.0 becomes +0.0 (a branch-free add; both interpolants
    # take the same value at either zero)
    ang = np.arctan2(cols[1], cols[0])
    ang += (ang < 0) * (2.0 * math.pi)
    if shape.grid.d == 2:
        return _cubic(shape, ang)
    phi = np.arccos(np.clip(cols[2], -1.0, 1.0))
    return _bilinear(shape, phi, ang)


def _cubic(shape: StarShape, a):
    """The d=2 periodic spline at angles a in [0, 2 pi], bit for bit
    ``shape.spline(a)``.

    The piece comes from the shape's ``spline_table``: the bucket
    estimate, corrected by one comparison on each side, is the piece
    k with knot_k <= a < knot_(k+1) that the spline's search finds, and
    the knot 2 pi falls in the extra piece n.  The piece is summed in
    the spline's order, c3 + c2 s + c1 s^2 + c0 s^3 with the powers of
    s built by repeated multiplication.  Inputs that can leave
    [0, 2 pi] take np.mod(a, 2 pi) first, as the spline does.
    """
    scale, knots, (c0, c1, c2, c3) = shape.spline_table
    k = (a * scale).astype(np.intp)
    k -= a < knots[k]
    k += a >= knots[1:][k]
    s = a - knots[k]
    out = c2[k] * s
    out += c3[k]
    z = s * s
    out += c1[k] * z
    z *= s
    out += c0[k] * z
    return out


def _bilinear(shape: StarShape, phi, psi):
    """The d=3 bilinear interpolant at polar angles phi in [0, pi] and
    azimuths psi in [0, 2 pi].

    Beyond the extreme polar rows it is constant in phi (radial caps);
    in psi it wraps periodically.  The polar interval comes from the
    grid's ``polar_cells`` table, the four corners from one flat index
    into the shape's ``wrapped_radii``.
    """
    g = shape.grid
    ilo, edge, scale, gaps = g.polar_cells
    b = (phi * scale).astype(np.intp)
    i = ilo[b]
    i += phi > edge[b]
    t = (phi - g.polar[i]) / gaps[i]
    np.clip(t, 0.0, 1.0, out=t)
    u = psi / (2.0 * math.pi / g.azimuth.size)
    j = np.floor(u)
    u -= j
    stride = g.azimuth.size + 2
    i *= stride
    i += j.astype(np.intp)
    R = shape.wrapped_radii
    r00, r01 = R[i], R[1:][i]
    r10, r11 = R[stride:][i], R[stride + 1:][i]
    # (1 - t) ((1 - u) r00 + u r01) + t ((1 - u) r10 + u r11), in place
    v = 1 - u
    r00 *= v
    r01 *= u
    r00 += r01
    r10 *= v
    r11 *= u
    r10 += r11
    r00 *= 1 - t
    r10 *= t
    r00 += r10
    return r00


def membership(shape: StarShape, pts) -> np.ndarray:
    """Point-in-set test |x - c| <= r_interp(angle(x - c)).

    One pass over the coordinate columns: the center itself has no
    direction, so it is divided by 1 and counted inside.
    """
    pts = _array("pts", pts, (None, shape.grid.d))
    return _inside(shape, [pts[:, k] - c for k, c in enumerate(shape.center)])


def _inside(shape: StarShape, cols) -> np.ndarray:
    """The membership test of the points whose offsets from the center
    have the coordinate columns cols; unchecked."""
    rho = np.sqrt(sum(y * y for y in cols))
    at_center = rho == 0.0
    safe = np.where(at_center, 1.0, rho)
    return (rho <= _radial_at(shape, [y / safe for y in cols])) | at_center


def config_membership(config, pts) -> np.ndarray:
    return np.logical_or.reduce([membership(s, pts) for s in
                                 _as_configuration(config).components])


def interpolated_volume(shape: StarShape) -> float:
    """Measure of the interpreted set (1/d) int r_interp^d, to near machine precision."""
    g = shape.grid
    if g.d == 2:
        th = np.append(g.theta, 2.0 * math.pi)
        xg, wg = np.polynomial.legendre.leggauss(4)   # exact for the cubic squared
        a, b = th[:-1], th[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        pts = mid[:, None] + half[:, None] * xg[None, :]
        vals = _cubic(shape, pts.ravel()).reshape(pts.shape) ** 2
        return 0.5 * float(np.sum(vals @ wg * half))
    # d=3: tensor Gauss per lat-long cell on the bilinear interpolant, plus
    # the constant-radius polar caps left by clamping.
    pol, az = g.polar, g.azimuth
    na = az.size
    dpsi = 2.0 * math.pi / na
    xg, wg = np.polynomial.legendre.leggauss(6)
    phi_a, phi_b = pol[:-1], pol[1:]
    tot = 0.0
    for k in range(xg.size):
        phi_k = 0.5 * (phi_a + phi_b) + 0.5 * (phi_b - phi_a) * xg[k]
        wphi = 0.5 * (phi_b - phi_a) * wg[k]
        PHI = np.repeat(phi_k, na)
        WPHI = np.repeat(wphi, na)
        for l in range(xg.size):
            off = 0.5 * dpsi * (1.0 + xg[l])
            wpsi = 0.5 * dpsi * wg[l]
            PSI = np.mod(np.tile(az, phi_k.size) + off, 2.0 * math.pi)
            r = _bilinear(shape, PHI, PSI)
            tot += wpsi * float(np.dot(WPHI, (r ** 3 / 3.0) * np.sin(PHI)))
    # caps: the interpolant is constant in phi beyond the extreme Gauss rows
    # and linear in psi there, so 3-point Gauss is exact for the cube
    xg2, wg2 = np.polynomial.legendre.leggauss(3)
    for row_phi, (clo, chi) in ((pol[0], (0.0, pol[0])), (pol[-1], (pol[-1], math.pi))):
        azint = 0.0
        for l in range(3):
            off = 0.5 * dpsi * (1.0 + xg2[l])
            r = _bilinear(shape, np.full(na, row_phi), np.mod(az + off, 2.0 * math.pi))
            azint += float(np.sum(r ** 3 / 3.0)) * 0.5 * dpsi * wg2[l]
        tot += (math.cos(clo) - math.cos(chi)) * azint
    return float(tot)


def ray_radius(shape: StarShape) -> np.ndarray:
    """Distance from the origin to the boundary along the grid nodes.

    Bisection on the membership test; requires the origin to lie inside.

    Each ray t e starts from a bracket around an estimate of its
    crossing.  The estimate is the crossing t = e.c + sqrt((e.c)^2 -
    |c|^2 + r^2) of the ray with the sphere |x - c| = r, first at the
    nodal radius r, then ``_RAY_SWEEPS`` more times at the interpolated
    radius in the direction of t e - c.  A ray keeps the bracket
    t -+ ``_RAY_ULPS`` ulp(t), clipped to [0, top], only if the
    membership test certifies it: the test holds at its low end and
    fails at its high end.  Every other ray falls back to the full
    bracket [0, top], top = |c| + max(radii) (1 + 1e-9).  The certified
    rays and the fallback rays are bisected apart, so that a few
    fallback rays do not hold the others for their ~55 steps.  Either
    way a radius is a flip of the test at float resolution; where the
    computed test flips more than once within its own rounding, the two
    brackets can pick different flips, a few ulps apart.

    The d=2 spline can overshoot the nodal maximum, so a ray still
    inside at top is cast again on the bracket from the spline's exact
    maximum (``_spline_range``); the bilinear d=3 interpolant never
    exceeds the nodal maximum.
    """
    if not isinstance(shape, StarShape):
        raise ValidationError(f"expected a StarShape, got {type(shape).__name__}")
    g, c = shape.grid, shape.center
    m = g.n_nodes
    c_norm = float(np.linalg.norm(c))
    e = [np.ascontiguousarray(g.nodes[:, k]) for k in range(g.d)]
    top = c_norm + shape.max_radius * (1.0 + 1e-9)
    ec = sum(ek * ck for ek, ck in zip(e, c))
    q = ec * ec - c_norm * c_norm

    def crossing(r):
        return ec + np.sqrt(np.maximum(q + r * r, 0.0))

    t = crossing(shape.radii)
    for _ in range(_RAY_SWEEPS):
        cols = [t * ek - ck for ek, ck in zip(e, c)]
        rho = np.sqrt(sum(y * y for y in cols))
        rho[rho == 0.0] = 1.0
        t = crossing(_radial_at(shape, [y / rho for y in cols]))
    width = _RAY_ULPS * np.spacing(np.abs(t))
    lo = np.clip(t - width, 0.0, top)
    hi = np.clip(t + width, 0.0, top)
    # one test of the origin, the low ends and the high ends
    ends = np.concatenate(([0.0], lo, hi))
    inside = _inside(shape, [ends * np.concatenate(([0.0], ek, ek)) - ck
                             for ek, ck in zip(e, c)])
    if not inside[0]:
        raise ValidationError("origin is not inside the shape; ray cast undefined")
    ok = inside[1:m + 1] & ~inside[m + 1:]
    lo[~ok], hi[~ok] = 0.0, top
    for k in (np.flatnonzero(ok), np.flatnonzero(~ok)):
        if k.size:
            lo[k], hi[k] = _bisect(shape, [ek[k] for ek in e], lo[k], hi[k])
    if g.d == 2:
        # only a ray whose upper end never moved can be clamped
        k = np.flatnonzero(hi == top)
        k = k[_inside(shape, [top * ek[k] - ck for ek, ck in zip(e, c)])]
        if k.size:
            wide = c_norm + _spline_range(shape)[1] * (1.0 + 1e-9)
            lo[k], hi[k] = _bisect(shape, [ek[k] for ek in e],
                                   np.zeros(k.size), np.full(k.size, wide))
    return 0.5 * (lo + hi)


def _bisect(shape: StarShape, e, lo, hi):
    """(lo, hi) after bisecting each ray t -> t e from the origin on the
    inside test, with e the coordinate columns of the ray directions.

    It stops at 64 steps or once a step changes neither bracket: from
    there on every step would repeat it.
    """
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = _inside(shape, [mid * ek - c for ek, c in zip(e, shape.center)])
        new_lo = np.where(inside, mid, lo)
        new_hi = np.where(inside, hi, mid)
        if (new_lo == lo).all() and (new_hi == hi).all():
            break
        lo, hi = new_lo, new_hi
    return lo, hi


def _spline_range(shape: StarShape):
    """(minimum, maximum) of the d=2 spline: each cubic piece takes its
    extremes at the ends of its interval or at roots of its derivative
    inside it."""
    sp = shape.spline
    c, h = sp.c, np.diff(sp.x)
    # derivative a s^2 + b s + q of piece k in s = x - x_k, with the
    # cancellation-free pair of roots w / a and q / w
    a, b, q = 3.0 * c[0], 2.0 * c[1], c[2]
    disc = b * b - 4.0 * a * q
    w = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.concatenate((w / a, q / w))
    inside = (np.tile(disc, 2) >= 0.0) & (roots >= 0.0) \
        & (roots <= np.tile(h, 2))
    knots = sp.x[:-1]
    cand = np.concatenate((sp.x, np.tile(knots, 2)[inside] + roots[inside]))
    # a root at the end of the last piece can round past 2 pi
    vals = _cubic(shape, np.mod(cand, 2.0 * math.pi))
    return float(vals.min()), float(vals.max())


# ----------------------------------------------------------------------
# shape files
# ----------------------------------------------------------------------

def config_to_dict(config) -> dict:
    shapes = _as_configuration(config).components
    d = shapes[0].grid.d
    comps = [{
        "center": [float(x) for x in s.center],
        "grid": {"kind": GRID_KIND[d], "n": int(s.grid.n)},
        "radial": [float(r) for r in s.radii],
    } for s in shapes]
    return {"d": d, "components": comps}


def dict_to_config(obj: dict) -> Configuration:
    """The configuration of a parsed shape file (``config_to_dict``
    layout); a missing or mistyped entry raises ValidationError."""
    if not (isinstance(obj, dict) and isinstance(obj.get("components"), list)):
        raise ValidationError("a shape file is an object with a list of "
                              f"components, got {obj!r:.60}")
    d = _integer("d", obj.get("d"), 2, 3)
    comps = []
    grids: dict[int, SphereGrid] = {}
    for entry in obj["components"]:
        if not isinstance(entry, dict):
            raise ValidationError(f"shape file component {entry!r} is not "
                                  "an object")
        gspec = entry.get("grid")
        kind = gspec.get("kind") if isinstance(gspec, dict) else None
        if kind != GRID_KIND[d]:
            raise ValidationError(f"grid kind {kind!r} does not match d={d}")
        n = _integer("n", gspec.get("n"), 8)
        if n not in grids:
            grids[n] = make_grid(d, n)
        comps.append(StarShape(grid=grids[n], center=entry.get("center"),
                               radii=entry.get("radial")))
    return Configuration(tuple(comps))


def save_configuration(path, config: Configuration):
    with open(path, "w") as fh:
        json.dump(config_to_dict(config), fh)
        fh.write("\n")


def load_configuration(path) -> Configuration:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"shape file {path}: invalid JSON "
                                  f"({exc})") from None
    return dict_to_config(obj)
