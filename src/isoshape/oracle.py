"""Independent brute-force ground truth and inequality checkers.

Two oracles cross-validate the quadrature path without sharing any code
with it.  The raster oracle covers d=2: a shape becomes the set of h by
h cells whose centers pass the membership test, volume is cell count
times h^2 (exact raster arithmetic), and perimeters are edge sums

    P ~ EDGE_FACTOR * h * sum_{exposed edges} a(edge midpoint),

where the anisotropy factor corrects the axis-aligned overcount (a
smooth boundary crossing direction phi is counted with weight
|cos phi| + |sin phi|, averaging 4/pi on a circle; the frozen constant
is calibrated on rasterized balls).  Every raster lives on one lattice
snapped to multiples of h, and its kernels work on the 1-D vectors of
cell centers and edge positions: set predicates see the broadcastable
centers x[:, None], y[None, :], and the exposed edges of a mask are
mask[:-1] ^ mask[1:] on the vertical and horizontal edge lattices, with
midpoint radii from the same vectors.  ``rasterize`` decides a cell
without the interpolant when its center lies within the spline's
minimum radius of a component's center, or beyond its maximum radius
from every center; only the cells between take an angle and a spline
value, from the table-driven kernel ``geometry._cubic``, which computes
scipy's bits.

The Riesz self-energy of a raster set has an exact lattice form,
``lattice_riesz``: V = h^(4-alpha) sum_D C(D) kappa(D), with C the
mask's autocorrelation (one FFT pair) and kappa(D) the exact integral
of |x-y|^(-alpha) over two unit cells at lag D, computed in polar
coordinates about the singular point and tabulated up to a fixed lag,
beyond which a far-field expansion takes over.  Its bar is the change
when the exact table stops at half that lag.  It holds at every alpha,
where the Monte Carlo standard error is a valid bar only for
2 alpha < d.

The Monte Carlo oracle estimates the Riesz energy V(A,B) = int_A int_B
|x-y|^(-alpha) of star shapes and configurations, the sets whose
quadrature it checks; a raster set has the lattice sum alone.  It uses
the exact singular kernel over uniform point pairs: directions are
drawn by angular rejection under the envelope r_max, radii by the exact
inverse CDF rho = s^(1/d) r(theta), so samples are exactly uniform over
the interpolated set.  The envelope is a true majorant: the nodal
maximum for the bilinear d=3 interpolant, and for the d=2 spline the
larger of a padded 4096-direction scan and the exact maximum of its
cubic pieces.  A call holds one working set, which every chunk reuses:
two (2^19, d) point buffers with one sample per row, and the chunk's
kernel values, squared in place for the second moment.  Each chunk's
random numbers are drawn whole, in a fixed order.  The first pass of a
draw writes its normals straight into the point buffer and turns them
into points there: each block's directions are copied out before any
row is written, and the accepted rows never run past the block's end.
Retry passes, and draws of fewer than 1024 samples, keep a separate
normals array; a configuration draws its components into consecutive
row slices and then permutes the rows.  The transform runs in
cache-sized blocks (normalization, angles, interpolant, acceptance,
radii, pair kernel), and the kernel's sums run over the whole chunk, so
neither the block size nor the buffers move a bit of an estimate.  Lattice
predicates (rasters, annulus masks, half-plane cuts) are evaluated in
row blocks the same way, and the relative isoperimetric corpus builds
its clip disk and annulus masks once per annulus and shares them among
its cuts.

The checkers quantify inequalities the analysis relies on: the
symmetric-difference Lipschitz bound |V(E) - V(F)| <= C |E delta F|
with C = 2 (d omega_d / (d - alpha) + 1), whose left side comes from
the lattice sum, the relative isoperimetric
inequality min(|Omega cap A|, |A minus Omega|)^((d-1)/d) <= c_d P(Omega, A)
on dyadic annuli A_{2^j, 2^(j+1)}, the weighted relative density
h_a(x, r), and the small-mass expansion of the two-ball perimeter
P_a(B_R) + P_a(B_rho) - P_a(B_{r_0}) = Cbar m + o(m) with
Cbar = (d-1+p) r_0^(p-1).

Every checker reports {check, trials, violations, worst_margin, params};
margins are signed with >= 0 meaning the trial passed with room.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import riesz_self
from .errors import (
    DegenerateAnnulusError,
    MassPreconditionError,
    OutOfBoundsError,
    ResolutionError,
    ValidationError,
    _array,
    _integer,
    _real,
)
from .geometry import (
    EnergyParams,
    StarShape,
    _as_configuration,
    _spline_range,
    config_membership,
    dilate,
    interpolated_volume,
    make_ball,
    make_grid,
    radial_at_directions,
    unit_ball_volume,
)

__all__ = [
    "EDGE_FACTOR",
    "RasterSet",
    "rasterize",
    "raster_from_predicate",
    "raster_measures",
    "symmetric_difference_area",
    "mc_riesz",
    "lattice_riesz",
    "check_rel_isop",
    "check_v_lipschitz",
    "weighted_density",
    "check_en_lower_bound",
    "random_star",
    "run_raster_agreement",
    "run_mc_agreement",
    "run_v_lipschitz",
    "run_rel_isop",
    "run_all_checks",
]

# Anisotropy correction for the edge-based perimeter estimator, frozen
# from a calibration run on rasterized balls (R in {0.7, 1.0, 1.3},
# h = 1/512, factors 0.786276 / 0.785398 / 0.784926); the analytic
# direction-average for smooth boundaries is pi/4 = 0.78539816.
EDGE_FACTOR = 0.785533440

# Monte Carlo samples per estimate of the check corpora, the fewest the
# oracle contract allows
MC_SAMPLES = 1_000_000
_MC_CHUNK = 1 << 19
# Samples per block of the Monte Carlo arithmetic: a chunk's random
# numbers are drawn whole, then transformed block by block in cache
_BLOCK = 1 << 14
# Lattice Riesz sum: lags with |D|_inf <= _LAGS take the exact cell-pair
# integral and farther ones the far field; the bar compares that sum
# with the one whose exact table reaches 2 _LAGS.  _KAPPA_NODES is the
# Gauss-Legendre rule along each edge of the exact integral.
_LAGS = 8
_KAPPA_NODES = 20


# ----------------------------------------------------------------------
# rasters
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RasterSet:
    """Axis-aligned cell set in the plane: mask[i, j] covers the cell
    [x0 + i h, x0 + (i+1) h) x [y0 + j h, y0 + (j+1) h).

    The lattice is anchored at multiples of h so rasters of equal pixel
    size are cell-aligned and admit exact boolean arithmetic.
    """

    h: float
    x0: float
    y0: float
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        _real("h", self.h, 0.0, open_lo=True)
        _real("x0", self.x0)
        _real("y0", self.y0)
        mask = np.ascontiguousarray(self.mask, dtype=bool)
        object.__setattr__(self, "mask", mask)
        if mask.ndim != 2:
            raise ValidationError("raster mask must be two-dimensional")

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    @property
    def volume(self) -> float:
        return self.count * self.h * self.h

    def cell_centers(self):
        """Centers of all lattice cells in the bounding box, as a grid."""
        nx, ny = self.mask.shape
        cx = self.x0 + (np.arange(nx) + 0.5) * self.h
        cy = self.y0 + (np.arange(ny) + 0.5) * self.h
        return cx, cy


def _snap(v: float, h: float) -> float:
    return math.floor(v / h) * h


def _on_lattice(pred, x, y) -> np.ndarray:
    """pred(x[:, None], y[None, :]) as a boolean (x.size, y.size) array,
    evaluated on blocks of rows of about _BLOCK cells so that its
    temporaries stay in cache; pred must act cell by cell."""
    out = np.empty((x.size, y.size), dtype=bool)
    step = max(_BLOCK // max(y.size, 1), 1)
    for a in range(0, x.size, step):
        out[a:a + step] = pred(x[a:a + step, None], y[None, :])
    return out


def raster_from_predicate(pred, bounds, h: float) -> RasterSet:
    """Raster of {x : pred(x)} over bounds ((xmin, xmax), (ymin, ymax)).

    The lattice is snapped to multiples of h.  pred receives a block of
    rows of the cell centers as broadcastable coordinates x[:, None] and
    y[None, :] and returns a boolean array that broadcasts to
    (x.size, y.size), cell by cell; it builds the star-shape rasters and
    the non-star test sets (half-planes, squares) of the checkers.
    """
    (xmin, xmax), (ymin, ymax) = bounds
    x0, y0 = _snap(xmin, h), _snap(ymin, h)
    nx = int(math.ceil((xmax - x0) / h))
    ny = int(math.ceil((ymax - y0) / h))
    cx = x0 + (np.arange(nx) + 0.5) * h
    cy = y0 + (np.arange(ny) + 0.5) * h
    return RasterSet(h=h, x0=x0, y0=y0, mask=_on_lattice(pred, cx, cy))


def rasterize(obj, h: float) -> RasterSet:
    """Cell-center rasterization of a star shape or configuration, d=2.

    A cell is occupied iff its center lies in the set per the membership
    test |x - c| <= r_interp(angle(x - c)), over the bounding box
    widened by two cells.  The test needs the angle only between the
    interpolant's minimum and maximum radius (``_spline_range``): a
    center at rho <= r_min (1 - 1e-12) from a component's center, with
    rho computed as ``membership`` computes it, is inside, and one at
    rho > r_max (1 + 1e-12) from every center is outside.  The 1e-12
    covers the rounding of a spline value, so the mask is the one the
    test gives on every cell.
    """
    obj = _as_configuration(obj)
    if obj.components[0].grid.d != 2:
        raise ValidationError("rasterize supports d=2 only")
    _real("h", h, 0.0, open_lo=True)
    pad = 2 * h
    lo = np.full(2, math.inf)
    hi = np.full(2, -math.inf)
    bands = []
    for s in obj.components:
        rmax = float(s.radii.max())
        lo = np.minimum(lo, s.center - rmax)
        hi = np.maximum(hi, s.center + rmax)
        r_min, r_max = _spline_range(s)
        bands.append((s.center, r_min * (1.0 - 1e-12), r_max * (1.0 + 1e-12)))

    def pred(x, y):
        inside = np.zeros((x.size, y.size), dtype=bool)
        near = np.zeros_like(inside)
        for (c0, c1), r_in, r_out in bands:
            dx = x - c0
            dy = y - c1
            rho = np.sqrt(dx * dx + dy * dy)
            inside |= rho <= r_in
            near |= rho <= r_out
        near &= ~inside
        i, j = np.nonzero(near)
        inside[i, j] = config_membership(
            obj, np.stack((x[i, 0], y[0, j]), axis=1))
        return inside

    rs = raster_from_predicate(
        pred, ((lo[0] - pad, hi[0] + pad), (lo[1] - pad, hi[1] + pad)), h)
    if rs.count < 100:
        raise ResolutionError(
            f"raster too coarse: {rs.count} occupied cells (< 100)")
    return rs


def _exposed_edges(rs: RasterSet, i0: int, i1: int, j0: int, j1: int):
    """(vertical, horizontal) exposed edges of the sub-box
    mask[i0:i1, j0:j1], padded with empty cells: mask[:-1] ^ mask[1:]
    along each axis."""
    m = np.pad(rs.mask[i0:i1, j0:j1], 1, constant_values=False)
    return m[:-1, 1:-1] ^ m[1:, 1:-1], m[1:-1, :-1] ^ m[1:-1, 1:]


def _edge_midpoints(rs: RasterSet, i0: int, i1: int, j0: int, j1: int):
    """Midpoints of the sub-box's (vertical, horizontal) edge lattices as
    coordinate vectors: (xe[k], cy[j]) for vertical edges at x0 + k h and
    (cx[i], ye[k]) for horizontal edges at y0 + k h."""
    h = rs.h
    cx, cy = rs.cell_centers()
    xe = rs.x0 + np.arange(i0, i1 + 1) * h
    ye = rs.y0 + np.arange(j0, j1 + 1) * h
    return (xe, cy[j0:j1]), (cx[i0:i1], ye)


def raster_measures(rs: RasterSet, p: float):
    """(volume, perimeter, weighted perimeter) of the raster.

    Volume is exact cell arithmetic; the perimeters are calibrated edge
    sums with the frozen anisotropy factor.
    """
    _real("p", p, 0.0)
    dens = []
    box = (0, rs.mask.shape[0], 0, rs.mask.shape[1])
    for exposed, (ex, ey) in zip(_exposed_edges(rs, *box),
                                 _edge_midpoints(rs, *box)):
        ii, jj = np.nonzero(exposed)
        dens.append(np.sqrt(ex[ii] ** 2 + ey[jj] ** 2) ** p)
    dens = np.concatenate(dens)
    return (rs.volume, EDGE_FACTOR * rs.h * dens.size,
            EDGE_FACTOR * rs.h * float(dens.sum()))


def symmetric_difference_area(a: RasterSet, b: RasterSet) -> float:
    """|A delta B| by exact cell arithmetic; rasters must share the lattice."""
    if not math.isclose(a.h, b.h, rel_tol=1e-12):
        raise ValidationError("rasters have different pixel sizes")
    h = a.h
    for v in (a.x0 - b.x0, a.y0 - b.y0):
        if abs(v / h - round(v / h)) > 1e-9:
            raise ValidationError("raster lattices are not aligned")
    x0 = min(a.x0, b.x0)
    y0 = min(a.y0, b.y0)
    nx = max(a.x0 + a.mask.shape[0] * h, b.x0 + b.mask.shape[0] * h)
    ny = max(a.y0 + a.mask.shape[1] * h, b.y0 + b.mask.shape[1] * h)
    nx = int(round((nx - x0) / h))
    ny = int(round((ny - y0) / h))

    def embed(r):
        out = np.zeros((nx, ny), dtype=bool)
        i0 = int(round((r.x0 - x0) / h))
        j0 = int(round((r.y0 - y0) / h))
        out[i0:i0 + r.mask.shape[0], j0:j0 + r.mask.shape[1]] = r.mask
        return out

    return int(np.count_nonzero(embed(a) ^ embed(b))) * h * h


# ----------------------------------------------------------------------
# Monte Carlo Riesz energy
# ----------------------------------------------------------------------

# Samplers return draw(rng, m, out), which fills the caller's
# C-contiguous (m, d) buffer with one sample per row, together with the
# measure of the sampled set.  The buffer is (m, d), not (d, m), because
# standard_normal into a transposed view fills it in another order.

def _envelope(shape: StarShape) -> float:
    """Majorant r_max of the interpolated radial function, which keeps
    the angular rejection exact."""
    if shape.grid.d == 3:
        # bilinear interpolation never exceeds the nodal maximum
        return float(shape.radii.max())
    # the periodic cubic interpolant can overshoot the nodal maximum; a
    # padded dense scan covers smooth shapes, the exact piecewise maximum
    # (with rounding room) covers modes the scan steps over
    ang = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    scan = float(radial_at_directions(
        shape, np.stack([np.cos(ang), np.sin(ang)], axis=1)).max())
    return max(scan * (1.0 + 1e-5), _spline_range(shape)[1] * (1.0 + 1e-12))


def _shape_sampler(shape: StarShape):
    d = shape.grid.d
    r_max = _envelope(shape)

    def draw(rng, m, out):
        have = 0
        while have < m:
            k = max(m - have, 1024)
            # the first pass of a full-size draw keeps its normals in out:
            # each block's directions are copied before rows are written,
            # and the accepted rows never run past the block's end
            normals = rng.standard_normal(
                (k, d), out=out if have == 0 and k == m else None)
            accept = rng.random(k)
            s = rng.random(k)
            for a in range(0, k, _BLOCK):
                if have == m:
                    break
                dirs = np.ascontiguousarray(normals[a:a + _BLOCK].T)
                dirs /= np.sqrt(sum(row * row for row in dirs))
                r_dir = radial_at_directions(shape, dirs.T)
                # sector mass scales like r^d, hence the power in the
                # acceptance test; the radial inverse CDF is s^(1/d) r
                keep = accept[a:a + _BLOCK] <= (r_dir / r_max) ** d
                idx = np.nonzero(keep)[0][:m - have]
                rho = s[a + idx] ** (1.0 / d) * r_dir[idx]
                for c, row, dst in zip(shape.center, dirs, out.T):
                    np.add(c, rho * row[idx], out=dst[have:have + idx.size])
                have += idx.size

    return draw, interpolated_volume(shape)


def _sampler(obj):
    if isinstance(obj, StarShape):
        return _shape_sampler(obj)
    parts = [_shape_sampler(s) for s in obj.components]
    vols = np.array([v for _, v in parts])
    total = float(vols.sum())
    probs = vols / total

    def draw(rng, m, out):
        counts = rng.multinomial(m, probs)
        start = 0
        for (p_draw, _), c in zip(parts, counts):
            p_draw(rng, c, out[start:start + c])
            start += c
        out[:] = out[rng.permutation(m)]

    return draw, total


def _dimension(obj) -> int:
    """The dimension of a set to sample, a StarShape or a Configuration,
    after its disjointness is certified (OverlapError)."""
    try:
        return _as_configuration(obj).validate().components[0].grid.d
    except ValidationError:
        raise ValidationError(f"cannot sample from {type(obj).__name__} "
                              "(need a StarShape or a Configuration; "
                              "the Riesz energy of a RasterSet is lattice_riesz)"
                              ) from None


def mc_riesz(set_a, set_b=None, alpha: float = 1.0,
             n_samples: int = MC_SAMPLES, seed: int = 0):
    """Monte Carlo Riesz energy V(A, B) = int_A int_B |x-y|^(-alpha).

    set_a and set_b are star shapes or configurations; a
    RasterSet raises ValidationError (its exact value is
    ``lattice_riesz``).  set_b = None estimates the self-energy V(A)
    (independent uniform pairs from A).  Returns (estimate, standard
    error); bit-identical for identical seeds.  The sample count, the
    seed, the sets (their types, dimensions and the disjointness of each
    configuration, ``OverlapError``) and alpha are validated before any
    sampler is built.
    """
    _integer("n_samples", n_samples, MC_SAMPLES)    # the oracle contract
    _integer("seed", seed, 0)
    d = _dimension(set_a)
    if set_b is not None and _dimension(set_b) != d:
        raise ValidationError(
            f"sets of dimension {d} and {_dimension(set_b)}; need equal")
    _real("alpha", alpha, 0.0, d, open_lo=True, open_hi=True)
    draw_a, vol_a = _sampler(set_a)
    if set_b is None:
        draw_b, vol_b = draw_a, vol_a
    else:
        draw_b, vol_b = _sampler(set_b)
    ss = np.random.SeedSequence(seed)
    n_chunks = (n_samples + _MC_CHUNK - 1) // _MC_CHUNK
    children = ss.spawn(n_chunks)
    # one working set per call, reused by every chunk
    buf_a = np.empty((_MC_CHUNK, d))
    buf_b = np.empty((_MC_CHUNK, d))
    buf_k = np.empty(_MC_CHUNK)
    s1, s2 = [], []
    left = n_samples
    for child in children:
        m = min(_MC_CHUNK, left)
        left -= m
        rng = np.random.default_rng(child)
        diff, pts_b, k = buf_a[:m], buf_b[:m], buf_k[:m]
        draw_a(rng, m, diff)
        draw_b(rng, m, pts_b)
        for a in range(0, m, _BLOCK):
            blk = diff[a:a + _BLOCK]
            blk -= pts_b[a:a + _BLOCK]
            k[a:a + _BLOCK] = sum(col * col for col in blk.T) ** (-0.5 * alpha)
        s1.append(float(k.sum()))
        k *= k
        s2.append(float(k.sum()))
    total1 = math.fsum(s1)
    total2 = math.fsum(s2)
    mean = total1 / n_samples
    # squared standard error of the mean, with the n/(n-1) bias factor
    se2 = max(total2 / n_samples - mean * mean, 0.0) / max(n_samples - 1, 1)
    scale = vol_a * vol_b
    return scale * mean, scale * math.sqrt(se2)


# ----------------------------------------------------------------------
# lattice Riesz energy of rasters
# ----------------------------------------------------------------------

def _kappa(d1, d2, alpha: float):
    """kappa(D) = int int |x - y|^(-alpha) over unit cells x in Q + D and
    y in Q, at integer lags D = (d1, d2) (broadcastable arrays).

    kappa(D) = int w(u - D) |u|^(-alpha) du with the tent
    w(v) = (1 - |v1|)+ (1 - |v2|)+, which is bilinear on each of its
    four unit quadrants.  The integral over a quadrant is the signed sum,
    over its edges (p, q), of the integral over the triangle (0, p, q).
    In the coordinates x = rho (p + t (q - p)) the triangle integral is
    cross(p, q) int_0^1 int_0^1 f(x) rho drho dt, and the radial
    integral of the bilinear weight times rho^(-alpha) is elementary.
    The t integrand is analytic on [0, 1]: an edge whose line misses the
    origin keeps a lattice unit away from it, and an edge on a line
    through the origin has cross(p, q) = 0.  Far from the origin the
    signed triangles cancel to about |D|^3 ulp of kappa(D): 6e-12
    relative at |D|_inf = 16.
    """
    d1 = np.asarray(d1, dtype=float)[..., None]
    d2 = np.asarray(d2, dtype=float)[..., None]
    t, wt = np.polynomial.legendre.leggauss(_KAPPA_NODES)
    t = 0.5 * (t + 1.0)
    wt = 0.5 * wt
    total = 0.0
    for s1, s2 in ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)):
        # on the quadrant between D and D + (s1, s2),
        # w = (b1 - s1 u1)(b2 - s2 u2)
        b1, b2 = 1.0 + s1 * d1, 1.0 + s2 * d2
        k0 = b1 * b2 / (2.0 - alpha)
        k1 = -s1 * b2 / (3.0 - alpha)
        k2 = -s2 * b1 / (3.0 - alpha)
        k3 = s1 * s2 / (4.0 - alpha)
        corners = ((d1, d2), (d1 + s1, d2), (d1 + s1, d2 + s2), (d1, d2 + s2))
        quad = 0.0
        for (px, py), (qx, qy) in zip(corners, corners[1:] + corners[:1]):
            x = px + t * (qx - px)
            y = py + t * (qy - py)
            g = (x * x + y * y) ** (-0.5 * alpha) \
                * (k0 + k1 * x + k2 * y + k3 * x * y)
            quad = quad + (px * qy - py * qx)[..., 0] * (g * wt).sum(axis=-1)
        # the corners run counterclockwise when s1 s2 = 1
        total = total + s1 * s2 * quad
    return total


@functools.lru_cache(maxsize=4)
def _kappa_table(alpha: float) -> np.ndarray:
    """kappa(d1, d2) for 0 <= d1, d2 <= 2 _LAGS, read-only: kappa depends
    on |d1| and |d2| only."""
    lags = np.arange(2 * _LAGS + 1)
    table = _kappa(lags[:, None], lags[None, :], alpha)
    table.setflags(write=False)
    return table


def _lag_counts(mask: np.ndarray) -> np.ndarray:
    """C(d1, d2) for 0 <= d1 < nx, 0 <= d2 < ny: the number of ordered
    pairs of occupied cells at the lags (+-d1, +-d2), exact integers.

    The mask's autocorrelation is one rfft2/irfft2 pair on the lattice
    zero-padded to twice its size, rounded to the integers it counts;
    the lags -d are then folded onto d along each axis.
    """
    nx, ny = mask.shape
    size = (2 * nx, 2 * ny)
    f = np.fft.rfft2(mask, s=size)
    f *= f.conj()
    counts = np.fft.irfft2(f, s=size)
    del f
    np.rint(counts, out=counts)
    rows = counts[:nx]
    rows[1:] += counts[:nx:-1]
    folded = rows[:, :ny].copy()
    folded[:, 1:] += rows[:, :ny:-1]
    return folded


def lattice_riesz(rs: RasterSet, alpha: float):
    """Riesz self-energy V = int_A int_A |x-y|^(-alpha) of the raster set
    A, as the lattice sum V = h^(4-alpha) sum_D C(D) kappa(D).  Returns
    (value, bar).

    C(D) is the number of occupied cell pairs at lag D, from one FFT
    autocorrelation (``_lag_counts``).  kappa(D) is the exact cell-pair
    integral (``_kappa``) for |D|_inf <= 2 _LAGS, and beyond that the
    far field |D|^(-alpha) (1 + alpha^2 / (12 |D|^2)), whose error falls
    off like |D|^(-alpha-4).  The bar is the change of
    V when the exact table stops at _LAGS instead.  The sums are numpy
    reductions, so V does not depend on the thread count.
    """
    _real("alpha", alpha, 0.0, 2.0, open_lo=True, open_hi=True)
    q = _lag_counts(rs.mask)
    nx, ny = q.shape
    r2 = np.add.outer(np.arange(nx) ** 2.0, np.arange(ny) ** 2.0)
    r2[0, 0] = 1.0
    far = r2 ** (-0.5 * alpha)
    far *= 1.0 + alpha * alpha / 12.0 / r2
    # the exact table's box, the ring _LAGS < |D|_inf <= 2 _LAGS in it
    m1, m2 = min(nx, 2 * _LAGS + 1), min(ny, 2 * _LAGS + 1)
    box = q[:m1, :m2]
    ring = np.maximum.outer(np.arange(m1), np.arange(m2)) > _LAGS
    ring_far = (box * far[:m1, :m2])[ring].sum()
    exact = box * _kappa_table(float(alpha))[:m1, :m2]
    # from here on far covers only the lags beyond the table
    far[:m1, :m2] = 0.0
    far *= q
    ring_exact = exact[ring].sum()
    value = exact[~ring].sum() + ring_exact + far.sum()
    scale = rs.h ** (4.0 - alpha)
    return float(scale * value), float(scale * abs(ring_exact - ring_far))


# ----------------------------------------------------------------------
# inequality checkers
# ----------------------------------------------------------------------

class _Annulus:
    """The lattice-only part of ``check_rel_isop`` on the annulus
    A_{2^j, 2^(j+1)}, built once from a raster's lattice and shared by
    every raster on it.

    Only the sub-box of cells within r_out + h of the origin, plus one
    margin cell, is read: every cell and edge outside it lies beyond
    r_out.  ``cells`` marks the sub-box cells whose center lies in
    [r_in, r_out); ``edges`` marks, on each edge lattice of the sub-box
    (``_edge_midpoints``), the edges whose midpoint radius lies strictly
    inside (r_in, r_out).
    """

    def __init__(self, rs: RasterSet, j: int):
        r_in, r_out = 2.0 ** j, 2.0 ** (j + 1)
        cx, cy = rs.cell_centers()
        reach = r_out + 2.0 * rs.h
        i0, i1 = np.searchsorted(cx, (-reach, reach))
        j0, j1 = np.searchsorted(cy, (-reach, reach))
        self.j = j
        self.lattice = (rs.h, rs.x0, rs.y0, rs.mask.shape)
        self.box = (i0, i1, j0, j1)

        def cells(x, y):
            rho2 = x ** 2 + y ** 2
            return (rho2 >= r_in * r_in) & (rho2 < r_out * r_out)

        def edges(x, y):
            rr = np.sqrt(x ** 2 + y ** 2)
            return (rr > r_in) & (rr < r_out)

        self.cells = _on_lattice(cells, cx[i0:i1], cy[j0:j1])
        self.edges = [_on_lattice(edges, ex, ey)
                      for ex, ey in _edge_midpoints(rs, *self.box)]

    def check(self, rs: RasterSet):
        """``check_rel_isop(rs, j)`` for a raster on this lattice."""
        if (rs.h, rs.x0, rs.y0, rs.mask.shape) != self.lattice:
            raise ValidationError("raster is not on the annulus's lattice")
        j, h = self.j, rs.h
        r_in, r_out = 2.0 ** j, 2.0 ** (j + 1)
        i0, i1, j0, j1 = self.box
        sub = rs.mask[i0:i1, j0:j1]
        inter = int(np.count_nonzero(sub & self.cells)) * h ** 2
        area = math.pi * (r_out ** 2 - r_in ** 2)
        minus = max(area - inter, 0.0)
        lhs = min(inter, minus) ** 0.5
        edges = 0
        for exposed, near in zip(_exposed_edges(rs, *self.box), self.edges):
            edges += int(np.count_nonzero(exposed & near))
        per = EDGE_FACTOR * h * edges
        if per == 0.0:
            # cell-center counting resolves the relative volumes only to
            # the area of one boundary layer of cells; below that, a
            # vanishing relative perimeter means containment, not an
            # artifact
            noise = 16.0 * h * r_out
            if min(inter, minus) > noise:
                raise DegenerateAnnulusError(
                    f"no relative perimeter in annulus j={j} despite proper "
                    f"intersection ({inter:.3e} of {area:.3e})")
            return lhs, per, 0.0
        ratio = 0.0 if lhs == 0.0 else lhs / per
        return lhs, per, ratio


def check_rel_isop(rs: RasterSet, j: int):
    """Relative isoperimetric quantities on the annulus A_{2^j, 2^(j+1)}.

    Returns (lhs, per, ratio) with lhs = min(|Omega cap A|,
    |A minus Omega|)^((d-1)/d), per = P(Omega; int A) and ratio = lhs / per
    (zero when lhs is zero).  The exposed edges are those that
    raster_measures counts, and an edge counts when its midpoint radius
    lies strictly inside (r_in, r_out); see ``_Annulus``.
    """
    _integer("j", j, -510, 510)     # 4^j and 4^(j+1) finite and nonzero
    return _Annulus(rs, j).check(rs)


def check_v_lipschitz(set_e: RasterSet, set_f: RasterSet, alpha: float):
    """Symmetric-difference Lipschitz bound |V(E) - V(F)| <= C |E delta F|.

    C = 2 (d omega_d / (d - alpha) + 1).  Returns (lhs, C |E delta F|)
    with lhs = |V(F) - V(E)| + bar_E + bar_F from ``lattice_riesz``,
    which is exact for raster sets up to its far-field bar: the left
    side carries no Monte Carlo noise and is never clamped.
    """
    d = 2
    if set_e.volume > 1.0 + 1e-9 or set_f.volume > 1.0 + 1e-9:
        raise MassPreconditionError(
            f"|E|={set_e.volume:.4f}, |F|={set_f.volume:.4f}; need <= 1")
    ve, bar_e = lattice_riesz(set_e, alpha)
    vf, bar_f = lattice_riesz(set_f, alpha)
    lhs = abs(vf - ve) + bar_e + bar_f
    c = 2.0 * (d * unit_ball_volume(d) / (d - alpha) + 1.0)
    return lhs, c * symmetric_difference_area(set_e, set_f)


def weighted_density(rs: RasterSet, x, r: float, p: float) -> float:
    """Weighted relative density h_a(x, r) of the raster at center x.

    min(L_a(Omega cap B_r(x)), L_a(B_r(x) minus Omega)) / L_a(B_r(x)) with
    L_a the |x|^p-weighted area; always in [0, 1/2].
    """
    x = _array("x", x, (2,))
    _real("r", r, 0.0, open_lo=True)
    _real("p", p, 0.0)
    nx, ny = rs.mask.shape
    if (x[0] - r < rs.x0 or x[0] + r > rs.x0 + nx * rs.h
            or x[1] - r < rs.y0 or x[1] + r > rs.y0 + ny * rs.h):
        raise OutOfBoundsError(
            f"ball B_{r:g}({x[0]:g}, {x[1]:g}) leaves the raster bounds")
    cx, cy = rs.cell_centers()
    in_ball = ((cx[:, None] - x[0]) ** 2 + (cy[None, :] - x[1]) ** 2) <= r * r
    dens = (cx[:, None] ** 2 + cy[None, :] ** 2) ** (0.5 * p)
    la_ball = float(dens[in_ball].sum()) * rs.h ** 2
    if la_ball <= 0.0:
        raise ValidationError("weighted measure of the query ball vanishes")
    la_in = float(dens[in_ball & rs.mask].sum()) * rs.h ** 2
    return min(la_in, la_ball - la_in) / la_ball


def check_en_lower_bound(m: float, p: float, d: int):
    """Small-mass expansion of the split-ball perimeter excess.

    exact_lhs = d omega_d (R^(d-1+p) + rho^(d-1+p) - r0^(d-1+p)) with
    r0 the unit-volume ball radius, rho = (m/omega_d)^(1/d) and
    R = (r0^d + rho^d)^(1/d); expansion = Cbar m with
    Cbar = (d-1+p) r0^(p-1).  For p > 1 the ratio tends to 1 as m -> 0;
    for p <= 1 the rho^(d-1+p) term decays no faster than m and the
    caller must compare against exact_lhs - d omega_d rho^(d-1+p).
    """
    _real("m", m, 0.0, 0.1)
    _real("p", p, 0.0, open_lo=True)
    wd = unit_ball_volume(d)
    r0 = wd ** (-1.0 / d)
    rho = (m / wd) ** (1.0 / d)
    big_r = (r0 ** d + rho ** d) ** (1.0 / d)
    q = d - 1 + p
    exact_lhs = d * wd * (big_r ** q + rho ** q - r0 ** q)
    cbar = q * r0 ** (p - 1.0)
    return exact_lhs, cbar * m


# ----------------------------------------------------------------------
# randomized corpora
# ----------------------------------------------------------------------

def random_star(rng, n: int = 96, d: int = 2, amp: float = 0.12,
                kmax: int = 4, center_scale: float = 0.15,
                normalize: bool = True) -> StarShape:
    """Random smooth star shape; normalize rescales to unit volume."""
    g = make_grid(d, n)
    if d == 2:
        u = np.zeros(g.n_nodes)
        for k in range(1, kmax + 1):
            a, b = rng.standard_normal(2) / k
            u += a * np.cos(k * g.theta) + b * np.sin(k * g.theta)
    else:
        phi = np.repeat(g.polar, g.azimuth.size)
        psi = np.tile(g.azimuth, g.polar.size)
        u = np.zeros(g.n_nodes)
        for k in range(1, kmax + 1):
            u += rng.standard_normal() / k * np.cos(k * phi)
            u += rng.standard_normal() / k * np.sin(phi) ** k * np.cos(k * psi)
    u *= amp / max(float(np.abs(u).max()), 1e-12)
    r0 = unit_ball_volume(d) ** (-1.0 / d)
    shape = StarShape(grid=g, center=rng.uniform(-1, 1, d) * center_scale,
                      radii=r0 * (1.0 + u))
    if normalize:
        from .geometry import volume as _vol
        shape = dilate(shape, _vol(shape) ** (-1.0 / d))
    return shape


def _report(check: str, trials: int, margins, params: dict) -> dict:
    """A corpus report: its worst margin and its violations, the margins
    below 0."""
    return {"check": check, "trials": int(trials),
            "violations": int(sum(m < 0 for m in margins)),
            "worst_margin": float(min(math.inf, *margins)), "params": params}


def run_raster_agreement(seed: int = 0, trials: int = 20) -> dict:
    """Raster volume and weighted perimeter vs the quadrature path, at
    pixel size h = 1/512 and density exponent p = 2.

    Margins: 0.01 - |dvol|/vol and 0.02 - |dper|/per per shape; a
    negative margin is a violation.  The corpus uses gentle waviness
    (amp 0.08, modes <= 3): the global edge factor models boundaries
    whose normal-direction distribution is near uniform, and high-mode
    blobs bias individual directions by several percent.
    """
    from .energy import weighted_perimeter
    from .geometry import volume as quad_volume
    h, p = 1.0 / 512, 2.0
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(trials):
        shape = random_star(rng, n=96, d=2, amp=0.08, kmax=3)
        rs = rasterize(shape, h)
        vol, _, wper = raster_measures(rs, p)
        vq = quad_volume(shape)
        wq = weighted_perimeter(shape, EnergyParams(d=2, p=p, alpha=1.0))
        margins += (0.01 - abs(vol - vq) / vq, 0.02 - abs(wper - wq) / wq)
    return _report("raster_agreement", 2 * trials, margins,
                   {"h": h, "p": p, "seed": seed})


# Cells of the MC agreement corpus: (d, n, shapes, alphas).  A 3
# sigma gate is meaningful only where (a) the pair-distance integrand
# t^(-2 alpha) has a finite second moment, i.e. 2 alpha < d -- at
# 2 alpha >= d the sample sigma estimates a divergent quantity and the
# z statistic is not Gaussian -- and (b) the quadrature truncation at
# the cell's resolution sits below the 1e6-sample noise (measured on
# balls against the exact constants: every cell below has |bias| <=
# 1.2 sigma).  The excluded self-energy cells (d=2 alpha in {1, 1.5},
# d=3 alpha = 1.5) are covered instead by the exact ball references,
# the homogeneity invariant, and the separated-ball cross-term test,
# none of which need the CLT.  Corpus shapes use gentle waviness so
# truncation, which grows with boundary curvature, stays below noise.
MC_AGREEMENT_CELLS = (
    (2, 128, 3, (0.5, 0.75)),
    (3, 24, 3, (0.5, 0.75)),
    (3, 28, 2, (1.0,)),
)


def run_mc_agreement(seed: int = 0) -> dict:
    """riesz_self vs mc_riesz within 3 sigma on every corpus shape.

    Margin: 3 sigma - |quad - mc| in units of sigma (i.e. 3 - |z|).
    """
    rng = np.random.default_rng(seed)
    margins = []
    mc_seed = seed
    for d, n, n_shapes, alphas in MC_AGREEMENT_CELLS:
        for i in range(n_shapes):
            shape = (make_ball(unit_ball_volume(d) ** (-1.0 / d),
                               np.zeros(d), make_grid(d, n))
                     if i == 0 else random_star(rng, n=n, d=d,
                                                amp=0.08, kmax=3))
            for alpha in alphas:
                params = EnergyParams(d=d, p=2.0, alpha=alpha)
                quad = float(riesz_self(shape, params))
                mc_seed += 1
                est, se = mc_riesz(shape, None, alpha, MC_SAMPLES, mc_seed)
                margins.append(3.0 - abs(quad - est) / se)
    return _report("mc_agreement", len(margins), margins,
                   {"n_samples": MC_SAMPLES, "seed": seed,
                    "cells": [[d, n, k, list(a)]
                              for d, n, k, a in MC_AGREEMENT_CELLS]})


def run_v_lipschitz(seed: int = 0, trials: int = 100) -> dict:
    """Eq.-style Lipschitz corpus over random unit-mass raster pairs, at
    alpha = 1 and pixel size h = 1/128.

    Margin: bound - lhs of ``check_v_lipschitz``, with both bars added
    to the lattice difference; a negative margin is a violation.
    params["lags"] is the reach of the exact cell-pair table of
    ``lattice_riesz``.
    """
    rng = np.random.default_rng(seed)
    margins = []
    alpha, h = 1.0, 1.0 / 128
    # Quadrature-unit-volume blobs rasterize to mass 1 + O(h^2), which
    # can tip over the |E| <= 1 precondition; shrink slightly below it.
    sub = 0.99
    for _ in range(trials):
        a = rasterize(dilate(
            random_star(rng, n=64, d=2, amp=0.2, center_scale=0.1), sub), h)
        shape_b = dilate(
            random_star(rng, n=64, d=2, amp=0.2, center_scale=0.1), sub)
        if rng.random() < 0.5:
            shape_b = dilate(shape_b, rng.uniform(0.75, 1.0))
        b = rasterize(shape_b, h)
        lhs, bound = check_v_lipschitz(a, b, alpha)
        margins.append(bound - lhs)
    return _report("v_lipschitz", trials, margins,
                   {"alpha": alpha, "lags": _LAGS, "h": h, "seed": seed})


def _clip_disk(r_out: float, h: float) -> RasterSet:
    """Raster of the disk |x| <= 1.5 r_out that clips the half-plane
    cuts on annulus r_out; its lattice is theirs."""
    b = 1.5 * r_out + 2 * h
    return raster_from_predicate(
        lambda x, y: np.sqrt(x * x + y * y) <= 1.5 * r_out,
        ((-b, b), (-b, b)), h)


def _halfplane_raster(angle: float, offset: float, r_out: float, h: float,
                      disk: RasterSet | None = None) -> RasterSet:
    """Raster of the half-plane x cos(angle) + y sin(angle) <= offset
    clipped to the disk ``_clip_disk(r_out, h)``, on the disk's lattice.
    A caller that makes many cuts builds the disk once and passes it."""
    if disk is None:
        disk = _clip_disk(r_out, h)
    c, s = math.cos(angle), math.sin(angle)
    mask = _on_lattice(lambda x, y: x * c + y * s <= offset,
                       *disk.cell_centers())
    mask &= disk.mask
    return RasterSet(h=disk.h, x0=disk.x0, y0=disk.y0, mask=mask)


def run_rel_isop(seed: int = 0, blobs: int = 50) -> dict:
    """Empirical relative-isoperimetric constant across dyadic annuli.

    Per annulus j in {0..3} the corpus is the through-origin half-plane
    cut (the extremal example), random offset cuts, and random star
    blobs scaled to straddle the annulus; the empirical constant c_j is
    the corpus maximum of lhs / per.  Scale stability asserts
    |c_j / c_0 - 1| <= 0.1; margin = 0.1 - max_j |c_j / c_0 - 1|.
    """
    rng = np.random.default_rng(seed)
    cs = []
    trials = 0
    for j in range(4):
        r_in, r_out = 2.0 ** j, 2.0 ** (j + 1)
        h = r_in / 192
        # the seven half-plane cuts share one lattice, hence one clip
        # disk and one set of annulus masks
        disk = _clip_disk(r_out, h)
        annulus = _Annulus(disk, j)
        cuts = [(0.0, 0.0)]
        for _ in range(6):
            cuts.append((rng.uniform(0, 2 * math.pi),
                         rng.uniform(-0.5, 0.5) * r_in))
        ratios = [annulus.check(_halfplane_raster(ang, off, r_out, h, disk))[2]
                  for ang, off in cuts]
        trials += len(cuts)
        for _ in range(blobs):
            shape = random_star(rng, n=64, d=2, amp=0.25, kmax=5,
                                center_scale=0.3, normalize=False)
            shape = dilate(shape, rng.uniform(1.0, 2.4) * r_in
                           / float(shape.radii.mean()))
            try:
                rs = rasterize(shape, h)
                _, _, ratio = check_rel_isop(rs, j)
            except (ResolutionError, DegenerateAnnulusError):
                continue
            ratios.append(ratio)
            trials += 1
        cs.append(max(ratios))
    devs = [abs(c / cs[0] - 1.0) for c in cs[1:]]
    return _report("rel_isop", trials, [0.1 - max(devs)],
                   {"constants": cs, "seed": seed, "blobs": blobs})


def run_en_lower_bound() -> dict:
    """Expansion ratio exact_lhs / (Cbar m) -> 1 along m = 1e-4 * 4^-k,
    at p = 2 and d = 2.

    Margin: 0.02 - |ratio - 1| at the smallest mass.
    """
    p, d = 2.0, 2
    masses = [1e-4, 2.5e-5, 6.25e-6]
    ratios = []
    for m in masses:
        lhs, exp_ = check_en_lower_bound(m, p, d)
        ratios.append(lhs / exp_)
    return _report("en_lower_bound", len(masses), [0.02 - abs(ratios[-1] - 1.0)],
                   {"p": p, "d": d, "masses": masses, "ratios": ratios})


def run_all_checks(seed: int = 0) -> list:
    """The default verify corpus: every checker's report, in fixed order."""
    _integer("seed", seed, 0)
    return [
        run_raster_agreement(seed=seed),
        run_mc_agreement(seed=seed),
        run_v_lipschitz(seed=seed),
        run_rel_isop(seed=seed),
        run_en_lower_bound(),
    ]
