"""Energy terms for the weighted nonlocal isoperimetric functional.

For a configuration Omega = union of star-shaped components, the total
energy at interaction strength gamma is

    E_gamma(Omega) = P_a(Omega) + gamma * V(Omega),

with density perimeter and Riesz interaction

    P_a(Omega) = sum_m  int_{S^{d-1}} a(c_m + r_m theta) r_m^{d-1}
                        sqrt(1 + |grad_tau r_m|^2 / r_m^2) dsigma,
    V(Omega)   = int_Omega int_Omega |x - y|^{-alpha} dx dy,

where a(x) = |x|^p.  V of a configuration is one sum over the union of
its components' nodes, which the descent minimizes and ``total_energy``
reports with its bar; it splits as sum_m V(Omega_m) + 2 sum_{m<n}
I(Omega_m, Omega_n) (``riesz_self``, ``interaction``) to roundoff.

Two discretizations of V share the package; only alpha picks one
(``boundary_form``).  ``frozen_rule`` builds what every Riesz evaluation
of one run shares: the volume quadrature, or None in the boundary form.

Boundary form, alpha <= BOUNDARY_ALPHA_MAX = 3/2.  Since
Laplacian(phi) = |z|^{-alpha} for phi = |z|^{2-alpha} / ((2-alpha)(d-alpha)),
the divergence theorem applied twice gives

    V(A, B) = c_alpha int_dA int_dB (n_x . n_y) |x - y|^{2-alpha},
    c_alpha = -1 / ((2 - alpha)(d - alpha)),

a bounded kernel for alpha < 2: no smoothing length and no radial
nodes.  On the grid the boundary points are y_i = c + r_i theta_i and
the weighted normals are N_i = w_i r_i^{d-2} (r_i theta_i - grad_tau r_i),
built from the grid's tangential stencils, so

    S_n = c_alpha sum_{i,j} |y_i - y_j|^{2-alpha} (N_i . N_j)

over boundary node pairs; the i = j term is 0.  S_n is the value that
is minimized, differentiated and reported.  Its error bar is
|S_n - S_c|, where S_c is the same sum on the grid's coarse level
(``SphereGrid.coarse``) with its own tangential stencils: every other
node of the uniform axis (angle in d=2, azimuth in d=3) with doubled
weights, or for odd d=2 n the trigonometric interpolant of the radii
at ceil(n/2) uniform angles, from one FFT pair.  The potential takes
the single-layer form v(x) = -1/(d-alpha) int_dOmega |x-y|^{-alpha}
(x-y) . n_y.

Volume form, alpha > 3/2.  Near alpha = 2 the |t|^{2-alpha} kink of the
boundary kernel on the diagonal makes the plain boundary sum less
accurate than the volume rule, and for d=3 alpha >= 2 its coarse-level
bar misses the exact ball values (the measurements are recorded at
BOUNDARY_ALPHA_MAX).  These exponents keep the product volume grid

    x(theta_j, s_k) = c + s_k r(theta_j) theta_j,
    W_{jk} = s_k^{d-1} r(theta_j)^d w_j v_k,

with (s_k, v_k) a Gauss-Legendre rule on [0, 1].  The singular kernel is
replaced by the desingularized kernel (|x-y|^2 + h^2)^{-alpha/2}, summed
over all node pairs, and the result is Richardson-extrapolated to h -> 0
from the two levels {h0, h0/2} with exponent q = min(2, d - alpha): the
smoothing bias of the kernel is exactly homogeneous of order d - alpha at
short range, while for d - alpha > 2 the long-range h^2 correction
dominates.  |extrapolation correction| is reported as the error estimate.
h0 is half the median inter-node spacing, where the spacing at a node
is the total distance to its adjacent nodes across the grid directions
(radial plus angular extents of the local quadrature cell).
h0 scales linearly under dilation of the configuration.

Both forms are exactly homogeneous: V(t Omega) = t^{2d-alpha} V(Omega)
up to roundoff.  Every Riesz value and deficit goes through
``riesz_sums`` (the two level sums) and ``riesz_estimate`` (value and
error bar); the minimized value is ``riesz_value`` and its exact
gradient ``riesz_gradient``.  The perimeter and its gradient share
``_perimeter_terms``.

Every value sum of either form is one ``pair_sum``, which takes the
kernel exponent: -alpha/2 at the volume form's two lengths, and
1 - alpha/2 at h = 0 with the weighted normals as vector weights for
the boundary sum.  The two fields (``pair_potential_field``,
``boundary_field``) share the upper-triangle accumulation
``_upper_add``.  All pair sums run over fixed row blocks whose size
depends only on the array sizes, with compensated summation of the
block partials, so results do not depend on thread count.  A self sum
evaluates each pair once, on the upper block triangle, and counts the
pairs off the diagonal blocks twice.  Squared distances come from
``cdist`` in one exact pass (never negative, no clamp), and every block
reuses buffers allocated once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ValidationError, _array, _real
from .geometry import (
    Configuration,
    EnergyParams,
    StarShape,
    _as_configuration,
    _weighted_normals,
    total_volume,
)

__all__ = [
    "EnergyBreakdown",
    "RieszResult",
    "VolumeQuadrature",
    "weighted_perimeter",
    "riesz_self",
    "interaction",
    "potential",
    "total_energy",
]

# Largest alpha evaluated in the boundary form; larger alpha use the
# volume form.  Relative error against the exact ball constants of the
# plain boundary sum S_n and of the volume path, on the same grid:
#     d=2 n=20 alpha=1.75    2.1e-1  vs 1.3e-1
#     d=3 n=8  alpha=1.6     3.5e-2  vs 2.4e-2
#     d=3 n=32 alpha=1.7     2.6e-3  vs 9.0e-4
#     d=2 n=48 alpha=1.5     1.45e-2 vs 5.5e-2
#     d=3 n=16 alpha=1.5     4.0e-3  vs 8.4e-3
# At alpha = 1.5 the boundary sum is the more accurate in 10 of 11 cells
# (d=2 n in {16, 20, 32, 48, 64}, d=3 n in {8, 12, 16, 24, 32}); the
# exception is d=2 n=16, 7.6e-2 vs 6.8e-2.  At d=3, alpha in
# {2.25, 2.5, 2.75} and n in {8, 12, 16, 24}, the coarse-level bar
# |S_n - S_c| misses the exact value in 12 of 12 cells.
BOUNDARY_ALPHA_MAX = 1.5


def boundary_form(params: EnergyParams) -> bool:
    """Whether V is evaluated in the boundary form; alpha alone decides."""
    return params.alpha <= BOUNDARY_ALPHA_MAX

# Element budget of each block buffer of the pair matrix (~64 MB per
# buffer; a value sum holds two, a field three).
_BLOCK_ELEMENTS = 1 << 23


def _gauss01(n):
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


# ----------------------------------------------------------------------
# volume quadrature
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VolumeQuadrature:
    """Product volume rule shared by every Riesz evaluation of a run.

    ``s``, ``v`` are the radial Gauss rule on [0, 1]; ``h`` is the
    desingularization length, frozen at build time so that energies and
    gradients evaluated against the same quadrature are consistent.
    """

    s: np.ndarray
    v: np.ndarray
    h: float

    def __post_init__(self):
        s = np.ascontiguousarray(_array("s", self.s, (None,)))
        v = np.ascontiguousarray(_array("v", self.v, s.shape))
        _real("h", self.h, 0.0, open_lo=True)
        if not (s.size and np.all(v > 0) and np.all(s > 0) and np.all(s < 1)):
            raise ValidationError("a radial rule needs nodes s in (0, 1) "
                                  "with weights v > 0")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "v", v)

    @classmethod
    def build(cls, obj) -> "VolumeQuadrature":
        """Build the rule for a StarShape or Configuration.

        The radial node count is ceil(n/2) of the finest sphere grid; h
        is half the median inter-node spacing.
        """
        shapes = _as_configuration(obj).components
        s, v = _gauss01(max((sh.grid.n + 1) // 2 for sh in shapes))
        spacings = np.concatenate([_cell_spacings(sh, s) for sh in shapes])
        return cls(s=s, v=v, h=0.5 * float(np.median(spacings)))

    @property
    def levels(self):
        """The kernel lengths (h, h/2) that every pair sum is taken at."""
        return (self.h, self.h / 2.0)

    def cloud(self, shapes):
        """Volume nodes and weights (X, W) of several components, concatenated."""
        clouds = [self.nodes(s) for s in shapes]
        return (np.concatenate([c[0] for c in clouds]),
                np.concatenate([c[1] for c in clouds]))

    def nodes(self, shape: StarShape):
        """Volume nodes and weights (X, W) for one component."""
        g = shape.grid
        d = g.d
        r = shape.radii
        X = (shape.center[None, None, :]
             + self.s[None, :, None] * r[:, None, None] * g.nodes[:, None, :])
        W = (self.s ** (d - 1) * self.v)[None, :] * (r ** d * g.weights)[:, None]
        return np.ascontiguousarray(X.reshape(-1, d)), np.ascontiguousarray(W.reshape(-1))


def frozen_rule(obj, params: EnergyParams) -> "VolumeQuadrature | None":
    """The rule that every Riesz evaluation of one run shares: the volume
    form's quadrature built for obj, None in the boundary form."""
    shapes = _as_configuration(obj).components
    _check_params(params, shapes)
    return _rule(shapes, params, None)


def _rule(shapes, params: EnergyParams, vq: VolumeQuadrature | None):
    """The volume rule of a Riesz evaluation over shapes: None in the
    boundary form, else vq, or the rule built from shapes when vq is
    None."""
    if boundary_form(params):
        return None
    return (VolumeQuadrature.build(Configuration(tuple(shapes)))
            if vq is None else vq)


def _cell_spacings(shape: StarShape, s: np.ndarray) -> np.ndarray:
    """Per-node inter-node spacing: summed adjacent gaps over grid axes."""
    g = shape.grid
    r = shape.radii
    ds = np.gradient(s)
    radial = r[:, None] * ds[None, :]
    if g.d == 2:
        angular = (s[None, :] * r[:, None]) * (2.0 * math.pi / g.n)
        return (radial + angular).ravel()
    n_az = g.azimuth.size
    dphi = np.repeat(np.gradient(g.polar), n_az)
    dpsi = (2.0 * math.pi / n_az) * np.sin(np.repeat(g.polar, n_az))
    angular = (s[None, :] * r[:, None]) * (dphi + dpsi)[:, None]
    return (radial + angular).ravel()


# ----------------------------------------------------------------------
# blocked pair sums
# ----------------------------------------------------------------------

def _blocks(XA, XB, upper: bool, n_work: int):
    """Row blocks of the pair matrix of XA against XB.

    Yields (i0, i1, d2, work): d2 holds the squared distances of the rows
    [i0, i1) of XA to the columns [c0, n) of XB, with c0 = i0 on the upper
    block triangle (``upper``) and c0 = 0 otherwise; ``work`` is a list of
    n_work scratch arrays of the same shape.  All of them are views into
    buffers allocated once per call.  The row block is an eighth of the
    rows, at least 64, within _BLOCK_ELEMENTS per buffer: it depends only
    on the array sizes.
    """
    n_rows, n_cols = XA.shape[0], XB.shape[0]
    step = max(1, min(max(64, -(-n_rows // 8)),
                      _BLOCK_ELEMENTS // max(n_cols, 1)))
    bufs = np.empty((1 + n_work, min(step, n_rows) * n_cols))
    for i0 in range(0, n_rows, step):
        i1 = min(i0 + step, n_rows)
        c0 = i0 if upper else 0
        shape = (i1 - i0, n_cols - c0)
        d2, *work = [b[:shape[0] * shape[1]].reshape(shape) for b in bufs]
        cdist(XA[i0:i1], XB[c0:], "sqeuclidean", out=d2)
        yield i0, i1, d2, work


def _upper_weights(W, i0: int, i1: int):
    """concat(W[i0:i1], 2 W[i1:]): the column weights of the row block
    [i0, i1) of a self sum on the upper block triangle; W[i0:] itself
    when the tail is empty (the last block, or the only one)."""
    if i1 == W.shape[0]:
        return W[i0:]
    return np.concatenate((W[i0:i1], 2.0 * W[i1:]))


def pair_sum(XA, WA, XB, WB, e: float, h_levels) -> list[float]:
    """sum_{a,b} WA_a . WB_b (|XA_a - XB_b|^2 + h^2)^e per h level.

    The weights are 1-d (the volume form, e = -alpha/2) or one vector
    per node (the boundary form, e = 1 - alpha/2 at h = 0).  A self sum
    (XA is XB and WA is WB) covers the upper block triangle only: the
    row block [i0, i1) meets the columns [i0, n) with weights
    concat(W[i0:i1], 2 W[i1:]).  The last level is computed in place on
    the squared distances.  Block partials are summed with fsum in a
    fixed order, so the result is independent of thread count.
    """
    upper = XA is XB and WA is WB
    parts = [[] for _ in h_levels]
    for i0, i1, d2, work in _blocks(XA, XB, upper, len(h_levels) - 1):
        wb = _upper_weights(WB, i0, i1) if upper else WB
        for part, h, k in zip(parts, h_levels, work + [d2]):
            if h:
                np.add(d2, h * h, out=k)
            np.power(k, e, out=k)
            part.append(float(np.vdot(WA[i0:i1], k @ wb)))
    return [math.fsum(p) for p in parts]


def _upper_add(out, k, V, i0: int, i1: int):
    """out += k V for the row block [i0, i1) of a self sum on the upper
    block triangle: k holds the pairs of those rows with the columns
    [i0, n), so each feeds its row and, beyond the block, its column."""
    out[i0:i1] += k @ V[i0:]
    out[i1:] += k[:, i1 - i0:].T @ V[i0:i1]


def pair_potential_field(X, W, alpha: float, h_levels):
    """Per-node potential and field of the weighted cloud against itself.

    Returns, for each h level, (phi, G) with
        phi_a = sum_b W_b (|X_a-X_b|^2+h^2)^(-alpha/2),
        G_a   = -alpha sum_b W_b (X_a-X_b) (|X_a-X_b|^2+h^2)^(-alpha/2-1).
    Each pair of the upper block triangle is evaluated once and feeds both
    of its nodes (``_upper_add``).
    """
    e = -alpha / 2.0
    n, d = X.shape
    # gm accumulates sum_b g_ab W_b and sum_b g_ab W_b X_b side by side
    WM = np.column_stack((W, W[:, None] * X))
    acc = [(np.zeros(n), np.zeros((n, d + 1))) for _ in h_levels]
    for i0, i1, d2, (g, k) in _blocks(X, X, True, 2):
        for (phi, gm), h in zip(acc, h_levels):
            np.add(d2, h * h, out=k)
            np.power(k, e - 1.0, out=g)
            np.multiply(g, k, out=k)
            _upper_add(phi, k, W, i0, i1)
            _upper_add(gm, g, WM, i0, i1)
    return [(phi, -alpha * (gm[:, :1] * X - gm[:, 1:])) for phi, gm in acc]


# ----------------------------------------------------------------------
# boundary sums
# ----------------------------------------------------------------------

def _c_alpha(d: int, alpha: float) -> float:
    return -1.0 / ((2.0 - alpha) * (d - alpha))


def _coarse_nodes(shape: StarShape):
    """Boundary points c + r theta and weighted normals of the grid's
    coarse level, with its own stencils: the radii r[::2], or for odd
    d=2 n their trigonometric interpolant at the m = (n+1)/2 coarse
    angles, where mode k is mode k mod m: one inverse FFT of the
    coefficients folded onto k mod m."""
    g, r = shape.grid, shape.radii
    coarse = g.coarse
    rc = r[::2].copy()
    if g.d == 2 and g.n % 2:
        # F[m:] holds the modes k - n = -(m-1), ..., -1
        F, m = np.fft.fft(r), coarse.n
        F[1:m] += F[m:]
        rc = np.fft.ifft(F[:m]).real * (m / g.n)
    return (shape.center[None, :] + rc[:, None] * coarse.nodes,
            _weighted_normals(coarse, rc, coarse.grad_components(rc)))


def _boundary_cloud(shapes, coarse: bool = False):
    """Boundary nodes (Y, N) of several components, concatenated, on the
    fine level (each shape's cached ``points`` and ``normals``) or the
    coarse level."""
    nodes = [_coarse_nodes(s) if coarse else (s.points, s.normals)
             for s in shapes]
    if len(nodes) == 1:
        return nodes[0]
    return (np.concatenate([y for y, _ in nodes]),
            np.concatenate([n for _, n in nodes]))


def boundary_sum(YA, NA, YB, NB, alpha: float) -> float:
    """c_alpha sum_{a,b} |YA_a - YB_b|^(2-alpha) (NA_a . NB_b): the
    pair_sum at h = 0 with the kernel exponent 1 - alpha/2.  A self sum
    (YA is YB and NA is NB) covers the upper block triangle; its
    diagonal terms are 0."""
    return _c_alpha(YA.shape[1], alpha) * pair_sum(
        YA, NA, YB, NB, 1.0 - alpha / 2.0, (0.0,))[0]


def boundary_field(Y, N, alpha: float):
    """Partial derivatives (dS/dY, dS/dN) of the self sum
    S = boundary_sum(Y, N, Y, N, alpha), one row per node:

        dS/dN_a = 2 c_alpha sum_b |Y_a-Y_b|^(2-alpha) N_b,
        dS/dY_a = 2 c_alpha (2-alpha) sum_b |Y_a-Y_b|^(-alpha) (N_a . N_b) (Y_a-Y_b),

    with |Y_a-Y_a|^(-alpha) taken as 0.  Each pair of the upper block
    triangle is evaluated once and feeds both of its nodes
    (``_upper_add``).
    """
    n, d = Y.shape
    P = np.zeros((n, d))
    # A accumulates sum_b m_ab and sum_b m_ab Y_b side by side, with
    # m_ab = |Y_a-Y_b|^(-alpha) (N_a . N_b)
    A = np.zeros((n, d + 1))
    Y1 = np.column_stack((np.ones(n), Y))
    for i0, i1, d2, (s, k) in _blocks(Y, Y, True, 2):
        with np.errstate(divide="ignore"):
            np.power(d2, -alpha / 2.0, out=s)
        np.fill_diagonal(s[:, :i1 - i0], 0.0)
        np.multiply(s, d2, out=k)
        _upper_add(P, k, N, i0, i1)
        np.matmul(N[i0:i1], N[i0:].T, out=k)
        np.multiply(s, k, out=s)
        _upper_add(A, s, Y1, i0, i1)
    c = 2.0 * _c_alpha(d, alpha)
    return c * (2.0 - alpha) * (A[:, :1] * Y - A[:, 1:]), c * P


def _boundary_gradient(shapes, alpha: float):
    """Exact (dS/dr, dS/dc) per component of the self sum S over the
    union of the components' boundary nodes, through the adjoint
    tangential stencils."""
    gY, gN = boundary_field(*_boundary_cloud(shapes), alpha)
    out = []
    i0 = 0
    for s in shapes:
        g, r = s.grid, s.radii
        d, w = g.d, g.weights
        i1 = i0 + r.size
        gy, gn = gY[i0:i1], gN[i0:i1]
        # N depends on r_i through w r^(d-1) theta, through the factor
        # w r^(d-2) of its tangential part, and through the stencils D_k
        gt = [np.einsum("ij,ij->i", gn, t) for t in g.tangent_frame]
        comps = s.slopes
        gr = np.einsum("ij,ij->i", gy + (d - 1) * (w * r ** (d - 2))[:, None] * gn,
                       g.nodes)
        gr -= (d - 2) * w * r ** (d - 3) * sum(c * t for c, t in zip(comps, gt))
        gr -= g.grad_components_T([w * r ** (d - 2) * t for t in gt])
        out.append((gr, gy.sum(axis=0)))
        i0 = i1
    return out


# ----------------------------------------------------------------------
# Riesz values on either path
# ----------------------------------------------------------------------

def riesz_sums(shapes, params: EnergyParams, vq: VolumeQuadrature | None):
    """The two level sums of V over the union of shapes that
    riesz_estimate combines: (S_n, S_c) in the boundary form, the pair
    sums at (h, h/2) in the volume form."""
    vq = _rule(shapes, params, vq)
    if vq is None:
        return [boundary_sum(Y, N, Y, N, params.alpha)
                for Y, N in (_boundary_cloud(shapes, coarse)
                             for coarse in (False, True))]
    X, W = vq.cloud(shapes)
    return pair_sum(X, W, X, W, -params.alpha / 2.0, vq.levels)


def riesz_estimate(sums, params: EnergyParams):
    """(value, error bar) from riesz_sums, or from differences of them:
    S_n and |S_n - S_c| in the boundary form, the Richardson h -> 0 step
    and its |correction| in the volume form (entrywise on arrays)."""
    S_h, S_half = sums
    if boundary_form(params):
        return S_h, abs(S_h - S_half)
    q = min(2.0, params.d - params.alpha)
    a, b = 2.0 ** q / (2.0 ** q - 1.0), 1.0 / (2.0 ** q - 1.0)
    return a * S_half - b * S_h, abs((S_half - S_h) / (2.0 ** q - 1.0))


def riesz_value(shapes, params: EnergyParams, vq: VolumeQuadrature | None) -> float:
    """V over the union of shapes as the optimizer minimizes it: S_n in
    the boundary form (no coarse level), the Richardson value in the
    volume form."""
    if boundary_form(params):
        Y, N = _boundary_cloud(shapes)
        return boundary_sum(Y, N, Y, N, params.alpha)
    return riesz_estimate(riesz_sums(shapes, params, vq), params)[0]


def riesz_gradient(shapes, params: EnergyParams, vq: VolumeQuadrature | None):
    """Exact (dV/dr, dV/dc) of riesz_value, one pair per component.

    The volume form differentiates the pair sums at the frozen kernel
    lengths through the potential phi and field G of the node cloud,
    Richardson combined like the value:
    dV/dr_J = 2 sum_k [(d/r_J) W_Jk phi_Jk + W_Jk s_k (theta_J . G_Jk)],
    dV/dc_m = 2 sum_{a in m} W_a G_a.
    """
    vq = _rule(shapes, params, vq)
    if vq is None:
        return _boundary_gradient(shapes, params.alpha)
    X, W = vq.cloud(shapes)
    (phi1, G1), (phi2, G2) = pair_potential_field(
        X, W, params.alpha, vq.levels)
    phi, _ = riesz_estimate((phi1, phi2), params)
    G, _ = riesz_estimate((G1, G2), params)
    out = []
    i0 = 0
    ns = vq.s.size
    for shape in shapes:
        g = shape.grid
        d = g.d
        n_nodes = shape.radii.size * ns
        Wm = W[i0:i0 + n_nodes].reshape(-1, ns)
        pm = phi[i0:i0 + n_nodes].reshape(-1, ns)
        Gm = G[i0:i0 + n_nodes].reshape(-1, ns, d)
        proj = np.einsum("jkt,jt->jk", Gm, g.nodes)
        gr = 2.0 * ((d / shape.radii) * (Wm * pm).sum(axis=1)
                    + (Wm * vq.s[None, :] * proj).sum(axis=1))
        gc = 2.0 * (Wm[:, :, None] * Gm).sum(axis=(0, 1))
        out.append((gr, gc))
        i0 += n_nodes
    return out


# ----------------------------------------------------------------------
# energy terms
# ----------------------------------------------------------------------

def _perimeter_terms(shape: StarShape, params: EnergyParams):
    """Boundary points y, density a(y), tangential components of grad r
    and slant sqrt(r^2 + |grad r|^2) at the grid nodes."""
    _check_params(params, (shape,))
    r = shape.radii
    slant = np.sqrt(r * r + shape.slope_sq)
    y = shape.points
    return y, _norms(y) ** params.p, shape.slopes, slant


def _norms(y):
    """|y_i| of the rows of y, by np.linalg.norm's own formula."""
    return np.sqrt(np.add.reduce(y * y, axis=1))


def weighted_perimeter(shape: StarShape, params: EnergyParams) -> float:
    """Density perimeter P_a = int a(c + r theta) r^{d-2} sqrt(r^2 + |grad r|^2)."""
    _, dens, _, slant = _perimeter_terms(shape, params)
    g = shape.grid
    return float(g.weights @ (dens * shape.radii ** (g.d - 2) * slant))


def perimeter_gradient(shape: StarShape, params: EnergyParams):
    """Exact (dP_a/dr, dP_a/dc) of the weighted_perimeter quadrature sum,
    through the adjoint tangential stencils."""
    y, dens, comps, slant = _perimeter_terms(shape, params)
    g, r = shape.grid, shape.radii
    d, w = g.d, g.weights
    ny = _norms(y)
    at0 = ny == 0.0
    if 0.0 < params.p <= 1.0 and at0.any():
        raise ValidationError(
            f"a boundary node lies on the origin, where the density "
            f"|x|^p with p = {params.p} has no derivative")
    # for p = 0 and p > 1, |y|^p has derivative 0 at the origin
    dd_dc_fac = params.p * np.where(at0, 1.0, ny) ** (params.p - 2.0)
    dd_dc_fac[at0] = 0.0
    dd_dr = dd_dc_fac * np.einsum("ij,ij->i", y, g.nodes)
    base = w * dens * r ** (d - 2)
    gr = w * dd_dr * r ** (d - 2) * slant
    gr += w * dens * (d - 2) * r ** (d - 3) * slant
    gr += base * r / slant
    gr += g.grad_components_T([base * c / slant for c in comps])
    gc = ((w * r ** (d - 2) * slant * dd_dc_fac)[:, None] * y).sum(axis=0)
    return gr, gc


@dataclass(frozen=True)
class RieszResult:
    """Riesz value with its error bar (riesz_estimate)."""

    value: float
    error: float

    def __float__(self):
        return self.value


def riesz_self(shape: StarShape, params: EnergyParams,
               vq: VolumeQuadrature | None = None) -> RieszResult:
    """Riesz self-energy V(Omega) = int_Omega int_Omega |x-y|^{-alpha}.

    vq is the rule of the volume form (alpha > BOUNDARY_ALPHA_MAX), built
    from the shape when not given; the boundary form does not use it.
    """
    _check_params(params, (shape,))
    value, err = riesz_estimate(riesz_sums((shape,), params, vq), params)
    return RieszResult(max(value, 0.0), err)


def interaction(A: StarShape, B: StarShape, params: EnergyParams,
                vq: VolumeQuadrature | None = None) -> float:
    """Cross term I(A,B) = int_A int_B |x-y|^{-alpha} for disjoint A, B.

    The operand pair is put in a canonical order before summation, so
    interaction(A, B) == interaction(B, A) bit for bit.
    """
    _check_params(params, (A, B))
    Configuration((A, B)).validate()
    vq = _rule((A, B), params, vq)
    nodes = [_boundary_cloud((s,)) if vq is None else vq.nodes(s)
             for s in (A, B)]
    (XA, WA), (XB, WB) = sorted(nodes, key=lambda xw: xw[0].tobytes())
    if vq is None:
        return max(boundary_sum(XA, WA, XB, WB, params.alpha), 0.0)
    value, _ = riesz_estimate(
        pair_sum(XA, WA, XB, WB, -params.alpha / 2.0, vq.levels), params)
    return max(value, 0.0)


def potential(obj, x, params: EnergyParams, vq: VolumeQuadrature | None = None) -> float:
    """Riesz potential v_Omega(x) = int_Omega |x-y|^{-alpha} dy.

    The boundary form is the single-layer sum
    -1/(d-alpha) sum_j |x-y_j|^(-alpha) (x-y_j) . N_j, with the term of a
    node at x taken as 0.  Each point is summed on its own, so a batch
    of points gives the values of single calls bit for bit.
    """
    shapes = _as_configuration(obj).components
    _check_params(params, shapes)
    pts = _array("x", x, (None, params.d))
    vq = _rule(shapes, params, vq)
    if vq is None:
        Y, N = _boundary_cloud(shapes)
        vals = np.empty(len(pts))
        for t, pt in enumerate(pts):
            diff = pt[None, :] - Y
            d2 = np.einsum("ij,ij->i", diff, diff)
            kern = np.where(d2 > 0.0, d2, np.inf) ** (-params.alpha / 2.0)
            vals[t] = ((kern @ np.einsum("ij,ij->i", diff, N))
                       / (params.alpha - params.d))
    else:
        X, W = vq.cloud(shapes)
        sums = np.array([pair_sum(pt[None, :], np.ones(1), X, W,
                                  -params.alpha / 2.0, vq.levels)
                         for pt in pts]).reshape(-1, 2)
        vals, _ = riesz_estimate(sums.T, params)
    if np.ndim(x) == 1:
        return float(vals[0])
    return vals


def total_energy(config, params: EnergyParams,
                 vq: VolumeQuadrature | None = None) -> "EnergyBreakdown":
    """Full breakdown of E_gamma over a StarShape or a Configuration.

    V (clamped at 0) and its bar are ``riesz_estimate`` of ``riesz_sums``
    over the union of the components: V is ``riesz_value``, which the
    descent minimizes, bit for bit, and the bar covers the cross terms.
    V = sum V_m + 2 sum_{m<n} I_mn holds to roundoff.
    """
    config = _as_configuration(config).validate()
    comps = config.components
    _check_params(params, comps)
    per = math.fsum(weighted_perimeter(s, params) for s in comps)
    riesz, err = riesz_estimate(riesz_sums(comps, params, vq), params)
    riesz = max(riesz, 0.0)
    return EnergyBreakdown(
        volume=total_volume(config),
        weighted_perimeter=per,
        riesz=riesz,
        gamma=params.gamma,
        total=per + params.gamma * riesz,
        riesz_error_estimate=err,
    )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Every term of E_gamma for one configuration."""

    volume: float
    weighted_perimeter: float
    riesz: float
    gamma: float
    total: float
    riesz_error_estimate: float

    def __post_init__(self):
        terms = (self.volume, self.weighted_perimeter, self.riesz,
                 self.total)
        if not all(math.isfinite(t) and t >= 0 for t in terms):
            raise ValidationError(f"energy terms must be finite and nonnegative: {self}")

    def to_dict(self):
        return {
            "volume": self.volume,
            "perimeter": self.weighted_perimeter,
            "riesz": self.riesz,
            "gamma": self.gamma,
            "total": self.total,
            "riesz_error_estimate": self.riesz_error_estimate,
        }


def _check_params(params: EnergyParams, shapes):
    """Raise ValidationError unless shapes are StarShapes of dimension
    params.d (EnergyParams itself keeps alpha in (0, d))."""
    if not all(isinstance(s, StarShape) and s.grid.d == params.d
               for s in shapes):
        raise ValidationError(f"need StarShapes of dimension d={params.d}")
