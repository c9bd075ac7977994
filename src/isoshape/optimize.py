"""Constrained minimization of E_gamma over star-shaped configurations.

The optimizer is a limited-memory BFGS (L-BFGS) descent in the H^1
metric with Armijo backtracking, projected onto unit volume.  A trial
step must also lower the objective strictly: once ARMIJO_C1 t g.d is
below half an ulp of f, the Armijo bound rounds to f itself.
Gradients are the exact derivatives of the discrete energy: the
perimeter part differentiates the surface quadrature sum through the
finite-difference tangential gradient operators (using their exact
adjoints), and the Riesz part is ``energy.riesz_gradient``.  In the
boundary form (alpha <= 3/2) that differentiates the boundary sum S_n
over the union of all components' boundary nodes: one pass gives
dS/dy_i and dS/dN_i, which are chained through
y_i = c + r_i theta_i and, for the tangential part of N_i, through the
adjoint stencils.  In the volume form it differentiates the
desingularized pair sum at the frozen kernel lengths {h0, h0/2}.
Because energy and gradient use the same frozen quadrature, the
gradient matches central finite differences of the energy to
truncation order, and the energy a run reports is the objective it
minimized, at that quadrature.

The unit-volume constraint is enforced by projection: the dilation
x -> t x with t = volume^{-1/d}, exact for the homogeneous density
|x|^p, after every trial step.  ``_project_volume`` clamps, projects
and builds the candidate from the trial vector in one pass, one
StarShape per component, so each trial's perimeter, resolvability and
Riesz terms read that shape's slopes, boundary points and normals
(``StarShape.slopes``, ``slope_sq``, ``points``, ``normals``), computed
once; the accepted trial's gradient and the final energy reuse them.
The initial inverse Hessian of the L-BFGS step is the H^1 metric
(M + D^T M D)^{-1} on each radial block, which evens out the k^2
stiffness of high angular modes; with D the grid's own tangential
stencils, u^T (M + D^T M D) u is the H^1 norm of ``asphericity``.
The operator commutes with shifts along the uniform axis, so
``_cut_and_solve`` gets the band cut and the exact solve from one rfft
per radial block, with one p x p block per kept mode
(``SphereGrid.h1_inverse``); README.md gives its cost at d=3 n=64.
Each iteration transforms the gradient and the volume normal as the
two columns of one block, bit for bit one call per vector.

Curvature pairs (s, y) come from the projected configurations and the
band-cut, volume-projected gradients, and each pair keeps P y beside
it, so a step needs no solve beyond the gradient's (``_two_loop``).
The step is made tangent to the volume constraint in the H^1 metric.
The memory is cleared when the L-BFGS step is no descent direction or
its line search fails (the preconditioned gradient is then tried before
the descent stops), and when a constraint (overlap, the slope cap, the
floor) starts or stops cutting the searches short: the pairs from
before then describe another problem.

The descent moves only within the grid's ``band`` of angular modes,
and a candidate with a radius on the floor R_MIN is rejected: the
fragmentation descents at gamma = 100 narrow their components down to
it, and the clamp would leave the band.  Both rules hold for either
discretization of V, which is chosen in ``energy`` alone.

The gamma <-> m scaling maps and the energy identity they satisfy,

    E_1(m^{1/d} Omega) = m^{(d-1+p)/d} E_gamma(Omega),
    gamma = m^{-(p + alpha - d - 1)/d},

break down at the critical exponent p* = d - alpha + 1, where the
functional is scale invariant and the map is undefined.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .energy import (
    EnergyBreakdown,
    VolumeQuadrature,
    _check_params,
    frozen_rule,
    perimeter_gradient,
    riesz_gradient,
    riesz_value,
    total_energy,
    weighted_perimeter,
)
from .errors import (
    CriticalExponentError,
    IsoshapeError,
    OverlapError,
    ValidationError,
    _integer,
    _real,
)
from .geometry import (
    R_MIN,
    Configuration,
    EnergyParams,
    SphereGrid,
    StarShape,
    _as_configuration,
    _mode_field,
    dilate,
    make_ball,
    ray_radius,
    total_volume,
    unit_ball_volume,
    volume,
)

__all__ = [
    "OptimizerOptions",
    "SweepRecord",
    "shape_gradient",
    "minimize",
    "critical_exponent",
    "gamma_to_mass",
    "mass_to_gamma",
    "asphericity",
    "build_initial_config",
    "sweep_gamma",
    "records_to_csv",
    "SWEEP_CSV_HEADER",
]


# ----------------------------------------------------------------------
# options and records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerOptions:
    """The iteration cap of one minimize call (the stop tolerance and the
    line-search constants are fixed), and the init spec of sweep starts
    (``build_initial_config``)."""

    max_iter: int = 2000
    init: tuple = ("ball",)

    def __post_init__(self):
        _integer("max_iter", self.max_iter, 1)
        _check_init(self.init)


@dataclass(frozen=True)
class SweepRecord:
    """Outcome of one minimization.

    ``breakdown`` is the total_energy of the final configuration at the
    rule the run minimized with; energy, perimeter, riesz and volume are
    its terms.  Failed sweep rows have none.
    """

    gamma: float
    p: float
    alpha: float
    d: int
    energy: float
    perimeter: float
    riesz: float
    volume: float
    n_components: int
    asphericity: float
    iterations: int
    converged: bool
    breakdown: EnergyBreakdown | None = None


SWEEP_CSV_HEADER = ("gamma,p,alpha,d,energy,perimeter,riesz,volume,"
                    "n_components,asphericity,iterations,converged")


def records_to_csv(records) -> str:
    """Render sweep records as CSV ('.' decimal, 17 significant digits)."""
    lines = [SWEEP_CSV_HEADER]
    for r in records:
        lines.append(",".join([
            _fmt(r.gamma), _fmt(r.p), _fmt(r.alpha), str(r.d),
            _fmt(r.energy), _fmt(r.perimeter), _fmt(r.riesz), _fmt(r.volume),
            str(r.n_components), _fmt(r.asphericity), str(r.iterations),
            str(int(r.converged)),
        ]))
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


# ----------------------------------------------------------------------
# scaling maps
# ----------------------------------------------------------------------

def critical_exponent(d: int, alpha: float) -> float:
    """p* = d - alpha + 1, the scale-invariant density power."""
    _integer("d", d, 2, 3)
    _real("alpha", alpha, 0.0, d, open_lo=True, open_hi=True)
    return d - alpha + 1.0


def _scaling_exponent(params: EnergyParams) -> float:
    ex = params.p + params.alpha - params.d - 1.0
    if abs(ex) < 1e-12:
        raise CriticalExponentError(
            f"p = p* = {critical_exponent(params.d, params.alpha)}: "
            "the functional is scale invariant and gamma <-> m is undefined")
    return ex


def gamma_to_mass(gamma: float, params: EnergyParams) -> float:
    """m = gamma^(-d/(p + alpha - d - 1))."""
    _real("gamma", gamma, 0.0, open_lo=True)
    return gamma ** (-params.d / _scaling_exponent(params))


def mass_to_gamma(m: float, params: EnergyParams) -> float:
    """gamma = m^(-(p + alpha - d - 1)/d)."""
    _real("m", m, 0.0, open_lo=True)
    return m ** (-_scaling_exponent(params) / params.d)


# ----------------------------------------------------------------------
# exact discrete gradient
# ----------------------------------------------------------------------

def shape_gradient(config, params: EnergyParams,
                   vq: VolumeQuadrature | None = None):
    """Exact gradient of the discrete E_gamma.

    Returns one (dE/dr, dE/dc) pair per component; both arrays are the
    coordinate partial derivatives of total_energy at the frozen rule vq
    (``energy.frozen_rule``).  ``minimize`` descends along the part of
    it within the resolved band (``_cut_and_solve``).
    """
    config = _as_configuration(config)
    _check_params(params, config.components)
    grads = [perimeter_gradient(s, params) for s in config.components]
    if params.gamma != 0.0:
        rg = riesz_gradient(config.components, params, vq)
        grads = [(gp + params.gamma * gr, cp + params.gamma * cr)
                 for (gp, cp), (gr, cr) in zip(grads, rg)]
    return grads


def _volume_gradient(shape: StarShape):
    g = shape.grid
    return g.weights * shape.radii ** (g.d - 1)


# ----------------------------------------------------------------------
# initial configurations and asphericity
# ----------------------------------------------------------------------

def _check_init(init):
    """Raise ValidationError unless init is ("ball",), ("perturbed-ball",
    eps, mode_k) or ("multiball", count, spacing), with eps finite,
    spacing finite and positive, and mode_k and count integers >= 1."""
    kind = init[0] if isinstance(init, tuple) and init else None
    if kind not in ("ball", "perturbed-ball", "multiball"):
        raise ValidationError(f"unknown init spec {init!r}")
    if len(init) != (1 if kind == "ball" else 3):
        raise ValidationError(f"malformed init spec {init!r}")
    if kind == "perturbed-ball":
        _real("eps", init[1])
        _integer("mode_k", init[2], 1)
    elif kind == "multiball":
        _integer("count", init[1], 1)
        _real("spacing", init[2], 0.0, open_lo=True)


def build_initial_config(params: EnergyParams, grid: SphereGrid,
                         init: tuple = ("ball",)) -> Configuration:
    """Unit-volume starting configuration from an init spec.

    Specs: ("ball",), ("perturbed-ball", eps, mode_k),
    ("multiball", count, spacing); ``_check_init`` states their rules.
    """
    _check_init(init)
    d = params.d
    r0 = unit_ball_volume(d) ** (-1.0 / d)
    kind = init[0]
    if kind == "ball":
        return Configuration((make_ball(r0, np.zeros(d), grid),))
    if kind == "perturbed-ball":
        u = _mode_field(grid, float(init[1]), int(init[2]))
        shape = StarShape(grid=grid, center=np.zeros(d), radii=r0 * (1.0 + u))
        return Configuration((dilate(shape, total_volume(shape) ** (-1.0 / d)),))
    count, spacing = int(init[1]), float(init[2])
    rb = (1.0 / (count * unit_ball_volume(d))) ** (1.0 / d)
    shapes = []
    for i in range(count):
        c = np.zeros(d)
        c[0] = spacing * (i - (count - 1) / 2.0)
        shapes.append(make_ball(rb, c, grid))
    return Configuration(tuple(shapes)).validate()


def asphericity(config) -> float:
    """H^1 norm of the best-fit zero-mean radial perturbation.

    The shape is ray-cast from the origin and compared with the
    volume-matched origin-centered ball; the zero-mean part of
    rho/R_vol - 1 is measured in H^1(S^{d-1}).  Multi-component
    configurations and shapes not containing the origin give +inf.
    """
    config = _as_configuration(config)
    if config.n_components != 1:
        return math.inf
    shape = config.components[0]
    g = shape.grid
    d = g.d
    vol = total_volume(config)
    r_vol = (vol / unit_ball_volume(d)) ** (1.0 / d)
    if np.all(shape.center == 0.0):
        rho = shape.radii
    else:
        try:
            rho = ray_radius(shape)
        except ValidationError:
            return math.inf
    w = g.weights
    u = rho / r_vol
    u0 = u - float(w @ u) / float(w.sum())
    comps = g.grad_components(u0)
    return math.sqrt(float(w @ (u0 * u0 + sum(c * c for c in comps))))


# ----------------------------------------------------------------------
# minimize
# ----------------------------------------------------------------------

def _flatten(grads):
    return np.concatenate([np.concatenate([gr, gc]) for gr, gc in grads])


def _pack(config: Configuration) -> np.ndarray:
    return _flatten([(s.radii, s.center) for s in config.components])


def _radial_blocks(config: Configuration):
    """(shape, slice of its radii) per component, in the layout of
    ``_pack``: each component's radii, then its center."""
    i0 = 0
    for s in config.components:
        yield s, slice(i0, i0 + s.radii.size)
        i0 += s.radii.size + s.grid.d


def _project_volume(config: Configuration, z: np.ndarray) -> Configuration:
    """The configuration of the packed vector z (laid out as ``_pack`` of
    config), dilated to unit volume, with one StarShape per component.

    The radii are clamped to the floor R_MIN, the component volumes are
    summed in order without the disjointness certificate (an overlapping
    candidate must still be rescalable, so that the line search rejects
    it through the objective instead of raising), z is scaled by
    volume^(-1/d) and the floor is applied again.
    """
    if not np.isfinite(z).all():
        raise ValidationError("non-finite radial sample or center")
    parts = [(np.maximum(z[rows], R_MIN), z[rows.stop:rows.stop + s.grid.d])
             for s, rows in _radial_blocks(config)]
    # the quadrature of geometry.volume on the clamped radii
    vol = math.fsum(float(np.dot(s.grid.weights, r ** s.grid.d)) / s.grid.d
                    for s, (r, _) in zip(config.components, parts))
    t = vol ** (-1.0 / config.components[0].grid.d)
    return Configuration(tuple(
        StarShape(grid=s.grid, center=c * t, radii=np.maximum(r * t, R_MIN))
        for s, (r, c) in zip(config.components, parts)))


# Resolvability cap on the radial graph: max |grad_tau r| per component
# may not exceed SLOPE_LIMIT times the component's volume radius.  The
# discrete model cannot see features below the grid scale, so without
# this cap a strongly repulsive Riesz term (large gamma) drives the
# descent into sub-grid "starburst" oscillations that hide interaction
# mass from the quadrature while the true energy grows.  Candidates
# beyond the cap are outside the class of shapes the discrete model
# resolves and are rejected like overlapping ones.
SLOPE_LIMIT = 2.0

# A descent converges when the max-norm of the projected gradient is at
# most G_TOL.  Each step is a two-loop L-BFGS step (Nocedal 1980; Liu &
# Nocedal 1989): the last MEMORY curvature pairs, with the H^1 solve P
# scaled by s.y / y.(P y) as the initial inverse Hessian.  Armijo
# backtracking: a trial step t (t = 1 is the full quasi-Newton step) is
# accepted when f drops by at least ARMIJO_C1 t g.d and is cut by SHRINK
# on rejection.  The first trial moves no radius or center by more than
# 0.5 r_scale, or by 0.05 r_scale while the memory is empty: the step is
# then the plain preconditioned gradient, whose length is no step length.
# After a search that a constraint cut short, the first trial is also
# capped at twice the accepted step; a direction that a constraint blocks
# would otherwise halve from the full step to 1e-16 on every iteration.
G_TOL = 1e-6
MEMORY = 8
ARMIJO_C1 = 1e-4
SHRINK = 0.5


def _resolved(config: Configuration) -> bool:
    # radii clamped to the floor are rejected too (module docstring)
    for s in config.components:
        d = s.grid.d
        r_vol = (volume(s) / unit_ball_volume(d)) ** (1.0 / d)
        if float(s.slope_sq.max()) > (SLOPE_LIMIT * r_vol) ** 2:
            return False
        if float(s.radii.min()) <= R_MIN:
            return False
    return True


def _cut_and_solve(config: Configuration, v: np.ndarray):
    """(cut, solve) of v, a vector or an (N, k) block: the radial blocks
    cut to the grid's ``band`` of Fourier modes on the uniform axis, in
    which every descent moves, and the H^1 solve (M + D^T M D)^{-1} of
    that cut.  Centers pass through both.

    The H^1 operator commutes with shifts along the uniform axis, so
    one rfft per radial block serves both results: the solve applies the
    grid's ``h1_inverse`` block to each kept mode, with no BLAS call.
    """
    if not np.isfinite(v).all():
        raise ValidationError("non-finite entry in a descent vector")
    cut, solve = v.copy(), v.copy()
    for s, rows in _radial_blocks(config):
        m, K = s.grid.band
        p = s.grid.n_nodes // m
        inv = s.grid.h1_inverse
        # one transform over the rows of every column of the block
        block = v[rows].T
        spec = np.fft.rfft(block.reshape(-1, m), axis=1)
        spec[:, K:] = 0.0
        cut[rows] = np.fft.irfft(spec, m, axis=1).reshape(block.shape).T
        # per mode, the real and imaginary parts through one inverse
        parts = np.ascontiguousarray(spec[:, :K]).view(float)
        x = np.einsum("kij,cjkr->cikr", inv, parts.reshape(-1, p, K, 2))
        x = np.ascontiguousarray(x).view(complex).reshape(-1, K)
        solve[rows] = np.fft.irfft(x, m, axis=1).reshape(block.shape).T
    return cut, solve


def _objective(config: Configuration, params: EnergyParams,
               vq: VolumeQuadrature) -> float:
    try:
        config.validate()
    except OverlapError:
        return math.inf
    if not _resolved(config):
        return math.inf
    per = math.fsum(weighted_perimeter(s, params) for s in config.components)
    val = per
    if params.gamma != 0.0:
        val += params.gamma * riesz_value(config.components, params, vq)
    return val


def _two_loop(memory, g: np.ndarray, Pg: np.ndarray) -> np.ndarray:
    """H g for the L-BFGS inverse Hessian H of the pairs in memory, oldest
    first as (s, y, P y, 1 / s.y), with H0 the H^1 solve P scaled by
    s.y / y.(P y) of the newest pair; P g is given.  The first loop keeps
    P q beside q, so H0 q needs no solve.  An empty memory gives P g."""
    q, Pq = g.copy(), Pg.copy()
    coefs = []
    for s, y, Py, rho in reversed(memory):
        a = rho * float(s @ q)
        q -= a * y
        Pq -= a * Py
        coefs.append(a)
    if memory:
        s, y, Py, _ = memory[-1]
        Pq *= float(s @ y) / float(y @ Py)
    for (s, y, _, rho), a in zip(memory, reversed(coefs)):
        Pq += s * (a - rho * float(y @ Pq))
    return Pq


def _line_search(config: Configuration, f: float, direction: np.ndarray,
                 gd: float, t: float, t_min: float,
                 params: EnergyParams, vq: VolumeQuadrature):
    """Armijo backtracking along -direction, whose slope is gd, from the
    trial step t.  Returns (candidate, its f, t, whether a constraint
    rejected a trial), or None once t reaches t_min."""
    z = _pack(config)
    blocked = False
    while t > t_min:
        cand = _project_volume(config, z - t * direction)
        f_new = _objective(cand, params, vq)
        if f_new < f and f_new <= f - ARMIJO_C1 * t * gd:
            return cand, f_new, t, blocked
        # inf: overlap, the slope cap or the floor
        blocked = blocked or f_new == math.inf
        t *= SHRINK
    return None


def minimize(init: Configuration, params: EnergyParams,
             opts: OptimizerOptions = OptimizerOptions(),
             callback=None):
    """Descend E_gamma from init under the unit-volume constraint.

    Returns (final configuration, SweepRecord).  Hitting the iteration
    cap or a failed line search returns the best configuration found
    with converged=False rather than raising.
    """
    init = _as_configuration(init).validate()
    vol0 = total_volume(init)
    if not 0.5 <= vol0 <= 2.0:
        raise ValidationError(f"initial volume {vol0:.6f} outside [0.5, 2]")
    vq = frozen_rule(init, params)

    # certify the start: from an overlapping one (f = inf) any finite
    # candidate would pass the line search
    config = _project_volume(init, _cut_and_solve(init, _pack(init))[0])
    config.validate()
    f = _objective(config, params, vq)
    converged = False
    iterations = 0

    r_scale = float(np.median(np.concatenate(
        [s.radii for s in config.components])))
    memory = deque(maxlen=MEMORY)
    last = None             # (packed config, g_proj, P g_proj) of the last step
    blocked = False         # whether a constraint cut the last search short
    cap = math.inf          # the first-trial cap after such a search

    for it in range(1, opts.max_iter + 1):
        iterations = it
        # the gradient and the volume normal side by side: one transform
        # gives the band cut and the H^1 solve of both.  Each is then
        # copied to a contiguous row, since a strided dot product can
        # round otherwise
        cut, solve = _cut_and_solve(config, np.column_stack((
            _flatten(shape_gradient(config, params, vq)),
            _flatten([(_volume_gradient(s), np.zeros(s.grid.d))
                      for s in config.components]))))
        g, n_vec = cut.T.copy()
        Pg, Pn = solve.T.copy()
        c = float(n_vec @ g) / float(n_vec @ n_vec)
        g_proj, Pg_proj = g - n_vec * c, Pg - Pn * c
        g_norm = float(np.abs(g_proj).max())
        if callback is not None:
            callback(it, f, g_norm)
        if g_norm <= G_TOL:
            converged = True
            break

        z = _pack(config)
        if last is not None:
            s, y, Py = z - last[0], g_proj - last[1], Pg_proj - last[2]
            sy = float(s @ y)
            if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y)):
                memory.append((s, y, Py, 1.0 / sy))
        last = z, g_proj, Pg_proj

        # the quasi-Newton direction, kept tangent to the constraint in
        # the H^1 metric; when it is no descent direction or its search
        # fails, the memory is cleared and the preconditioned gradient
        # tried before the descent stops
        while True:
            found = None
            direction = _two_loop(memory, g_proj, Pg_proj)
            direction -= Pn * (float(n_vec @ direction) / float(n_vec @ Pn))
            gd = float(g @ direction)
            d_norm = float(np.abs(direction).max())
            if gd > 0 and d_norm > 0:
                # t = 1 is the full step; t d_norm is the largest move
                limit = (0.5 if memory else 0.05) * r_scale / d_norm
                found = _line_search(config, f, direction, gd,
                                     min(1.0, limit, cap),
                                     1e-16 / (r_scale * d_norm), params, vq)
            if found is not None or not memory:
                break
            memory.clear()
        if found is None:
            break
        config, f, t, now_blocked = found
        # a constraint that starts or stops cutting the searches short
        # changes the problem that the curvature pairs describe
        if now_blocked != blocked:
            memory.clear()
        blocked = now_blocked
        cap = 2.0 * t if blocked else math.inf

    bd = total_energy(config, params, vq)
    record = SweepRecord(
        gamma=params.gamma, p=params.p, alpha=params.alpha, d=params.d,
        energy=bd.total, perimeter=bd.weighted_perimeter, riesz=bd.riesz,
        volume=bd.volume, n_components=config.n_components,
        asphericity=asphericity(config), iterations=iterations,
        converged=converged, breakdown=bd)
    return config, record


# ----------------------------------------------------------------------
# gamma sweeps
# ----------------------------------------------------------------------

def sweep_gamma(gamma_list, params: EnergyParams, grid: SphereGrid,
                opts: OptimizerOptions = OptimizerOptions()):
    """Minimize at each gamma; keep the better of fresh and warm starts.

    The gammas run in increasing order, one after another.  Each runs a
    fresh start from ``opts.init``, then a warm start from the previous
    gamma's minimizer.  A fresh start that fails with an IsoshapeError
    becomes an inf row, a failed warm start is skipped; any other
    exception propagates.
    """
    try:
        gammas = [float(_real(f"gamma_list[{i}]", g, 0.0, open_lo=True))
                  for i, g in enumerate(gamma_list)]
    except TypeError:       # not iterable
        gammas = []
    if not gammas or sorted(gammas) != gammas:
        raise ValidationError(f"gamma_list={gamma_list!r}; need a nonempty "
                              "sorted list")
    out = []
    prev_config = None
    for gamma in gammas:
        p = replace(params, gamma=gamma)
        try:
            init = build_initial_config(p, grid, opts.init)
            config, record = minimize(init, p, opts)
        except IsoshapeError:
            config, record = None, SweepRecord(
                gamma, params.p, params.alpha, params.d, math.inf, math.inf,
                math.inf, math.nan, 0, math.inf, 0, False)
        if prev_config is not None:
            try:
                warm_config, warm_record = minimize(prev_config, p, opts)
            except IsoshapeError:
                warm_config, warm_record = None, None
            if warm_record is not None and _better(warm_record, record):
                config, record = warm_config, warm_record
        out.append(record)
        if config is not None:
            prev_config = config
    return out


def _better(a: SweepRecord, b: SweepRecord) -> bool:
    """Energy comparison with asphericity tie-break below 1e-10."""
    if not math.isfinite(a.energy):
        return False
    if not math.isfinite(b.energy):
        return True
    if abs(a.energy - b.energy) < 1e-10:
        return a.asphericity < b.asphericity
    return a.energy < b.energy
