"""Every public callable checks its numeric arguments before any work.

``TABLE`` classifies each parameter of each callable that
``isoshape/__init__.py`` exports: a real number, an integer, a sequence
of reals or of integers, a real array, or not numeric.  A parameter
missing from the table fails the test.  ``VALID`` holds one row of valid
arguments per callable with a numeric parameter; the valid call itself
is never made.  Each numeric argument of that row, and each element of
a numeric sequence or array, is replaced in turn by a value outside the
numeric rule of ``errors``: nan, +-inf, None, "1" and True, and 2.5 for
an integer.  Every such call must raise an IsoshapeError whose message
names the argument, with no warning on the way.
"""

import inspect
import math
import re
import warnings

import numpy as np
import pytest

import isoshape as I
from isoshape import IsoshapeError

REAL, INT, REALS, INTS, ARRAY, OTHER = (
    "real", "int", "reals", "ints", "array", "other")

# Exempt callables, with the reason.  Exception types take a message.
EXEMPT = {
    "SweepRecord": "a result record of minimize and sweep_gamma",
    "EnergyBreakdown": "a result record of total_energy",
    "RieszResult": "a result record of the Riesz values",
    "SphereGrid": "its arrays are built by make_grid",
}

TABLE = {
    # geometry
    "Configuration": {"components": OTHER},
    "EnergyParams": {"d": INT, "p": REAL, "alpha": REAL, "gamma": REAL},
    "StarShape": {"grid": OTHER, "center": ARRAY, "radii": ARRAY},
    "dilate": {"obj": OTHER, "t": REAL},
    "load_configuration": {"path": OTHER},
    "make_ball": {"R": REAL, "center": ARRAY, "grid": OTHER},
    "make_grid": {"d": INT, "n": INT},
    "save_configuration": {"path": OTHER, "config": OTHER},
    "sphere_area": {"d": INT},
    "tangential_gradient": {"field": ARRAY, "grid": OTHER},
    "total_volume": {"config": OTHER},
    "unit_ball_volume": {"d": INT},
    "volume": {"shape": OTHER},
    # energy
    "VolumeQuadrature": {"s": ARRAY, "v": ARRAY, "h": REAL},
    "interaction": {"A": OTHER, "B": OTHER, "params": OTHER, "vq": OTHER},
    "potential": {"obj": OTHER, "x": ARRAY, "params": OTHER, "vq": OTHER},
    "riesz_self": {"shape": OTHER, "params": OTHER, "vq": OTHER},
    "total_energy": {"config": OTHER, "params": OTHER, "vq": OTHER},
    "weighted_perimeter": {"shape": OTHER, "params": OTHER},
    # fuglede
    "Perturbation": {"grid": OTHER, "u": ARRAY, "R": REAL, "p": REAL},
    "deficit_report": {"grid": OTHER, "modes": INTS, "epsilons": REALS,
                       "R": REAL, "p": REAL, "alpha": REAL, "gamma": REAL},
    "h1_norm_sq": {"pert": OTHER},
    "i1_i2_split": {"pert": OTHER},
    "mode_perturbation": {"grid": OTHER, "eps": REAL, "k": INT, "R": REAL,
                          "p": REAL},
    "perimeter_deficit": {"pert": OTHER},
    "random_perturbation": {"grid": OTHER, "rng": OTHER, "c1_bound": REAL,
                            "kmax": INT, "R": REAL, "p": REAL},
    "riesz_deficit": {"pert": OTHER, "alpha": REAL},
    "shape_from_perturbation": {"pert": OTHER},
    "stability_ratio": {"pert": OTHER, "alpha": REAL, "gamma": REAL},
    # optimize; an init spec is checked whole, by its own rule
    "OptimizerOptions": {"max_iter": INT, "init": OTHER},
    "asphericity": {"config": OTHER},
    "build_initial_config": {"params": OTHER, "grid": OTHER, "init": OTHER},
    "critical_exponent": {"d": INT, "alpha": REAL},
    "gamma_to_mass": {"gamma": REAL, "params": OTHER},
    "mass_to_gamma": {"m": REAL, "params": OTHER},
    "minimize": {"init": OTHER, "params": OTHER, "opts": OTHER,
                 "callback": OTHER},
    "records_to_csv": {"records": OTHER},
    "shape_gradient": {"config": OTHER, "params": OTHER, "vq": OTHER},
    "sweep_gamma": {"gamma_list": REALS, "params": OTHER, "grid": OTHER,
                    "opts": OTHER},
    # oracle; a raster mask is boolean
    "RasterSet": {"h": REAL, "x0": REAL, "y0": REAL, "mask": OTHER},
    "check_en_lower_bound": {"m": REAL, "p": REAL, "d": INT},
    "check_rel_isop": {"rs": OTHER, "j": INT},
    "check_v_lipschitz": {"set_e": OTHER, "set_f": OTHER, "alpha": REAL},
    "lattice_riesz": {"rs": OTHER, "alpha": REAL},
    "mc_riesz": {"set_a": OTHER, "set_b": OTHER, "alpha": REAL,
                 "n_samples": INT, "seed": INT},
    "raster_measures": {"rs": OTHER, "p": REAL},
    "rasterize": {"obj": OTHER, "h": REAL},
    "run_all_checks": {"seed": INT},
    "weighted_density": {"rs": OTHER, "x": ARRAY, "r": REAL, "p": REAL},
    # cli; argv is parsed into ConfigError by the CLI's own rules
    "RunConfig": {"command": OTHER, "params": OTHER, "n": INT,
                  "opts": OTHER, "gammas": REALS, "out": OTHER,
                  "seed": INT, "svg": OTHER},
    "main": {"argv": OTHER},
    "parse_config": {"argv": OTHER},
}

_G = I.make_grid(2, 16)
_DISK = I.make_ball(0.5, np.zeros(2), _G)
_PARAMS = I.EnergyParams(d=2, p=2.0, alpha=1.0, gamma=1.0)
_OPTS = I.OptimizerOptions(max_iter=5)
_PERT = I.mode_perturbation(_G, 0.1, 2)
_RS = I.RasterSet(h=0.05, x0=-0.5, y0=-0.5, mask=np.ones((10, 10), bool))
_U = 0.1 * np.cos(2.0 * _G.theta)

# one row of valid arguments per callable with a numeric parameter
VALID = {
    "EnergyParams": dict(d=2, p=2.0, alpha=1.0, gamma=0.5),
    "StarShape": dict(grid=_G, center=np.zeros(2), radii=np.ones(16)),
    "dilate": dict(obj=_DISK, t=2.0),
    "make_ball": dict(R=1.0, center=np.zeros(2), grid=_G),
    "make_grid": dict(d=2, n=16),
    "sphere_area": dict(d=2),
    "tangential_gradient": dict(field=_U, grid=_G),
    "unit_ball_volume": dict(d=3),
    "VolumeQuadrature": dict(s=np.array([0.25, 0.75]),
                             v=np.array([0.5, 0.5]), h=0.1),
    "potential": dict(obj=_DISK, x=np.array([[0.1, 0.2]]), params=_PARAMS),
    "Perturbation": dict(grid=_G, u=_U, R=1.0, p=2.0),
    "deficit_report": dict(grid=_G, modes=(2, 3), epsilons=(0.1, 0.05),
                           R=1.0, p=2.0, alpha=1.0, gamma=1.0),
    "mode_perturbation": dict(grid=_G, eps=0.1, k=2, R=1.0, p=2.0),
    "random_perturbation": dict(grid=_G, rng=np.random.default_rng(0),
                                c1_bound=0.1, kmax=6, R=1.0, p=2.0),
    "riesz_deficit": dict(pert=_PERT, alpha=1.0),
    "stability_ratio": dict(pert=_PERT, alpha=1.0, gamma=1.0),
    "OptimizerOptions": dict(max_iter=10, init=("ball",)),
    "critical_exponent": dict(d=2, alpha=1.0),
    "gamma_to_mass": dict(gamma=1.0, params=_PARAMS),
    "mass_to_gamma": dict(m=1.0, params=_PARAMS),
    "sweep_gamma": dict(gamma_list=(0.1, 1.0), params=_PARAMS, grid=_G,
                        opts=_OPTS),
    "RasterSet": dict(h=0.05, x0=0.0, y0=0.0, mask=np.ones((4, 4), bool)),
    "check_en_lower_bound": dict(m=1e-4, p=2.0, d=2),
    "check_rel_isop": dict(rs=_RS, j=0),
    "check_v_lipschitz": dict(set_e=_RS, set_f=_RS, alpha=1.0),
    "lattice_riesz": dict(rs=_RS, alpha=1.0),
    "mc_riesz": dict(set_a=_DISK, set_b=None, alpha=0.5,
                     n_samples=1_000_000, seed=0),
    "raster_measures": dict(rs=_RS, p=2.0),
    "rasterize": dict(obj=_DISK, h=0.05),
    "run_all_checks": dict(seed=0),
    "weighted_density": dict(rs=_RS, x=np.zeros(2), r=0.2, p=2.0),
    "RunConfig": dict(command="eval", params=_PARAMS, n=16, opts=_OPTS,
                      gammas=(0.1, 1.0), out=".", seed=0, svg=False),
}

_BAD = (math.nan, math.inf, -math.inf, None, "1", True)
# numpy reads True beside floats as 1.0, so an array entry is not
# probed with it; the whole argument is
_BAD_ENTRY = (math.nan, math.inf, -math.inf, None, "1")


def _exports():
    """The callables of the package namespace: the names that
    ``__init__`` imports (submodules are not callable)."""
    return {name: obj for name, obj in vars(I).items()
            if callable(obj) and not name.startswith("_")
            and not (isinstance(obj, type) and issubclass(obj, BaseException))}


def _probes(kind, value):
    """The out-of-rule replacements of one argument of the given kind."""
    if kind in (REAL, INT):
        yield from _BAD + ((2.5,) if kind == INT else ())
    elif kind in (REALS, INTS):
        for i in range(len(value)):
            for bad in _BAD + ((2.5,) if kind == INTS else ()):
                yield type(value)(bad if j == i else v
                                  for j, v in enumerate(value))
    else:
        yield from (None, "1", True)
        for i in range(value.size):
            for bad in _BAD_ENTRY:
                entries = value.astype(object)
                entries.flat[i] = bad
                yield entries.tolist()


def test_table_covers_every_export():
    exports = _exports()
    assert set(EXEMPT) <= set(exports)
    assert set(TABLE) == set(exports) - set(EXEMPT)
    for name, kinds in TABLE.items():
        params = inspect.signature(exports[name]).parameters
        assert set(kinds) == set(params), name
        numeric = [p for p, kind in kinds.items() if kind != OTHER]
        assert bool(numeric) == (name in VALID), name


@pytest.mark.parametrize("name", sorted(VALID))
def test_numeric_arguments_raise_a_typed_error_naming_them(name):
    fn = _exports()[name]
    for param, kind in TABLE[name].items():
        if kind == OTHER:
            continue
        for bad in _probes(kind, VALID[name][param]):
            args = {**VALID[name], param: bad}
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IsoshapeError) as info:
                    fn(**args)
            assert re.search(rf"\b{param}\b", str(info.value)), \
                (name, param, bad, str(info.value))
