"""Shape optimization and verification harness for the density-weighted
nonlocal isoperimetric energy E_gamma = P_a + gamma * V over star-shaped
sets of unit volume, with a(x) = |x|^p and the Riesz kernel |x-y|^(-alpha).
"""

from .errors import (
    ConfigError,
    CriticalExponentError,
    DegenerateDeficitError,
    GraphConditionError,
    IsoshapeError,
    OverlapError,
    ValidationError,
)
from .geometry import (
    Configuration,
    EnergyParams,
    SphereGrid,
    StarShape,
    dilate,
    load_configuration,
    make_ball,
    make_grid,
    save_configuration,
    sphere_area,
    tangential_gradient,
    total_volume,
    unit_ball_volume,
    volume,
)

from .energy import (
    EnergyBreakdown,
    RieszResult,
    VolumeQuadrature,
    interaction,
    potential,
    riesz_self,
    total_energy,
    weighted_perimeter,
)
from .fuglede import (
    Perturbation,
    deficit_report,
    h1_norm_sq,
    i1_i2_split,
    mode_perturbation,
    perimeter_deficit,
    random_perturbation,
    riesz_deficit,
    shape_from_perturbation,
    stability_ratio,
)
from .optimize import (
    OptimizerOptions,
    SweepRecord,
    asphericity,
    build_initial_config,
    critical_exponent,
    gamma_to_mass,
    mass_to_gamma,
    minimize,
    records_to_csv,
    shape_gradient,
    sweep_gamma,
)
from .oracle import (
    RasterSet,
    check_en_lower_bound,
    check_rel_isop,
    check_v_lipschitz,
    lattice_riesz,
    mc_riesz,
    raster_measures,
    rasterize,
    run_all_checks,
    weighted_density,
)
from .cli import RunConfig, main, parse_config

__version__ = "0.1.0"
