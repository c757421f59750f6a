"""casigrat: Casimir and electrostatic forces on flat and corrugated surfaces.

A numpy library covering the force stack of a sphere-vs-grating
torsional-oscillator experiment: imaginary-frequency dielectric models,
zero-temperature Lifshitz pressures between planar mirrors, the
proximity-force treatment of trapezoidal trench arrays, an exact
scattering-theory (Fourier modal) grating force, sphere-plane
electrostatics (exact series and a periodic 2D finite-element capacitor),
and the frequency-shift calibration used to extract force gradients.
"""

from .calibration import (
    CalibrationFit,
    FitError,
    FrequencyShiftSample,
    GradientModel,
    fem_gradient_model,
    find_residual_voltage,
    fit_calibration,
    inertia_from_coefficient,
    oscillator_coefficient,
    plate_gradient_model,
    predict_frequency_shift,
    read_frequency_shift_samples,
    series_gradient_model,
    synthesize_frequency_shifts,
    write_frequency_shift_samples,
)
from .config import (
    Config,
    ConfigError,
    TASKS,
    parse_grid,
    parse_int_range,
    parse_quantity,
)
from .constants import C_LIGHT, EPS0, EV_TO_RAD_PER_S, HBAR, ev_to_rad_per_s
from .curves import ForceCurve
from .electrostatics import (
    Mesh2D,
    MeshControl,
    SpherePlaneES,
    build_trench_mesh,
    corrugated_sphere_force,
    mesh_statistics,
    solve_corrugated_capacitor,
    sphere_plane_force,
    sphere_plane_gradient,
)
from .geometry import GratingProfile, Slab, height_profile, reference_trench_profile, staircase
from .grating import (
    GratingQuadrature,
    ModalError,
    TruncationSpec,
    casimir_force_grating,
    casimir_pressure_grating_grid,
    convergence_sweep,
    grating_reflection,
    rho_ratio,
    worker_count,
)
from .materials import (
    DielectricModel,
    Drude,
    DrudeLorentz,
    PerfectConductor,
    Tabulated,
    available_materials,
    get_material,
    intrinsic_silicon_table,
    load_tabulated_epsilon,
)
from .pfa import (
    FlatForceLaw,
    flat_pressure_law,
    pfa_corrugated,
    pfa_share_topbottom,
)
from .pipeline import (
    electrostatic_gradient_curves,
    flat_force_gradient_curve,
    rho_ratio_curves,
    run_pipeline,
)
from .planar import (
    NumericalError,
    RoughnessSpec,
    casimir_pressure_planar,
    force_gradient_sphere_plane,
    fresnel_te_tm,
    ideal_pressure,
    roughness_average,
)
from .quadrature import QuadratureSpec

__version__ = "0.1.0"

__all__ = [
    "CalibrationFit", "FitError", "FrequencyShiftSample", "GradientModel",
    "fem_gradient_model", "find_residual_voltage", "fit_calibration",
    "inertia_from_coefficient", "oscillator_coefficient",
    "plate_gradient_model", "predict_frequency_shift",
    "read_frequency_shift_samples", "series_gradient_model",
    "synthesize_frequency_shifts", "write_frequency_shift_samples",
    "Config", "ConfigError", "TASKS", "parse_grid", "parse_int_range",
    "parse_quantity",
    "C_LIGHT", "EPS0", "EV_TO_RAD_PER_S", "HBAR", "ev_to_rad_per_s",
    "ForceCurve",
    "Mesh2D", "MeshControl", "SpherePlaneES", "build_trench_mesh",
    "corrugated_sphere_force", "mesh_statistics", "solve_corrugated_capacitor",
    "sphere_plane_force", "sphere_plane_gradient",
    "GratingProfile", "Slab", "height_profile", "reference_trench_profile", "staircase",
    "GratingQuadrature", "ModalError", "TruncationSpec",
    "casimir_force_grating", "casimir_pressure_grating_grid", "convergence_sweep",
    "grating_reflection", "rho_ratio", "worker_count",
    "DielectricModel", "Drude", "DrudeLorentz", "PerfectConductor", "Tabulated",
    "available_materials", "get_material", "intrinsic_silicon_table",
    "load_tabulated_epsilon",
    "FlatForceLaw", "flat_pressure_law", "pfa_corrugated",
    "pfa_share_topbottom",
    "electrostatic_gradient_curves", "flat_force_gradient_curve",
    "rho_ratio_curves", "run_pipeline",
    "NumericalError", "RoughnessSpec", "casimir_pressure_planar",
    "force_gradient_sphere_plane", "fresnel_te_tm", "ideal_pressure",
    "roughness_average",
    "QuadratureSpec",
    "__version__",
]
