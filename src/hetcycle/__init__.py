"""Certification and construction of heteroclinic cycles in a two-zone
piecewise-affine 3D system (saddle periodic orbit in the left zone, saddle
equilibrium in the right zone)."""

from ._integrate import StepControl
from .flows import left_flow, numeric_flow, right_flow
from .hybrid import (
    CrosscheckReport,
    HybridTrajectory,
    crosscheck_closed_forms,
    integrate_hybrid,
)
from .model import (
    DerivedGeometry,
    HypothesisReport,
    Interval3D,
    LimitCycle,
    SystemParams,
    derive_geometry,
    interval_contains,
    load_config,
    parse_config,
    validate_hypotheses,
)
from .orbits import (
    CycleCertificate,
    OrbitSample,
    assemble_cycle,
    build_gamma1,
    build_gamma_up,
    default_horizons,
)
from .planar import (
    PlanarLinearSystem,
    SpiralWindow,
    StaySet,
    VdpLineAnalysis,
    analyze_vdp_line,
    focus_stay_window,
    forward_stay_set,
    node_stay_check,
    reduce_general_line,
)
from .presets import example_params
from .verifier import (
    CycleVerdict,
    Evidence,
    certify,
    certify_real_saddle,
    certify_saddle_focus,
    compute_v_star,
    cone_condition,
    regime_classify,
)

__version__ = "0.1.0"

__all__ = [
    "CrosscheckReport",
    "CycleCertificate",
    "CycleVerdict",
    "DerivedGeometry",
    "Evidence",
    "HybridTrajectory",
    "HypothesisReport",
    "Interval3D",
    "LimitCycle",
    "OrbitSample",
    "PlanarLinearSystem",
    "SpiralWindow",
    "StaySet",
    "StepControl",
    "SystemParams",
    "VdpLineAnalysis",
    "analyze_vdp_line",
    "assemble_cycle",
    "build_gamma1",
    "build_gamma_up",
    "certify",
    "certify_real_saddle",
    "certify_saddle_focus",
    "compute_v_star",
    "cone_condition",
    "crosscheck_closed_forms",
    "default_horizons",
    "derive_geometry",
    "example_params",
    "focus_stay_window",
    "forward_stay_set",
    "integrate_hybrid",
    "interval_contains",
    "left_flow",
    "load_config",
    "node_stay_check",
    "numeric_flow",
    "parse_config",
    "reduce_general_line",
    "regime_classify",
    "right_flow",
    "validate_hypotheses",
]
