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
    SystemParams,
    derive_geometry,
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
    VdpLineAnalysis,
    analyze_vdp_line,
    focus_stay_check,
    focus_stay_window,
    node_stay_check,
    vdp_stay_check,
)
from .presets import example_params
from .verifier import (
    CycleVerdict,
    Evidence,
    certify,
    cone_condition,
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
    "OrbitSample",
    "PlanarLinearSystem",
    "SpiralWindow",
    "StepControl",
    "SystemParams",
    "VdpLineAnalysis",
    "analyze_vdp_line",
    "assemble_cycle",
    "build_gamma1",
    "build_gamma_up",
    "certify",
    "cone_condition",
    "crosscheck_closed_forms",
    "default_horizons",
    "derive_geometry",
    "example_params",
    "focus_stay_check",
    "focus_stay_window",
    "integrate_hybrid",
    "left_flow",
    "load_config",
    "node_stay_check",
    "numeric_flow",
    "parse_config",
    "right_flow",
    "validate_hypotheses",
    "vdp_stay_check",
]
