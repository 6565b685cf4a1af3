"""Noise-adapted variance witnesses for entanglement detection.

The package splits into small layers: operators (dense matrices, POVMs,
moments), noise (Heisenberg-picture channels and the noise fit), bounds
(local uncertainty minimization: one rule gives every bound, a coarse
branch-and-bound and a polish of its lowest vertex, proven at a fine gap
where the polish stalls), witness
(global moment pairs, verdicts, detection windows), simulate (benchmark
states and finite statistics), and cli (reproducible workflows).
"""

__version__ = "0.1.0"

from .operators import (
    DensityMatrix,
    HermitianOperator,
    MomentPair,
    Povm,
    PureState,
    eig_hermitian,
    expectation,
    identity,
    moment_pair,
    moments,
    projective_povm,
    spin1_components,
    tensor,
    variance,
)
from .noise import (
    NoiseChannel,
    NoiseFitResult,
    dual_apply,
    fit_alpha,
    noisy_povm,
    spin1_moment_pairs,
    spin_flip_channel,
)
from .bounds import (
    BoundResult,
    RegionBoundary,
    WeightedPair,
    certified_bound,
    compose_sep_bound,
    penalty_operator,
    seesaw_bound,
    sep_bound_curve,
    trace_region,
    variance_functional,
)
from .witness import (
    DetectionWindow,
    WitnessVerdict,
    build_global_moments,
    detection_window,
    evaluate_witness,
    evaluate_witness_from_tuple,
)
from .simulate import (
    CalibrationRecord,
    SampleConfig,
    TestStateParams,
    joint_outcome_distribution,
    make_singlet,
    make_test_state,
    outcome_distribution,
    run_calibration,
    sample_variance_tuple,
    theta1_sweep,
    theta2_sweep,
)

__all__ = [
    "__version__",
    "BoundResult",
    "CalibrationRecord",
    "DensityMatrix",
    "DetectionWindow",
    "HermitianOperator",
    "MomentPair",
    "NoiseChannel",
    "NoiseFitResult",
    "Povm",
    "PureState",
    "RegionBoundary",
    "SampleConfig",
    "TestStateParams",
    "WeightedPair",
    "WitnessVerdict",
    "build_global_moments",
    "certified_bound",
    "compose_sep_bound",
    "detection_window",
    "dual_apply",
    "eig_hermitian",
    "evaluate_witness",
    "evaluate_witness_from_tuple",
    "expectation",
    "fit_alpha",
    "identity",
    "joint_outcome_distribution",
    "make_singlet",
    "make_test_state",
    "moment_pair",
    "moments",
    "noisy_povm",
    "outcome_distribution",
    "penalty_operator",
    "projective_povm",
    "run_calibration",
    "sample_variance_tuple",
    "seesaw_bound",
    "sep_bound_curve",
    "spin1_components",
    "spin1_moment_pairs",
    "spin_flip_channel",
    "tensor",
    "theta1_sweep",
    "theta2_sweep",
    "trace_region",
    "variance",
    "variance_functional",
]
