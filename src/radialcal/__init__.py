"""Camera calibration with low-order radial distortion models, a closed-form
cubic undistortion path, and a single-view ground-line localizer."""

from .calibration import (
    CalibrationResult,
    CalibrationView,
    ComparisonReport,
    CorrespondenceSet,
    OptimizerOptions,
    calibrate,
    compare_models,
    init_distortion,
    objective,
    project,
    refine,
)
from .distortion import (
    DistortionSpec,
    Model,
    WorkingDomain,
    distort_normalized,
    undistort,
    undistort_array,
    validate_monotone,
    warp_factor,
)
from .geometry import (
    IntrinsicMatrix,
    NormalizedPoint,
    PixelPoint,
    ViewExtrinsics,
    WorldPoint,
    to_normalized,
    to_pixel,
)
from .localize import LineMap, LocalizationFix, intersect_ground, localize
from .synth import PoseRanges, SceneTruth, SynthSpec, generate_scene

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "CalibrationView",
    "ComparisonReport",
    "CorrespondenceSet",
    "DistortionSpec",
    "IntrinsicMatrix",
    "LineMap",
    "LocalizationFix",
    "Model",
    "NormalizedPoint",
    "OptimizerOptions",
    "PixelPoint",
    "PoseRanges",
    "SceneTruth",
    "SynthSpec",
    "ViewExtrinsics",
    "WorkingDomain",
    "WorldPoint",
    "calibrate",
    "compare_models",
    "distort_normalized",
    "generate_scene",
    "init_distortion",
    "intersect_ground",
    "localize",
    "objective",
    "project",
    "refine",
    "to_normalized",
    "to_pixel",
    "undistort",
    "undistort_array",
    "validate_monotone",
    "warp_factor",
]
