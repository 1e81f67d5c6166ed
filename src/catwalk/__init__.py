"""Bilateral birth-death walk with catastrophes and repairs, and its
jump-diffusion limit: exact transient and stationary laws, Laplace
transforms, moments, Monte Carlo oracles, and lattice-to-diffusion
convergence checks."""

from .discrete import (
    DiscreteParams,
    DistributionSlice,
    LaplaceRoots,
    NoSteadyStateError,
)
from .diffusion import DensitySlice, DiffusionParams, PointMass, DIRAC_AT_ORIGIN
from .scaling import ComparisonRow, ScalingMap, scale_params
from .simulate import EmpiricalEstimate, PathTrace, SimConfig
from .special import QuadratureError

__all__ = [
    "DiscreteParams",
    "DistributionSlice",
    "LaplaceRoots",
    "NoSteadyStateError",
    "DiffusionParams",
    "DensitySlice",
    "PointMass",
    "DIRAC_AT_ORIGIN",
    "ScalingMap",
    "ComparisonRow",
    "scale_params",
    "SimConfig",
    "PathTrace",
    "EmpiricalEstimate",
    "QuadratureError",
]

__version__ = "0.1.0"
