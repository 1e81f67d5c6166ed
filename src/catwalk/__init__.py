"""Bilateral birth-death walk with catastrophes and repairs, and its
jump-diffusion limit: exact transient and stationary laws, Laplace
transforms, moments, Monte Carlo oracles, and lattice-to-diffusion
convergence checks."""

from importlib import import_module

from .discrete import DiscreteParams, DistributionSlice, LaplaceRoots
from .diffusion import DensitySlice, DiffusionParams
from .failure_cycle import NoSteadyStateError
from .scaling import ComparisonRow, scale_params
from .special import QuadratureError

__all__ = [
    "DiscreteParams",
    "DistributionSlice",
    "LaplaceRoots",
    "NoSteadyStateError",
    "DiffusionParams",
    "DensitySlice",
    "ComparisonRow",
    "scale_params",
    "SimConfig",
    "PathTrace",
    "EmpiricalEstimate",
    "QuadratureError",
]

__version__ = "0.1.0"

#: the simulator's names, imported on first access (PEP 562) because its
#: module loads NumPy and ``import catwalk`` does not
_LAZY = ("SimConfig", "PathTrace", "EmpiricalEstimate")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(".simulate", __name__), name)
