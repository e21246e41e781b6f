"""Fractional Ornstein-Uhlenbeck processes with periodic mean.

Exact fractional Gaussian noise sampling, Euler path simulation,
least-squares drift estimation with a Skorokhod-integral correction,
the associated asymptotic limit matrices, and seeded Monte Carlo
studies that check consistency and the slow central limit theorem
numerically.

The package namespace holds the quick-start API, the study entry points
and the exception classes; everything else is imported from the module
that defines it (``perifou.fgn``, ``perifou.model``, ``perifou.estimator``,
``perifou.asymptotics``, ``perifou.experiments``, ``perifou.cli``).
"""

from perifou.errors import (
    DegenerateDesign,
    FactorizationFailure,
    InvalidInput,
    NonnegativeEmbeddingFailure,
    PerifouError,
)
from perifou.model import BasisSet, FouModel, simulate_path
from perifou.estimator import estimate
from perifou.asymptotics import limit_summary
from perifou.experiments import McConfig, run_clt, run_consistency, run_coupling

__version__ = "0.1.0"

__all__ = [
    "BasisSet",
    "DegenerateDesign",
    "FactorizationFailure",
    "FouModel",
    "InvalidInput",
    "McConfig",
    "NonnegativeEmbeddingFailure",
    "PerifouError",
    "estimate",
    "limit_summary",
    "run_clt",
    "run_consistency",
    "run_coupling",
    "simulate_path",
]
