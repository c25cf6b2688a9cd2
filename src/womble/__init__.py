"""Boundary detection in areal disease-risk surfaces.

Fits a Bayesian hierarchical Poisson model whose spatial random effects carry
a CAR prior in which inter-area adjacency is a deterministic function of
covariate dissimilarity; borders whose posterior-median adjacency indicator is
zero are reported as risk boundaries.

The package exports the library entry points the README shows; everything
else is imported from its own module (`womble.mcmc`, `womble.simulate`,
`womble.diagnostics`, ...).
"""

from .boundary import classify_boundaries
from .errors import (ConstantMetricError, NumericError, ValidationError,
                     WombleError)
from .graph import build_graph, compute_border_metrics
from .mcmc import ChainConfig, ObservedData, run_chains

__version__ = "0.1.0"

__all__ = [
    "ChainConfig", "ConstantMetricError", "NumericError", "ObservedData",
    "ValidationError", "WombleError", "build_graph", "classify_boundaries",
    "compute_border_metrics", "run_chains",
]
