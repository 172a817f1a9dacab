"""fmlab: Monte Carlo laboratory for strong-disorder localisation experiments
on random block and alloy lattice operators.

Dense linear algebra (eigendecompositions, resolvent solves, block norms)
runs through numpy's LAPACK bindings; see :mod:`fmlab.numerics`.
"""

from .errors import ConfigurationError, DegenerateFitError, NumericalError, ResampleSignal

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DegenerateFitError",
    "NumericalError",
    "ResampleSignal",
    "__version__",
]
