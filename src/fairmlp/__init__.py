"""Fairness-constrained binary classification toolkit.

Trains a small feed-forward classifier under batch-level demographic
parity, equalized odds, or disparate impact constraints via Lagrangian
min-max stochastic gradient descent; audits trained models; and
evaluates covering-number generalization bounds together with the
disparate-impact non-coverability counterexample.
"""

from .errors import (DataError, DegenerateBatchError, FairmlpError,
                     NumericError, ParameterError, SchemaError, ShapeError)
from .fairloss import Batch, MultiGroupBatch

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "MultiGroupBatch",
    "FairmlpError",
    "ShapeError",
    "ParameterError",
    "DegenerateBatchError",
    "DataError",
    "SchemaError",
    "NumericError",
    "__version__",
]
