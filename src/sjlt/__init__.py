"""Sparse signed-bucket random projection with exact combinatorial verification tools."""

from .graphs import BudgetExceededError
from .kwise import KWiseGenerator, PrimeField, new_generator
from .transform import (
    SparseVector,
    TransformSpec,
    apply,
    derive_spec,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "KWiseGenerator",
    "PrimeField",
    "SparseVector",
    "TransformSpec",
    "apply",
    "derive_spec",
    "new_generator",
    "__version__",
]
