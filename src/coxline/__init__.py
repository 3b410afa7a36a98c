"""Exact Cox ring computations for blow-ups of the projective plane at
collinear points: cone tests, section dimensions, standard-monomial bases,
defining relations, and an interpolation oracle cross-checking all of it.

The package exports the names of the README's library example; everything
else is imported from the submodules (coxmono, oracle, picard, relations).
"""

from .coxmono import enumerate_standard_monomials
from .oracle import PointConfig, h0_rank
from .picard import DivisorClass, chi, h0
from .relations import derive_relations

__version__ = "0.1.0"

__all__ = [
    "DivisorClass",
    "PointConfig",
    "chi",
    "derive_relations",
    "enumerate_standard_monomials",
    "h0",
    "h0_rank",
]
