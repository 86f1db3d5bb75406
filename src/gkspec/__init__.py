"""Exact-arithmetic toolkit for element-order spectra of finite groups.

The library side: divisor-closed order sets, prime graphs with exact
coclique search, finite fields GF(p^k), semilinear actions and semidirect
spectra, named group constructions, and a simple-group record database
with selection filters.  The CLI (``gkspec``) exposes ad-hoc queries plus
a one-shot verification report over the embedded data.
"""

from .orderset import (
    Factorization,
    OrderSet,
    factorize,
    product_spectrum,
    wreath2_spectrum,
)
from .primegraph import PrimeGraph, build_gk

__all__ = [
    "Factorization",
    "OrderSet",
    "PrimeGraph",
    "build_gk",
    "factorize",
    "product_spectrum",
    "wreath2_spectrum",
]

__version__ = "0.1.0"
