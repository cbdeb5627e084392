"""Galois-field substrate: GF(2^m) arithmetic, polynomials, GF(2) linear algebra."""

from . import backends, batch, linalg2, poly
from .batch import batch_syndromes, syndrome_tables
from .gf2m import (
    GF256,
    GF2m,
    GFArray,
    GFScalar,
    GFValues,
    PRIMITIVE_POLYNOMIALS,
    get_field,
)

__all__ = [
    "GF2m",
    "GF256",
    "GFArray",
    "GFScalar",
    "GFValues",
    "PRIMITIVE_POLYNOMIALS",
    "get_field",
    "poly",
    "linalg2",
    "batch",
    "backends",
    "batch_syndromes",
    "syndrome_tables",
]
