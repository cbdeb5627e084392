"""Galois-field substrate: GF(2^m) arithmetic, polynomials, GF(2) linear algebra."""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
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

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "gf2m": ("GF2m", "GF256", "GFArray", "GFScalar", "GFValues", "PRIMITIVE_POLYNOMIALS",
             "get_field"),
    "poly": ("poly",),
    "linalg2": ("linalg2",),
    "batch": ("batch", "batch_syndromes", "syndrome_tables"),
    "backends": ("backends",),
})
