"""The scheme line-up of the paper's evaluation figures."""

from __future__ import annotations

from .base import EccScheme
from .duo import Duo
from .iecc_sec import ConventionalIecc
from .no_ecc import NoEcc
from .pair import PairScheme
from .xed import Xed

#: the scheme classes of the paper's evaluation figures, in figure order.
DEFAULT_SCHEME_CLASSES: tuple[type[EccScheme], ...] = (
    NoEcc, ConventionalIecc, Xed, Duo, PairScheme,
)


def default_schemes() -> list[EccScheme]:
    """The scheme line-up of the paper's evaluation figures."""
    return [cls() for cls in DEFAULT_SCHEME_CLASSES]
