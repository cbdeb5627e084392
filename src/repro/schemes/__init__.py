"""ECC schemes: the PAIR contribution and every baseline it is compared to."""

from .base import BatchRead, EccScheme, LineReadResult
from .duo import Duo
from .iecc_sec import ConventionalIecc
from .no_ecc import NoEcc
from .pair import PairScheme
from .pair_erasure import DefectMap, PairErasureScheme, profile_chip
from .rank import RankSecDed
from .xed import Xed

__all__ = [
    "EccScheme",
    "BatchRead",
    "LineReadResult",
    "NoEcc",
    "ConventionalIecc",
    "Xed",
    "Duo",
    "PairScheme",
    "PairErasureScheme",
    "DefectMap",
    "profile_chip",
    "RankSecDed",
]


#: the scheme classes of the paper's evaluation figures, in figure order.
DEFAULT_SCHEME_CLASSES: tuple[type[EccScheme], ...] = (
    NoEcc, ConventionalIecc, Xed, Duo, PairScheme,
)


def default_schemes() -> list[EccScheme]:
    """The scheme line-up of the paper's evaluation figures."""
    return [cls() for cls in DEFAULT_SCHEME_CLASSES]
