"""ECC schemes: the PAIR contribution and every baseline it is compared to."""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from .base import BatchRead, EccScheme, LineReadResult
    from .duo import Duo
    from .iecc_sec import ConventionalIecc
    from .lineup import DEFAULT_SCHEME_CLASSES, default_schemes
    from .no_ecc import NoEcc
    from .pair import PairScheme
    from .pair_erasure import DefectMap, PairErasureScheme, profile_chip
    from .rank import RankSecDed
    from .xed import Xed

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("EccScheme", "BatchRead", "LineReadResult"),
    "no_ecc": ("NoEcc",),
    "iecc_sec": ("ConventionalIecc",),
    "xed": ("Xed",),
    "duo": ("Duo",),
    "pair": ("PairScheme",),
    "pair_erasure": ("PairErasureScheme", "DefectMap", "profile_chip"),
    "rank": ("RankSecDed",),
    "lineup": ("DEFAULT_SCHEME_CLASSES", "default_schemes"),
})
