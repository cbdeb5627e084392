"""Coding substrate: Reed-Solomon, Hamming/Hsiao, parity and interleaving."""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from . import protocols
    from .base import BatchDecode, BlockCode, DecodeResult, DecodeStatus
    from .crc import CRC8_DDR5, CRC16_CCITT, CrcCode
    from .hamming import HammingSEC, HsiaoSECDED
    from .interleave import (
        beat_aligned_symbols,
        block_deinterleave,
        block_interleave,
        pin_aligned_symbols,
        symbols_to_pin_bits,
    )
    from .parity import XorParity
    from .rs import ReedSolomonCode, RSDecodeFailure, SinglyExtendedRS

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("BatchDecode", "BlockCode", "DecodeResult", "DecodeStatus"),
    "crc": ("CrcCode", "CRC8_DDR5", "CRC16_CCITT"),
    "hamming": ("HammingSEC", "HsiaoSECDED"),
    "rs": ("ReedSolomonCode", "RSDecodeFailure", "SinglyExtendedRS"),
    "parity": ("XorParity",),
    "protocols": ("protocols",),
    "interleave": ("block_interleave", "block_deinterleave", "pin_aligned_symbols",
                   "beat_aligned_symbols", "symbols_to_pin_bits"),
})
