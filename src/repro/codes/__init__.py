"""Coding substrate: Reed-Solomon, Hamming/Hsiao, parity and interleaving."""

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

__all__ = [
    "BatchDecode",
    "BlockCode",
    "DecodeResult",
    "DecodeStatus",
    "HammingSEC",
    "CrcCode",
    "CRC8_DDR5",
    "CRC16_CCITT",
    "HsiaoSECDED",
    "ReedSolomonCode",
    "RSDecodeFailure",
    "SinglyExtendedRS",
    "XorParity",
    "protocols",
    "block_interleave",
    "block_deinterleave",
    "pin_aligned_symbols",
    "beat_aligned_symbols",
    "symbols_to_pin_bits",
]
