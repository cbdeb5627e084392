"""Structural typing contracts for the code layer.

These :class:`typing.Protocol`s are the static counterpart of the REPRO13x
conformance rules (:mod:`repro.checkers.conformance`): the batched
Monte-Carlo engines only require *structural* compatibility - anything with
``decode`` / ``decode_batch`` of the right shape can sit behind a scheme -
and mypy checks call sites against these protocols without forcing
inheritance from :class:`~repro.codes.base.BlockCode`.

``BatchDecoder`` is the contract the batched engines and the conditional
tables rely on: ``decode_batch`` returns one columnar
:class:`~repro.codes.base.BatchDecode`, and its per-word view
``decode_batch(words).row(i)`` must equal ``decode(words[i])`` for every
row.  The protocols are ``runtime_checkable`` so tests can assert
conformance of every concrete code class with a plain ``isinstance`` check.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .base import BatchDecode, DecodeResult


@runtime_checkable
class Encoder(Protocol):
    """Anything that maps k message symbols to an n-symbol codeword."""

    n: int
    k: int

    def encode(self, data: np.ndarray) -> np.ndarray: ...


@runtime_checkable
class Decoder(Protocol):
    """Scalar bounded-distance decoding of one received word."""

    def decode(self, received: np.ndarray) -> DecodeResult: ...


@runtime_checkable
class BatchDecoder(Decoder, Protocol):
    """The scalar/batched pair the Monte-Carlo engines drive.

    Contract: ``decode_batch(words).row(i)`` equals ``decode(words[i])``
    for every row - byte for byte, status for status.  Engines exploit this
    to screen clean rows and batch the dirty minority, and read the result's
    status, codeword and corrected-position arrays without a per-word walk.
    """

    def decode_batch(self, words: np.ndarray) -> BatchDecode: ...


@runtime_checkable
class ErasureDecoder(Protocol):
    """Symbol codes that accept erasure hints (RS and the extended RS)."""

    def decode(
        self, received: np.ndarray, erasures: tuple[int, ...] = ()
    ) -> DecodeResult: ...

    def decode_batch(
        self, words: np.ndarray, erasures: object = None
    ) -> BatchDecode: ...


@runtime_checkable
class Code(Encoder, BatchDecoder, Protocol):
    """A complete block code: encode plus the scalar/batched decode pair."""
