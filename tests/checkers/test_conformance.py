"""REPRO13x fixture corpus: the scalar/batched decode contract, statically."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes.base import BlockCode
from repro.codes.hamming import HammingSEC, HsiaoSECDED
from repro.codes.protocols import BatchDecoder, Code, Decoder, Encoder, ErasureDecoder
from repro.codes.rs import ReedSolomonCode, SinglyExtendedRS
from repro.galois import get_field

from .util import findings

PATH = "src/repro/codes/snippet.py"


def test_decode_without_decode_batch_flagged():
    src = """
        class MyCode(BlockCode):
            def decode(self, received):
                return received
    """
    assert findings(src, path=PATH) == [("REPRO131", 3)]


def test_decode_batch_pair_is_silent():
    src = """
        class MyCode(BlockCode):
            def decode(self, received):
                return received

            def decode_batch(self, words):
                return list(words)
    """
    assert findings(src, path=PATH) == []


def test_rs_suffixed_base_classes_are_covered():
    src = """
        class ShortenedRS(SinglyExtendedRS):
            def decode(self, received):
                return received
    """
    assert findings(src, path=PATH) == [("REPRO131", 3)]


def test_non_code_classes_are_ignored():
    src = """
        class Reporter:
            def decode(self, received):
                return received
    """
    assert findings(src, path=PATH) == []


def test_abstract_base_itself_is_exempt():
    src = """
        import abc

        class BlockCode(abc.ABC):
            def decode(self, received):
                return received
    """
    assert findings(src, path=PATH) == []


def test_signature_mismatch_missing_parameter():
    src = """
        class MyCode(BlockCode):
            def decode(self, received, erasures=()):
                return received

            def decode_batch(self, words):
                return list(words)
    """
    assert findings(src, path=PATH) == [("REPRO132", 6)]


def test_signature_mismatch_batch_only_param_without_default():
    src = """
        class MyCode(BlockCode):
            def decode(self, received):
                return received

            def decode_batch(self, words, chunk):
                return list(words)
    """
    assert findings(src, path=PATH) == [("REPRO132", 6)]


def test_compatible_signatures_are_silent():
    src = """
        class MyCode(BlockCode):
            def decode(self, received, erasures=()):
                return received

            def decode_batch(self, words, erasures=None, chunk=64):
                return list(words)
    """
    assert findings(src, path=PATH) == []


def test_kwargs_absorbs_decode_parameters():
    src = """
        class MyCode(BlockCode):
            def decode(self, received, erasures=()):
                return received

            def decode_batch(self, words, **kwargs):
                return list(words)
    """
    assert findings(src, path=PATH) == []


def test_noqa_waives_conformance():
    src = """
        class MyCode(BlockCode):
            def decode(self, received):  # repro: noqa-REPRO131
                return received
    """
    assert findings(src, path=PATH) == []


def test_real_code_classes_satisfy_the_protocols():
    """The runtime side of REPRO13x: every concrete code is a BatchDecoder."""
    field = get_field(8)
    codes = [
        ReedSolomonCode(field, 40, 32),
        SinglyExtendedRS(field, 256, 240),
        HammingSEC(7, 4),
        HsiaoSECDED(72, 64),
    ]
    for code in codes:
        assert isinstance(code, Encoder), type(code).__name__
        assert isinstance(code, Decoder), type(code).__name__
        assert isinstance(code, BatchDecoder), type(code).__name__
        assert isinstance(code, Code), type(code).__name__
    assert isinstance(ReedSolomonCode(field, 40, 32), ErasureDecoder)
    assert isinstance(SinglyExtendedRS(field, 256, 240), ErasureDecoder)


def test_protocol_contract_on_a_real_decode_batch():
    """decode_batch(W).row(i) equals decode(W[i]) for all four codes - the
    contract the static rules exist to protect."""
    field = get_field(8)
    rng = np.random.default_rng(20260805)
    for code in (
        ReedSolomonCode(field, 20, 16),
        SinglyExtendedRS(field, 21, 16),
        HammingSEC(7, 4),
        HsiaoSECDED(72, 64),
    ):
        order = getattr(getattr(code, "field", None), "order", 2)
        data = rng.integers(0, order, size=(5, code.k), dtype=np.int64)
        words = np.stack([code.encode(row) for row in data])
        words[0, 3] ^= 1  # one correctable error
        words[1, [2, 5, 6]] ^= 1  # beyond every code's bound
        batch = code.decode_batch(words)
        assert len(batch) == len(words)
        for i, row in enumerate(words):
            result, scalar = batch.row(i), code.decode(row)
            assert result.status is scalar.status
            assert np.array_equal(result.data, scalar.data)
            assert result.corrected_positions == scalar.corrected_positions


def test_block_code_requires_decode_batch():
    """The runtime side of REPRO131: BlockCode has no per-row fallback."""

    class ScalarOnly(BlockCode):
        n, k = 3, 1

        def encode(self, data):
            return np.repeat(data, 3)

        def decode(self, received):  # repro: noqa-REPRO131
            raise NotImplementedError

    with pytest.raises(TypeError, match="decode_batch"):
        ScalarOnly()
