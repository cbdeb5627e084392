"""The correction radius ``t`` every code derives from its minimum distance.

The conditional tables (:mod:`repro.reliability.conditional`) fill rows
``j <= code.t`` from the distance bound instead of decoding them, so these
tests hold each scheme's code to that bound on exactly the words the tables
draw: every pattern of at most ``t`` errors decodes to the sent codeword.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import HammingSEC, HsiaoSECDED, ReedSolomonCode, SinglyExtendedRS
from repro.codes.base import STATUS_CORRECTED, BlockCode
from repro.faults.rng import trial_words
from repro.galois import GF256

#: ``(code, t, symbol_bits)`` at the shapes the schemes use; ``symbol_bits``
#: is None for the binary codes.
CODES = {
    "sec-136-128": (HammingSEC(136, 128), 1, None),  # conventional IECC / XED
    "secded-72-64": (HsiaoSECDED(72, 64), 1, None),  # rank-level SEC-DED
    "duo-rs-76-64": (ReedSolomonCode(GF256, 76, 64), 6, 8),
    "pair-ers-256-240": (SinglyExtendedRS(GF256, 256, 240), 8, 8),
}


@pytest.mark.parametrize("name", CODES)
def test_radius_follows_the_distance(name):
    code, t, _ = CODES[name]
    assert code.t == (code.d_min - 1) // 2 == t


def test_block_code_without_distance_cannot_be_built():
    class NoDistance(BlockCode):
        n, k = 8, 4

        def encode(self, data):
            return data

        def decode(self, received):
            return self.decode_batch(received[None]).row(0)

        def decode_batch(self, words):
            raise NotImplementedError

    with pytest.raises(TypeError, match="d_min"):
        NoDistance()


@pytest.mark.parametrize("name", CODES)
@settings(deadline=None, max_examples=5, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_table_words_within_radius_all_decode(name, seed):
    """Every word ``trial_words`` draws for a row ``j <= t`` (as the tables
    draw them: a single flipped bit per erroneous symbol) is corrected."""
    code, t, symbol_bits = CODES[name]
    rng = np.random.default_rng(seed)
    for j in range(1, t + 1):
        positions, bits = trial_words(rng, code.n, j, 200, symbol_bits)
        words = np.zeros((200, code.n), dtype=np.int64 if symbol_bits else np.uint8)
        np.put_along_axis(words, positions, 1 << bits if symbol_bits else 1, axis=1)
        decoded = code.decode_batch(words)
        assert not decoded.detected.any(), j
        assert not decoded.data.any(), j
        assert np.all(decoded.status == STATUS_CORRECTED), j
        assert np.all(decoded.corrections == j), j
