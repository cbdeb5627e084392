"""The RS models' conditional rows: the miscorrection floor and no decoding.

PAIR's and DUO's models take their rows from the distance bound (every
pattern of at most ``t`` symbol errors is corrected) and the analytic
miscorrection floor :func:`rs_floor` (everything beyond ``t``).  At the
schemes' shapes the floor is far below what sampling resolves, so it is
checked here against the real decoder on short GF(16) codes, where it is
large enough to measure.
"""

import pytest

from repro import obs
from repro.codes import ReedSolomonCode, SinglyExtendedRS
from repro.galois import get_field
from repro.obs import metrics
from repro.reliability import build_model, conditional, measure_symbol_code
from repro.reliability.analytic import rs_floor
from repro.reliability.rareevent import line_law
from repro.reliability.stats import wilson_interval
from repro.schemes import Duo, PairScheme

GF16 = get_field(4)
WORDS, SEED, Z = 4_000, 1, 3.29

#: name -> (code, last row measured, floor to 4 places)
FLOOR_CODES = {
    "rs-15-11": (ReedSolomonCode(GF16, 15, 11), 8, 0.3639),
    "ers-16-12": (SinglyExtendedRS(GF16, 16, 12), 9, 0.4191),
    "ers-16-10": (SinglyExtendedRS(GF16, 16, 10), 10, 0.1157),
}


@pytest.fixture(autouse=True)
def fresh_cache():
    conditional.clear_cache()
    yield
    conditional.clear_cache()


class TestFloorAgainstTheDecoder:
    @pytest.mark.parametrize("name", FLOOR_CODES)
    def test_measured_rows_match_the_floor(self, name):
        code, j_max, expected = FLOOR_CODES[name]
        floor = rs_floor(code)
        assert floor == pytest.approx(expected, abs=5e-5)
        table = measure_symbol_code(code, j_max, WORDS, SEED)
        for j in range(code.t + 1, j_max + 1):
            # beyond the radius a word is either flagged or miscorrected
            assert table.p_flag[j] + table.p_bad[j] == pytest.approx(1.0, abs=1e-12)
            lo, hi = wilson_interval(round(table.p_bad[j] * WORDS), WORDS, Z)
            if j >= code.t + 3:
                assert lo <= floor <= hi, (j, table.p_bad[j])
            else:
                # near the radius the sphere estimate overstates
                assert floor >= lo, (j, table.p_bad[j])


RS_SCHEMES = {
    "pair": PairScheme,
    "pair-beat": lambda: PairScheme(orientation="beat"),
    "duo": Duo,
}

#: ``(sdc, due)`` per BER as ``float.hex``, recorded when the models still
#: measured (and then overwrote) their tables; they must never move.
PINNED = {
    "pair": {
        1e-7: ("0x1.73db000832901p-143", "0x1.07ead9320a77ap-124"),
        1e-5: ("0x1.3cce574b6622dp-83", "0x1.c1b1b3757a5c1p-65"),
        1e-3: ("0x1.74c8be3dec5abp-26", "0x1.078b5ac5dba77p-7"),
    },
    "pair-beat": {
        1e-7: ("0x1.f0219a8e9a49dp-144", "0x1.07ead9320a77ap-127"),
        1e-5: ("0x1.a6af1d1460000p-84", "0x1.c1b1b3757a5c1p-68"),
        1e-3: ("0x1.f15ecd5c669e2p-27", "0x1.0879f3b6f43b2p-10"),
    },
    "duo": {
        1e-7: ("0x1.e4f0b6f615b52p-132", "0x1.30b1d397a51d9p-111"),
        1e-5: ("0x1.56d81023ab2cbp-85", "0x1.aed3c147a9c93p-65"),
        1e-3: ("0x1.2759f687a0649p-39", "0x1.73258d95b27a0p-19"),
    },
}


class TestRsModelsDecodeNothing:
    @pytest.mark.parametrize("name", RS_SCHEMES)
    def test_models_and_laws_decode_nothing(self, name):
        scheme = RS_SCHEMES[name]()
        metrics.reset()
        try:
            with obs.enabled_scope(True):
                build_model(scheme, samples=400, seed=3)
                line_law(scheme, 1e-4, samples=16, seed=0)
            counters = metrics.snapshot()["counters"]
        finally:
            obs.reset_all()
        assert counters.get("rs.decode.words", 0) == 0
        assert counters.get("reliability.tables.built", 0) == 0
        assert not conditional._TABLE_CACHE

    @pytest.mark.parametrize("name", RS_SCHEMES)
    def test_figures_do_not_move(self, name):
        model = build_model(RS_SCHEMES[name](), samples=16, seed=0)
        for ber, (sdc, due) in PINNED[name].items():
            probs = model.line_probs(ber)
            assert (probs["sdc"].hex(), probs["due"].hex()) == (sdc, due), ber
