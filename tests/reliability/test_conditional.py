"""Tests for measured conditional-outcome tables."""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.codes import HammingSEC, HsiaoSECDED, ReedSolomonCode, SinglyExtendedRS
from repro.galois import GF256, get_field
from repro.obs import metrics
from repro.reliability import analytic, build_model, measure_bit_code, measure_symbol_code
from repro.reliability import conditional
from repro.reliability.conditional import clear_cache
from repro.schemes import PairScheme, RankSecDed, default_schemes
from tests import oracle


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestBitCodeTables:
    def test_sec_structure(self):
        code = HammingSEC(136, 128)
        table = measure_bit_code(code, j_max=4, samples=300, seed=1)
        assert table.p_flag[0] == 0 and table.p_bad[0] == 0
        assert table.p_flag[1] == 0 and table.p_bad[1] == 0  # singles corrected
        # doubles: mostly miscorrect (bad), sometimes detect
        assert table.p_bad[2] > 0.7
        assert table.p_flag[2] + table.p_bad[2] == pytest.approx(1.0, abs=1e-9)

    def test_silent_on_detect_folds_flags_into_bad(self):
        code = HammingSEC(136, 128)
        table = measure_bit_code(
            code, j_max=3, samples=300, seed=1, silent_on_detect=True
        )
        assert np.all(table.p_flag == 0)
        assert table.p_bad[2] == pytest.approx(1.0)  # doubles always end wrong

    def test_secded_detects_all_doubles(self):
        code = HsiaoSECDED(72, 64)
        table = measure_bit_code(code, j_max=3, samples=300, seed=2)
        assert table.p_flag[2] == pytest.approx(1.0)
        assert table.p_bad[2] == 0.0

    def test_cache_returns_same_object(self):
        code = HammingSEC(136, 128)
        t1 = measure_bit_code(code, j_max=3, samples=100, seed=3)
        t2 = measure_bit_code(code, j_max=3, samples=100, seed=3)
        assert t1 is t2


class TestSymbolCodeTables:
    def test_rs_guaranteed_region(self):
        code = ReedSolomonCode(GF256, 76, 64)
        table = measure_symbol_code(code, j_max=8, samples=150, seed=4)
        for j in range(code.t + 1):
            assert table.p_flag[j] == 0.0, j
            assert table.p_bad[j] == 0.0, j
        # beyond t: overwhelmingly detected at sampling resolution
        assert table.p_flag[7] > 0.99

    def test_extended_rs_guaranteed_region(self):
        code = SinglyExtendedRS(GF256, 256, 240)
        table = measure_symbol_code(code, j_max=9, samples=100, seed=5)
        assert table.p_bad[8] == 0.0
        assert table.p_flag[9] > 0.99

    def test_flips_bits_of_the_code_field(self):
        # a GF(2^4) symbol has 4 bits: a flip of bit 7 would not be a symbol
        code = ReedSolomonCode(get_field(4), 15, 11)
        table = measure_symbol_code(code, j_max=5, samples=50, seed=7)
        assert not table.p_flag[: code.t + 1].any()
        assert table.p_flag[3] + table.p_bad[3] == pytest.approx(1.0)
        assert_same_table(table, oracle.measure_symbol_code(code, 5, 50, 7))


def assert_same_table(got, want):
    for field in dataclasses.fields(want):
        np.testing.assert_array_equal(getattr(got, field.name), getattr(want, field.name))


def model_calls(monkeypatch, schemes, samples, seed):
    """Every table call the schemes' analytic models make, with its result.

    Only the bit codes measure: the RS models take their rows from the
    distance bound and the miscorrection floor.
    """
    calls = []
    measure = analytic.measure_bit_code

    def record(code, *args, **kwargs):
        table = measure(code, *args, **kwargs)
        calls.append((code, args, kwargs, table))
        return table

    monkeypatch.setattr(analytic, "measure_bit_code", record)
    for scheme in schemes:
        build_model(scheme, samples=samples, seed=seed)
    return calls


PARITY_SCHEMES = [*default_schemes(), PairScheme(orientation="beat"), RankSecDed()]


class TestLoopParity:
    """The one-pass draws equal a ``choice()`` loop's words, table for table."""

    @pytest.mark.parametrize("seed", [0, 3, 1009])
    @pytest.mark.parametrize("samples", [16, 400])
    def test_model_tables_equal_the_loop(self, monkeypatch, seed, samples):
        calls = model_calls(monkeypatch, PARITY_SCHEMES, samples, seed)
        silent = {"silent_on_detect" in kw for _, _, kw, _ in calls}
        assert silent == {False, True}  # XED/rank SEC-DED and conventional IECC
        for code, args, kwargs, table in calls:
            assert_same_table(table, oracle.measure_bit_code(code, *args, **kwargs))

    def test_obs_on_equals_obs_off(self):
        code = SinglyExtendedRS(GF256, 256, 240)
        off = measure_symbol_code(code, j_max=10, samples=37, seed=3)
        clear_cache()
        metrics.reset()
        with obs.enabled_scope(True):
            on = measure_symbol_code(code, j_max=10, samples=37, seed=3)
            again = measure_symbol_code(code, j_max=10, samples=37, seed=3)
            bit = measure_bit_code(HammingSEC(136, 128), j_max=4, samples=37, seed=3)
        assert again is on
        assert_same_table(on, off)
        assert_same_table(bit, oracle.measure_bit_code(HammingSEC(136, 128), 4, 37, 3))
        counters = metrics.snapshot()["counters"]
        assert counters["reliability.tables.built"] == 2
        assert counters["reliability.tables.reused"] == 1


class TestSharedDecodePass:
    """The flagging and the silent table of a code share one decode pass."""

    @pytest.mark.parametrize("first", [False, True])
    @pytest.mark.parametrize("code", [HammingSEC(136, 128), HsiaoSECDED(72, 64)],
                             ids=lambda c: f"{c.n}-{c.k}")
    def test_either_order_decodes_once(self, code, first):
        j_max, samples = code.t + 5, 40
        metrics.reset()
        with obs.enabled_scope(True):
            tables = {silent: measure_bit_code(code, j_max, samples, 3,
                                               silent_on_detect=silent)
                      for silent in (first, not first)}
        counters = metrics.snapshot()["counters"]
        assert counters["hamming.decode.words"] == (j_max - code.t) * samples
        assert counters["reliability.tables.built"] == 2
        for silent, table in tables.items():
            assert_same_table(table, oracle.measure_bit_code(
                code, j_max, samples, 3, silent_on_detect=silent))
        assert len(conditional._TABLE_CACHE) == 2

    def test_clear_cache_drops_the_counts(self):
        code = HammingSEC(12, 8)
        measure_bit_code(code, 4, 10, 0)
        clear_cache()
        assert not conditional._TABLE_CACHE and not conditional._COUNT_CACHE
        metrics.reset()
        with obs.enabled_scope(True):
            measure_bit_code(code, 4, 10, 0, silent_on_detect=True)
        assert metrics.snapshot()["counters"]["hamming.decode.words"] == 3 * 10


SETTLED_CODES = {
    "sec-136-128": (HammingSEC(136, 128), False),
    "secded-72-64": (HsiaoSECDED(72, 64), False),
    "duo-rs-76-64": (ReedSolomonCode(GF256, 76, 64), True),
    "pair-ers-256-240": (SinglyExtendedRS(GF256, 256, 240), True),
}


class TestSettledRows:
    """Rows ``j <= code.t`` come from the distance bound, not the decoder."""

    @pytest.mark.parametrize("seed", [0, 1009])
    @pytest.mark.parametrize("name", SETTLED_CODES)
    def test_equal_the_loop_that_decodes_every_row(self, name, seed):
        code, symbol = SETTLED_CODES[name]
        j_max = code.t + 3
        if symbol:
            kwargs = [{}]
            measure, reference = measure_symbol_code, oracle.measure_symbol_code
        else:
            kwargs = [{}, {"silent_on_detect": True}]
            measure, reference = measure_bit_code, oracle.measure_bit_code
        for kw in kwargs:
            table = measure(code, j_max, 60, seed, **kw)
            assert_same_table(table, reference(code, j_max, 60, seed, **kw))
            settled = slice(0, code.t + 1)
            for column in (table.p_flag, table.p_bad):
                assert not column[settled].any()

    @pytest.mark.parametrize("name", SETTLED_CODES)
    def test_only_rows_past_the_radius_are_decoded(self, name):
        code, symbol = SETTLED_CODES[name]
        measure = measure_symbol_code if symbol else measure_bit_code
        prefix = "rs" if symbol else "hamming"
        metrics.reset()
        with obs.enabled_scope(True):
            measure(code, code.t + 3, 50, 2)
        counters = metrics.snapshot()["counters"]
        assert counters[f"{prefix}.decode.words"] == 3 * 50


PACKED_CODES = {
    "duo-rs-76-64": (ReedSolomonCode(GF256, 76, 64), measure_symbol_code,
                     oracle.measure_symbol_code, {}),
    "sec-136-128": (HammingSEC(136, 128), measure_bit_code,
                    oracle.measure_bit_code, {}),
}


def decode_call_sizes(monkeypatch, code):
    """Record the word count of every ``decode_batch`` call on ``code``'s class."""
    sizes = []
    decode_batch = type(code).decode_batch

    def counted(self, words):
        sizes.append(len(words))
        return decode_batch(self, words)

    monkeypatch.setattr(type(code), "decode_batch", counted)
    return sizes


class TestPackedRows:
    """Consecutive decoded rows share one ``decode_batch`` call."""

    BUDGET = 12

    # samples -> rows per call under a 12-word budget: 4 -> 3, 6 -> 2,
    # 12 -> 1, 20 -> 1 (a row above the budget); 7 decoded rows leave a
    # remainder for 3 and 2 rows per call
    @pytest.mark.parametrize("samples, per_call", [(4, 3), (6, 2), (12, 1), (20, 1)])
    @pytest.mark.parametrize("name", PACKED_CODES)
    def test_equal_the_loop_that_decodes_every_row(self, monkeypatch, name,
                                                   samples, per_call):
        code, measure, reference, kwargs = PACKED_CODES[name]
        monkeypatch.setattr(conditional, "_DECODE_WORDS", self.BUDGET)
        sizes = decode_call_sizes(monkeypatch, code)
        j_max = code.t + 7
        metrics.reset()
        with obs.enabled_scope(True):
            table = measure(code, j_max, samples, 5, **kwargs)
        full, rest = divmod(7, per_call)
        assert sizes == [per_call * samples] * full + [rest * samples] * (rest > 0)
        prefix = "hamming" if measure is measure_bit_code else "rs"
        assert metrics.snapshot()["counters"][f"{prefix}.decode.words"] == 7 * samples
        monkeypatch.undo()
        assert_same_table(table, reference(code, j_max, samples, 5, **kwargs))

    @pytest.mark.parametrize("name", PACKED_CODES)
    def test_rows_at_the_budget_decode_alone(self, monkeypatch, name):
        code, measure, _, kwargs = PACKED_CODES[name]
        sizes = decode_call_sizes(monkeypatch, code)
        measure(code, code.t + 3, 400, 0, **kwargs)
        assert sizes == [400, 400, 400]


class TestCacheKey:
    def test_field_and_fcr_get_their_own_tables(self):
        wide = ReedSolomonCode(get_field(10), 40, 36, fcr=1)
        byte = ReedSolomonCode(get_field(8), 40, 36, fcr=0)
        byte_fcr1 = ReedSolomonCode(get_field(8), 40, 36, fcr=1)
        tables = [measure_symbol_code(code, j_max=6, samples=200, seed=0)
                  for code in (byte, wide, byte_fcr1)]
        assert len({id(table) for table in tables}) == 3
        for code, table in zip((byte, wide, byte_fcr1), tables):
            assert_same_table(table, oracle.measure_symbol_code(code, 6, 200, 0))
        # the cached table of one code is not what the other code measures
        assert np.any(tables[0].p_bad[3:] != tables[1].p_bad[3:])

    def test_same_code_shares_a_table(self):
        first = measure_symbol_code(ReedSolomonCode(get_field(8), 40, 36), j_max=4,
                                    samples=20)
        again = measure_symbol_code(ReedSolomonCode(get_field(8), 40, 36), j_max=4,
                                    samples=20)
        assert first is again


class TestArgumentChecks:
    @pytest.mark.parametrize("kwargs, name", [
        ({"samples": 0}, "samples"),
        ({"samples": -3}, "samples"),
        ({"j_max": 137}, "j_max"),
        ({"j_max": -1}, "j_max"),
    ])
    def test_bit_code(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            measure_bit_code(HammingSEC(136, 128), **{"j_max": 3, **kwargs})

    @pytest.mark.parametrize("kwargs, name", [
        ({"samples": 0}, "samples"),
        ({"j_max": 257}, "j_max"),
    ])
    def test_symbol_code(self, kwargs, name):
        code = SinglyExtendedRS(GF256, 256, 240)
        with pytest.raises(ValueError, match=name):
            measure_symbol_code(code, **{"j_max": 3, **kwargs})

    def test_full_population_is_accepted(self):
        code = HammingSEC(12, 8)
        table = measure_bit_code(code, j_max=code.n, samples=5)
        assert_same_table(table, oracle.measure_bit_code(code, code.n, 5))
