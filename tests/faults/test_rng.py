"""Batch-seeded PCG64 substreams against numpy's own generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import rng

WORD = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.just(0)
)


def reference_state(key):
    state = np.random.default_rng([int(v) for v in key]).bit_generator.state["state"]
    return state["state"], state["inc"]


@st.composite
def run_layouts(draw, max_runs=6):
    """Sorted, non-touching runs of positions, lengths around the break-even."""
    runs, pos = [], draw(st.integers(0, 300))
    for _ in range(draw(st.integers(1, max_runs))):
        length = draw(st.one_of(
            st.integers(1, 4),
            st.integers(rng._JUMP_MAX_RUN - 2, rng._JUMP_MAX_RUN + 2),
            st.integers(1, 3 * rng._JUMP_MAX_RUN),
        ))
        runs.append((pos, length))
        pos += length + draw(st.integers(1, 500))
    return tuple(runs)


def expected_draws(key, runs):
    full = np.random.default_rng([int(v) for v in key]).random(sum(runs[-1]))
    return np.concatenate([full[start : start + length] for start, length in runs])


class TestSeedStates:
    @given(
        width=st.integers(1, 6),
        count=st.sampled_from([1, 3, rng._VECTOR_MIN_KEYS, 40]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_default_rng_state(self, width, count, data):
        keys = [data.draw(st.lists(WORD, min_size=width, max_size=width))
                for _ in range(count)]
        streams = rng.seed_states(keys)
        assert len(streams) == count
        for index, key in enumerate(keys):
            assert streams.ints(index) == reference_state(key)

    def test_scalar_and_array_hash_agree(self):
        keys = np.random.default_rng(0).integers(0, 2**63, size=(40, 5), dtype=np.uint64)
        keys[::4, 1] &= np.uint64(0xFFFF)  # mix one- and two-word ints
        together = rng.seed_states(keys)
        for index, key in enumerate(keys):
            assert rng.seed_states(key[None]).ints(0) == together.ints(index)

    def test_long_and_huge_keys(self):
        # keys past the 4-word pool, and ints past 2**64 (hashed one at a time)
        for key in ([1, 2, 3, 4, 5, 6, 7], [2**64 + 5, 3], [2**100, 0, 2**64 - 1]):
            assert rng.seed_states([key]).ints(0) == reference_state(key)

    def test_load_points_a_generator_at_the_stream(self):
        keys = [[7, 0, 12, 0xCE11], [2**40, 1, 2, 3]]
        streams = rng.seed_states(keys)
        gen = rng.scratch_generator()
        for index, key in enumerate(keys):
            got = streams.load(index, gen).random(5)
            assert np.array_equal(got, np.random.default_rng(key).random(5))

    def test_load_any_index_in_any_order(self):
        # a batch past the vector-hash threshold, loaded at its first, middle
        # and last streams out of order and more than once
        keys = [[seed, 5, 0xCE11] for seed in range(3 * rng._VECTOR_MIN_KEYS + 1)]
        streams = rng.seed_states(keys)
        gen = rng.scratch_generator()
        last, middle = len(keys) - 1, len(keys) // 2
        for index in (last, 0, middle, last, 0):
            got = streams.load(index, gen).random(4)
            assert np.array_equal(got, np.random.default_rng(keys[index]).random(4))
            assert streams.ints(index) == reference_state(keys[index])

    def test_rejects_negative_ints_and_bad_shapes(self):
        with pytest.raises(ValueError):
            rng.seed_states([[1, -2]])
        with pytest.raises(ValueError):
            rng.seed_states([1, 2, 3])


class TestUniforms:
    @pytest.mark.parametrize("route", ["jumped", "c"])
    @given(
        layouts=st.lists(run_layouts(), min_size=1, max_size=3),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5, unique=True),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_default_rng_at_positions(self, route, layouts, seeds, data):
        keys = [[seed, 3, 0xCE11] for seed in seeds]
        streams = rng.seed_states(keys)
        groups = [
            (runs, np.array(data.draw(st.lists(
                st.integers(0, len(keys) - 1), min_size=0, max_size=4))))
            for runs in layouts
        ]
        # the jumped route takes every short run when a call has enough of
        # them; force either route so both are checked on the same layouts
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng, "_JUMP_MIN_RUNS", 0 if route == "jumped" else 10**9)
            outs = rng.uniforms(streams, groups)
        for (runs, index), out in zip(groups, outs):
            assert out.shape == (len(index), sum(length for _, length in runs))
            for row, stream in enumerate(index):
                assert np.array_equal(out[row], expected_draws(keys[stream], runs))

    def test_large_call_takes_the_jumped_route(self):
        """Natural thresholds: thousands of short runs plus long ones."""
        count = 200
        keys = [[seed, 1, 2, 0xCE11] for seed in range(count)]
        streams = rng.seed_states(keys)
        short = tuple((p * 100, 16) for p in range(8))  # 1,600 short runs
        mixed = ((3, 1), (50, rng._JUMP_MAX_RUN), (400, rng._JUMP_MAX_RUN - 1))
        assert count * len(short) >= rng._JUMP_MIN_RUNS
        groups = [(short, np.arange(count)), (mixed, np.arange(0, count, 7))]
        for (runs, index), out in zip(groups, rng.uniforms(streams, groups)):
            for row, stream in enumerate(index):
                assert np.array_equal(out[row], expected_draws(keys[stream], runs))

    def test_jump_tables_match_advance(self):
        """``(A_k, G_k)`` reproduce ``bit_generator.advance(k)`` exactly."""
        steps = np.array([0, 1, 2, 45, 1000, 65_537, 2**40 + 3], dtype=np.uint64)
        (ah, al), (gh, gl) = rng._jumps(steps)
        streams = rng.seed_states([[11, 0xCE11]])
        state, inc = streams.ints(0)
        gen = rng.scratch_generator()
        for k, step in enumerate(steps):
            a = int(ah[k]) << 64 | int(al[k])
            g = int(gh[k]) << 64 | int(gl[k])
            streams.load(0, gen).bit_generator.advance(int(step))
            assert gen.bit_generator.state["state"]["state"] == (a * state + g * inc) % 2**128

    def test_empty_groups(self):
        streams = rng.seed_states([[1, 2]])
        (out,) = rng.uniforms(streams, [(((0, 5),), np.array([], dtype=np.int64))])
        assert out.shape == (0, 5)


class TestBoundedInts:
    @given(
        ranges=st.lists(st.one_of(
            st.integers(1, 40), st.integers(1, 2**32 - 1),
            st.integers(2_900_000_000, 3_100_000_000),  # a third of draws rejected
        ), max_size=300),
        odd_start=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_integers_loop(self, ranges, odd_start, seed):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        if odd_start:  # leave half of a 64-bit output pending
            ours.integers(0, 7)
            theirs.integers(0, 7)
        got = rng.bounded_ints(ours.bit_generator, ranges)
        assert got.tolist() == [int(theirs.integers(r)) for r in ranges]
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("ranges", [[0], [5, 2**32], [-1]])
    def test_out_of_range_raises(self, ranges):
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        with pytest.raises(ValueError):
            rng.bounded_ints(gen.bit_generator, ranges)
        assert gen.bit_generator.state == before


def loop_words(gen, n, j, rows, symbol_bits):
    """The per-row loop :func:`rng.trial_words` replaces."""
    positions = np.zeros((rows, j), dtype=np.int64)
    bits = np.zeros((rows, j if symbol_bits else 0), dtype=np.int64)
    for row in range(rows):
        positions[row] = gen.choice(n, j, replace=False)
        if symbol_bits:
            bits[row] = gen.integers(0, symbol_bits, size=j)
    return positions, bits


def assert_same_as_loop(seed, n, j, rows, symbol_bits, odd_start):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    if odd_start:  # leave half of a 64-bit output pending
        ours.integers(0, 7)
        theirs.integers(0, 7)
    got = rng.trial_words(ours, n, j, rows, symbol_bits)
    want = loop_words(theirs, n, j, rows, symbol_bits)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.random() == theirs.random()


class TestTrialWords:
    @given(
        j=st.integers(1, 32),
        extra=st.integers(0, 10000),
        rows=st.integers(1, 500),
        symbol_bits=st.sampled_from([None, 5, 8, 10]),
        odd_start=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_choice_loop(self, j, extra, rows, symbol_bits, odd_start, seed):
        n = min(j + extra, 10000)
        assert_same_as_loop(seed, n, j, rows, symbol_bits, odd_start)

    @given(
        n=st.integers(2_900_000_000, 3_100_000_000),
        j=st.integers(1, 3),
        rows=st.integers(1, 40),
        symbol_bits=st.sampled_from([None, 5]),
        odd_start=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_lemire_rejections(self, n, j, rows, symbol_bits, odd_start, seed):
        """Near 3e9 about a third of the Floyd draws are rejected and redrawn."""
        assert (2**32 - n) % n / 2**32 > 0.25
        assert_same_as_loop(seed, n, j, rows, symbol_bits, odd_start)

    @pytest.mark.parametrize("n, j, rows, symbol_bits", [
        (5, 0, 4, 8), (5, 5, 4, 8), (1, 1, 3, None), (9, 3, 0, 8), (40, 3, 6, 1),
        (10001, 200, 3, None), (2**32 - 1, 2, 5, None),
    ])
    def test_edges(self, n, j, rows, symbol_bits):
        for odd_start in (False, True):
            assert_same_as_loop(17, n, j, rows, symbol_bits, odd_start)

    @pytest.mark.parametrize("n, j", [(10001, 201), (2**32, 1), (4, 5), (4, -1)])
    def test_outside_the_floyd_regime_raises(self, n, j):
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        with pytest.raises(ValueError):
            rng.trial_words(gen, n, j, 3)
        assert gen.bit_generator.state == before


# -- binomial draws by threshold table ---------------------------------------------


#: the two ways numpy's inversion loop has written its start ``px = q**n``
INVERSION_STARTS = {
    "log1p": lambda n, p: math.exp(n * math.log1p(-p)),
    "log": lambda n, p: math.exp(n * math.log(1.0 - p)),
}


def inversion_draw(n, p, u, start="log1p"):
    """numpy's inversion loop for one draw from the double ``u``, written out
    in Python floats from one of :data:`INVERSION_STARTS`; ``None`` where it
    would restart from a fresh double."""
    q = 1.0 - p
    px = INVERSION_STARTS[start](n, p)
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x = 0
    while u > px:
        x += 1
        if x > bound:
            return None
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


def state_drawing(u, ahead=0, has_uint32=0, uinteger=0):
    """A PCG64 state whose ``ahead + 1``-th double is ``u`` (on the 2**-53 grid).

    An output's high word of 0 makes XSL-RR return the low word, so the
    stepped state is ``u * 2**64`` and the LCG is stepped back from it.
    """
    inc = np.random.default_rng(11).bit_generator.state["state"]["inc"]
    inverse = pow(rng._MULT, -1, 2**128)
    state = int(u * 2**53) << 11
    for _ in range(ahead + 1):
        state = (state - inc) * inverse % 2**128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": has_uint32, "uinteger": uinteger}


def generator_draw(n, p, u):
    """``Generator.binomial(n, p)`` from the double ``u``; ``None`` where it
    restarts (takes more than one double)."""
    gen = rng.scratch_generator()
    gen.bit_generator.state = state_drawing(u)
    x = int(gen.binomial(n, p))
    after = rng.scratch_generator()
    after.bit_generator.state = state_drawing(u)
    after.random()
    return x if gen.bit_generator.state == after.bit_generator.state else None


def rare_event_rates():
    """Every (n, q) and (n, q_tilt) the four rare-event schemes draw at."""
    from repro.reliability import rareevent
    from repro.schemes import ConventionalIecc, Duo, PairScheme, Xed

    out = set()
    for scheme in (PairScheme(), Duo(), Xed(), ConventionalIecc()):
        for ber in (1e-5, 1e-4, 1e-3):
            law = rareevent.line_law(scheme, ber, samples=16)
            q_tilt = rareevent.tilted_rate(law.q, rareevent.auto_tilt(law))
            out |= {(law.n, law.q), (law.n, q_tilt)}
    return sorted(out)


#: tiny p, n*p at (and just past) 30, p = 0.5, n = 1, and the regimes numpy
#: leaves to BTPE or to the mirrored p (no table), and the no-draw cases
TABLE_GRID = [
    (256, 1e-12), (136, 1e-7), (1, 1e-9), (1, 0.5), (2, 0.5), (60, 0.5),
    (3000, 0.01), (300, 0.1), (100, 0.3), (301, 0.1), (76, 0.6), (500, 0.2),
    (0, 0.1), (10, 0.0),
]
RATES = TABLE_GRID + rare_event_rates()


def assert_table_draws(gen_state, n, p, size, out=None):
    want_gen, got_gen = rng.scratch_generator(), rng.scratch_generator()
    want_gen.bit_generator.state = gen_state
    got_gen.bit_generator.state = gen_state
    want = want_gen.binomial(n, p, size)
    got = rng.binomials(got_gen, rng.binomial_table(n, p), size, out=out)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert got_gen.bit_generator.state == want_gen.bit_generator.state


class TestBinomialTables:
    @pytest.mark.parametrize("n, p", RATES)
    def test_equals_generator_binomial(self, n, p):
        for seed in (0, 3, 1009):
            gen = np.random.default_rng(seed)
            gen.integers(0, 7)  # start on a pending uint32 half
            state = gen.bit_generator.state
            for size in (1, 4097, (512, 32), 0):
                assert_table_draws(state, n, p, size)

    def test_draws_into_the_buffer_given(self):
        state = np.random.default_rng(5).bit_generator.state
        buffer = np.empty((64, 32))
        assert_table_draws(state, 256, 8e-4, buffer.shape, out=buffer)
        want = np.random.default_rng(5).random(buffer.shape)
        np.testing.assert_array_equal(buffer, want)

    def test_regime(self):
        assert rng.binomial_table(60, 0.5).thresholds is not None
        assert rng.binomial_table(300, 0.1).thresholds is not None  # n * p == 30.0
        for n, p in [(301, 0.1), (76, 0.6), (0, 0.1), (10, 0.0)]:
            assert rng.binomial_table(n, p).thresholds is None, (n, p)

    @pytest.mark.parametrize("n, p", [
        (n, p) for n, p in RATES if rng.binomial_table(n, p).thresholds is not None
    ])
    def test_thresholds_are_the_first_doubles_of_each_count(self, n, p):
        # X(m_k - 1 step) < k <= X(m_k), a restart counting as bound + 1, by
        # numpy itself at crafted doubles, and by the scalar loop from the
        # start this numpy writes: random draws almost never land within a
        # step of a threshold
        thresholds = rng.binomial_table(n, p).thresholds
        restart = len(thresholds)
        step = 2.0**-53

        def first_doubles(draw):
            def count(u):
                x = draw(n, p, u)
                return restart if x is None else x

            return all(
                count(1.0 - step) < k if math.isinf(m)  # the largest double falls short
                else count(m - step) < k <= count(m)
                for k, m in enumerate(thresholds, start=1)
            )

        assert first_doubles(generator_draw)
        assert any(
            first_doubles(lambda n, p, u: inversion_draw(n, p, u, start))
            for start in INVERSION_STARTS
        )

    def test_restart_hands_the_rest_to_numpy(self):
        # a state whose fourth double is the first one that restarts, with a
        # buffered uint32 half that the hand-over must keep
        n, p = 1000, 1e-3
        restart = rng.binomial_table(n, p).thresholds[-1]
        assert restart < 1.0
        state = state_drawing(restart, ahead=3, has_uint32=1, uinteger=12345)
        probe = rng.scratch_generator()
        probe.bit_generator.state = state
        assert probe.random(4)[3] == restart
        assert generator_draw(n, p, restart) is None
        assert_table_draws(state, n, p, 10)
        assert_table_draws(state, n, p, (3, 5))

    def test_the_guess_does_not_make_the_table(self, monkeypatch):
        # the thresholds are numpy's own: a search started from another
        # guess (exp(n log(1 - p)), 14 doubles above exp(n log1p(-p)) here)
        # finds the same ones
        n, p = 136, 1e-4
        assert math.exp(n * math.log(1 - p)) != math.exp(n * math.log1p(-p))
        want = rng.binomial_table(n, p).thresholds
        monkeypatch.setattr(math, "log1p", lambda x: math.log(1 + x))
        np.testing.assert_array_equal(rng.binomial_table(n, p).thresholds, want)
