"""Backend registry semantics and cross-tier bit-identity.

The whole premise of the kernel-backend registry is that backend choice is
a *performance* knob, never a *results* knob.  This suite enforces it from
three directions:

* registry behaviour: selection priority (explicit API > ``REPRO_GF_BACKEND``
  env var > default), strict explicit selection vs lenient env/worker
  resolution, the forced-fallback path when a requested tier is absent;
* bit-identity: a hypothesis sweep over ``(m, n, r, fcr)`` and fault
  patterns asserting every registered backend returns exactly the numpy
  reference's syndromes, plus decode-outcome equivalence through the full
  RS decoder and through the reliability chunk executors;
* cache hygiene: ``galois.batch.clear_cache`` must drop the backend-held
  plane/Chien tables, not just the shared Vandermonde cache.

The pure-python fallback body of the numba accumulate loop is exercised
here directly (on tiny inputs), so the jitted tier's *algorithm* is proven
bit-identical even on hosts where numba itself is absent.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.galois import batch, get_field, poly
from repro.galois import backends as reg
from repro.galois.backends import (
    BackendUnavailableError,
    BitslicedBackend,
    NumpyBackend,
    active_backend,
    backend_names,
    backends_report,
    get_backend,
    set_backend,
    use_backend,
)
from repro.galois.backends.numba_backend import (
    NUMBA_AVAILABLE,
    NumbaBackend,
    _accumulate_jit,
)


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Each test starts from env-driven resolution with no env var set."""
    monkeypatch.delenv(reg.ENV_VAR, raising=False)
    reg.reset_selection()
    yield
    reg.reset_selection()


def all_available():
    return [get_backend(name) for name in backend_names()
            if name in reg._REGISTRY]


# -- registry semantics ------------------------------------------------------


class TestRegistry:
    def test_default_is_numpy(self):
        assert active_backend().name == "numpy"

    def test_known_names(self):
        # all three tiers are always *known*, even where numba is missing
        assert set(backend_names()) == {"numpy", "bitsliced", "numba"}

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(reg.ENV_VAR, "bitsliced")
        reg.reset_selection()
        assert active_backend().name == "bitsliced"

    def test_env_var_read_lazily(self, monkeypatch):
        assert active_backend().name == "numpy"
        monkeypatch.setenv(reg.ENV_VAR, "bitsliced")
        # selection is sticky until reset
        assert active_backend().name == "numpy"
        reg.reset_selection()
        assert active_backend().name == "bitsliced"

    def test_unknown_env_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(reg.ENV_VAR, "cuda")
        reg.reset_selection()
        with pytest.warns(RuntimeWarning, match="unknown GF backend 'cuda'"):
            assert active_backend().name == "numpy"

    def test_set_backend_strict_on_unknown(self):
        with pytest.raises(ValueError, match="unknown GF backend"):
            set_backend("cuda")

    def test_set_backend_explicit_and_auto(self):
        assert set_backend("bitsliced").name == "bitsliced"
        assert active_backend().name == "bitsliced"
        assert set_backend(None).name == "numpy"  # back to env/default

    def test_use_backend_scopes_and_restores(self):
        set_backend("numpy")
        with use_backend("bitsliced") as b:
            assert b.name == "bitsliced"
            assert active_backend().name == "bitsliced"
        assert active_backend().name == "numpy"

    def test_use_backend_none_is_passthrough(self):
        with use_backend(None) as b:
            assert b is active_backend()

    def test_use_backend_strict_raises(self):
        with pytest.raises(ValueError):
            with use_backend("cuda"):
                pass  # pragma: no cover - never reached

    def test_report_schema_and_active_flag(self):
        report = backends_report()
        assert report["kind"] == "gf_backends"
        assert report["default"] == "numpy"
        actives = [row["name"] for row in report["backends"] if row["active"]]
        assert actives == [report["active"]] == ["numpy"]
        by_name = {row["name"]: row for row in report["backends"]}
        assert by_name["numpy"]["available"] is True
        assert by_name["bitsliced"]["available"] is True


class TestForcedFallback:
    """Selecting the numba tier where numba is absent must degrade, not die."""

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed here")
    def test_env_selection_falls_back_with_warning(self, monkeypatch):
        monkeypatch.setenv(reg.ENV_VAR, "numba")
        reg.reset_selection()
        with pytest.warns(RuntimeWarning, match="'numba' is unavailable"):
            assert active_backend().name == "numpy"

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed here")
    def test_explicit_selection_raises(self):
        with pytest.raises(BackendUnavailableError, match="numba"):
            set_backend("numba")

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed here")
    def test_worker_mode_use_backend_is_lenient(self):
        with pytest.warns(RuntimeWarning):
            with use_backend("numba", strict=False) as b:
                assert b.name == "numpy"

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed here")
    def test_report_carries_reason(self):
        row = {r["name"]: r for r in backends_report()["backends"]}["numba"]
        assert row["available"] is False
        assert "numba" in row["reason"]


# -- bit-identity ------------------------------------------------------------


SHAPES = st.sampled_from([
    # (m, n, r, fcr): spans sub-byte, byte and two-byte symbol fields,
    # full-length and shortened codes, and both common fcr conventions.
    (4, 15, 6, 1),
    (4, 9, 4, 0),
    (8, 255, 16, 1),
    (8, 40, 8, 0),
    (8, 17, 5, 1),
    (10, 100, 10, 1),
    (16, 120, 8, 1),
])


@st.composite
def syndrome_cases(draw):
    m, n, r, fcr = draw(SHAPES)
    field = get_field(m)
    batch_rows = draw(st.integers(min_value=1, max_value=80))
    words = np.zeros((batch_rows, n), dtype=np.int64)
    kind = draw(st.sampled_from(["clean", "sparse", "dense", "mixed"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if kind != "clean":
        for i in range(batch_rows):
            if kind == "sparse" or (kind == "mixed" and i % 3 == 0):
                errs = int(rng.integers(0, min(4, n) + 1))
                pos = rng.choice(n, size=errs, replace=False)
                words[i, pos] = rng.integers(1, field.order, size=errs)
            elif kind == "dense" or i % 3 == 1:
                words[i] = rng.integers(0, field.order, size=n)
    return field, words, r, fcr


@given(syndrome_cases())
@settings(max_examples=60, deadline=None)
def test_syndrome_bit_identity_across_backends(case):
    field, words, r, fcr = case
    reference = NumpyBackend().syndromes(field, words, r, fcr)
    for backend in all_available():
        got = backend.syndromes(field, words, r, fcr, chunk=17)  # odd chunk
        assert got.dtype == reference.dtype
        assert np.array_equal(got, reference), backend.name


@given(syndrome_cases())
@settings(max_examples=30, deadline=None)
def test_numba_algorithm_bit_identity_via_python_fallback(case):
    """Prove the jitted tier's scan order is exact even without numba.

    ``_accumulate_jit`` is a plain-python loop unless numba wrapped it at
    import; driving a NumbaBackend instance directly therefore exercises
    the identical accumulate algorithm on every host.
    """
    field, words, r, fcr = case
    if words.shape[0] > 8:  # the python loop is slow; keep lanes small
        words = words[:8]
    reference = NumpyBackend().syndromes(field, words, r, fcr)
    got = NumbaBackend().syndromes(field, words, r, fcr)
    assert np.array_equal(got, reference)


def test_numba_accumulate_is_pure_python_when_absent():
    if not NUMBA_AVAILABLE:
        assert not hasattr(_accumulate_jit, "py_func")  # not jitted


def _brute_force_roots(field, n, locator):
    """Root mask by direct evaluation at every ``alpha^-c``."""
    out = np.zeros(n, dtype=bool)
    for c in range(n):
        x = field.alpha_pow(-c)
        acc = 0
        for coeff in reversed([int(v) for v in locator]):
            acc = field.mul(acc, x) ^ coeff
        out[c] = acc == 0
    return out


def test_chien_roots_identical_across_backends():
    """Batched contract: a ``(rows, width)`` locator matrix in, a
    ``(rows, n)`` root mask out, identical on every backend and equal to
    direct evaluation, whatever the chunk size."""
    for m in (4, 8):
        field = get_field(m)
        rng = np.random.default_rng(7 + m)
        reference = NumpyBackend()
        # zero-padded rows of mixed degree, a constant row, and products of
        # linear factors so that real roots occur
        locators = np.zeros((20, 10), dtype=np.int64)
        locators[:, 0] = 1
        for row in range(16):
            degree = int(rng.integers(1, 10))
            locators[row, 1 : degree + 1] = rng.integers(0, field.order, size=degree)
        for row in range(16, 19):
            points = [field.alpha_pow(-int(c)) for c in rng.choice(12, row - 14, replace=False)]
            psi = poly.from_roots(field, points)
            locators[row, : psi.size] = psi
        for n in (field.order - 1, 13, 5):
            ref = reference.chien_roots(field, n, locators)
            assert ref.shape == (locators.shape[0], n)
            for row in range(locators.shape[0]):
                assert np.array_equal(ref[row], _brute_force_roots(field, n, locators[row]))
            if n >= 12:  # every planted root lies inside the searched support
                assert ref[16:19].sum(axis=1).tolist() == [2, 3, 4]
            assert np.array_equal(reference.chien_roots(field, n, locators, chunk=1), ref)
            for backend in all_available():
                got = backend.chien_roots(field, n, locators)
                assert np.array_equal(got, ref), (backend.name, m, n)


@pytest.mark.parametrize("backend_name",
                         [n for n in ("bitsliced", "numba") if n in reg._REGISTRY])
def test_decode_outcomes_identical(backend_name):
    """Full decoder equivalence: status, data, positions per word."""
    from repro.codes import SinglyExtendedRS

    field = get_field(8)
    code = SinglyExtendedRS(field, 64, 48)
    rng = np.random.default_rng(0xDEC0)
    words = np.zeros((48, code.n), dtype=np.int64)
    for i in range(words.shape[0]):
        word = code.encode(rng.integers(0, 256, size=code.k, dtype=np.int64))
        n_err = int(rng.integers(0, code.t + 4))  # includes beyond-bound rows
        if n_err:
            pos = rng.choice(code.n, size=n_err, replace=False)
            word[pos] ^= rng.integers(1, 256, size=n_err)
        words[i] = word
    set_backend("numpy")
    reference = code.decode_batch(words)
    with use_backend(backend_name):
        got = code.decode_batch(words)
    assert len(got) == len(reference)
    for ours, ref in zip(got, reference):
        assert ours.status is ref.status
        assert ours.corrected_positions == ref.corrected_positions
        assert np.array_equal(ours.data, ref.data)


@pytest.mark.parametrize("backend_name",
                         [n for n in ("bitsliced", "numba") if n in reg._REGISTRY])
def test_reliability_chunk_tally_identical(backend_name):
    """The campaign-facing executors give identical tallies per backend."""
    from repro.campaign.plan import build_plan, execute_chunk
    from repro.faults import DEFAULT_RATES
    from repro.reliability import ExactRunConfig
    from repro.schemes import default_schemes

    scheme = next(s for s in default_schemes() if s.name == "pair")
    rates = DEFAULT_RATES.with_ber(1e-3)
    config = ExactRunConfig(trials=24, seed=5)
    plan = build_plan(scheme, rates, config, chunk_trials=8)
    for spec in plan.chunks:
        ref = execute_chunk("iid", scheme, rates, config, spec, backend="numpy")
        got = execute_chunk("iid", scheme, rates, config, spec, backend=backend_name)
        assert got == ref


def test_unavailable_backend_in_chunk_degrades_not_dies():
    """A worker handed a bogus backend name must still produce the tally."""
    from repro.campaign.plan import build_plan, execute_chunk
    from repro.faults import DEFAULT_RATES
    from repro.reliability import ExactRunConfig
    from repro.schemes import default_schemes

    scheme = next(s for s in default_schemes() if s.name == "pair")
    rates = DEFAULT_RATES.with_ber(1e-3)
    config = ExactRunConfig(trials=8, seed=5)
    plan = build_plan(scheme, rates, config, chunk_trials=8)
    ref = execute_chunk("iid", scheme, rates, config, plan.chunks[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = execute_chunk("iid", scheme, rates, config, plan.chunks[0],
                            backend="not-a-backend")
    assert got == ref


def test_supervisor_captures_active_backend():
    from repro.campaign.supervisor import Supervisor, SupervisorPolicy
    from repro.faults import DEFAULT_RATES
    from repro.reliability import ExactRunConfig
    from repro.schemes import default_schemes

    scheme = next(s for s in default_schemes() if s.name == "pair")
    set_backend("bitsliced")
    sup = Supervisor("iid", scheme, DEFAULT_RATES, ExactRunConfig(trials=8),
                     SupervisorPolicy())
    assert sup.backend == "bitsliced"


# -- cache hygiene -----------------------------------------------------------


def test_clear_cache_drops_backend_planes():
    field = get_field(8)
    bits = get_backend("bitsliced")
    assert isinstance(bits, BitslicedBackend)
    words = np.ones((4, 30), dtype=np.int64)
    bits.syndromes(field, words, 6, 1)
    assert bits.cache_info()["plane_signatures"] >= 1
    assert len(reg.base._VANDERMONDE_CACHE) >= 1
    batch.clear_cache()
    assert bits.cache_info()["plane_signatures"] == 0
    assert len(reg.base._VANDERMONDE_CACHE) == 0


def test_clear_cache_drops_chien_tables():
    from repro.galois.backends import numpy_backend

    field = get_field(8)
    get_backend("numpy").chien_roots(field, 255, np.array([[1, 3, 5]]))
    assert len(numpy_backend._CHIEN_CACHE) >= 1
    batch.clear_cache()
    assert len(numpy_backend._CHIEN_CACHE) == 0


def test_cleared_caches_rebuild_identically():
    field = get_field(8)
    rng = np.random.default_rng(3)
    words = rng.integers(0, 256, size=(16, 100), dtype=np.int64)
    bits = get_backend("bitsliced")
    before = bits.syndromes(field, words, 8, 1)
    batch.clear_cache()
    after = bits.syndromes(field, words, 8, 1)
    assert np.array_equal(before, after)
