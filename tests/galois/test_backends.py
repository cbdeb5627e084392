"""The GF(2^m) batch kernel against direct evaluation, and its caches.

* syndromes: a hypothesis sweep over ``(m, n, r, fcr)`` and fault patterns
  asserting the kernel returns exactly a per-word Horner evaluation with
  ``field.mul``, through both the sparse ``reduceat`` branch and the dense
  branch;
* Chien search: the batched root mask equals direct evaluation of each
  locator at every ``alpha^-c``, whatever the chunk size;
* cache hygiene: ``galois.batch.clear_cache`` drops the Vandermonde and
  Chien tables, and they rebuild identically;
* the two stubs the pinned benchmark still calls (``set_backend`` and
  ``backends_report``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.galois import backends, batch, get_field, poly
from repro.galois.backends import KERNEL, backends_report, set_backend


class TestRegistry:
    """What is left of the kernel registry: the pinned benchmark's stubs."""

    def test_default_is_numpy(self):
        assert set_backend("numpy") is KERNEL
        assert KERNEL.name == "numpy"

    def test_set_backend_strict_on_unknown(self):
        for name in ("bitslice", "auto", "", None):
            with pytest.raises(ValueError, match="only kernel"):
                set_backend(name)

    def test_report_schema_and_active_flag(self):
        assert backends_report() == {
            "kind": "gf_backends",
            "active": "numpy",
            "backends": [{"name": "numpy", "available": True, "active": True}],
        }


# -- syndromes ---------------------------------------------------------------


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


def horner_syndromes(field, words, r, fcr):
    """``S_j = R(alpha^(fcr + j))`` by Horner's rule, position 0 highest."""
    out = np.zeros((words.shape[0], r), dtype=np.int64)
    for j in range(r):
        x = np.full(words.shape[0], field.alpha_pow(fcr + j), dtype=np.int64)
        acc = np.zeros(words.shape[0], dtype=np.int64)
        for pos in range(words.shape[1]):
            acc = field.mul(acc, x) ^ words[:, pos]
        out[:, j] = acc
    return out


def screen_branch_rows(field, words, r, fcr, chunk=2048):
    """Run the kernel with obs on; return it and its sparse/dense row counts."""
    sparse = obs.counter("galois.syndromes.sparse_path_rows")
    dense = obs.counter("galois.syndromes.dense_path_rows")
    before = (sparse.value, dense.value)
    with obs.enabled_scope(True):
        got = KERNEL.syndromes(field, words, r, fcr, chunk=chunk)
    return got, sparse.value - before[0], dense.value - before[1]


@given(syndrome_cases())
@settings(max_examples=60, deadline=None)
def test_syndromes_match_horner(case):
    field, words, r, fcr = case
    got, sparse_rows, dense_rows = screen_branch_rows(field, words, r, fcr, chunk=17)
    assert got.dtype == np.int64
    assert np.array_equal(got, horner_syndromes(field, words, r, fcr))
    # every dirty row goes down exactly one branch; clean rows down neither
    dirty = int(words.any(axis=1).sum())
    assert sparse_rows + dense_rows == dirty
    assert sparse_rows == 0 or dense_rows == 0


def test_both_screen_branches_run():
    field = get_field(8)
    rng = np.random.default_rng(11)
    sparse_words = np.zeros((40, 255), dtype=np.int64)
    sparse_words[np.arange(40), rng.integers(0, 255, size=40)] = rng.integers(1, 256, size=40)
    dense_words = rng.integers(0, 256, size=(40, 255), dtype=np.int64)
    for words, branch in ((sparse_words, "sparse"), (dense_words, "dense")):
        got, sparse_rows, dense_rows = screen_branch_rows(field, words, 16, 1, chunk=17)
        assert (sparse_rows, dense_rows) == ((40, 0) if branch == "sparse" else (0, 40))
        assert np.array_equal(got, horner_syndromes(field, words, 16, 1))
        assert np.array_equal(batch.batch_syndromes(field, words, 16, 1), got)


# -- Chien search --------------------------------------------------------------


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


def test_chien_roots_match_brute_force():
    """Batched contract: a ``(rows, width)`` locator matrix in, a
    ``(rows, n)`` root mask out, equal to direct evaluation whatever the
    chunk size."""
    for m in (4, 8):
        field = get_field(m)
        rng = np.random.default_rng(7 + m)
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
            ref = KERNEL.chien_roots(field, n, locators)
            assert ref.shape == (locators.shape[0], n)
            for row in range(locators.shape[0]):
                assert np.array_equal(ref[row], _brute_force_roots(field, n, locators[row]))
            if n >= 12:  # every planted root lies inside the searched support
                assert ref[16:19].sum(axis=1).tolist() == [2, 3, 4]
            assert np.array_equal(KERNEL.chien_roots(field, n, locators, chunk=1), ref)


# -- cache hygiene -----------------------------------------------------------


def test_clear_cache_drops_vandermonde_tables():
    field = get_field(8)
    KERNEL.syndromes(field, np.ones((4, 30), dtype=np.int64), 6, 1)
    assert len(backends._VANDERMONDE_CACHE) >= 1
    batch.clear_cache()
    assert len(backends._VANDERMONDE_CACHE) == 0


def test_clear_cache_drops_chien_tables():
    field = get_field(8)
    KERNEL.chien_roots(field, 255, np.array([[1, 3, 5]]))
    assert len(backends._CHIEN_CACHE) >= 1
    batch.clear_cache()
    assert len(backends._CHIEN_CACHE) == 0


def test_cleared_caches_rebuild_identically():
    field = get_field(8)
    rng = np.random.default_rng(3)
    words = rng.integers(0, 256, size=(16, 100), dtype=np.int64)
    locators = np.array([[1, 3, 5], [1, 0, 7]], dtype=np.int64)
    before = (KERNEL.syndromes(field, words, 8, 1), KERNEL.chien_roots(field, 100, locators))
    batch.clear_cache()
    after = (KERNEL.syndromes(field, words, 8, 1), KERNEL.chien_roots(field, 100, locators))
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])
