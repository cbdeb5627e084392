"""Property tests for the commutative-merge substrate (Hypothesis).

Everything the fleet does - work-stealing, lease requeues, late results,
crash-restart, the no-agent fallback to the in-process supervisor - is safe only
because merging chunk tallies is order-independent and committing the same
chunk record twice is idempotent.  These properties are the load-bearing
wall; they get adversarial inputs, not examples.
"""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import Manifest
from repro.reliability.outcomes import Tally

counts_st = st.tuples(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
)


def tally(quad):
    ok, ce, due, sdc = quad
    return Tally(ok=ok, ce=ce, due=due, sdc=sdc)


def fresh_manifest(total):
    # path never written: a huge save_every keeps the debounce from firing
    return Manifest(path=Path("unused-manifest.json"), config={},
                    fingerprint="test", total_chunks=total,
                    save_every=10**9)


# records keyed by chunk index, as (counts, attempts) payloads
records_st = st.dictionaries(
    keys=st.integers(min_value=0, max_value=63),
    values=st.tuples(counts_st, st.integers(min_value=1, max_value=5)),
    min_size=1, max_size=16,
)


class TestTallyMerge:
    @given(a=counts_st, b=counts_st)
    @settings(max_examples=50, deadline=None)
    def test_commutative(self, a, b):
        assert tally(a).merge(tally(b)) == tally(b).merge(tally(a))

    @given(a=counts_st, b=counts_st, c=counts_st)
    @settings(max_examples=50, deadline=None)
    def test_associative(self, a, b, c):
        left = tally(a).merge(tally(b)).merge(tally(c))
        right = tally(a).merge(tally(b).merge(tally(c)))
        assert left == right

    @given(a=counts_st)
    @settings(max_examples=25, deadline=None)
    def test_empty_tally_is_identity(self, a):
        assert tally(a).merge(Tally()) == tally(a)
        assert Tally().merge(tally(a)) == tally(a)

    @given(quads=st.lists(counts_st, min_size=1, max_size=8),
           data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_any_permutation_merges_identically(self, quads, data):
        shuffled = data.draw(st.permutations(quads))
        fold = Tally()
        for q in quads:
            fold = fold.merge(tally(q))
        fold_shuffled = Tally()
        for q in shuffled:
            fold_shuffled = fold_shuffled.merge(tally(q))
        assert fold == fold_shuffled


class TestManifestMergeOrder:
    @given(records=records_st, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_merged_tally_ignores_commit_order(self, records, data):
        """Chunks committed in any schedule's order - stolen, requeued,
        late - merge to the same tally and serialize to the same bytes."""
        order_a = sorted(records)
        order_b = data.draw(st.permutations(order_a))
        manifests = []
        for order in (order_a, order_b):
            m = fresh_manifest(total=64)
            for index in order:
                quad, attempts = records[index]
                m.record_chunk(index, tally(quad), trials=sum(quad),
                               attempts=attempts)
            manifests.append(m)
        a, b = manifests
        assert a.merged_tally() == b.merged_tally()
        assert a.chunks == b.chunks
        # the durable form is byte-identical too: chunk keys are sorted on
        # write, so replayed/restarted schedules converge on one manifest
        assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())

    @given(records=records_st, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_duplicate_commits_are_idempotent(self, records, data):
        """Re-recording a chunk (a stolen copy's duplicate result, a resume
        replaying the tail) never changes the union."""
        order = data.draw(st.permutations(sorted(records)))
        dupes = data.draw(
            st.lists(st.sampled_from(order), min_size=1, max_size=4)
        )
        m = fresh_manifest(total=64)
        once = fresh_manifest(total=64)
        for target, indices in ((once, order), (m, list(order) + dupes)):
            for index in indices:
                quad, attempts = records[index]
                target.record_chunk(index, tally(quad), trials=sum(quad),
                                    attempts=attempts)
        assert m.chunks == once.chunks
        assert m.merged_tally() == once.merged_tally()

    @given(records=records_st)
    @settings(max_examples=50, deadline=None)
    def test_merged_tally_totals_match_components(self, records):
        m = fresh_manifest(total=64)
        for index, (quad, attempts) in records.items():
            m.record_chunk(index, tally(quad), trials=sum(quad),
                           attempts=attempts)
        merged = m.merged_tally()
        assert merged.total == sum(sum(quad) for quad, _ in records.values())
        assert merged.ok == sum(quad[0] for quad, _ in records.values())
        assert merged.sdc == sum(quad[3] for quad, _ in records.values())
