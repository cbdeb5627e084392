"""Manifest crash-safety and fingerprint refusal."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.manifest import MANIFEST_NAME, Manifest, fingerprint
from repro.errors import CampaignError, EngineMismatch
from repro.reliability import Tally

CONFIG = {"scheme": "pair", "kind": "iid", "trials": 64, "seed": 0,
          "resample_faults_every": 1, "chunk_trials": 8,
          "rates": {"single_cell_ber": 1e-4}, "plan_version": 1}


def make(tmp_path, config=None, total=4):
    return Manifest.create(tmp_path, config or dict(CONFIG), total_chunks=total)


class TestFingerprint:
    def test_stable_under_key_order(self):
        a = {"x": 1, "y": {"a": 2, "b": 3}}
        b = {"y": {"b": 3, "a": 2}, "x": 1}
        assert fingerprint(a) == fingerprint(b)

    def test_sensitive_to_values(self):
        assert fingerprint({"seed": 0}) != fingerprint({"seed": 1})


class TestRoundtrip:
    def test_create_load_roundtrip(self, tmp_path):
        manifest = make(tmp_path)
        manifest.record_chunk(0, Tally(ok=5, ce=2, due=1, sdc=0), trials=8,
                              attempts=1)
        manifest.quarantine_chunk(2, "crash", "worker died", attempts=3, seed=77)
        loaded = Manifest.load(tmp_path)
        assert loaded.fingerprint == manifest.fingerprint
        assert loaded.total_chunks == 4
        assert loaded.chunks[0].tally().as_dict() == Tally(5, 2, 1, 0).as_dict()
        assert loaded.quarantined[2].error == "crash"
        assert loaded.quarantined[2].seed == 77
        assert loaded.pending_indices() == [1, 2, 3]

    def test_merged_tally_sums_chunks(self, tmp_path):
        manifest = make(tmp_path)
        manifest.record_chunk(0, Tally(ok=5, ce=3, due=0, sdc=0), 8, 1)
        manifest.record_chunk(1, Tally(ok=7, ce=0, due=1, sdc=0), 8, 2)
        merged = manifest.merged_tally()
        assert (merged.ok, merged.ce, merged.due, merged.sdc) == (12, 3, 1, 0)

    def test_record_chunk_clears_quarantine(self, tmp_path):
        manifest = make(tmp_path)
        manifest.quarantine_chunk(1, "timeout", "slow", 3, seed=5)
        manifest.record_chunk(1, Tally(ok=8), 8, 1)
        assert Manifest.load(tmp_path).quarantined == {}

    def test_status_summary(self, tmp_path):
        manifest = make(tmp_path)
        manifest.record_chunk(0, Tally(ok=8), 8, 1)
        status = manifest.status()
        assert status["chunks_done"] == 1
        assert status["total_chunks"] == 4
        assert not status["complete"]


class TestDebouncedSave:
    def test_save_every_batches_disk_writes(self, tmp_path):
        manifest = make(tmp_path, total=8)
        manifest.save_every = 3
        path = tmp_path / MANIFEST_NAME
        manifest.record_chunk(0, Tally(ok=8), 8, 1)
        manifest.record_chunk(1, Tally(ok=8), 8, 1)
        assert json.loads(path.read_text())["chunks"] == {}  # still held back
        manifest.record_chunk(2, Tally(ok=8), 8, 1)  # hits threshold
        assert set(json.loads(path.read_text())["chunks"]) == {"0", "1", "2"}

    def test_flush_persists_and_is_idempotent(self, tmp_path):
        manifest = make(tmp_path, total=8)
        manifest.save_every = 100
        manifest.record_chunk(0, Tally(ok=8), 8, 1)
        assert json.loads((tmp_path / MANIFEST_NAME).read_text())["chunks"] == {}
        manifest.flush()
        on_disk = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert set(on_disk["chunks"]) == {"0"}
        manifest.flush()  # clean: a no-op, not a rewrite of stale state
        assert json.loads((tmp_path / MANIFEST_NAME).read_text()) == on_disk

    def test_disk_state_is_always_a_loadable_prefix(self, tmp_path):
        """A crash between debounced saves may lose recent records but can
        never leave an unreadable or wrong manifest behind."""
        manifest = make(tmp_path, config=dict(CONFIG, trials=64), total=8)
        manifest.save_every = 2
        recorded = set()
        for index in range(5):
            manifest.record_chunk(index, Tally(ok=8), 8, 1)
            recorded.add(index)
            loaded = Manifest.load(tmp_path)
            assert set(loaded.chunks) <= recorded
            assert all(loaded.chunks[i].ok == 8 for i in loaded.chunks)

    def test_quarantine_saves_immediately_with_pending_records(self, tmp_path):
        # quarantine is rare and always worth a write; the save also carries
        # any debounced chunk records along with it
        manifest = make(tmp_path, total=8)
        manifest.save_every = 100
        manifest.record_chunk(0, Tally(ok=8), 8, 1)
        manifest.quarantine_chunk(3, "crash", "worker died", 3, seed=1)
        loaded = Manifest.load(tmp_path)
        assert set(loaded.chunks) == {0}
        assert set(loaded.quarantined) == {3}


class TestRefusals:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign manifest"):
            Manifest.load(tmp_path)

    def test_truncated_manifest_is_explicit_error(self, tmp_path):
        # Simulates a non-atomic writer dying mid-write; our own writer can
        # never produce this, but the reader must still fail loudly.
        make(tmp_path)
        path = tmp_path / MANIFEST_NAME
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CampaignError, match="corrupt"):
            Manifest.load(tmp_path)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        manifest = make(tmp_path)
        other = dict(CONFIG, seed=99)
        with pytest.raises(EngineMismatch):
            manifest.check_fingerprint(other)

    def test_matching_fingerprint_accepted(self, tmp_path):
        make(tmp_path).check_fingerprint(dict(CONFIG))

    def test_edited_config_detected_on_load(self, tmp_path):
        make(tmp_path)
        path = tmp_path / MANIFEST_NAME
        raw = json.loads(path.read_text())
        raw["config"]["seed"] = 42  # tamper without updating the fingerprint
        path.write_text(json.dumps(raw))
        with pytest.raises(EngineMismatch, match="edited or mixed"):
            Manifest.load(tmp_path)

    def test_version_skew_refused(self, tmp_path):
        make(tmp_path)
        path = tmp_path / MANIFEST_NAME
        raw = json.loads(path.read_text())
        raw["version"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(CampaignError, match="version"):
            Manifest.load(tmp_path)


def valid_raw():
    """A well-formed manifest dict: one committed and one quarantined chunk."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = make(Path(tmp))
        manifest.record_chunk(0, Tally(ok=5, ce=2, due=1, sdc=0), 8, 1)
        manifest.quarantine_chunk(2, "crash", "worker died", 3, seed=77)
        return manifest.as_dict()


def load_raw(raw):
    """Write ``raw`` (a dict, or the file's text/bytes) and load it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / MANIFEST_NAME
        if isinstance(raw, bytes):
            path.write_bytes(raw)
        else:
            path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        return Manifest.load(tmp)


def not_int():
    return st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4),
                     st.lists(st.integers(), max_size=2),
                     st.integers(max_value=-1))


def not_str():
    return st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.lists(st.text(max_size=2), max_size=2))


def not_object():
    return st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                     st.lists(st.integers(), max_size=2))


def setter(*keys):
    """An edit that sets ``raw[k0][k1]...`` to the drawn value."""
    def make_edit(value):
        def edit(raw):
            target = raw
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        return edit
    return make_edit


def dropper(*keys):
    """An edit that deletes ``raw[k0][k1]...``."""
    def edit(raw):
        target = raw
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]
    return edit


CHUNK_INTS = ("ok", "ce", "due", "sdc", "trials", "attempts")
FULL_CHUNK = {"ok": 8, "ce": 0, "due": 0, "sdc": 0, "trials": 8, "attempts": 1}


def damage():
    """Edits that each turn the valid raw manifest into an invalid one."""
    return st.one_of(
        *(st.builds(setter("chunks", "0", key), not_int()) for key in CHUNK_INTS),
        st.builds(setter("quarantined", "2", "seed"), not_int()),
        st.builds(setter("quarantined", "2", "attempts"), not_int()),
        st.builds(setter("quarantined", "2", "error"), not_str()),
        st.builds(setter("quarantined", "2", "message"), not_str()),
        st.builds(setter("chunks", "0"), not_object()),
        st.builds(setter("quarantined", "2"), not_object()),
        st.builds(setter("chunks"), not_object()),
        st.builds(setter("quarantined"), not_object()),
        st.builds(setter("chunks", "0", "extra"),
                  not_object().filter(lambda v: v is not None)),
        st.builds(setter("chunks", "0", "extra"),
                  st.fixed_dictionaries({"weighted": not_object()})),
        st.builds(setter("chunks", "0", "bogus"), st.integers()),
        st.builds(setter("total_chunks"), not_int()),
        st.builds(setter("config"), not_object()),
        st.builds(setter("chunks", "0", "ok"), st.integers(min_value=6)),
        st.builds(lambda key: setter("chunks", key)(FULL_CHUNK),
                  st.text(max_size=3).filter(lambda k: not k.strip().isdigit())),
        st.builds(lambda index: setter("chunks", str(index))(FULL_CHUNK),
                  st.integers(min_value=4, max_value=10**6)),
        st.sampled_from([dropper("chunks", "0", key) for key in CHUNK_INTS]),
        st.sampled_from([dropper("quarantined", "2", key)
                         for key in ("error", "message", "attempts", "seed")]),
    )


class TestUntrustedInput:
    """A manifest on disk is untrusted: malformed input is a CampaignError."""

    @pytest.mark.parametrize("edit", [
        lambda raw: raw["chunks"].update({"0": {"ok": 1}}),
        lambda raw: raw["chunks"].update({"x": raw["chunks"]["0"]}),
        lambda raw: raw["quarantined"].update({"2": ["crash", "died", 3, 77]}),
    ], ids=["chunk-lacks-fields", "chunk-key-not-index", "quarantine-is-list"])
    def test_reported_cases(self, edit):
        raw = valid_raw()
        edit(raw)
        with pytest.raises(CampaignError, match="manifest"):
            load_raw(raw)

    def test_top_level_scalar(self):
        with pytest.raises(CampaignError, match="not a JSON object"):
            load_raw("5")

    def test_error_names_file_and_chunk(self):
        raw = valid_raw()
        raw["chunks"]["0"]["ok"] = "five"
        with pytest.raises(CampaignError) as excinfo:
            load_raw(raw)
        assert MANIFEST_NAME in str(excinfo.value)
        assert "chunk 0" in str(excinfo.value)

    def test_legacy_engine_key_is_ignored(self):
        raw = valid_raw()
        raw["chunks"]["0"]["engine"] = "sequential"
        loaded = load_raw(raw)
        assert loaded.chunks[0].tally().as_dict() == Tally(5, 2, 1, 0).as_dict()
        assert "engine" not in loaded.as_dict()["chunks"]["0"]

    @given(cut=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_truncated(self, cut):
        text = json.dumps(valid_raw(), indent=1)
        with pytest.raises(CampaignError):
            load_raw(text[: cut % len(text)])

    @given(data=st.binary(max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_garbage_bytes(self, data):
        with pytest.raises(CampaignError):
            load_raw(data)

    @given(value=st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
        lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
        max_leaves=8,
    ))
    @settings(max_examples=60, deadline=None)
    def test_garbage_json(self, value):
        with pytest.raises(CampaignError):
            load_raw(value)

    @given(edit=damage())
    @settings(max_examples=150, deadline=None)
    def test_wrong_typed_records(self, edit):
        raw = valid_raw()
        edit(raw)
        with pytest.raises(CampaignError):
            load_raw(raw)
