"""Campaign end-to-end: supervision, retry, quarantine, checkpoint/resume.

The headline contract under test: a campaign that suffers crashes, hangs,
engine raises, corrupted tallies and a mid-run kill still completes (via
retry, timeout enforcement and resume), and its merged tally is
bit-identical to the scalar oracle's run of the same seed.
"""

import json
import math
import multiprocessing

import pytest

from repro import obs
from repro.campaign import (
    CampaignConfig,
    ChaosSchedule,
    Manifest,
    Supervisor,
    SupervisorPolicy,
    campaign_status,
    resume_campaign,
    start_campaign,
    supervisor,
)
from repro.errors import CampaignAborted, CampaignError, EngineMismatch
from repro.faults import DEFAULT_RATES, FaultType
from repro.reliability import ExactRunConfig
from repro.schemes import DEFAULT_SCHEME_CLASSES, default_schemes

from .. import oracle

RATES = DEFAULT_RATES.with_ber(3e-3)
TRIALS, SEED, CHUNK = 32, 7, 8  # -> 4 chunks


def counts(tally):
    return (tally.ok, tally.ce, tally.due, tally.sdc)


def config(**overrides):
    base = dict(scheme="pair", trials=TRIALS, seed=SEED, chunk_trials=CHUNK,
                rates=RATES)
    base.update(overrides)
    return CampaignConfig(**base)


def policy(**overrides):
    base = dict(workers=1, timeout=30.0, retries=2, backoff=0.01)
    base.update(overrides)
    return SupervisorPolicy(**base)


@pytest.fixture(scope="module")
def pair_scheme():
    return next(s for s in default_schemes() if s.name == "pair")


@pytest.fixture(scope="module")
def reference(pair_scheme):
    """The scalar oracle's run every campaign must match bit for bit."""
    return oracle.run_iid(pair_scheme, RATES, ExactRunConfig(trials=TRIALS, seed=SEED))


class TestHappyPath:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_bit_identical_to_sequential(self, tmp_path, reference, workers):
        result = start_campaign(tmp_path, config(), policy(workers=workers))
        assert result.complete
        assert counts(result.tally) == counts(reference)

    def test_single_fault_kind_matches_engine(self, tmp_path, pair_scheme):
        ref = oracle.run_single_fault(
            pair_scheme, FaultType.ROW, RATES, ExactRunConfig(trials=16, seed=2)
        )
        result = start_campaign(
            tmp_path, config(kind="single:row", trials=16, seed=2), policy()
        )
        assert result.complete
        assert counts(result.tally) == counts(ref)

    def test_rerun_on_complete_campaign_is_noop(self, tmp_path, reference):
        start_campaign(tmp_path, config(), policy())
        again = start_campaign(tmp_path, config(), policy())
        assert again.complete
        assert counts(again.tally) == counts(reference)


class TestChaosRecovery:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_crash_and_hang_recovered_then_resume_bit_identical(
        self, tmp_path, reference, workers
    ):
        # Acceptance scenario: one chunk's worker crashes, another hangs past
        # its deadline, and the campaign is killed mid-run after 3 commits.
        # Retry + timeout-terminate + resume must still converge on the
        # uninterrupted reference, at workers=1 and workers=4.
        chaos = ChaosSchedule.parse("crash:1,hang:2,abort:3")
        pol = policy(workers=workers, timeout=1.0)
        with pytest.raises(CampaignAborted):
            start_campaign(tmp_path, config(), pol, chaos)
        status = campaign_status(tmp_path)
        assert 0 < status["chunks_done"] < status["total_chunks"]
        result = resume_campaign(tmp_path, policy(workers=workers))
        assert result.complete
        assert counts(result.tally) == counts(reference)
        manifest = Manifest.load(tmp_path)
        # the crashed and hung chunks took more than one attempt
        assert manifest.chunks[1].attempts >= 2 or manifest.chunks[2].attempts >= 2

    def test_engine_raise_retries_on_the_same_engine(self, tmp_path, reference):
        # chunk 0 raises on attempt 0 only; the retry runs the same engine
        result = start_campaign(
            tmp_path, config(), policy(), ChaosSchedule.parse("raise:0")
        )
        assert result.complete
        assert counts(result.tally) == counts(reference)
        manifest = Manifest.load(tmp_path)
        assert manifest.chunks[0].attempts == 2
        assert manifest.chunks[1].attempts == 1

    def test_persistent_engine_raise_is_quarantined(self, tmp_path, reference):
        # a raise on every attempt is a bug to surface: no other engine
        # takes over, the chunk is quarantined as "raise"
        result = start_campaign(
            tmp_path, config(), policy(retries=2), ChaosSchedule.parse("raise:0@0|1|2")
        )
        assert not result.complete
        assert sorted(result.quarantined) == [0]
        assert result.quarantined[0].error == "raise"
        assert result.quarantined[0].attempts == 3
        assert "ChaosInjected" in result.quarantined[0].message
        assert result.tally.total == TRIALS - CHUNK
        resumed = resume_campaign(tmp_path, policy())
        assert resumed.complete
        assert counts(resumed.tally) == counts(reference)

    def test_corrupt_tally_is_guarded_not_merged(self, tmp_path, reference):
        result = start_campaign(
            tmp_path, config(), policy(), ChaosSchedule.parse("corrupt:2")
        )
        assert result.complete
        assert counts(result.tally) == counts(reference)
        assert Manifest.load(tmp_path).chunks[2].attempts == 2

    def test_persistent_crash_quarantines_then_resume_finishes(
        self, tmp_path, reference
    ):
        chaos = ChaosSchedule.parse("crash:1@0|1")
        result = start_campaign(tmp_path, config(), policy(retries=1), chaos)
        assert not result.complete
        assert sorted(result.quarantined) == [1]
        assert result.quarantined[1].error == "crash"
        assert result.chunks_done == 3
        # quarantine is surfaced, not silently dropped: the partial tally
        # covers exactly the other chunks' trials
        assert result.tally.total == TRIALS - CHUNK
        resumed = resume_campaign(tmp_path, policy())
        assert resumed.complete
        assert counts(resumed.tally) == counts(reference)

    def test_hang_is_classified_as_timeout(self, tmp_path):
        chaos = ChaosSchedule.parse("hang:0@0|1")
        result = start_campaign(
            tmp_path, config(), policy(retries=1, timeout=0.5), chaos
        )
        assert sorted(result.quarantined) == [0]
        assert result.quarantined[0].error == "timeout"


class TestEventWait:
    """Each way the supervisor's event wait wakes up, at two workers."""

    def test_crash_wakes_on_sentinel_and_hang_at_deadline(self, tmp_path, reference):
        # chunk 1's worker dies with no result message, so only its sentinel
        # fires; chunk 2's worker never reports, so only its deadline does
        result = start_campaign(
            tmp_path, config(), policy(workers=2, timeout=1.0),
            ChaosSchedule.parse("crash:1,hang:2"),
        )
        assert result.complete
        assert counts(result.tally) == counts(reference)
        chunks = Manifest.load(tmp_path).chunks
        assert (chunks[1].attempts, chunks[2].attempts) == (2, 2)

    def test_lone_retry_wakes_after_its_backoff(self, tmp_path, pair_scheme):
        # one chunk: after its crash nothing is in flight, so the supervisor
        # sleeps out the backoff and relaunches the retry
        ref = oracle.run_iid(pair_scheme, RATES, ExactRunConfig(trials=CHUNK, seed=SEED))
        result = start_campaign(
            tmp_path, config(trials=CHUNK), policy(workers=2, retries=1),
            ChaosSchedule.parse("crash:0@0"),
        )
        assert result.complete
        assert counts(result.tally) == counts(ref)
        assert Manifest.load(tmp_path).chunks[0].attempts == 2


def obs_on_campaign(directory, cfg, pol, chaos=None):
    """Run ``cfg`` with obs on; returns the result and the merged counters."""
    try:
        with obs.enabled_scope(True):
            result = start_campaign(directory, cfg, pol, chaos)
    finally:
        obs.reset_all()
    return result, Manifest.load(directory).obs["metrics"]["counters"]


class TestWorkerReuse:
    """Each worker runs chunks until an attempt fails; the count shows it."""

    @pytest.mark.parametrize("chunks, workers, spec, started", [
        (16, 2, None, 2),  # both workers run every chunk
        (16, 2, "crash:1", 3),  # the crashed worker is replaced once
        (4, 1, "raise:0", 2),  # a failed worker is never reused
    ])
    def test_workers_started(self, tmp_path, chunks, workers, spec, started):
        cfg = config(trials=chunks * CHUNK)
        chaos = ChaosSchedule.parse(spec) if spec else None
        result, counters = obs_on_campaign(
            tmp_path / "on", cfg, policy(workers=workers), chaos
        )
        assert counters["campaign.workers_started"] == started
        plain = start_campaign(tmp_path / "off", cfg, policy(workers=workers), chaos)
        assert result.complete and plain.complete
        assert counts(result.tally) == counts(plain.tally)

    def test_worker_that_died_while_idle_is_replaced(self, pair_scheme, reference):
        # kill the only worker while it waits for its second chunk: the
        # failed send forks a replacement, and no attempt is charged for it
        plan = config().build_plan()
        killed = []

        def kill_idle_worker(spec, tally, attempts, span):
            if not killed:
                for child in multiprocessing.active_children():
                    child.kill()
                    child.join(timeout=10)
                    killed.append(child)

        sup = Supervisor("iid", pair_scheme, RATES, plan.config, policy(),
                         on_success=kill_idle_worker)
        with obs.enabled_scope(True):
            outcomes = sup.run(list(plan.chunks))
            counters = obs.snapshot()["counters"]
        obs.reset_all()
        assert len(killed) == 1
        assert counters["campaign.workers_started"] == 2
        assert "campaign.failures.crash" not in counters
        assert [o.attempts for o in outcomes.values()] == [1] * len(plan.chunks)
        merged = outcomes[0].tally
        for index in range(1, len(plan.chunks)):
            merged = merged.merge(outcomes[index].tally)
        assert counts(merged) == counts(reference)


class TestWorkerLifecycle:
    """No worker process outlives a run, however the run ends."""

    @pytest.mark.parametrize("spec, overrides, raises", [
        (None, {}, None),
        ("abort:2", {"workers": 2}, CampaignAborted),
        ("raise:1@0|1", {"workers": 2, "retries": 1}, None),  # quarantined
        ("hang:0", {"timeout": 0.5, "retries": 0}, None),  # timed out
    ])
    def test_no_child_survives_run(self, tmp_path, spec, overrides, raises):
        chaos = ChaosSchedule.parse(spec) if spec else None
        if raises is None:
            start_campaign(tmp_path, config(), policy(**overrides), chaos)
        else:
            with pytest.raises(raises):
                start_campaign(tmp_path, config(), policy(**overrides), chaos)
        assert multiprocessing.active_children() == []

    def test_spawned_workers_match_forked_bit_for_bit(self, tmp_path, monkeypatch):
        # workers get everything they need as picklable arguments; nothing
        # relies on state inherited at fork
        cfg = config(trials=2 * CHUNK)
        forked = start_campaign(tmp_path / "fork", cfg, policy())
        monkeypatch.setattr(supervisor, "_mp_context",
                            lambda: multiprocessing.get_context("spawn"))
        spawned = start_campaign(tmp_path / "spawn", cfg, policy())
        assert forked.complete and spawned.complete
        assert counts(spawned.tally) == counts(forked.tally)
        assert multiprocessing.active_children() == []


class TestLegacyManifest:
    def test_manifest_with_engine_fields_resumes_to_same_tally(
        self, tmp_path, reference
    ):
        # Manifests written before the engine name was retired carry an
        # "engine" key per chunk record, "sequential" after a degraded
        # retry.  They still load, and a resume finishes them bit-identically.
        with pytest.raises(CampaignAborted):
            start_campaign(tmp_path, config(), policy(), ChaosSchedule.parse("abort:2"))
        path = tmp_path / "manifest.json"
        raw = json.loads(path.read_text())
        for index, engine in zip(sorted(raw["chunks"]), ("batched", "sequential")):
            raw["chunks"][index]["engine"] = engine
        path.write_text(json.dumps(raw))
        assert campaign_status(tmp_path)["chunks_done"] == 2
        result = resume_campaign(tmp_path, policy())
        assert result.complete
        assert counts(result.tally) == counts(reference)
        rewritten = json.loads(path.read_text())
        assert all("engine" not in rec for rec in rewritten["chunks"].values())


class TestResumeRefusals:
    def test_mismatched_config_refused(self, tmp_path):
        chaos = ChaosSchedule.parse("abort:1")
        with pytest.raises(CampaignAborted):
            start_campaign(tmp_path, config(), policy(), chaos)
        with pytest.raises(EngineMismatch):
            start_campaign(tmp_path, config(seed=SEED + 1), policy())
        with pytest.raises(EngineMismatch):
            start_campaign(
                tmp_path, config(rates=DEFAULT_RATES.with_ber(1e-6)), policy()
            )

    def test_resume_without_manifest_refused(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign manifest"):
            resume_campaign(tmp_path)

    def test_operational_knobs_do_not_affect_fingerprint(self, tmp_path, reference):
        # workers/timeout/retries may change between run and resume freely.
        chaos = ChaosSchedule.parse("abort:2")
        with pytest.raises(CampaignAborted):
            start_campaign(tmp_path, config(), policy(workers=1), chaos)
        result = resume_campaign(
            tmp_path, policy(workers=4, timeout=10.0, retries=0)
        )
        assert result.complete
        assert counts(result.tally) == counts(reference)


class TestValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign kind"):
            config(kind="bogus")
        with pytest.raises(ValueError, match="unknown fault type"):
            config(kind="single:bogus")

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError):
            config(trials=0)

    @pytest.mark.parametrize("field, value", [
        ("workers", 0), ("workers", -1), ("retries", -1),
        ("timeout", 0.0), ("timeout", -1.0), ("timeout", math.nan),
        ("timeout", math.inf), ("backoff", -0.5), ("backoff", math.nan),
        ("backoff_cap", math.inf), ("term_grace", -1.0),
        ("manifest_save_every", 0),
    ])
    def test_bad_policy_names_field_and_value(self, field, value):
        with pytest.raises(ValueError) as excinfo:
            SupervisorPolicy(**{field: value})
        assert f"SupervisorPolicy.{field}" in str(excinfo.value)
        assert repr(value) in str(excinfo.value)

    def test_policy_edge_values_accepted(self):
        SupervisorPolicy(workers=1, timeout=1e-3, retries=0, backoff=0.0,
                         backoff_cap=0.0, term_grace=0.0, manifest_save_every=1)

    def test_unknown_scheme_surfaces(self, tmp_path):
        with pytest.raises(CampaignError, match="unknown scheme"):
            start_campaign(tmp_path, config(scheme="nope"), policy())

    def test_unknown_scheme_names_the_line_up(self):
        names = sorted(s.name for s in default_schemes())
        with pytest.raises(CampaignError) as excinfo:
            config(scheme="nope").build_scheme()
        assert str(excinfo.value) == f"unknown scheme 'nope'; have {names}"

    def test_builds_only_the_named_scheme(self, monkeypatch):
        built = []
        for cls in DEFAULT_SCHEME_CLASSES:
            monkeypatch.setattr(
                cls, "__init__",
                lambda self, *a, _init=cls.__init__, **kw: (
                    built.append(type(self).name), _init(self, *a, **kw))[1],
            )
        for scheme in default_schemes():
            built.clear()
            got = config(scheme=scheme.name).build_scheme()
            assert type(got) is type(scheme)
            assert set(built) == {scheme.name}
