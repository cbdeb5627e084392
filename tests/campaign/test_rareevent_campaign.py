"""Rare-event campaigns: weighted tallies through crash, resume and fleet.

The weighted accumulator rides ``Tally.extra["weighted"]`` through every
process boundary the campaign stack has - worker wire, manifest JSON,
fleet frames.  A resumed campaign must reproduce the uninterrupted run
*including* the log-space weight sums bit for bit, and the proposal
parameters (tilt, defensive mass) must be pinned by the manifest
fingerprint so a resume under a different proposal is refused rather
than silently merged into a biased estimate.
"""

import json

import pytest

from repro import obs
from repro.campaign import (
    CampaignConfig,
    ChaosSchedule,
    Manifest,
    SupervisorPolicy,
    resume_campaign,
    start_campaign,
)
from repro.campaign.manifest import MANIFEST_NAME
from repro.errors import CampaignAborted, EngineMismatch
from repro.faults import DEFAULT_RATES
from repro.galois import batch as gf_batch
from repro.obs import metrics
from repro.reliability import (
    ExactRunConfig,
    RareEventParams,
    conditional,
    run_rareevent_iid,
    weighted_summary,
)
from repro.schemes import default_schemes

BER, TRIALS, SEED, CHUNK = 1e-4, 8_192, 7, 2_048  # -> 4 chunks
RATES = DEFAULT_RATES.pure_ber(BER)
TILT, DEFENSIVE, SAMPLES = 3.5, 0.05, 120


def counts(tally):
    return (tally.ok, tally.ce, tally.due, tally.sdc)


def config(**overrides):
    base = dict(scheme="pair", kind="rareevent", trials=TRIALS, seed=SEED,
                chunk_trials=CHUNK, rates=RATES, tilt=TILT,
                defensive=DEFENSIVE, rare_samples=SAMPLES)
    base.update(overrides)
    return CampaignConfig(**base)


def cold():
    """Empty the table and GF caches, as a fresh process starts."""
    conditional.clear_cache()
    gf_batch.clear_cache()


def policy(**overrides):
    base = dict(workers=1, timeout=30.0, retries=2, backoff=0.01)
    base.update(overrides)
    return SupervisorPolicy(**base)


@pytest.fixture(scope="module")
def pair_scheme():
    return next(s for s in default_schemes() if s.name == "pair")


def engine_run(scheme):
    """Uninterrupted in-process engine run with the campaign's chunking."""
    return run_rareevent_iid(
        scheme, RATES, ExactRunConfig(trials=TRIALS, seed=SEED),
        RareEventParams(tilt=TILT, defensive=DEFENSIVE, samples=SAMPLES),
        chunk_trials=CHUNK,
    )


@pytest.fixture(scope="module")
def reference(pair_scheme):
    return engine_run(pair_scheme)


class TestHappyPath:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_bit_identical_to_engine(self, tmp_path, reference, workers):
        result = start_campaign(tmp_path, config(), policy(workers=workers))
        assert result.complete
        assert counts(result.tally) == counts(reference.tally)
        assert result.tally.extra["weighted"] == \
            reference.tally.extra["weighted"]

    def test_fingerprint_carries_proposal_params(self, tmp_path):
        start_campaign(tmp_path, config(), policy())
        raw = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert raw["config"]["rareevent"] == {
            "tilt": TILT, "defensive": DEFENSIVE, "samples": SAMPLES,
            "table_seed": 0,
        }

    def test_tilt_zero_falls_back_to_iid_chunking(self, tmp_path, pair_scheme):
        from repro.reliability import run_iid_batched

        ref = run_iid_batched(
            pair_scheme, RATES, ExactRunConfig(trials=64, seed=3)
        )
        result = start_campaign(
            tmp_path, config(trials=64, seed=3, chunk_trials=16, tilt=0.0),
            policy(),
        )
        assert result.complete
        assert counts(result.tally) == counts(ref)


class TestChaosResume:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_resume_bit_identical_including_weights(
        self, tmp_path, reference, workers
    ):
        chaos = ChaosSchedule.parse("crash:1,abort:2")
        with pytest.raises(CampaignAborted):
            start_campaign(tmp_path, config(), policy(workers=workers), chaos)
        result = resume_campaign(tmp_path, policy(workers=workers))
        assert result.complete
        assert counts(result.tally) == counts(reference.tally)
        assert result.tally.extra["weighted"] == \
            reference.tally.extra["weighted"]
        # and the estimates derived from the resumed accumulator match
        est = weighted_summary(result.tally.extra["weighted"])
        ref = reference.estimates()["outcomes"]["fail"]
        assert est["outcomes"]["fail"]["p_ht"] == ref["p_ht"]

    def test_weighted_extras_survive_manifest_round_trip(self, tmp_path):
        chaos = ChaosSchedule.parse("abort:2")
        with pytest.raises(CampaignAborted):
            start_campaign(tmp_path, config(), policy(), chaos)
        manifest = Manifest.load(tmp_path)
        assert manifest.chunks  # only committed chunks live in the manifest
        for rec in manifest.chunks.values():
            weighted = rec.tally().extra["weighted"]
            assert weighted["tilt"] == TILT
            assert weighted["n"] == CHUNK

    def test_changed_tilt_refused(self, tmp_path):
        with pytest.raises(CampaignAborted):
            start_campaign(tmp_path, config(), policy(),
                           ChaosSchedule.parse("abort:1"))
        with pytest.raises(EngineMismatch):
            start_campaign(tmp_path, config(tilt=TILT + 0.5), policy())
        with pytest.raises(EngineMismatch):
            start_campaign(tmp_path, config(defensive=0.2), policy())
        with pytest.raises(EngineMismatch):
            start_campaign(tmp_path, config(rare_samples=SAMPLES + 1),
                           policy())


class TestColdCaches:
    """The parent measures the tables once and forked workers inherit them.

    The module's ``reference`` fixture can warm the caches before a
    campaign runs, which would hide any warm/cold difference; here both
    sides start from empty caches.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_campaign_and_resume_bit_identical(
        self, tmp_path, pair_scheme, workers
    ):
        cold()
        reference = engine_run(pair_scheme)
        cold()
        whole = start_campaign(tmp_path / "whole", config(), policy(workers=workers))
        cold()
        with pytest.raises(CampaignAborted):
            start_campaign(tmp_path / "resumed", config(), policy(workers=workers),
                           ChaosSchedule.parse("abort:2"))
        cold()
        resumed = resume_campaign(tmp_path / "resumed", policy(workers=workers))
        for result in (whole, resumed):
            assert result.complete
            assert counts(result.tally) == counts(reference.tally)
            assert result.tally.extra["weighted"] == \
                reference.tally.extra["weighted"]

    def test_tables_measured_once_in_the_parent(self, tmp_path, monkeypatch):
        # every worker snapshot the parent absorbs is recorded, so a table
        # measured inside a worker cannot hide in the merged counters
        absorbed = []
        absorb = metrics.absorb

        def spy(snap):
            absorbed.append(snap)
            absorb(snap)

        monkeypatch.setattr(metrics, "absorb", spy)
        cold()
        try:
            with obs.enabled_scope(True):
                result = start_campaign(tmp_path, config(), policy(workers=2))
        finally:
            obs.reset_all()
        assert result.complete
        merged = Manifest.load(tmp_path).obs["metrics"]["counters"]
        assert merged["reliability.tables.built"] == 1
        assert len(absorbed) == TRIALS // CHUNK
        for snap in absorbed:
            assert "reliability.tables.built" not in snap["counters"]
            assert snap["counters"]["reliability.tables.reused"] >= 1


class TestConfigValidation:
    def test_tilt_requires_rareevent_kind(self):
        with pytest.raises(ValueError, match="rareevent"):
            CampaignConfig(scheme="pair", trials=8, seed=0, chunk_trials=4,
                           rates=RATES, kind="iid", tilt=1.0)

    def test_defensive_range_checked(self):
        with pytest.raises(ValueError, match="defensive"):
            config(defensive=1.0)

    def test_structured_rates_refused_in_plan(self, tmp_path):
        bad = config(rates=DEFAULT_RATES.with_ber(BER))
        with pytest.raises(ValueError, match="structured"):
            start_campaign(tmp_path, bad, policy())
