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
import pickle

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
from repro.reliability import (
    ExactRunConfig,
    RareEventParams,
    conditional,
    rareevent,
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
    """Workers start from cold caches and still agree bit for bit.

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

    @pytest.mark.parametrize("workers", [1, 4])
    def test_bit_code_law_built_in_the_planner(self, tmp_path, workers):
        # XED's law measures a Hamming table (PAIR's measures none); the
        # planner builds it and every chunk reads it from its payload
        xed = next(s for s in default_schemes() if s.name == "xed")
        cold()
        reference = engine_run(xed)
        cold()
        whole = start_campaign(tmp_path / "whole", config(scheme="xed"),
                               policy(workers=workers))
        cold()
        with pytest.raises(CampaignAborted):
            start_campaign(tmp_path / "resumed", config(scheme="xed"),
                           policy(workers=workers), ChaosSchedule.parse("abort:2"))
        cold()
        resumed = resume_campaign(tmp_path / "resumed", policy(workers=workers))
        for result in (whole, resumed):
            assert result.complete
            assert counts(result.tally) == counts(reference.tally)
            assert result.tally.extra["weighted"] == \
                reference.tally.extra["weighted"]

    def test_workers_build_no_table(self, tmp_path):
        # the law rides in each payload, so no worker measures or looks up
        # a table, even for a bit-code scheme
        cold()
        try:
            with obs.enabled_scope(True):
                result = start_campaign(tmp_path, config(scheme="xed"),
                                        policy(workers=2))
        finally:
            obs.reset_all()
        assert result.complete
        merged = Manifest.load(tmp_path).obs["metrics"]["counters"]
        assert merged["rareevent.proposals"] == TRIALS  # the workers' counters
        assert (merged.get("reliability.tables.built", 0)
                + merged.get("reliability.tables.reused", 0)) == 0


class TestOneStatement:
    """The direct run and the campaign plan through one chunker."""

    @pytest.fixture
    def law_calls(self, monkeypatch):
        calls = []
        real = rareevent.line_law

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(rareevent, "line_law", counting)
        return calls

    @pytest.fixture
    def table_calls(self, monkeypatch):
        calls = []
        real = rareevent.count_tables

        def counting(law, q_tilt):
            calls.append(law.scheme)
            return real(law, q_tilt)

        monkeypatch.setattr(rareevent, "count_tables", counting)
        return calls

    def test_run_builds_the_law_once(self, pair_scheme, law_calls, table_calls):
        result = run_rareevent_iid(
            pair_scheme, RATES, ExactRunConfig(trials=16 * 512, seed=SEED),
            RareEventParams(tilt=TILT, samples=SAMPLES), chunk_trials=512,
        )
        assert result.tally.extra["weighted"]["n"] == 16 * 512
        assert law_calls == ["pair"]
        assert table_calls == ["pair"]  # and no chunk built its own

    def test_plan_builds_the_law_once(self, law_calls, table_calls):
        plan = config().build_plan()
        assert len(plan.chunks) == TRIALS // CHUNK
        assert law_calls == ["pair"]
        assert table_calls == ["pair"]
        for key in ("law", "tables"):
            assert {id(spec.payload[key]) for spec in plan.chunks} == \
                {id(plan.chunks[0].payload[key])}

    def test_plan_payloads_are_the_run_payloads(self, pair_scheme):
        plan = config().build_plan()
        payloads = rareevent.rareevent_chunks(
            pair_scheme, RATES, ExactRunConfig(trials=TRIALS, seed=SEED),
            RareEventParams(tilt=TILT, defensive=DEFENSIVE, samples=SAMPLES), CHUNK,
        )
        assert plan.kind == "rareevent"
        assert [spec.payload["start"] for spec in plan.chunks] == \
            [p["start"] for p in payloads]
        for spec, payload in zip(plan.chunks, payloads):
            assert spec.payload.keys() == payload.keys() == \
                {"start", "trials", "tilt", "defensive", "law", "tables"}
            assert spec.trials == payload["trials"]
            for key in ("law", "tables"):
                assert pickle.dumps(spec.payload[key]) == pickle.dumps(payload[key])

    def test_zero_tilt_plans_iid_chunks(self):
        assert config(tilt=0.0).build_plan().kind == "iid"

    def test_proposal_defaults_are_the_engine_defaults(self):
        engine = RareEventParams()
        assert (CampaignConfig.defensive, CampaignConfig.rare_samples,
                CampaignConfig.rare_table_seed) == \
            (engine.defensive, engine.samples, engine.table_seed)
        raw = config().fingerprint_dict()
        del raw["rareevent"]
        restored = CampaignConfig.from_manifest_dict(raw)
        assert (restored.tilt, restored.defensive, restored.rare_samples,
                restored.rare_table_seed) == (0.0, engine.defensive,
                                              engine.samples, engine.table_seed)


class TestConfigValidation:
    def test_tilt_requires_rareevent_kind(self):
        with pytest.raises(ValueError, match="rareevent"):
            CampaignConfig(scheme="pair", trials=8, seed=0, chunk_trials=4,
                           rates=RATES, kind="iid", tilt=1.0)

    def test_defensive_range_checked(self):
        with pytest.raises(ValueError, match="defensive"):
            config(defensive=1.0)

    @pytest.mark.parametrize("bad, match", [
        ({"tilt": float("inf")}, "tilt must be finite"),
        ({"tilt": float("nan")}, "tilt must be finite"),
        ({"rare_samples": 0}, "samples must be positive"),
    ])
    def test_proposal_checked_by_the_engine_params(self, bad, match):
        with pytest.raises(ValueError, match=match):
            config(**bad)

    def test_structured_rates_refused_in_plan(self, tmp_path):
        bad = config(rates=DEFAULT_RATES.with_ber(BER))
        with pytest.raises(ValueError, match="structured"):
            start_campaign(tmp_path, bad, policy())
