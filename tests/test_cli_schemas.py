"""Golden-schema regression tests for the CLI's machine-readable outputs.

``--json`` payloads are a contract: downstream tooling (CI dashboards,
result scrapers) keys off exact field names.  These tests pin the key sets
and value types of every JSON surface - ``report --json``,
``campaign status --json``, ``check --json``, and ``obs report --json`` -
so a rename or a dropped field fails loudly here instead of silently
breaking a consumer.

Golden key sets are asserted with ``==`` (not ``<=``): adding a field is
also a schema change and should be a conscious one (update the golden set
and bump ``SNAPSHOT_VERSION`` where the obs payloads are involved).
"""

import json

import pytest

from repro.cli import main
from repro.obs.metrics import SNAPSHOT_VERSION

CAMPAIGN_ARGS = ["--scheme", "pair", "--trials", "16", "--chunk-trials", "8",
                 "--seed", "2", "--backoff", "0.01"]


def run_json(capsys, argv):
    main(argv)
    out = capsys.readouterr().out
    payload = json.loads(out)
    # --json output must be exactly one parseable document, nothing else
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    return payload


class TestReportManifestSchema:
    def test_golden_keys(self, capsys):
        payload = run_json(capsys, ["report", "--json"])
        assert set(payload) == {
            "kind", "settings", "samples", "burst_trials", "trace_requests",
            "schemes", "sections",
        }
        assert payload["kind"] == "report_manifest"
        assert payload["settings"] == "quick"
        assert payload["schemes"] == ["no-ecc", "iecc-sec", "xed", "duo", "pair"]
        assert payload["sections"] == [
            "configurations", "reliability", "performance", "bursts",
            "overheads", "headroom",
        ]
        for field in ("samples", "burst_trials", "trace_requests"):
            assert isinstance(payload[field], int) and payload[field] > 0

    def test_full_flag_changes_settings_only(self, capsys):
        quick = run_json(capsys, ["report", "--json"])
        full = run_json(capsys, ["report", "--json", "--full"])
        assert full["settings"] == "full"
        assert set(full) == set(quick)
        assert full["samples"] > quick["samples"]


class TestCampaignStatusSchema:
    @pytest.fixture(scope="class")
    def campaign_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("campaign")
        main(["campaign", "run", "--dir", str(path)] + CAMPAIGN_ARGS)
        return path

    def test_golden_keys(self, capsys, campaign_dir):
        capsys.readouterr()
        payload = run_json(
            capsys, ["campaign", "status", "--dir", str(campaign_dir), "--json"]
        )
        assert set(payload) == {
            "path", "fingerprint", "scheme", "kind", "total_chunks",
            "chunks_done", "quarantined", "trials_done", "complete", "tally",
        }
        assert set(payload["tally"]) == {
            "trials", "ok", "ce", "due", "sdc", "sdc_rate", "due_rate",
        }
        assert payload["scheme"] == "pair"
        assert payload["kind"] == "iid"
        assert payload["complete"] is True
        assert payload["chunks_done"] == payload["total_chunks"] == 2
        assert payload["trials_done"] == payload["tally"]["trials"] == 16
        assert payload["quarantined"] == []
        assert isinstance(payload["fingerprint"], str) and payload["fingerprint"]


class TestCheckSchema:
    def test_golden_keys_clean(self, capsys, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        payload = run_json(
            capsys,
            ["check", str(tmp_path), "--json",
             "--baseline", str(tmp_path / "bl.json")],
        )
        assert set(payload) == {
            "ok", "files_checked", "violation_count", "baseline_suppressed",
            "violations",
        }
        assert payload["ok"] is True
        assert payload["files_checked"] == 1
        assert payload["violation_count"] == 0
        assert payload["baseline_suppressed"] == 0
        assert payload["violations"] == []

    def test_golden_keys_dirty_and_exit_code(self, capsys, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["check", str(tmp_path), "--json",
                  "--baseline", str(tmp_path / "bl.json")])
        assert exc.value.code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["violation_count"] == 1
        (violation,) = payload["violations"]
        assert set(violation) == {"code", "path", "line", "col", "message", "hint"}
        assert violation["code"] == "REPRO101"
        assert violation["line"] == 2

    def test_update_baseline_then_clean(self, capsys, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        baseline = tmp_path / "bl.json"
        main(["check", str(tmp_path), "--baseline", str(baseline),
              "--update-baseline"])
        assert "1 finding(s) recorded" in capsys.readouterr().out
        payload = run_json(
            capsys, ["check", str(tmp_path), "--json", "--baseline", str(baseline)]
        )
        assert payload["ok"] is True
        assert payload["baseline_suppressed"] == 1

    def test_sarif_flag_writes_log(self, capsys, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        out = tmp_path / "log.sarif"
        main(["check", str(tmp_path), "--sarif", str(out),
              "--baseline", str(tmp_path / "bl.json")])
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-checkers"


class TestObsReportSchema:
    @pytest.fixture(scope="class")
    def obs_campaign(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs-campaign")
        export = path / "obs.jsonl"
        main(["campaign", "run", "--dir", str(path), "--obs-out", str(export)]
             + CAMPAIGN_ARGS)
        return path, export

    def assert_report_schema(self, payload):
        assert set(payload) == {
            "kind", "version", "snapshots", "counters", "gauges",
            "histograms", "agents", "spans", "profile",
        }
        assert payload["kind"] == "obs_report"
        assert payload["version"] == SNAPSHOT_VERSION
        assert set(payload["spans"]) == {"dropped", "aggregates"}
        for agg in payload["spans"]["aggregates"].values():
            assert set(agg) == {"count", "total_s", "max_s", "mean_s"}
        for hist in payload["histograms"].values():
            assert set(hist) == {"bounds", "counts", "total", "sum", "min", "max"}
            assert len(hist["counts"]) == len(hist["bounds"]) + 1
        for section in payload["agents"].values():
            assert set(section) == {"snapshots", "counters", "gauges"}

    def test_from_jsonl_export(self, capsys, obs_campaign):
        _, export = obs_campaign
        capsys.readouterr()
        payload = run_json(capsys, ["obs", "report", "--in", str(export), "--json"])
        self.assert_report_schema(payload)
        # the run must actually have recorded decoder activity
        assert payload["counters"]["campaign.chunks_ok"] == 2
        assert payload["counters"]["rs.decode.words"] > 0
        assert "campaign.chunk" in payload["spans"]["aggregates"]

    def test_from_campaign_directory(self, capsys, obs_campaign):
        path, _ = obs_campaign
        capsys.readouterr()
        payload = run_json(capsys, ["obs", "report", "--in", str(path), "--json"])
        self.assert_report_schema(payload)
        # manifest-side view carries the per-chunk spans and merged metrics
        assert payload["spans"]["aggregates"]["campaign.chunk"]["count"] == 2
        assert payload["counters"]["reliability.chunks"] == 2

    def test_missing_input_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["obs", "report", "--in", str(tmp_path / "nope.jsonl")])


WATCH_KEYS = {
    "kind", "version", "state", "chunks_done", "total_chunks", "backlog",
    "quarantined", "fleet_rate", "eta_s", "lease_churn", "telemetry_frames",
    "agents", "counters", "gauges",
}


class TestWatchPayloadSchema:
    """``obs top --json`` and ``fleet status --watch --json`` emit the
    fleet watch payload; pin its key set from every CLI surface."""

    @pytest.fixture()
    def watch_dir(self, tmp_path):
        from repro.campaign.fleet import EventLog, FleetTelemetry
        from repro.obs import DeltaEncoder, Registry

        registry = Registry()
        registry.counter("reliability.trials").add(64)
        registry.gauge("rareevent.ess").set(41.5)
        encoder = DeltaEncoder("w0", registry=registry)
        telemetry = FleetTelemetry()
        telemetry.ingest("w0", encoder.delta("chunk-0"), now=1.0)
        telemetry.chunk_done("w0", duration_s=0.5, now=1.5)
        telemetry.chunk_done("w0", duration_s=0.5, now=2.0)
        payload = telemetry.watch_snapshot(
            state="complete", chunks_done=2, total_chunks=2, quarantined=0,
            leases={"active": [], "granted": 2, "expired": 0, "stolen": 0},
            now=2.5,
        )
        sidecar = {"state": "complete", "telemetry": payload}
        (tmp_path / "fleet.json").write_text(json.dumps(sidecar))
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("watch", payload=payload)
        log.close()
        return tmp_path

    def assert_watch_schema(self, payload):
        assert set(payload) == WATCH_KEYS
        assert payload["kind"] == "fleet_watch"
        assert payload["version"] == SNAPSHOT_VERSION
        assert set(payload["lease_churn"]) == {
            "active", "granted", "expired", "stolen",
        }
        for info in payload["agents"].values():
            assert set(info) == {
                "chunk_rate", "straggler_score", "chunks_done",
                "last_seen_age_s", "stream",
            }
            assert set(info["stream"]) == {
                "frames", "duplicates", "gaps", "last_seq",
            }

    def test_obs_top_json_from_dir(self, capsys, watch_dir):
        payload = run_json(
            capsys, ["obs", "top", "--dir", str(watch_dir), "--json"]
        )
        self.assert_watch_schema(payload)
        assert payload["counters"]["reliability.trials"] == 64
        assert payload["gauges"]["rareevent.ess"] == 41.5
        assert payload["agents"]["w0"]["chunks_done"] == 2

    def test_obs_top_json_from_events(self, capsys, watch_dir):
        payload = run_json(
            capsys,
            ["obs", "top", "--in", str(watch_dir / "events.jsonl"), "--json"],
        )
        self.assert_watch_schema(payload)

    def test_fleet_status_watch_json(self, capsys, watch_dir):
        payload = run_json(
            capsys,
            ["fleet", "status", "--dir", str(watch_dir), "--watch", "--json"],
        )
        self.assert_watch_schema(payload)

    def test_obs_top_renders_panels(self, capsys, watch_dir):
        main(["obs", "top", "--dir", str(watch_dir), "--once", "--no-color"])
        out = capsys.readouterr().out
        assert "repro fleet telemetry" in out
        assert "w0" in out
        assert "ESS" in out
        assert "\x1b[" not in out  # --no-color really is plain

    def test_missing_telemetry_exits_nonzero(self, tmp_path):
        (tmp_path / "fleet.json").write_text(json.dumps({"state": "serving"}))
        with pytest.raises(SystemExit) as exc:
            main(["obs", "top", "--dir", str(tmp_path), "--json"])
        assert exc.value.code == 1

    def test_exactly_one_source_required(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["obs", "top", "--json"])
        with pytest.raises(SystemExit):
            main(["obs", "top", "--dir", str(tmp_path), "--connect",
                  "localhost:9", "--json"])
