"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestInfo:
    def test_default_lineup(self, capsys):
        main(["info"])
        out = capsys.readouterr().out
        for name in ("no-ecc", "iecc-sec", "xed", "duo", "pair"):
            assert name in out

    def test_scheme_subset(self, capsys):
        main(["info", "--schemes", "pair", "xed"])
        out = capsys.readouterr().out
        assert "pair" in out and "xed" in out
        assert "duo" not in out

    def test_unknown_scheme_exits(self):
        with pytest.raises(SystemExit):
            main(["info", "--schemes", "nope"])


class TestReliability:
    def test_sweep_outputs_table(self, capsys):
        main(["reliability", "--bers", "1e-4", "--samples", "150",
              "--schemes", "no-ecc", "iecc-sec"])
        out = capsys.readouterr().out
        assert "failure probability" in out
        assert "1e-04" in out


    @pytest.mark.parametrize("ber, scheme", [("0.999", "iecc-sec"), ("1.0", "pair")])
    def test_certain_failure_prints_one(self, capsys, ber, scheme):
        main(["reliability", "--bers", ber, "--samples", "50", "--schemes", scheme])
        row = capsys.readouterr().out.splitlines()[-1]
        assert row.split("|")[1].strip() == "1.00e+00", row


class TestPerf:
    def test_single_workload(self, capsys):
        main(["perf", "--workloads", "balanced", "--schemes", "pair", "xed"])
        out = capsys.readouterr().out
        assert "balanced" in out
        assert "throughput" in out

    def test_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            main(["perf", "--workloads", "nope"])

    def test_help_lists_every_workload(self, capsys):
        from repro.perf import WORKLOADS

        with pytest.raises(SystemExit):
            main(["perf", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"subset of: {' '.join(sorted(WORKLOADS))} (default: all)" in help_text

    def test_geomean_printed_for_multiple(self, capsys):
        main(["perf", "--workloads", "balanced", "random-read",
              "--schemes", "pair"])
        out = capsys.readouterr().out
        assert "geomean" in out


class TestBurst:
    def test_burst_coverage(self, capsys):
        main(["burst", "--lengths", "4", "12", "--trials", "4",
              "--schemes", "pair", "duo"])
        out = capsys.readouterr().out
        assert "surviving" in out
        lines = [l for l in out.splitlines() if l.startswith(("4 ", "12"))]
        assert len(lines) == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestEnergy:
    def test_energy_table(self, capsys):
        main(["energy", "--schemes", "pair", "duo"])
        out = capsys.readouterr().out
        assert "read_nj" in out
        assert "pair" in out and "duo" in out


class TestHeadroom:
    def test_headroom_table(self, capsys):
        main(["headroom", "--targets", "1e-12", "--samples", "100",
              "--schemes", "iecc-sec", "pair"])
        out = capsys.readouterr().out
        assert "tolerable" in out
        assert "1e-12" in out

    def test_below_the_search_floor(self, capsys):
        # the weak schemes fail 1e-18 even at BER 1e-10, and no scheme
        # meets a zero budget: the table says so instead of printing 1e-10
        main(["headroom", "--targets", "1e-18", "0", "--samples", "100"])
        rows = {line.split("|")[0].strip(): [c.strip() for c in line.split("|")[1:]]
                for line in capsys.readouterr().out.splitlines() if "|" in line}
        header = rows["failure_target"]
        deep = dict(zip(header, rows["1e-18"]))
        assert deep["iecc-sec"] == deep["xed"] == "< 1e-10"
        assert deep["pair"] != "< 1e-10" and float(deep["pair"]) > 1e-10
        assert set(rows["0e+00"]) == {"< 1e-10"}
        assert "1.00e-10" not in str(rows)

    def test_no_ecc_excluded(self, capsys):
        main(["headroom", "--targets", "1e-12", "--samples", "80",
              "--schemes", "no-ecc", "iecc-sec"])
        out = capsys.readouterr().out
        lines = out.splitlines()
        header = next(l for l in lines if "failure_target" in l)
        assert "no-ecc" not in header


class TestCampaign:
    RUN = ["campaign", "run", "--scheme", "pair", "--trials", "16",
           "--chunk-trials", "8", "--seed", "2", "--backoff", "0.01"]

    def test_run_completes_and_reports(self, capsys, tmp_path):
        main(self.RUN + ["--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "chunks: 2/2 done" in out
        assert "trials: 16" in out

    def test_status_after_run(self, capsys, tmp_path):
        main(self.RUN + ["--dir", str(tmp_path)])
        capsys.readouterr()
        main(["campaign", "status", "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "complete       True" in out
        assert "fingerprint" in out

    def test_chaos_abort_exits_3_then_resume_finishes(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(self.RUN + ["--dir", str(tmp_path), "--chaos", "abort:1"])
        assert excinfo.value.code == 3
        capsys.readouterr()
        main(["campaign", "resume", "--dir", str(tmp_path), "--backoff", "0.01"])
        out = capsys.readouterr().out
        assert "chunks: 2/2 done" in out

    def test_resume_without_manifest_errors(self, tmp_path):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            main(["campaign", "resume", "--dir", str(tmp_path / "nope")])

    @pytest.mark.parametrize("flag, value, field", [
        ("--workers", "0", "workers"), ("--timeout", "0", "timeout"),
    ])
    def test_bad_policy_exits_before_writing_a_manifest(self, tmp_path, flag, value,
                                                         field):
        directory = tmp_path / "c"
        with pytest.raises(SystemExit) as excinfo:
            main(self.RUN + ["--dir", str(directory), flag, value])
        assert f"SupervisorPolicy.{field} must be" in str(excinfo.value.code)
        assert not directory.exists()

    def test_bad_policy_refused_on_resume(self, tmp_path):
        with pytest.raises(SystemExit, match="SupervisorPolicy.workers must be"):
            main(["campaign", "resume", "--dir", str(tmp_path), "--workers", "0"])

    @pytest.mark.parametrize("command", ["run", "resume"])
    @pytest.mark.parametrize("spec", ["crash:-1", "explode:1", "hang:0@x"])
    def test_bad_chaos_exits_before_writing_a_manifest(self, tmp_path, command, spec):
        directory = tmp_path / "c"
        argv = self.RUN if command == "run" else ["campaign", "resume"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--dir", str(directory), "--chaos", spec])
        message = str(excinfo.value.code)
        assert message.startswith("campaign: ") and "chaos" in message
        assert "\n" not in message
        assert not directory.exists()

    def test_bad_chaos_and_policy_print_no_traceback(self, tmp_path):
        import subprocess
        import sys

        for argv in (
            ["campaign", "run", "--dir", str(tmp_path / "a"), "--chaos", "crash:-1"],
            ["fleet", "serve", "--dir", str(tmp_path / "b"), "--retries", "-1",
             "--degrade-after", "0.1"],
        ):
            proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode != 0
            assert "Traceback" not in proc.stderr
            assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_incomplete_campaign_exits_nonzero(self, capsys, tmp_path):
        # a persistently crashing chunk leaves the campaign incomplete
        with pytest.raises(SystemExit) as excinfo:
            main(self.RUN + ["--dir", str(tmp_path), "--retries", "0",
                             "--chaos", "crash:0"])
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert "quarantined" in out


class TestFleet:
    CONFIG = ["--scheme", "pair", "--trials", "16", "--chunk-trials", "8",
              "--seed", "2"]

    def serve_degraded(self, tmp_path, *extra):
        # zero workers + --degrade-after: the scheduler falls back to the
        # in-process supervisor, which keeps these tests single-process
        main(["fleet", "serve", "--dir", str(tmp_path / "c"), *self.CONFIG,
              "--degrade-after", "0.1", "--backoff", "0.01", *extra])

    def test_serve_degraded_completes(self, capsys, tmp_path):
        self.serve_degraded(tmp_path)
        out = capsys.readouterr().out
        assert "chunks: 2/2 done" in out
        assert "trials: 16" in out

    def test_status_reports_scheduler_state(self, capsys, tmp_path):
        self.serve_degraded(tmp_path)
        capsys.readouterr()
        main(["fleet", "status", "--dir", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert "complete       True" in out
        assert "scheduler      complete" in out
        assert "0 active" in out
        assert "agents_seen    -" in out

    def test_status_json_round_trips(self, capsys, tmp_path):
        import json

        self.serve_degraded(tmp_path)
        capsys.readouterr()
        main(["fleet", "status", "--dir", str(tmp_path / "c"), "--json"])
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] is True
        assert status["fleet"]["state"] == "complete"
        assert status["fleet"]["leases"]["granted"] == 0

    def test_submit_miss_runs_then_hit_is_instant(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        main(["fleet", "submit", "--dir", str(tmp_path / "a"),
              "--cache-dir", cache, *self.CONFIG])
        first = capsys.readouterr().out
        assert "cache miss" in first and "chunks: 2/2 done" in first
        # identical config, different directory: answered from the cache
        main(["fleet", "submit", "--dir", str(tmp_path / "b"),
              "--cache-dir", cache, *self.CONFIG])
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert not (tmp_path / "b").exists()  # no campaign was run

    def test_serve_then_submit_shares_the_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        self.serve_degraded(tmp_path, "--cache-dir", cache)
        capsys.readouterr()
        main(["fleet", "submit", "--dir", str(tmp_path / "other"),
              "--cache-dir", cache, *self.CONFIG])
        assert "cache hit" in capsys.readouterr().out

    def test_worker_requires_an_endpoint(self):
        with pytest.raises(SystemExit, match="--dir or --connect"):
            main(["fleet", "worker", "--name", "w0"])

    def test_worker_rejects_malformed_connect(self):
        with pytest.raises(SystemExit, match="want HOST:PORT"):
            main(["fleet", "worker", "--name", "w0", "--connect", "nonsense"])

    @pytest.mark.parametrize("flags, field", [
        (["--retries", "-1"], "retries"), (["--heartbeat", "10"], "heartbeat_interval"),
        (["--lease-timeout", "0"], "lease_timeout"), (["--port", "70000"], "port"),
        (["--steal-copies", "0"], "steal_copies"), (["--backoff", "nan"], "backoff"),
    ])
    def test_bad_policy_exits_before_writing_a_manifest(self, tmp_path, flags, field):
        with pytest.raises(SystemExit) as excinfo:
            self.serve_degraded(tmp_path, *flags)
        message = str(excinfo.value.code)
        assert message.startswith(f"fleet: FleetPolicy.{field} must be")
        assert "\n" not in message
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("argv", [
        ["fleet", "serve", "--degrade-after", "0.1"],
        ["fleet", "worker", "--name", "w0"],
    ])
    def test_bad_chaos_exits_with_one_line(self, tmp_path, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--dir", str(tmp_path / "c"), "--chaos", "kill:w0@-1"])
        message = str(excinfo.value.code)
        assert message.startswith("fleet: chaos item 'kill:w0@-1'")
        assert "\n" not in message
        assert not (tmp_path / "c").exists()

    def test_worker_against_no_scheduler_exits_1(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "worker", "--name", "w0",
                  "--connect", "127.0.0.1:1", "--connect-timeout", "0.2"])
        assert excinfo.value.code == 1
        assert "could not reach" in capsys.readouterr().out


AUTO_TILT_ZERO = ["--kind", "rareevent", "--scheme", "duo", "--ber", "0.02",
                  "--tilt", "auto", "--trials", "512"]


class TestRareEvent:
    RUN = ["rareevent", "--trials", "4096", "--samples", "50", "--json"]

    @pytest.mark.parametrize("argv, message", [
        (["--defensive", "1.5"], "defensive mass must be in [0, 1)"),
        (["--tilt", "nan"], "tilt must be finite"),
        (["--tilt", "auto", "--schemes", "duo", "--ber", "0.02"], "resolved tilt is 0"),
    ])
    def test_bad_parameter_exits_with_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(self.RUN + argv)
        text = str(excinfo.value.code)
        assert text.startswith("rareevent: ") and message in text, text
        assert "\n" not in text
        assert capsys.readouterr().out == ""

    def test_one_table_seed_for_every_estimate(self, capsys):
        import json

        from repro.faults import DEFAULT_RATES
        from repro.reliability import (
            ExactRunConfig,
            RareEventParams,
            build_model,
            run_rareevent_iid,
            run_splitting_iid,
        )
        from repro.schemes import Xed

        xed, rates = Xed(), DEFAULT_RATES.pure_ber(1e-4)
        main(self.RUN + ["--schemes", "xed", "--seed", "5"])
        row = json.loads(capsys.readouterr().out)["schemes"]["xed"]
        direct = run_rareevent_iid(
            xed, rates, ExactRunConfig(trials=4096, seed=5),
            RareEventParams(samples=50, table_seed=5),
        )
        assert row["p_fail"] == direct.estimates()["outcomes"]["fail"]["p_ht"]
        ref = build_model(xed, samples=50, seed=5).line_probs(1e-4)
        assert row["analytic_fail"] == ref["sdc"] + ref["due"]

        main(self.RUN + ["--schemes", "xed", "--seed", "5",
                         "--estimator", "splitting", "--effort", "256"])
        row = json.loads(capsys.readouterr().out)["schemes"]["xed"]
        split = run_splitting_iid(xed, rates, effort=256, seed=5, samples=50,
                                  table_seed=5)
        assert row["p_fail"] == split.p_fail

    def test_campaign_at_tilt_zero_is_the_exact_engine(self, capsys, tmp_path):
        # a rareevent campaign takes the pure weak-cell rates at every tilt
        import json
        from dataclasses import asdict

        from repro.campaign import Manifest
        from repro.faults import DEFAULT_RATES
        from repro.reliability import ExactRunConfig, run_iid_batched
        from repro.schemes import PairScheme

        main(["campaign", "run", "--dir", str(tmp_path), "--kind", "rareevent",
              "--scheme", "pair", "--ber", "1e-3", "--tilt", "0", "--trials", "64",
              "--chunk-trials", "16", "--seed", "3"])
        capsys.readouterr()
        manifest = Manifest.load(tmp_path)
        assert manifest.config["rates"] == asdict(DEFAULT_RATES.pure_ber(1e-3))
        tally = manifest.merged_tally()
        main(["rareevent", "--schemes", "pair", "--ber", "1e-3", "--tilt", "0",
              "--trials", "64", "--seed", "3", "--json"])
        row = json.loads(capsys.readouterr().out)["schemes"]["pair"]
        assert row["estimator"] == "exact"
        assert row["p_fail"] == (tally.due + tally.sdc) / 64
        direct = run_iid_batched(PairScheme(), DEFAULT_RATES.pure_ber(1e-3),
                                 ExactRunConfig(trials=64, seed=3))
        assert tally.as_dict() == direct.as_dict()


class TestZeroSizeRuns:
    @pytest.mark.parametrize("argv, message", [
        (["rareevent", "--trials", "0"], "rareevent: trials must be positive"),
        (["burst", "--trials", "0"], "burst: trials must be positive"),
        (["reliability", "--samples", "0"], "reliability: samples must be >= 1"),
        (["headroom", "--samples", "0"], "headroom: samples must be >= 1"),
    ])
    def test_exits_with_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        text = str(excinfo.value.code)
        assert text.startswith(message) and "\n" not in text, text
        assert capsys.readouterr().out == ""


class TestBadConfigFlags:
    """A bad campaign config flag exits with one line and writes nothing."""

    @pytest.mark.parametrize("argv", [
        ["campaign", "run", "--trials", "0"],
        ["campaign", "run", "--scheme", "nope"],
        ["fleet", "serve", "--degrade-after", "0.1", "--trials", "0"],
        ["fleet", "serve", "--degrade-after", "0.1", "--scheme", "nope"],
        ["fleet", "submit", "--trials", "0"],
        ["fleet", "submit", "--scheme", "nope"],
        # DUO's symbol rate at BER 0.02 already exceeds its failure radius,
        # so 'auto' resolves to 0: refused, not run as a decoder campaign
        ["campaign", "run", *AUTO_TILT_ZERO],
        ["fleet", "serve", "--degrade-after", "0.1", *AUTO_TILT_ZERO],
    ])
    def test_exits_with_one_line_and_no_manifest(self, tmp_path, argv):
        import subprocess
        import sys

        directory, cache = tmp_path / "c", tmp_path / "cache"
        extra = ["--cache-dir", str(cache)] if argv[0] == "fleet" else []
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--dir", str(directory), *extra],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(f"{argv[0]}: "), lines[0]
        assert not directory.exists() and not cache.exists()
