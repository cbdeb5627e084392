"""Command-line interface: ``python -m repro <command>``.

Twelve subcommands expose the library's engines without writing any code:

* ``info``                    - scheme/code configuration table (T1);
* ``reliability``             - analytic failure-probability sweep (F2);
* ``perf``                    - trace-driven performance comparison (F5);
* ``burst``                   - burst-error coverage (F4);
* ``energy``                  - per-access energy table (T3);
* ``headroom``                - max tolerable weak-cell BER per budget (F9);
* ``report``                  - regenerate the full markdown report;
* ``campaign``                - resilient long Monte-Carlo campaigns
  (``run`` / ``resume`` / ``status``) with checkpointing and retry;
* ``fleet``                   - the same campaigns sharded across worker
  agents over a socket protocol (``serve`` / ``worker`` / ``submit`` /
  ``status``) with leases, work-stealing, crash-safe restart, streamed
  live telemetry (``worker --stream``, ``status --watch``) and an
  OpenMetrics ``/metrics`` + JSON ``/status`` endpoint on the frame port;
* ``obs``                     - observability: merge and render metric/span
  exports (``report``), from an ``obs.jsonl`` or a campaign directory,
  plus a live ANSI fleet dashboard (``top``);
* ``check``                   - static invariant checks: per-file REPRO1xx
  rules plus the project-wide REPRO2xx dataflow tier, with a fingerprint
  baseline (``--baseline`` / ``--update-baseline``) and SARIF 2.1.0 export
  (``--sarif``).

Commands that execute engines (``perf``, ``burst``, ``campaign run`` /
``resume``) accept ``--obs-out obs.jsonl`` to enable the observability layer
for the run and export its snapshots; ``report`` and ``campaign status``
accept ``--json`` for machine-readable output.

Each command imports the engines it runs inside its handler, so parsing the
arguments loads no engine and ``campaign status`` or ``fleet worker`` never
loads the analytic models or the timing simulator.

Examples::

    python -m repro info
    python -m repro reliability --bers 1e-6 1e-5 1e-4
    python -m repro perf --workloads balanced write-heavy
    python -m repro burst --lengths 4 8 16 --trials 10
    python -m repro energy
    python -m repro headroom --targets 1e-15
    python -m repro campaign run --dir runs/pair-tail --scheme pair \
        --trials 1000000 --ber 1e-4 --workers 8 --obs-out runs/pair-tail/obs.jsonl
    python -m repro campaign resume --dir runs/pair-tail
    python -m repro campaign status --dir runs/pair-tail --json
    python -m repro fleet serve --dir runs/pair-tail --scheme pair --trials 1000000
    python -m repro fleet worker --name w0 --dir runs/pair-tail --stream
    python -m repro fleet status --dir runs/pair-tail --json
    python -m repro fleet status --dir runs/pair-tail --watch
    python -m repro obs top --dir runs/pair-tail
    python -m repro obs report --in runs/pair-tail
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .schemes import EccScheme

#: ``--samples`` sizes the decoder-measured conditional tables, which the RS
#: schemes (pair, duo) and no-ecc do not have.
_SAMPLES_HELP = ("decoder-conditional table samples; only the bit-code schemes "
                 "(xed, iecc-sec) read them")


def _obs_begin(args: argparse.Namespace) -> bool:
    """Enable observability for the run when ``--obs-out`` was given."""
    if not getattr(args, "obs_out", None):
        return False
    from . import obs

    obs.reset_all()
    obs.enable()
    return True


def _obs_finish(args: argparse.Namespace, label: str) -> None:
    """Export the run's snapshots to the ``--obs-out`` path (if any)."""
    if not getattr(args, "obs_out", None):
        return
    from . import obs

    path = obs.write_snapshots(
        args.obs_out, [obs.snapshot(label), obs.spans_snapshot(label)]
    )
    obs.disable()
    print(f"observability export written to {path}")


def _scheme_lineup(names: Sequence[str] | None) -> list[EccScheme]:
    from .schemes import default_schemes

    schemes = default_schemes()
    if not names:
        return schemes
    by_name = {s.name: s for s in schemes}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise SystemExit(f"unknown scheme(s) {unknown}; have {sorted(by_name)}")
    return [by_name[n] for n in names]


def cmd_info(args: argparse.Namespace) -> None:
    from .analysis import format_table

    rows = [s.description() for s in _scheme_lineup(args.schemes)]
    print(format_table(rows))


def cmd_reliability(args: argparse.Namespace) -> None:
    from .analysis import format_series
    from .reliability import build_model

    schemes = _scheme_lineup(args.schemes)
    models = {s.name: _or_exit("reliability", build_model, s, samples=args.samples)
              for s in schemes}
    series = {}
    for name, model in models.items():
        series[name] = [
            f"{sum(model.line_probs(b).values()):.2e}" for b in args.bers
        ]
    print("failure probability (SDC + DUE) per 64B read:")
    print(format_series("ber", [f"{b:.0e}" for b in args.bers], series))


def tilt(value: str) -> float | str:
    """``--tilt``: ``"auto"`` or a number (argparse names this in its error)."""
    return value if value == "auto" else float(value)


def cmd_rareevent(args: argparse.Namespace) -> None:
    import json as _json
    import time

    from .analysis import format_table
    from .faults import DEFAULT_RATES
    from .reliability import (
        AccessProfile,
        ExactRunConfig,
        RareEventParams,
        build_model,
        fit_interval,
        fit_rate,
        relative_reliability,
        run_rareevent_iid,
        run_splitting_iid,
    )

    schemes = _scheme_lineup(args.schemes)
    # one table seed for the sampler, the splitting run and the reference
    params = _or_exit("rareevent", RareEventParams, tilt=args.tilt,
                      defensive=args.defensive, samples=args.samples,
                      table_seed=args.seed)
    rates = DEFAULT_RATES.pure_ber(args.ber)
    profile = AccessProfile()
    _obs_begin(args)
    rows: dict[str, dict] = {}
    for scheme in schemes:
        start = time.perf_counter()
        if args.estimator == "splitting":
            split = _or_exit(
                "rareevent", run_splitting_iid, scheme, rates, effort=args.effort,
                seed=args.seed, k=args.k, samples=params.samples,
                table_seed=params.table_seed,
            )
            row = split.as_dict()
            row["p_fail_ci"] = [row.pop("ci_lo"), row.pop("ci_hi")]
        else:
            result = _or_exit(
                "rareevent", run_rareevent_iid, scheme, rates,
                ExactRunConfig(trials=args.trials, seed=args.seed), params,
                workers=args.workers,
            )
            summary = result.as_dict()
            fail = summary["outcomes"]["fail"]
            row = {
                "scheme": scheme.name, "ber": args.ber,
                "estimator": result.estimator, "tilt": result.tilt,
                "trials": result.trials,
                "p_fail": fail["p_ht"], "p_fail_sn": fail["p_sn"],
                "p_fail_ci": [fail["ci_lo"], fail["ci_hi"]],
                "wilson": [fail["wilson_lo"], fail["wilson_hi"]],
                "p_sdc": summary["outcomes"]["sdc"]["p_ht"],
                "p_due": summary["outcomes"]["due"]["p_ht"],
                "ess": summary["ess"],
                "ess_fraction": summary["ess_fraction"],
            }
        p_fail = row.get("p_fail", 0.0)
        row["fit"] = fit_rate(p_fail, profile)
        row["fit_ci"] = list(fit_interval(tuple(row["p_fail_ci"]), profile))
        try:
            ref = build_model(scheme, samples=params.samples,
                              seed=params.table_seed).line_probs(args.ber)
            row["analytic_fail"] = ref["sdc"] + ref["due"]
        except Exception:  # a scheme without a closed form is still runnable
            row["analytic_fail"] = None
        row["wall_s"] = time.perf_counter() - start
        rows[scheme.name] = row
    out: dict[str, object] = {
        "ber": args.ber, "estimator": args.estimator, "schemes": rows,
    }
    if "pair" in rows and "xed" in rows:
        out["xed_over_pair"] = relative_reliability(
            rows["xed"]["p_fail"], rows["pair"]["p_fail"]
        )
    _obs_finish(args, "rareevent")
    if args.json:
        print(_json.dumps(out, sort_keys=True))
        return
    print(f"rare-event failure probability per 64B read at ber={args.ber:.0e} "
          f"({args.estimator} estimator):")
    table = []
    for name, row in rows.items():
        lo, hi = row["p_fail_ci"]
        ref = row["analytic_fail"]
        table.append({
            "scheme": name,
            "p(fail)": f"{row['p_fail']:.3e}",
            "95% CI": f"[{lo:.2e}, {hi:.2e}]",
            "FIT": f"{row['fit']:.3e}",
            "analytic": "-" if ref is None else f"{ref:.3e}",
            "ESS": f"{row['ess']:.0f}" if "ess" in row else "-",
            "wall": f"{row['wall_s']:.1f}s",
        })
    print(format_table(table))
    if "xed_over_pair" in out:
        print(f"\nPAIR is {out['xed_over_pair']:.2e}x more reliable than XED "
              "on this tail (ratio of per-read failure probabilities)")


def cmd_perf(args: argparse.Namespace) -> None:
    from .analysis import format_table, geomean
    from .dram import RANK_X8_5CHIP, AddressMapper
    from .perf import WORKLOADS, generate_trace, simulate

    schemes = _scheme_lineup(args.schemes)
    workloads = args.workloads or list(WORKLOADS)
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; have {sorted(WORKLOADS)}")
    _obs_begin(args)
    mapper = AddressMapper(RANK_X8_5CHIP)
    rows = []
    through = {s.name: [] for s in schemes}
    for wname in workloads:
        trace = generate_trace(WORKLOADS[wname], mapper)
        row = {"workload": wname}
        for s in schemes:
            res = simulate(trace, s.timing_overlay, s.name, wname)
            row[s.name] = f"{res.throughput:.2f}"
            through[s.name].append(res.throughput)
        rows.append(row)
    print("throughput in requests per kilocycle:")
    print(format_table(rows))
    if len(workloads) > 1:
        print("\ngeomean throughput:")
        for name, values in through.items():
            print(f"  {name:10s} {geomean(values):8.2f}")
    _obs_finish(args, "perf")


def cmd_burst(args: argparse.Namespace) -> None:
    from .analysis import format_series
    from .reliability import ExactRunConfig, run_burst_lengths_batched

    if args.trials < 1:
        raise SystemExit("burst: trials must be positive")
    schemes = _scheme_lineup(args.schemes)
    config = ExactRunConfig(trials=args.trials, seed=args.seed)
    _obs_begin(args)
    series = {}
    for s in schemes:
        tallies = run_burst_lengths_batched(s, args.lengths, config)
        series[s.name] = [
            f"{(tallies[b].ok + tallies[b].ce) / tallies[b].total:.2f}"
            for b in args.lengths
        ]
    print(f"fraction of reads surviving a per-pin burst ({args.trials} trials):")
    print(format_series("beats", args.lengths, series))
    _obs_finish(args, "burst")


def cmd_energy(args: argparse.Namespace) -> None:
    from .analysis import format_table
    from .perf import energy_row

    rows = [energy_row(s) for s in _scheme_lineup(args.schemes)]
    print("energy per 64B access (nJ, first-order model):")
    print(format_table(rows))


def cmd_headroom(args: argparse.Namespace) -> None:
    from .analysis import format_table
    from .analysis.sweep import max_tolerable_ber
    from .reliability import build_model

    schemes = [s for s in _scheme_lineup(args.schemes) if s.name != "no-ecc"]
    models = {s.name: _or_exit("headroom", build_model, s, samples=args.samples)
              for s in schemes}
    rows = []
    for target in args.targets:
        row = {"failure_target": f"{target:.0e}"}
        for name, model in models.items():
            row[name] = f"{max_tolerable_ber(model, target):.2e}"
        rows.append(row)
    print("maximum tolerable weak-cell BER per failure budget:")
    print(format_table(rows))


def cmd_report(args: argparse.Namespace) -> None:
    from .analysis.report import ReportConfig, report_manifest, write_report

    config = ReportConfig(quick=not args.full)
    if args.json:
        import json

        print(json.dumps(report_manifest(config), sort_keys=True))
        return
    path = write_report(args.output, config)
    print(f"report written to {path}")


def _print_campaign_result(result) -> None:
    summary = result.summary()
    print(f"chunks: {summary['chunks_done']}/{summary['chunks_total']} done")
    if summary["quarantined"]:
        print(f"quarantined chunks: {summary['quarantined']} "
              "(see manifest.json for errors; resume retries them)")
    print(f"trials: {summary['trials']}  ok={summary['ok']} ce={summary['ce']} "
          f"due={summary['due']} sdc={summary['sdc']}")
    if summary["trials"]:
        print(f"sdc_rate={summary['sdc_rate']:.3e}  due_rate={summary['due_rate']:.3e}")
    weighted = result.tally.extra.get("weighted")
    if weighted is not None:
        from .reliability import weighted_summary

        est = weighted_summary(weighted)
        fail = est["outcomes"]["fail"]
        print(f"weighted (tilt={est['tilt']:.3f}): "
              f"p_fail={fail['p_ht']:.3e} "
              f"ci=[{fail['ci_lo']:.2e}, {fail['ci_hi']:.2e}] "
              f"ess={est['ess']:.0f}/{est['n']}")
    if not summary["complete"]:
        raise SystemExit(1)


def _or_exit(command: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ``ValueError`` or ``CampaignError`` exits
    with one line."""
    from .errors import CampaignError

    try:
        return build(*args, **kwargs)
    except (ValueError, CampaignError) as exc:
        raise SystemExit(f"{command}: {exc}") from None


def _campaign_config_from_args(args: argparse.Namespace):
    """The campaign config the flags describe.  Callers build it through
    :func:`_or_exit`, so a bad flag exits with one line before anything is
    written."""
    from .campaign import CampaignConfig
    from .faults import DEFAULT_RATES

    rates = DEFAULT_RATES.with_ber(args.ber)
    proposal = {}
    if args.kind == "rareevent":
        # the rare-event tier models the pure weak-cell process at every
        # tilt, 0 included, as ``repro rareevent`` does
        rates = DEFAULT_RATES.pure_ber(args.ber)
        proposal = {"tilt": args.tilt, "defensive": args.defensive}
        if args.tilt == "auto":
            # the fingerprint needs a concrete number: resolve it against
            # the law the campaign's default table parameters give
            from .reliability.rareevent import line_law, resolve_tilt

            scheme = _scheme_lineup([args.scheme])[0]
            proposal["tilt"] = resolve_tilt("auto", line_law(
                scheme, args.ber, CampaignConfig.rare_samples,
                CampaignConfig.rare_table_seed,
            ))
    config = CampaignConfig(
        scheme=args.scheme, kind=args.kind, trials=args.trials, seed=args.seed,
        resample_faults_every=args.resample_every, chunk_trials=args.chunk_trials,
        rates=rates, **proposal,
    )
    config.build_scheme()  # an unknown scheme fails here, not once running
    return config


def cmd_campaign_run(args: argparse.Namespace) -> None:
    """``campaign run`` (config from the flags) and ``campaign resume``."""
    from .campaign import ChaosSchedule, SupervisorPolicy, resume_campaign, start_campaign
    from .errors import CampaignAborted

    resume = args.campaign_command == "resume"
    config = None if resume else _or_exit("campaign", _campaign_config_from_args, args)
    policy = _or_exit("campaign", SupervisorPolicy, workers=args.workers,
                      timeout=args.timeout, retries=args.retries, backoff=args.backoff)
    chaos = _or_exit("campaign", ChaosSchedule.parse, args.chaos) if args.chaos else None
    _obs_begin(args)
    try:
        if config is None:
            result = resume_campaign(args.dir, policy, chaos)
        else:
            result = start_campaign(args.dir, config, policy, chaos)
    except CampaignAborted as exc:
        print(f"campaign aborted: {exc}")
        raise SystemExit(3) from None
    finally:
        _obs_finish(args, f"campaign-{args.campaign_command}")
    _print_campaign_result(result)


def _print_status(status: dict, as_json: bool) -> None:
    """A campaign status dict as JSON, or as an aligned key/value table."""
    if as_json:
        import json

        print(json.dumps(status, sort_keys=True))
        return
    tally = status.pop("tally")
    for key, value in status.items():
        print(f"{key:14s} {value}")
    print(f"{'tally':14s} ok={tally['ok']} ce={tally['ce']} "
          f"due={tally['due']} sdc={tally['sdc']}")


def cmd_campaign_status(args: argparse.Namespace) -> None:
    from .campaign import campaign_status

    _print_status(campaign_status(args.dir), args.json)


def _fleet_chaos(args: argparse.Namespace):
    from .campaign import FleetChaos

    return _or_exit("fleet", FleetChaos.parse, args.chaos) if args.chaos else None


def cmd_fleet_serve(args: argparse.Namespace) -> None:
    from .campaign.fleet import FleetPolicy, serve_campaign
    from .errors import CampaignAborted

    config = None if args.resume else _or_exit("fleet", _campaign_config_from_args, args)
    policy = _or_exit(
        "fleet", FleetPolicy, host=args.host, port=args.port,
        lease_timeout=args.lease_timeout, heartbeat_interval=args.heartbeat,
        retries=args.retries, backoff=args.backoff,
        steal_copies=args.steal_copies, degrade_after=args.degrade_after,
        event_log=not args.no_event_log,
    )
    chaos = _fleet_chaos(args)
    _obs_begin(args)
    try:
        result = serve_campaign(args.dir, config, policy=policy, chaos=chaos,
                                cache_dir=args.cache_dir)
    except CampaignAborted as exc:
        print(f"fleet scheduler stopped: {exc}")
        raise SystemExit(3) from None
    finally:
        _obs_finish(args, "fleet-serve")
    _print_campaign_result(result)


def _parse_connect(text: str) -> tuple[str, int]:
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise SystemExit(f"bad --connect {text!r}; want HOST:PORT")
    return host, int(port_text)


def cmd_fleet_worker(args: argparse.Namespace) -> None:
    from .campaign.fleet import run_agent
    from .campaign.fleet.agent import AgentKilled, AgentPolicy
    from .errors import AgentFailure

    if not args.connect and not args.dir:
        raise SystemExit("fleet worker needs --dir or --connect HOST:PORT")
    host, port = _parse_connect(args.connect) if args.connect else (None, None)
    chaos = _fleet_chaos(args)
    obs_on = _obs_begin(args)
    try:
        summary = run_agent(
            args.name, host=host, port=port, directory=args.dir, chaos=chaos,
            policy=AgentPolicy(connect_timeout=args.connect_timeout),
            collect_obs=obs_on, stream=args.stream,
        )
    except AgentKilled as exc:
        print(f"worker killed by chaos: {exc}")
        raise SystemExit(13) from None
    except AgentFailure as exc:
        print(f"worker failed: {exc}")
        raise SystemExit(1) from None
    finally:
        _obs_finish(args, f"fleet-worker-{args.name}")
    done = "saw campaign completion" if summary.saw_done else "scheduler went away"
    print(f"worker {summary.agent}: {summary.chunks_done} chunk(s) "
          f"({summary.steals_run} stolen), {summary.disconnects} reconnect(s); "
          f"{done}")


def cmd_fleet_submit(args: argparse.Namespace) -> None:
    from .campaign import start_campaign
    from .campaign.fleet import ResultCache
    from .campaign.manifest import fingerprint as config_fingerprint

    config = _or_exit("fleet", _campaign_config_from_args, args)
    fp_dict = config.fingerprint_dict()
    fp = config_fingerprint(fp_dict)
    cache = ResultCache(args.cache_dir)
    hit = cache.lookup(fp)
    if hit is not None:
        summary = hit["summary"]
        print(f"cache hit for fingerprint {fp[:12]}... "
              f"(ok={summary['ok']} ce={summary['ce']} due={summary['due']} "
              f"sdc={summary['sdc']}, {summary['chunks_done']} chunks)")
        return
    print(f"cache miss for fingerprint {fp[:12]}...; running locally")
    result = start_campaign(args.dir, config)
    if result.complete:
        cache.store(fp, fp_dict, result.summary())
    _print_campaign_result(result)


def _fleet_watch_fetch(directory):
    """Fetch closure for ``fleet status --watch``: live endpoint, else sidecar.

    Re-reads the sidecar each frame so a scheduler that binds (or exits)
    mid-watch is picked up; while the sidecar says ``serving`` the live
    ``/status`` endpoint is preferred for fresher numbers.
    """
    import json
    from pathlib import Path

    from .campaign.fleet import SIDECAR_NAME
    from .obs import fetch_watch_endpoint, load_watch_dir

    def fetch():
        sidecar = Path(directory) / SIDECAR_NAME
        try:
            raw = json.loads(sidecar.read_text())
        except (OSError, json.JSONDecodeError):
            raw = {}
        if raw.get("state") == "serving" and raw.get("port"):
            try:
                return fetch_watch_endpoint(
                    str(raw.get("host") or "127.0.0.1"), int(raw["port"]),
                    timeout=2.0,
                )
            except ConnectionError:
                pass  # scheduler gone or firewalled; sidecar still works
        return load_watch_dir(directory)

    return fetch


def cmd_fleet_status(args: argparse.Namespace) -> None:
    from .campaign.fleet import fleet_status

    if args.watch:
        from .obs import run_top

        code = run_top(
            _fleet_watch_fetch(args.dir), once=args.json, as_json=args.json,
            color=not args.no_color, interval_s=args.interval,
        )
        if code:
            raise SystemExit(code)
        return
    status = fleet_status(args.dir)
    fleet = None if args.json else status.pop("fleet", None)
    _print_status(status, args.json)
    if args.json:
        return
    if fleet is None:
        print("no fleet scheduler has served this campaign")
        return
    print(f"{'scheduler':14s} {fleet.get('state')} "
          f"(pid {fleet.get('pid')}, {fleet.get('host')}:{fleet.get('port')})")
    leases = fleet.get("leases", {})
    print(f"{'leases':14s} {len(leases.get('active', []))} active, "
          f"{leases.get('granted', 0)} granted, {leases.get('expired', 0)} "
          f"expired, {leases.get('stolen', 0)} stolen")
    print(f"{'agents_seen':14s} {' '.join(fleet.get('agents_seen', [])) or '-'}")


def cmd_check(args: argparse.Namespace) -> None:
    from .checkers import (
        Baseline,
        full_catalogue,
        report,
        run_checks,
        write_sarif,
    )

    baseline = Baseline.load(args.baseline)
    result = run_checks(
        args.paths,
        select=args.select,
        ignore=args.ignore,
        baseline=None if args.update_baseline else baseline,
    )
    if args.update_baseline:
        count = baseline.rewrite(result.violations)
        print(f"baseline rewritten: {count} finding(s) recorded in {baseline.path}")
        return
    if args.sarif:
        path = write_sarif(args.sarif, result.violations, full_catalogue())
        print(f"SARIF export written to {path}")
    if args.json:
        import json

        print(json.dumps(result.to_json(), sort_keys=True))
    else:
        report(result.violations)
        if result.baseline_suppressed:
            print(
                f"{len(result.baseline_suppressed)} baselined finding(s) "
                f"suppressed (see {baseline.path})"
            )
        if result.ok:
            print(f"{result.files_checked} file(s) checked: clean")
    if not result.ok:
        raise SystemExit(1)


def cmd_obs_report(args: argparse.Namespace) -> None:
    from pathlib import Path

    from . import obs

    path = Path(args.input)
    if path.is_dir():
        from .campaign import Manifest

        snapshots = Manifest.load(path).obs_snapshots()
    else:
        if not path.exists():
            raise SystemExit(f"no obs export or campaign directory at {path}")
        snapshots = obs.read_snapshots(path)
    report = obs.summarize(snapshots)
    if args.json:
        import json

        print(json.dumps(report, sort_keys=True))
        return
    print(obs.format_report(report))


def cmd_obs_top(args: argparse.Namespace) -> None:
    from .obs import (
        fetch_watch_endpoint,
        load_watch_dir,
        load_watch_events,
        run_top,
    )

    sources = [s for s in (args.connect, args.dir, args.input) if s]
    if len(sources) != 1:
        raise SystemExit(
            "obs top needs exactly one of --connect HOST:PORT, --dir "
            "CAMPAIGN_DIR or --in events.jsonl"
        )
    if args.connect:
        host, port = _parse_connect(args.connect)

        def fetch():
            return fetch_watch_endpoint(host, port, timeout=2.0)
    elif args.dir:
        def fetch():
            return load_watch_dir(args.dir)
    else:
        def fetch():
            return load_watch_events(args.input)
    once = args.once or args.json or args.input is not None
    code = run_top(
        fetch, once=once, as_json=args.json, color=not args.no_color,
        interval_s=args.interval,
    )
    if code:
        raise SystemExit(code)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PAIR (DAC 2020) reproduction - in-DRAM ECC evaluation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_schemes(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--schemes", nargs="*", metavar="NAME",
            help="subset of: no-ecc iecc-sec xed duo pair (default: all)",
        )

    p_info = sub.add_parser("info", help="scheme configuration table (T1)")
    add_schemes(p_info)
    p_info.set_defaults(func=cmd_info)

    p_rel = sub.add_parser("reliability", help="analytic reliability sweep (F2)")
    add_schemes(p_rel)
    p_rel.add_argument("--bers", nargs="+", type=float,
                       default=[1e-6, 1e-5, 1e-4], metavar="P")
    p_rel.add_argument("--samples", type=int, default=400, help=_SAMPLES_HELP)
    p_rel.set_defaults(func=cmd_reliability)

    def add_obs_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--obs-out", metavar="PATH", default=None,
                       help="enable observability and export snapshots to "
                            "this .jsonl file")

    p_rare = sub.add_parser(
        "rareevent",
        help="deep-tail failure probabilities by importance sampling / "
             "splitting (resolves the PAIR-vs-XED gap in seconds)",
    )
    add_schemes(p_rare)
    p_rare.add_argument("--ber", type=float, default=1e-4,
                        help="weak-cell BER (structured faults are off: the "
                             "rare-event tier models the i.i.d. process)")
    p_rare.add_argument("--trials", type=int, default=400_000,
                        help="count-level proposals (importance sampling)")
    p_rare.add_argument("--tilt", type=tilt, default="auto", metavar="THETA",
                        help="log-odds tilt of the error rate; 'auto' aims "
                             "the tilted word at the failure radius; 0 runs "
                             "the exact decoder-in-the-loop engine")
    p_rare.add_argument("--defensive", type=float, default=0.05,
                        help="nominal-arm mixture mass (bounds weights by "
                             "1/defensive)")
    p_rare.add_argument("--estimator", choices=("is", "splitting"),
                        default="is",
                        help="'is' = tilted importance sampling; 'splitting' "
                             "= fixed-effort multilevel splitting")
    p_rare.add_argument("--effort", type=int, default=4096,
                        help="conditional samples per splitting level")
    p_rare.add_argument("--k", type=int, default=None,
                        help="splitting level target (default: the scheme's "
                             "failure radius)")
    p_rare.add_argument("--samples", type=int, default=400, help=_SAMPLES_HELP)
    p_rare.add_argument("--seed", type=int, default=0)
    p_rare.add_argument("--workers", type=int, default=1)
    p_rare.add_argument("--json", action="store_true",
                        help="print the full result dict as JSON")
    add_obs_out(p_rare)
    p_rare.set_defaults(func=cmd_rareevent)

    p_perf = sub.add_parser("perf", help="trace-driven performance (F5)")
    add_schemes(p_perf)
    p_perf.add_argument("--workloads", nargs="*", metavar="NAME",
                        help="subset of: balanced oltp-mix random-read stream-copy "
                             "stream-read write-heavy (default: all)")
    add_obs_out(p_perf)
    p_perf.set_defaults(func=cmd_perf)

    p_burst = sub.add_parser("burst", help="burst-error coverage (F4)")
    add_schemes(p_burst)
    p_burst.add_argument("--lengths", nargs="+", type=int,
                         default=[2, 4, 8, 16], metavar="BEATS")
    p_burst.add_argument("--trials", type=int, default=10)
    p_burst.add_argument("--seed", type=int, default=0)
    add_obs_out(p_burst)
    p_burst.set_defaults(func=cmd_burst)

    p_energy = sub.add_parser("energy", help="per-access energy table (T3)")
    add_schemes(p_energy)
    p_energy.set_defaults(func=cmd_energy)

    p_head = sub.add_parser("headroom", help="tolerable-BER table (F9)")
    add_schemes(p_head)
    p_head.add_argument("--targets", nargs="+", type=float,
                        default=[1e-12, 1e-15], metavar="P")
    p_head.add_argument("--samples", type=int, default=300, help=_SAMPLES_HELP)
    p_head.set_defaults(func=cmd_headroom)

    p_report = sub.add_parser("report", help="regenerate the markdown report")
    p_report.add_argument("-o", "--output", default="report.md")
    p_report.add_argument("--full", action="store_true",
                          help="bench-grade sample counts (slow)")
    p_report.add_argument("--json", action="store_true",
                          help="print the report manifest as JSON instead of "
                               "building the report")
    p_report.set_defaults(func=cmd_report)

    p_camp = sub.add_parser(
        "campaign",
        help="resilient Monte-Carlo campaigns (checkpoint/resume)",
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    def add_campaign_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scheme", default="pair",
                       help="one of: no-ecc iecc-sec xed duo pair")
        p.add_argument("--kind", default="iid",
                       help="'iid', 'rareevent' or 'single:<fault>' "
                            "(e.g. single:row)")
        p.add_argument("--trials", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--ber", type=float, default=1e-4,
                       help="weak-cell BER applied to the default fault rates")
        p.add_argument("--chunk-trials", type=int, default=256)
        p.add_argument("--resample-every", type=int, default=1)
        p.add_argument("--tilt", type=tilt, default="auto", metavar="THETA",
                       help="kind=rareevent only: log-odds tilt ('auto' "
                            "resolves against the scheme before the "
                            "fingerprint is taken; 0 = exact engine)")
        p.add_argument("--defensive", type=float, default=0.05,
                       help="kind=rareevent only: nominal-arm mixture mass")

    def add_policy(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--timeout", type=float, default=300.0,
                       help="per-chunk wall budget in seconds")
        p.add_argument("--retries", type=int, default=2,
                       help="extra attempts per chunk before quarantine")
        p.add_argument("--backoff", type=float, default=0.5,
                       help="base retry backoff in seconds (doubles per attempt)")
        p.add_argument("--chaos", metavar="SPEC", default=None,
                       help="inject failures, e.g. 'crash:1,hang:2,abort:3' "
                            "(testing/CI only)")

    p_run = camp_sub.add_parser("run", help="start (or continue) a campaign")
    p_run.add_argument("--dir", required=True, help="campaign directory")
    add_campaign_config(p_run)
    add_policy(p_run)
    add_obs_out(p_run)
    p_run.set_defaults(func=cmd_campaign_run)

    p_resume = camp_sub.add_parser(
        "resume", help="finish the pending chunks of a checkpointed campaign"
    )
    p_resume.add_argument("--dir", required=True)
    add_policy(p_resume)
    add_obs_out(p_resume)
    p_resume.set_defaults(func=cmd_campaign_run)

    p_status = camp_sub.add_parser("status", help="manifest summary, no execution")
    p_status.add_argument("--dir", required=True)
    p_status.add_argument("--json", action="store_true",
                          help="print the status dict as JSON")
    p_status.set_defaults(func=cmd_campaign_status)

    p_fleet = sub.add_parser(
        "fleet",
        help="distributed campaigns: scheduler, workers, cache, status",
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    p_serve = fleet_sub.add_parser(
        "serve", help="run the scheduler until the campaign completes"
    )
    p_serve.add_argument("--dir", required=True, help="campaign directory")
    add_campaign_config(p_serve)
    p_serve.add_argument("--resume", action="store_true",
                         help="take the config from the existing manifest "
                              "(ignores the config flags above)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="0 picks a free port; see fleet.json for the "
                              "bound endpoint")
    p_serve.add_argument("--lease-timeout", type=float, default=10.0,
                         help="seconds without a heartbeat before a lease "
                              "expires and its chunk requeues")
    p_serve.add_argument("--heartbeat", type=float, default=1.0,
                         help="heartbeat interval agents are told to use")
    p_serve.add_argument("--retries", type=int, default=2,
                         help="extra attempts per chunk before quarantine")
    p_serve.add_argument("--backoff", type=float, default=0.25,
                         help="base requeue backoff in seconds")
    p_serve.add_argument("--steal-copies", type=int, default=2,
                         help="max concurrent leases per chunk when stealing")
    p_serve.add_argument("--degrade-after", type=float, default=None,
                         metavar="SECONDS",
                         help="fall back to the in-process supervisor if no "
                              "agent connects within this window")
    p_serve.add_argument("--cache-dir", default=None,
                         help="store the completed result in this "
                              "fingerprint-keyed cache directory")
    p_serve.add_argument("--chaos", metavar="SPEC", default=None,
                         help="fleet chaos schedule, e.g. "
                              "'kill:a0@1,hang:a1,crash:4' (testing/CI only)")
    p_serve.add_argument("--no-event-log", action="store_true",
                         help="skip the crash-safe events.jsonl trace journal")
    add_obs_out(p_serve)
    p_serve.set_defaults(func=cmd_fleet_serve)

    p_worker = fleet_sub.add_parser(
        "worker", help="run one agent against a scheduler"
    )
    p_worker.add_argument("--name", required=True, help="unique agent name")
    p_worker.add_argument("--dir", default=None,
                          help="campaign directory (endpoint read from its "
                               "fleet.json sidecar, re-read on reconnect)")
    p_worker.add_argument("--connect", metavar="HOST:PORT", default=None,
                          help="explicit scheduler endpoint instead of --dir")
    p_worker.add_argument("--connect-timeout", type=float, default=10.0,
                          help="give up if no scheduler is reachable for this "
                               "long")
    p_worker.add_argument("--chaos", metavar="SPEC", default=None,
                          help="fleet chaos schedule for this agent's faults")
    p_worker.add_argument("--stream", action="store_true",
                          help="piggyback advisory obs deltas on heartbeats "
                               "for the scheduler's live telemetry")
    add_obs_out(p_worker)
    p_worker.set_defaults(func=cmd_fleet_worker)

    p_submit = fleet_sub.add_parser(
        "submit",
        help="resolve a config through the result cache (hit: instant; "
             "miss: run locally and store)",
    )
    p_submit.add_argument("--dir", required=True, help="campaign directory")
    p_submit.add_argument("--cache-dir", required=True,
                          help="fingerprint-keyed result cache directory")
    add_campaign_config(p_submit)
    p_submit.set_defaults(func=cmd_fleet_submit)

    p_fstatus = fleet_sub.add_parser(
        "status", help="manifest summary plus scheduler sidecar state"
    )
    p_fstatus.add_argument("--dir", required=True)
    p_fstatus.add_argument("--json", action="store_true",
                           help="print the status dict as JSON (with --watch: "
                                "one watch payload)")
    p_fstatus.add_argument("--watch", action="store_true",
                           help="live telemetry view (endpoint when serving, "
                                "sidecar otherwise)")
    p_fstatus.add_argument("--interval", type=float, default=1.0,
                           help="--watch refresh interval in seconds")
    p_fstatus.add_argument("--no-color", action="store_true",
                           help="plain ASCII output for --watch")
    p_fstatus.set_defaults(func=cmd_fleet_status)

    p_check = sub.add_parser(
        "check",
        help="static invariant checks (REPRO1xx per-file + REPRO2xx dataflow)",
    )
    p_check.add_argument(
        "paths", nargs="*", default=["src", "tests", "benchmarks"],
        help="files or directories to check (default: src tests benchmarks)",
    )
    p_check.add_argument("--select", action="append", metavar="PREFIX",
                         help="only report codes starting with PREFIX "
                              "(repeatable, e.g. REPRO20)")
    p_check.add_argument("--ignore", action="append", metavar="PREFIX",
                         help="drop codes starting with PREFIX (repeatable)")
    p_check.add_argument("--sarif", metavar="OUT", default=None,
                         help="also write a SARIF 2.1.0 log to OUT")
    p_check.add_argument("--baseline", metavar="PATH",
                         default=".repro-checkers-baseline.json",
                         help="fingerprint baseline of known findings "
                              "(default: %(default)s)")
    p_check.add_argument("--update-baseline", action="store_true",
                         help="rewrite the baseline from the current findings "
                              "(prunes fixed entries) instead of failing")
    p_check.add_argument("--json", action="store_true",
                         help="print the run result as JSON")
    p_check.set_defaults(func=cmd_check)

    p_obs = sub.add_parser(
        "obs", help="observability: merge and render metric/span exports"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_report = obs_sub.add_parser(
        "report", help="summarize an obs.jsonl export or a campaign's obs data"
    )
    p_obs_report.add_argument("--in", dest="input", required=True, metavar="PATH",
                              help="an obs .jsonl export, or a campaign "
                                   "directory whose manifest carries obs data")
    p_obs_report.add_argument("--json", action="store_true",
                              help="print the merged report as JSON")
    p_obs_report.set_defaults(func=cmd_obs_report)
    p_obs_top = obs_sub.add_parser(
        "top", help="live ANSI dashboard for a fleet's streamed telemetry"
    )
    p_obs_top.add_argument("--connect", metavar="HOST:PORT", default=None,
                           help="poll a live scheduler's /status endpoint")
    p_obs_top.add_argument("--dir", default=None, metavar="CAMPAIGN_DIR",
                           help="read the fleet.json sidecar's telemetry")
    p_obs_top.add_argument("--in", dest="input", default=None, metavar="PATH",
                           help="replay the last watch event of a recorded "
                                "events.jsonl (implies --once)")
    p_obs_top.add_argument("--interval", type=float, default=1.0,
                           help="refresh interval in seconds")
    p_obs_top.add_argument("--once", action="store_true",
                           help="render a single frame and exit")
    p_obs_top.add_argument("--json", action="store_true",
                           help="print the raw watch payload (implies --once)")
    p_obs_top.add_argument("--no-color", action="store_true",
                           help="plain ASCII panels (CI logs, dumb terminals)")
    p_obs_top.set_defaults(func=cmd_obs_top)
    return parser


def main(argv: Sequence[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":  # pragma: no cover
    main()
