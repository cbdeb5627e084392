"""Distributed fleet: protocol, leases, cache, and chaos-driven end-to-end.

The headline contract: a fleet campaign that suffers agent kills, agent
hangs, a network partition, frame-level faults, work-stealing races and a
mid-run scheduler crash-with-restart still completes, and its merged tally
is bit-identical to one uninterrupted single-process run of the same seed.
"""

import asyncio
import json

import pytest

from repro.campaign import (
    CampaignConfig,
    FleetChaos,
    Manifest,
    resume_campaign,
    start_campaign,
)
from repro.campaign.fleet import (
    FleetAgent,
    FleetPolicy,
    FleetScheduler,
    LeaseTable,
    ResultCache,
    encode_frame,
    fleet_status,
    read_frame,
    serve_campaign,
)
from repro.campaign.fleet.agent import AgentKilled, AgentPolicy
from repro.campaign.manifest import fingerprint
from repro.errors import (
    AgentFailure,
    CampaignAborted,
    DuplicateMismatch,
    EngineMismatch,
    FleetProtocolError,
)
from repro.faults import DEFAULT_RATES

RATES = DEFAULT_RATES.with_ber(3e-3)


def config(trials=32, chunk=8, seed=7, **overrides):
    base = dict(scheme="pair", trials=trials, seed=seed, chunk_trials=chunk,
                rates=RATES)
    base.update(overrides)
    return CampaignConfig(**base)


def policy(**overrides):
    base = dict(lease_timeout=1.0, heartbeat_interval=0.2, tick=0.02,
                idle_retry=0.05, drain_grace=0.3, backoff=0.25)
    base.update(overrides)
    return FleetPolicy(**base)


def agent_policy(**overrides):
    base = dict(connect_timeout=20.0, reconnect_delay=0.05)
    base.update(overrides)
    return AgentPolicy(**base)


def counts(tally):
    return (tally.ok, tally.ce, tally.due, tally.sdc)


async def _start(scheduler):
    """Launch serve() and wait until the endpoint is bound."""
    task = asyncio.ensure_future(scheduler.serve())
    while scheduler.endpoint is None:
        if task.done():
            task.result()  # surface the startup error
        await asyncio.sleep(0.005)
    return task


# -- wire protocol -------------------------------------------------------------


async def _loopback():
    """A client writer and the matching server-side reader, over localhost."""
    ready = asyncio.Queue()

    async def on_conn(reader, writer):
        await ready.put(reader)

    server = await asyncio.start_server(on_conn, host="127.0.0.1", port=0)
    host, port = server.sockets[0].getsockname()[:2]
    _, client_writer = await asyncio.open_connection(host, port)
    served_reader = await ready.get()
    return server, client_writer, served_reader


class TestProtocol:
    def test_round_trip_and_eof(self):
        async def main():
            server, writer, reader = await _loopback()
            frame = {"type": "hello", "agent": "a0", "n": 3}
            writer.write(encode_frame(frame))
            await writer.drain()
            assert await read_frame(reader) == frame
            writer.close()
            assert await read_frame(reader) is None  # clean EOF, not an error
            server.close()
            await server.wait_closed()

        asyncio.run(main())

    def test_encode_is_canonical(self):
        a = encode_frame({"type": "x", "b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1, "type": "x"})
        assert a == b  # sorted keys: identical frames are identical bytes

    def test_oversized_length_prefix_rejected(self):
        async def main():
            server, writer, reader = await _loopback()
            writer.write((1 << 30).to_bytes(4, "big") + b"junk")
            await writer.drain()
            with pytest.raises(FleetProtocolError, match="claims"):
                await read_frame(reader)
            server.close()
            await server.wait_closed()

        asyncio.run(main())

    @pytest.mark.parametrize(
        "body,match",
        [(b"not json", "undecodable"), (b"[1,2]", "'type'"), (b"{}", "'type'")],
    )
    def test_malformed_bodies_rejected(self, body, match):
        async def main():
            server, writer, reader = await _loopback()
            writer.write(len(body).to_bytes(4, "big") + body)
            await writer.drain()
            with pytest.raises(FleetProtocolError, match=match):
                await read_frame(reader)
            server.close()
            await server.wait_closed()

        asyncio.run(main())


# -- lease table ---------------------------------------------------------------


class TestLeaseTable:
    def test_grant_heartbeat_expire(self):
        table = LeaseTable(timeout=1.0)
        lease = table.grant(chunk=3, agent="a0", attempt=0, now=100.0)
        assert lease.deadline == 101.0
        assert table.heartbeat(lease.lease_id, now=100.8)
        assert table.expire_due(now=101.5) == []  # the heartbeat extended it
        due = table.expire_due(now=102.0)
        assert [le.lease_id for le in due] == [lease.lease_id]
        assert len(table) == 0 and table.expired == 1
        assert not table.heartbeat(lease.lease_id, now=102.1)  # gone

    def test_release_chunk_retires_all_copies(self):
        table = LeaseTable(timeout=5.0)
        first = table.grant(1, "a0", 0, now=0.0)
        steal = table.grant(1, "a1", 0, now=1.0,
                            stolen_from=first.lease_id)
        assert steal.is_steal and table.stolen == 1
        assert table.copies(1) == 2
        retired = table.release_chunk(1)
        assert len(retired) == 2 and len(table) == 0
        assert table.covered_chunks() == set()

    def test_steal_candidate_oldest_not_self_not_capped(self):
        table = LeaseTable(timeout=5.0)
        old = table.grant(1, "a0", 0, now=0.0)
        table.grant(2, "a1", 0, now=1.0)
        # oldest outstanding lease wins: target the worst straggler
        assert table.steal_candidate("a2", max_copies=2) is old
        # an agent never steals its own lease
        assert table.steal_candidate("a0", max_copies=2).chunk == 2
        # copy cap: once chunk 1 has two live leases it stops being a candidate
        table.grant(1, "a2", 0, now=2.0, stolen_from=old.lease_id)
        assert table.steal_candidate("a3", max_copies=2).chunk == 2

    def test_drop_agent_returns_only_its_leases(self):
        table = LeaseTable(timeout=5.0)
        table.grant(1, "a0", 0, now=0.0)
        table.grant(2, "a1", 1, now=0.0)
        dropped = table.drop_agent("a0")
        assert [le.chunk for le in dropped] == [1]
        assert table.covered_chunks() == {2}

    def test_journal_is_json_safe(self):
        table = LeaseTable(timeout=5.0)
        table.grant(1, "a0", 0, now=0.0)
        journal = json.loads(json.dumps(table.journal()))
        assert journal["granted"] == 1
        assert journal["active"][0]["chunk"] == 1


# -- result cache --------------------------------------------------------------


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.lookup("f" * 64) is None
        cache.store("f" * 64, {"scheme": "pair"}, {"ok": 1, "ce": 2})
        hit = cache.lookup("f" * 64)
        assert hit["summary"] == {"ok": 1, "ce": 2}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("a" * 64, {}, {"ok": 1})
        (tmp_path / ("a" * 64 + ".json")).write_text("{torn")
        assert cache.lookup("a" * 64) is None

    def test_misfiled_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("b" * 64, {}, {"ok": 1})
        # an entry filed under the wrong fingerprint must never be trusted
        (tmp_path / ("c" * 64 + ".json")).write_text(
            (tmp_path / ("b" * 64 + ".json")).read_text()
        )
        assert cache.lookup("c" * 64) is None


# -- fleet chaos parsing -------------------------------------------------------


class TestFleetChaosParse:
    def test_grammar(self):
        chaos = FleetChaos.parse("kill:a0@1,hang:a1,slow:a2@2|4,partition:a0@3,"
                                 "drop:a1@5,dup:a2@0,reorder:a0@7,crash:4")
        assert chaos.kill == {"a0": frozenset({1})}
        assert chaos.hang == {"a1": frozenset({0})}  # no @: first lease
        assert chaos.slow == {"a2": frozenset({2, 4})}
        assert chaos.partition == {"a0": frozenset({3})}
        assert chaos.drop == {"a1": frozenset({5})}
        assert chaos.dup == {"a2": frozenset({0})}
        assert chaos.reorder == {"a0": frozenset({7})}
        assert chaos.crash_after == 4
        assert chaos.fires_kill("a0", 1) and not chaos.fires_kill("a0", 0)
        assert chaos.frame_dropped("a1", 5) and not chaos.frame_dropped("a1", 4)
        assert chaos.should_crash(4) and not chaos.should_crash(3)

    def test_rejects_unknown_kind_and_missing_agent(self):
        with pytest.raises(ValueError, match="unknown fleet chaos kind"):
            FleetChaos.parse("explode:a0")
        with pytest.raises(ValueError, match="names no agent"):
            FleetChaos.parse("kill:@1")

    def test_repeated_items_take_the_union(self):
        chaos = FleetChaos.parse("kill:a1@0,kill:a1@3,drop:a2@1,drop:a2@1|4")
        assert chaos.kill == {"a1": frozenset({0, 3})}
        assert chaos.drop == {"a2": frozenset({1, 4})}
        assert chaos.fires_kill("a1", 0) and chaos.fires_kill("a1", 3)
        # two crash switches: the scheduler stops at the first one reached
        assert FleetChaos.parse("crash:6,crash:2").crash_after == 2

    @pytest.mark.parametrize("spec", ["kill:a0@-1", "drop:a0@1|-2", "crash:-1",
                                      "kill:a0@x", "slow:a0@"])
    def test_rejects_negative_or_non_integer_ordinals(self, spec):
        with pytest.raises(ValueError, match="not a non-negative integer"):
            FleetChaos.parse(spec)


# -- scheduler policy ------------------------------------------------------------


class TestFleetPolicyValidation:
    @pytest.mark.parametrize("field, value", [
        ("retries", -1),
        ("lease_timeout", 0.0), ("lease_timeout", -1.0),
        ("lease_timeout", float("nan")), ("lease_timeout", float("inf")),
        ("heartbeat_interval", 0.0), ("heartbeat_interval", float("nan")),
        ("heartbeat_interval", 10.0), ("heartbeat_interval", 20.0),
        ("tick", 0.0), ("tick", float("inf")),
        ("idle_retry", -0.1), ("idle_retry", float("nan")),
        ("backoff", -0.5), ("backoff", float("nan")),
        ("backoff_cap", float("inf")), ("backoff_cap", -1.0),
        ("drain_grace", -1.0), ("drain_grace", float("inf")),
        ("steal_copies", 0),
        ("manifest_save_every", 0), ("manifest_save_every", -3),
        ("port", -1), ("port", 65536),
        ("degrade_after", -0.1), ("degrade_after", float("nan")),
    ])
    def test_bad_policy_names_field_and_value(self, field, value):
        with pytest.raises(ValueError) as excinfo:
            FleetPolicy(**{field: value})
        assert f"FleetPolicy.{field} must be" in str(excinfo.value)
        assert repr(value) in str(excinfo.value)

    def test_edge_values_accepted(self):
        FleetPolicy(port=65535, retries=0, backoff=0.0, backoff_cap=0.0,
                    drain_grace=0.0, steal_copies=1, manifest_save_every=1,
                    degrade_after=0.0, heartbeat_interval=9.99)
        FleetPolicy(port=0, degrade_after=None)

    def test_bad_policy_writes_no_campaign_state(self, tmp_path):
        with pytest.raises(ValueError, match="FleetPolicy.retries"):
            serve_campaign(tmp_path / "c", config(),
                           policy=policy(retries=-1, degrade_after=0.1))
        assert not (tmp_path / "c").exists()


# -- scheduler unit behaviour --------------------------------------------------


class TestSchedulerGuards:
    def test_duplicate_mismatch_is_fatal(self, tmp_path):
        async def main():
            sched = FleetScheduler(tmp_path / "c", config(), policy=policy())
            spec = sched.plan.chunks[0]
            ok = {"type": "result", "chunk": 0, "lease_id": "",
                  "counts": [spec.trials, 0, 0, 0]}
            sched._on_result("a0", ok)
            assert 0 in sched.manifest.chunks
            # a second execution of the same deterministic chunk disagrees:
            # that is corruption, and the campaign must stop, not vote
            bad = dict(ok, counts=[spec.trials - 1, 1, 0, 0])
            sched._on_result("a1", bad)
            assert isinstance(sched._fatal, DuplicateMismatch)
            with pytest.raises(DuplicateMismatch):
                await sched.serve()

        asyncio.run(main())

    def test_identical_duplicate_dropped(self, tmp_path):
        sched = FleetScheduler(tmp_path / "c", config(), policy=policy())
        spec = sched.plan.chunks[0]
        frame = {"type": "result", "chunk": 0, "lease_id": "",
                 "counts": [spec.trials, 0, 0, 0]}
        sched._on_result("a0", frame)
        sched._on_result("a1", dict(frame))
        assert sched.duplicates_dropped == 1
        assert sched._fatal is None

    def test_invalid_counts_requeue_degraded(self, tmp_path):
        sched = FleetScheduler(tmp_path / "c", config(), policy=policy())
        chunk, _ = sched.queue.pop_ready(0.0)  # lease it out, as the wire would
        bad = {"type": "result", "chunk": chunk, "lease_id": "",
               "counts": [1, -1, 0, 0]}
        sched._on_result("a0", bad)
        assert chunk not in sched.manifest.chunks
        assert chunk in sched.queue  # requeued, not merged
        # a numerical failure retries on the same engine, like the supervisor
        assert sched.queue.chunk(chunk).attempt == 1
        assert not hasattr(sched.queue.chunk(chunk), "engine")

    def test_restart_requires_matching_config(self, tmp_path):
        Manifest.create(tmp_path / "c", config().fingerprint_dict(),
                        total_chunks=4)
        with pytest.raises(EngineMismatch):
            FleetScheduler(tmp_path / "c", config(seed=8), policy=policy())


# -- end-to-end ----------------------------------------------------------------


class TestFleetEndToEnd:
    def test_plain_fleet_matches_single_process(self, tmp_path):
        ref = start_campaign(tmp_path / "ref", config())

        async def main():
            sched = FleetScheduler(tmp_path / "fleet", config(), policy=policy())
            serve = await _start(sched)
            host, port = sched.endpoint
            agents = [
                FleetAgent(f"a{i}", host=host, port=port, policy=agent_policy())
                for i in range(3)
            ]
            summaries = await asyncio.gather(*(a.run() for a in agents))
            result = await serve
            return result, summaries

        result, summaries = asyncio.run(main())
        assert result.complete
        assert counts(result.tally) == counts(ref.tally)
        assert sum(s.chunks_done for s in summaries) >= result.chunks_done
        assert all(s.saw_done for s in summaries)

    def test_degrades_to_in_process_supervisor_without_agents(self, tmp_path):
        ref = start_campaign(tmp_path / "ref", config())
        result = serve_campaign(
            tmp_path / "fleet", config(),
            policy=policy(degrade_after=0.2),
        )
        assert result.complete
        assert counts(result.tally) == counts(ref.tally)
        sidecar = json.loads((tmp_path / "fleet" / "fleet.json").read_text())
        assert sidecar["state"] == "complete"
        assert sidecar["agents_seen"] == []

    def test_work_stealing_first_result_wins(self, tmp_path):
        """A slow straggler's chunk is speculatively re-issued to an idle
        peer; whichever result lands first commits, the loser's duplicate
        is verified identical and dropped."""
        ref = start_campaign(tmp_path / "ref", config(trials=16, chunk=8))
        chaos = FleetChaos.parse("slow:slowpoke@0|1|2", slow_seconds=1.5)

        async def main():
            sched = FleetScheduler(
                tmp_path / "fleet", config(trials=16, chunk=8),
                policy=policy(lease_timeout=10.0, drain_grace=2.5),
            )
            serve = await _start(sched)
            host, port = sched.endpoint
            slowpoke = FleetAgent("slowpoke", host=host, port=port, chaos=chaos,
                                  policy=agent_policy())
            slow_task = asyncio.ensure_future(slowpoke.run())
            while len(sched.leases) == 0:  # slowpoke must hold a lease first
                await asyncio.sleep(0.01)
            thief = FleetAgent("thief", host=host, port=port,
                               policy=agent_policy())
            thief_summary = await thief.run()
            result = await serve
            await slow_task
            return sched, result, thief_summary

        sched, result, thief_summary = asyncio.run(main())
        assert result.complete
        assert counts(result.tally) == counts(ref.tally)
        assert sched.leases.stolen >= 1
        assert thief_summary.steals_run >= 1
        assert sched.duplicates_dropped >= 1  # the loser's identical result
        assert sched._fatal is None

    def test_dead_agent_leases_requeue(self, tmp_path):
        ref = start_campaign(tmp_path / "ref", config())
        chaos = FleetChaos.parse("kill:victim@0")

        async def main():
            sched = FleetScheduler(tmp_path / "fleet", config(), policy=policy())
            serve = await _start(sched)
            host, port = sched.endpoint
            victim = FleetAgent("victim", host=host, port=port, chaos=chaos,
                                policy=agent_policy())
            victim_task = asyncio.ensure_future(victim.run())
            survivor = FleetAgent("survivor", host=host, port=port,
                                  policy=agent_policy())
            summary = await survivor.run()
            result = await serve
            with pytest.raises(AgentKilled):
                await victim_task
            return result, summary

        result, summary = asyncio.run(main())
        assert result.complete
        assert counts(result.tally) == counts(ref.tally)
        # the victim never reported anything: the survivor did every chunk
        assert summary.chunks_done == result.chunks_done

    def test_agent_without_any_scheduler_fails(self):
        with pytest.raises(AgentFailure, match="could not reach"):
            asyncio.run(
                FleetAgent(
                    "a0", host="127.0.0.1", port=1,
                    policy=agent_policy(connect_timeout=0.3),
                ).run()
            )

    def test_fingerprint_mismatch_rejects_agent(self, tmp_path):
        async def main():
            sched = FleetScheduler(tmp_path / "c", config(), policy=policy())
            serve = await _start(sched)
            host, port = sched.endpoint
            stranger = FleetAgent("a0", host=host, port=port,
                                  policy=agent_policy())
            stranger._plan_fingerprint = "0" * 64  # claims another campaign
            with pytest.raises(AgentFailure, match="rejected"):
                await stranger.run()
            helper = FleetAgent("a1", host=host, port=port,
                                policy=agent_policy())
            await helper.run()
            return await serve

        result = asyncio.run(main())
        assert result.complete

    def test_result_cache_round_trip(self, tmp_path):
        result = serve_campaign(
            tmp_path / "fleet", config(),
            policy=policy(degrade_after=0.1),
            cache_dir=tmp_path / "cache",
        )
        assert result.complete
        fp = fingerprint(config().fingerprint_dict())
        hit = ResultCache(tmp_path / "cache").lookup(fp)
        assert hit is not None
        assert hit["summary"]["ok"] == result.tally.ok
        assert hit["summary"]["complete"] is True

    def test_fleet_status_surfaces_sidecar(self, tmp_path):
        serve_campaign(tmp_path / "c", config(), policy=policy(degrade_after=0.1))
        status = fleet_status(tmp_path / "c")
        assert status["complete"] is True
        assert status["fleet"]["state"] == "complete"
        assert status["fleet"]["leases"]["active"] == []


# -- the acceptance scenario ---------------------------------------------------


class TestChaosFleet:
    def test_kills_hangs_partition_crash_restart_steal_bit_identical(
        self, tmp_path
    ):
        """The PR's acceptance scenario, all at once: one agent is killed
        mid-lease, one goes silent past its lease and sends a late result,
        one works through a one-way partition, a frame gets duplicated on
        the wire, the scheduler crashes after 6 commits - and the restarted
        scheduler finishes the campaign with a fresh crew whose straggler
        gets a chunk stolen, with the merged tally bit-identical to an
        uninterrupted single-process run."""
        cfg = config(trials=96, chunk=8, seed=11)  # 12 chunks
        ref = start_campaign(tmp_path / "ref", cfg)

        chaos = FleetChaos.parse(
            "kill:a0@1,hang:a1@0,partition:a2@0,slow:a2@2|3|4,"
            "dup:a1@4,crash:6",
            hang_seconds=1.2, slow_seconds=1.5,
        )
        pol = policy(lease_timeout=1.0, retries=4)
        # the restart crew: b0 straggles on every lease it gets, so once b1
        # drains the queue the only way to finish is to steal from b0; the
        # long lease keeps the slow path a steal, not an expiry, and the
        # drain grace outlives b0's late duplicate so dedupe (not a dead
        # socket) absorbs it
        steal_chaos = FleetChaos.parse(
            "slow:b0@0|1|2|3|4|5|6|7|8|9", slow_seconds=1.5,
        )
        pol2 = policy(lease_timeout=10.0, retries=4, drain_grace=2.5)

        async def main():
            d = tmp_path / "fleet"
            s1 = FleetScheduler(d, cfg, policy=pol, chaos=chaos)
            serve1 = await _start(s1)
            agents = {
                name: asyncio.ensure_future(
                    FleetAgent(name, directory=d, chaos=chaos,
                               policy=agent_policy(connect_timeout=1.0)).run())
                for name in ("a0", "a1", "a2")
            }
            with pytest.raises(CampaignAborted):
                await serve1
            # first crew winds down against the dead endpoint (the killed
            # agent surfaces its fault, the others exit cleanly)
            outcomes = await asyncio.gather(*agents.values(),
                                            return_exceptions=True)
            # the manifest on disk is consistent mid-crash: a restarted
            # scheduler re-derives exactly the missing chunks, and agents
            # re-find it through the refreshed fleet.json sidecar
            s2 = FleetScheduler(d, policy=pol2)
            serve2 = await _start(s2)
            b0 = FleetAgent("b0", directory=d, chaos=steal_chaos,
                            policy=agent_policy())
            b0_task = asyncio.ensure_future(b0.run())
            while len(s2.leases) == 0:  # b0 must hold a lease first
                await asyncio.sleep(0.01)
            b1 = FleetAgent("b1", directory=d, policy=agent_policy())
            await b1.run()
            result = await serve2
            await b0_task
            return s1, s2, result, outcomes

        s1, s2, result, outcomes = asyncio.run(main())

        assert result.complete
        assert counts(result.tally) == counts(ref.tally)  # the whole point
        # the kill actually fired and took its agent down
        assert any(isinstance(o, AgentKilled) for o in outcomes)
        # the hang/partition leases lapsed without a heartbeat and requeued
        assert s1.leases.expired >= 1
        # the restarted scheduler stole the straggler's chunk to finish
        assert s2.leases.stolen >= 1
        # nothing disagreed: every duplicate was verified identical
        assert s1._fatal is None and s2._fatal is None
        # every failure was transient: retries absorbed all of it
        assert not result.quarantined

    def test_crash_leaves_manifest_resumable_by_single_process(self, tmp_path):
        """A fleet crash is recoverable by the *single-process* resume path
        too: the manifest substrate is shared, so an operator can finish a
        wedged fleet campaign locally."""
        cfg = config()
        ref = start_campaign(tmp_path / "ref", cfg)
        chaos = FleetChaos.parse("crash:2")

        async def main():
            sched = FleetScheduler(tmp_path / "c", cfg, policy=policy(),
                                   chaos=chaos)
            serve = await _start(sched)
            host, port = sched.endpoint
            agent_task = asyncio.ensure_future(
                FleetAgent("a0", host=host, port=port,
                           policy=agent_policy(connect_timeout=0.5)).run())
            with pytest.raises(CampaignAborted):
                await serve
            await agent_task  # joined, scheduler gone: exits cleanly

        asyncio.run(main())
        result = resume_campaign(tmp_path / "c")
        assert result.complete
        assert counts(result.tally) == counts(ref.tally)
