"""REPRO2xx fixture corpus: the project-wide dataflow tier.

Each test feeds a small in-memory mini-package (``{path: source}``) through
:func:`repro.checkers.run_flow_checks_on_sources` and asserts on the
``(code, path)`` pairs that fire.  The sources are strings on purpose: the
repo's own self-lint walks ``tests/`` too, and deliberate violations must
live where only the flow tier under test can see them.
"""

from __future__ import annotations

import textwrap

from repro.checkers import all_flow_rules, run_flow_checks_on_sources

PKG = "src/repro/fixturepkg"


def flow_findings(sources: dict[str, str], **kwargs) -> list[tuple[str, str, int]]:
    dedented = {path: textwrap.dedent(src) for path, src in sources.items()}
    violations = run_flow_checks_on_sources(dedented, **kwargs)
    return [(v.code, v.path, v.line) for v in violations]


def flow_codes(sources: dict[str, str], **kwargs) -> list[str]:
    return [code for code, _, _ in flow_findings(sources, **kwargs)]


def test_flow_rule_catalogue_codes_unique_and_grouped():
    rules = all_flow_rules()
    codes = [r.code for r in rules]
    assert len(codes) == len(set(codes))
    assert all(c.startswith("REPRO2") for c in codes)
    assert all(r.hint and r.rationale for r in rules)


# -- REPRO20x: seed provenance ----------------------------------------------


def test_unseeded_rng_captured_into_worker_flagged():
    """The acceptance fixture: an unseeded Generator shipped into a pool."""
    src = {
        f"{PKG}/engine.py": """
            import numpy as np
            from concurrent.futures import ProcessPoolExecutor

            def simulate(rng, i):
                return rng.random() + i

            def run(n):
                rng = np.random.default_rng()
                with ProcessPoolExecutor() as pool:
                    futures = [pool.submit(simulate, rng, i) for i in range(n)]
                return [f.result() for f in futures]
        """,
    }
    codes = flow_codes(src)
    assert "REPRO201" in codes


def test_seeded_rng_shipped_to_worker_still_flagged():
    """Even a seeded Generator must not cross the process boundary: the
    pickled copy diverges from the parent the moment either side draws."""
    src = {
        f"{PKG}/engine.py": """
            import numpy as np
            from concurrent.futures import ProcessPoolExecutor

            def simulate(rng):
                return rng.random()

            def run(n):
                rng = np.random.default_rng(1234)
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(simulate, rng) for _ in range(n)]
        """,
    }
    assert "REPRO201" in flow_codes(src)


def test_rng_captured_by_worker_lambda_flagged():
    src = {
        f"{PKG}/engine.py": """
            import numpy as np
            from concurrent.futures import ProcessPoolExecutor

            def run(n):
                rng = np.random.default_rng(7)
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(lambda: rng.random()) for _ in range(n)]
        """,
    }
    assert "REPRO201" in flow_codes(src)


def test_supervisor_pattern_ships_seeds_not_rngs():
    """The blessed pattern (campaign/supervisor.py): ship ints and plain
    names; workers rebuild their own Generator."""
    src = {
        f"{PKG}/engine.py": """
            import numpy as np
            from concurrent.futures import ProcessPoolExecutor

            def worker_entry(seed, backend_name):
                rng = np.random.default_rng(seed)
                return rng.random()

            def run(seed, n):
                children = np.random.SeedSequence(seed).spawn(n)
                with ProcessPoolExecutor() as pool:
                    return [
                        pool.submit(worker_entry, int(s.entropy), "numpy")
                        for s in children
                    ]
        """,
    }
    assert flow_codes(src) == []


def test_unseeded_rng_threaded_into_drawing_function():
    """REPRO202 is interprocedural: callee draws from its rng parameter,
    caller (another module) feeds it an unseeded Generator."""
    src = {
        f"{PKG}/sampling.py": """
            def sample(rng, n):
                return rng.random(n)
        """,
        f"{PKG}/driver.py": """
            import numpy as np

            from .sampling import sample

            def run(n):
                return sample(np.random.default_rng(), n)
        """,
    }
    findings = flow_findings(src)
    assert ("REPRO202", f"{PKG}/driver.py", 7) in findings


def test_seeded_rng_threaded_through_is_clean():
    src = {
        f"{PKG}/sampling.py": """
            def sample(rng, n):
                return rng.random(n)
        """,
        f"{PKG}/driver.py": """
            import numpy as np

            from .sampling import sample

            def run(seed, n):
                return sample(np.random.default_rng(seed), n)
        """,
    }
    assert flow_codes(src) == []


def test_drawing_function_resolved_through_reexport():
    """Resolution chases ``from .sampling import sample`` re-exported by the
    package ``__init__`` - aliasing must not hide the unseeded source."""
    src = {
        f"{PKG}/__init__.py": """
            from .sampling import sample

            __all__ = ["sample"]
        """,
        f"{PKG}/sampling.py": """
            def sample(rng, n):
                return rng.random(n)
        """,
        "src/repro/driverpkg/run.py": """
            import numpy as np

            from repro.fixturepkg import sample

            def run(n):
                return sample(np.random.default_rng(seed=None), n)
        """,
    }
    codes = flow_codes(src)
    assert "REPRO202" in codes


def test_drawing_function_resolved_through_lazy_reexport():
    """A lazily exporting ``__init__`` declares its re-exports only under
    ``if TYPE_CHECKING:``; the resolver must chase them all the same."""
    src = {
        f"{PKG}/__init__.py": """
            from typing import TYPE_CHECKING

            from .._exports import lazy_exports

            if TYPE_CHECKING:
                from .sampling import sample

            __all__, __getattr__, __dir__ = lazy_exports(__name__, {
                "sampling": ("sample",),
            })
        """,
        f"{PKG}/sampling.py": """
            def sample(rng, n):
                return rng.random(n)
        """,
        "src/repro/driverpkg/run.py": """
            import numpy as np

            from repro import fixturepkg
            from repro.fixturepkg import sample

            def run(n):
                return sample(np.random.default_rng(seed=None), n)

            def run_qualified(n):
                return fixturepkg.sample(np.random.default_rng(seed=None), n)
        """,
    }
    findings = flow_findings(src)
    assert [(code, line) for code, path, line in findings
            if path.endswith("driverpkg/run.py")] == [("REPRO202", 8), ("REPRO202", 11)]


def test_module_scope_rng_flagged_even_when_seeded():
    src = {
        f"{PKG}/globals_mod.py": """
            import numpy as np

            RNG = np.random.default_rng(42)
            SEED = 1234
        """,
    }
    findings = flow_findings(src)
    assert findings == [("REPRO203", f"{PKG}/globals_mod.py", 4)]


def test_module_scope_rng_only_in_project_modules():
    """REPRO203 targets library modules; scripts/benchmarks own their setup."""
    src = {
        "benchmarks/bench_thing.py": """
            import numpy as np

            RNG = np.random.default_rng(42)
        """,
    }
    assert flow_codes(src) == []


# -- REPRO21x: worker-boundary safety ---------------------------------------


def test_worker_reading_module_global_mutable_state_flagged():
    src = {
        f"{PKG}/pool_mod.py": """
            from concurrent.futures import ProcessPoolExecutor

            CACHE = {}

            def worker(key):
                return CACHE.get(key)

            def run(keys):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(worker, k) for k in keys]
        """,
    }
    assert "REPRO211" in flow_codes(src)


def test_worker_closure_over_local_state_flagged():
    src = {
        f"{PKG}/pool_mod.py": """
            from concurrent.futures import ProcessPoolExecutor

            def run(keys):
                results = {}

                def worker(key):
                    return results[key]

                with ProcessPoolExecutor() as pool:
                    return [pool.submit(worker, k) for k in keys]
        """,
    }
    assert "REPRO211" in flow_codes(src)


def test_self_contained_worker_is_clean():
    src = {
        f"{PKG}/pool_mod.py": """
            from concurrent.futures import ProcessPoolExecutor

            def worker(key, table):
                return table[key]

            def run(keys, table):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(worker, k, table) for k in keys]
        """,
    }
    assert flow_codes(src) == []


def test_backend_name_string_shipped_is_clean():
    src = {
        f"{PKG}/dispatch.py": """
            from concurrent.futures import ProcessPoolExecutor

            def kernel(backend_name, x):
                return backend_name + str(x)

            def run(xs, backend_name):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(kernel, backend_name, x) for x in xs]
        """,
    }
    assert flow_codes(src) == []


def test_open_handle_shipped_to_worker_flagged():
    src = {
        f"{PKG}/logging_mod.py": """
            from concurrent.futures import ProcessPoolExecutor

            def work(log, item):
                log.write(str(item))

            def run(items):
                log = open("out.txt", "w")
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(work, log, i) for i in items]
        """,
    }
    assert "REPRO213" in flow_codes(src)


def test_multiprocessing_pool_dispatch_also_covered():
    """Container literals don't hide the rng: ``map(fn, [rng] * n)`` and
    ``apply_async(fn, (rng,))`` ship it as surely as ``submit(fn, rng)``."""
    src = {
        f"{PKG}/mp_mod.py": """
            import multiprocessing as mp

            import numpy as np

            def simulate(rng):
                return rng.random()

            def run(n):
                rng = np.random.default_rng()
                pool = mp.Pool(4)
                return pool.map(simulate, [rng] * n)
        """,
    }
    src2 = {
        f"{PKG}/mp_mod.py": """
            import multiprocessing as mp

            import numpy as np

            def simulate(rng):
                return rng.random()

            def run(n):
                rng = np.random.default_rng()
                pool = mp.Pool(4)
                return [pool.apply_async(simulate, (rng,)) for _ in range(n)]
        """,
    }
    assert "REPRO201" in flow_codes(src)
    assert "REPRO201" in flow_codes(src2)


# -- REPRO21x over the fleet wire --------------------------------------------


def test_rng_shipped_in_fleet_frame_flagged():
    """The fleet socket is a worker boundary: a Generator in a frame is the
    same defect as one pickled into a pool."""
    src = {
        f"{PKG}/wire.py": """
            import numpy as np

            from repro.campaign.fleet.protocol import write_frame

            async def report(writer, chunk):
                rng = np.random.default_rng()
                await write_frame(writer, {"chunk": chunk, "rng": rng})
        """,
    }
    assert "REPRO201" in flow_codes(src)


def test_open_handle_in_fleet_frame_flagged():
    src = {
        f"{PKG}/wire.py": """
            from repro.campaign.fleet.protocol import write_frame

            async def report(writer, chunk):
                log = open("chunk.log")
                await write_frame(writer, {"chunk": chunk, "log": log})
        """,
    }
    assert "REPRO213" in flow_codes(src)


def test_names_and_counts_frames_are_clean():
    """The blessed wire shape (scheduler/agent): chunk indices, lease ids,
    tally counts, config dicts - never process-local objects."""
    src = {
        f"{PKG}/wire.py": """
            from repro.campaign.fleet.protocol import FrameLink, write_frame

            async def welcome(reader, writer, config):
                link = FrameLink(reader, writer)
                await link.send({"type": "welcome", "config": config})

            async def report(writer, chunk, counts):
                await write_frame(writer, {"chunk": chunk, "counts": counts})
        """,
    }
    assert flow_codes(src) == []


def test_fleet_transport_argument_is_not_cargo():
    """Only what goes *into* the frame crosses the boundary; the transport
    handle in write_frame's first positional stays process-local."""
    src = {
        f"{PKG}/wire.py": """
            from repro.campaign.fleet.protocol import write_frame

            async def report(chunk):
                sock = open("socket-like", "wb")
                await write_frame(sock, {"chunk": chunk})
        """,
    }
    assert flow_codes(src) == []


# -- REPRO22x: obs purity ----------------------------------------------------


def test_obs_read_flowing_into_return_flagged():
    src = {
        "src/repro/galois/hot_mod.py": """
            from repro import obs

            _CALLS = obs.counter("fixture.calls")

            def kernel(words):
                _CALLS.inc(1)
                observed = _CALLS.value()
                return observed
        """,
    }
    findings = flow_findings(src)
    assert ("REPRO221", "src/repro/galois/hot_mod.py", 9) in findings


def test_write_only_obs_usage_is_clean():
    src = {
        "src/repro/galois/hot_mod.py": """
            from repro import obs

            _CALLS = obs.counter("fixture.calls")

            def kernel(words):
                _CALLS.inc(len(words))
                return len(words) * 2
        """,
    }
    assert flow_codes(src) == []


def test_obs_read_in_fault_layer_flagged():
    """The fault layer seeds the streams every mask draws from: a count it
    read back must not reach a mask or a seed."""
    src = {
        "src/repro/faults/hot_mod.py": """
            from repro.obs import metrics

            _SEEDED = metrics.counter("fixture.seeded")

            def seed_states(keys):
                _SEEDED.add(len(keys))
                return keys, _SEEDED.value()
        """,
    }
    findings = flow_findings(src)
    assert ("REPRO221", "src/repro/faults/hot_mod.py", 8) in findings


def test_obs_reads_outside_hot_layers_allowed():
    """The obs layer's own report/summarize code must read snapshots."""
    src = {
        "src/repro/analysis/report_mod.py": """
            from repro import obs

            def render():
                snap = obs.snapshot("report")
                return snap
        """,
    }
    assert flow_codes(src) == []


def test_stream_delta_read_flowing_into_return_flagged():
    """The streaming layer's reads (encoded deltas) are measurement data
    too - a hot-layer kernel must not return one."""
    src = {
        "src/repro/codes/hot_mod.py": """
            from repro.obs import DeltaEncoder

            _ENC = DeltaEncoder("fixture")

            def kernel(words):
                frame = _ENC.delta("chunk")
                return frame
        """,
    }
    findings = flow_findings(src)
    assert ("REPRO221", "src/repro/codes/hot_mod.py", 8) in findings


def test_stream_reads_in_fleet_layer_allowed():
    """The scheduler's telemetry aggregation is reporting code, not a hot
    layer - merging and snapshotting streams there is the point."""
    src = {
        "src/repro/campaign/telemetry_mod.py": """
            from repro.obs import StreamMerger

            def watch(frames):
                merger = StreamMerger()
                for frame in frames:
                    merger.apply(frame)
                return merger.snapshot("stream")
        """,
    }
    assert flow_codes(src) == []


# -- REPRO23x: GF-kernel contract --------------------------------------------


def test_uncleared_backend_cache_flagged_and_cleared_one_allowed():
    src = {
        "src/repro/galois/backends.py": """
            _LEAKY = {}
            _MANAGED = {}

            def clear_cache():
                _MANAGED.clear()
        """,
    }
    findings = flow_findings(src)
    assert findings == [("REPRO232", "src/repro/galois/backends.py", 2)]


def test_backend_mutating_input_flagged_copy_is_clean():
    src = {
        "src/repro/galois/backends.py": """
            def bad_kernel(words):
                words[0] = 0
                return words

            def good_kernel(words):
                scratch = words.copy()
                scratch[0] = 0
                return scratch
        """,
    }
    findings = flow_findings(src)
    assert [(c, ln) for c, _, ln in findings] == [("REPRO233", 3)]


def test_backend_mutation_through_view_alias_flagged():
    src = {
        "src/repro/galois/backends.py": """
            def kernel(acc):
                row = acc[0]
                row += 1
                return acc
        """,
    }
    assert "REPRO233" in flow_codes(src)


# -- suppression / filtering -------------------------------------------------


def test_flow_noqa_suppresses_on_the_flagged_line():
    src = {
        f"{PKG}/globals_mod.py": """
            import numpy as np

            RNG = np.random.default_rng(42)  # repro: noqa-REPRO203
        """,
    }
    assert flow_codes(src) == []


def test_flow_select_and_ignore_prefixes():
    src = {
        f"{PKG}/globals_mod.py": """
            import numpy as np

            RNG = np.random.default_rng(42)
        """,
        "src/repro/galois/backends.py": """
            _LEAKY = {}
        """,
    }
    assert set(flow_codes(src)) == {"REPRO203", "REPRO232"}
    assert flow_codes(src, select=["REPRO23"]) == ["REPRO232"]
    assert flow_codes(src, ignore=["REPRO23"]) == ["REPRO203"]


def test_unparseable_source_is_skipped_not_fatal():
    src = {
        f"{PKG}/broken.py": "def oops(:\n",
        f"{PKG}/globals_mod.py": """
            import numpy as np

            RNG = np.random.default_rng(42)
        """,
    }
    assert flow_codes(src) == ["REPRO203"]
