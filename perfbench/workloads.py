"""The four workloads: each builds its inputs from a seed and runs one job.

Every workload is one closed-loop caller that waits for one answer, run in
the benchmark process (the campaign forks its own supervised workers).
Default sizes live here and are fingerprinted into the golden outputs; the
benchmark's tests pass smaller ones.

A workload calls the program through module attributes (``rareevent.f``,
not a name imported into this file) so that the traced run's wrappers,
installed on those modules, see every call.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.analysis import sweep
from repro.faults.rates import DEFAULT_RATES
from repro.reliability import batch, conditional, rareevent
from repro.reliability.exact import ExactRunConfig
from repro.reliability.outcomes import Tally
from repro.reliability.stats import weighted_summary
from repro.schemes import default_schemes

import golden

#: the deep-tail operating point of F12 and the campaign.
TAIL_BER = 1e-4
#: PAIR must beat XED by more than this at TAIL_BER (the paper's "up to 10^6 x").
PAIR_OVER_XED = 1e6
#: sizes of PAIR's importance sampler, shared by tail-fit and rare-campaign so
#: that the two estimates must agree bit for bit.
TAIL_CHUNK_TRIALS = 2048
TAIL_CHUNKS = 16
TABLE_SAMPLES = 16


def _schemes(names: tuple[str, ...]) -> list:
    by_name = {scheme.name: scheme for scheme in default_schemes()}
    return [by_name[name] for name in names]


def _weighted_unit(tally: Tally) -> Any:
    """A weighted tally as one golden unit: counts plus log-weight sums."""
    return golden.canonical({
        "counts": [tally.ok, tally.ce, tally.due, tally.sdc],
        "weighted": tally.extra["weighted"],
    })


class Workload:
    """One benchmark workload; subclasses fill in the job."""

    name = ""
    #: what one of the workload's trials is.
    trial_unit = ""
    #: the traced run turns ``repro.obs`` on for the program's own spans.
    uses_obs_spans = False
    #: processes the job keeps busy at once; the host-speed probe loads as many.
    processes = 1

    def params(self) -> dict[str, Any]:
        """The sizes the golden outputs depend on."""
        raise NotImplementedError

    def prepare(self, seed: int, workdir: Path) -> None:
        """Set-up: build every input except the conditional tables."""
        raise NotImplementedError

    def run(self) -> Any:
        """The timed job."""
        raise NotImplementedError

    def trials(self, raw: Any) -> int:
        raise NotImplementedError

    def outputs(self, raw: Any) -> dict[str, Any]:
        """Canonical output units, compared with the golden ones."""
        raise NotImplementedError

    def check(self, raw: Any) -> tuple[list[str], list[str]]:
        """(units that failed inside the program, violated contracts)."""
        return [], []

    def diagnostics(self, raw: Any) -> dict[str, Any]:
        """Per-layer figures that only the job's result carries.

        ``ess_frac`` is the Kish effective sample size over trials; draws
        without importance weights count in full.
        """
        return {"ess_frac": 1.0}

    def cleanup(self, raw: Any) -> None:
        pass


class F2Sweep(Workload):
    """Cold analytic F2 sweep: five schemes, nine BERs, tables measured."""

    name = "f2-sweep"
    trial_unit = "table decode trial"

    def __init__(self, samples: int = 400):
        self.samples = samples

    def params(self) -> dict[str, Any]:
        return {"samples": self.samples, "ber_grid": [1e-7, 1e-3, 9]}

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.schemes = default_schemes()
        self.bers = sweep.log_space(1e-7, 1e-3, 9)

    def run(self) -> Any:
        return sweep.reliability_sweep(
            self.schemes, self.bers, samples=self.samples, seed=self.seed
        )

    def trials(self, raw: Any) -> int:
        # each table decodes `samples` words per error count j = 1..j_max;
        # the caches started empty, so they hold exactly this run's tables
        return self.samples * sum(
            len(table.j_values) - 1 for table in conditional._TABLE_CACHE.values()
        )

    def outputs(self, raw: Any) -> dict[str, Any]:
        return {
            name: golden.canonical({key: curves[key] for key in ("sdc", "due", "fail")})
            for name, curves in raw.items()
        }

    def check(self, raw: Any) -> tuple[list[str], list[str]]:
        at = int(np.argmin(np.abs(np.log10(self.bers) - math.log10(TAIL_BER))))
        ratio = raw["xed"]["fail"][at] / raw["pair"]["fail"][at]
        if ratio > PAIR_OVER_XED:
            return [], []
        return [], [f"f2-sweep: PAIR over XED is {ratio:.3g} at BER {TAIL_BER:g}"]


class IidMc(Workload):
    """Decoder-in-the-loop Monte Carlo, a fresh fault universe per trial."""

    name = "iid-mc"
    trial_unit = "line read"
    BER = 1e-5

    def __init__(self, trials: int = 300):
        self.trials_per_scheme = trials

    def params(self) -> dict[str, Any]:
        return {"trials": self.trials_per_scheme, "ber": self.BER}

    def prepare(self, seed: int, workdir: Path) -> None:
        self.schemes = default_schemes()
        self.rates = DEFAULT_RATES.with_ber(self.BER)
        self.config = ExactRunConfig(trials=self.trials_per_scheme, seed=seed)

    def run(self) -> Any:
        return {
            scheme.name: batch.run_iid_batched(scheme, self.rates, self.config)
            for scheme in self.schemes
        }

    def trials(self, raw: Any) -> int:
        return self.trials_per_scheme * len(raw)

    def outputs(self, raw: Any) -> dict[str, Any]:
        return {name: [t.ok, t.ce, t.due, t.sdc] for name, t in raw.items()}


class TailFit(Workload):
    """F12: tilted importance sampling on four schemes plus PAIR splitting."""

    name = "tail-fit"
    trial_unit = "IS trial"
    SCHEMES = ("pair", "duo", "xed", "iecc-sec")

    def __init__(self, chunk_trials: int = TAIL_CHUNK_TRIALS, chunks: int = TAIL_CHUNKS,
                 samples: int = TABLE_SAMPLES, effort: int = 4096):
        self.chunk_trials = chunk_trials
        self.chunks = chunks
        self.samples = samples
        self.effort = effort

    def params(self) -> dict[str, Any]:
        return {"chunk_trials": self.chunk_trials, "chunks": self.chunks,
                "samples": self.samples, "effort": self.effort, "ber": TAIL_BER}

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.schemes = _schemes(self.SCHEMES)
        self.rates = DEFAULT_RATES.pure_ber(TAIL_BER)
        self.config = ExactRunConfig(trials=self.chunk_trials * self.chunks, seed=seed)
        self.rare = rareevent.RareEventParams(
            tilt="auto", samples=self.samples, table_seed=seed
        )

    def run(self) -> Any:
        tails = {
            scheme.name: rareevent.run_rareevent_iid(
                scheme, self.rates, self.config, self.rare,
                chunk_trials=self.chunk_trials,
            )
            for scheme in self.schemes
        }
        split = rareevent.run_splitting_iid(
            self.schemes[0], self.rates, effort=self.effort, seed=self.seed,
            samples=self.samples, table_seed=self.seed,
        )
        return tails, split

    def trials(self, raw: Any) -> int:
        return sum(result.trials for result in raw[0].values())

    def outputs(self, raw: Any) -> dict[str, Any]:
        tails, split = raw
        units = {name: _weighted_unit(result.tally) for name, result in tails.items()}
        units["splitting"] = golden.canonical(
            {"p_fail": split.p_fail, "p_tail": split.p_tail}
        )
        return units

    def check(self, raw: Any) -> tuple[list[str], list[str]]:
        fail = {
            name: result.estimates()["outcomes"]["fail"]["p_ht"]
            for name, result in raw[0].items()
        }
        ratio = fail["xed"] / fail["pair"] if fail["pair"] > 0 else math.inf
        if ratio > PAIR_OVER_XED:
            return [], []
        return [], [f"tail-fit: PAIR over XED is {ratio:.3g} at BER {TAIL_BER:g}"]

    def diagnostics(self, raw: Any) -> dict[str, Any]:
        return {"ess_frac": min(
            result.estimates()["ess"] / result.trials for result in raw[0].values()
        )}


def pair_auto_tilt(pair: Any, ber: float) -> float:
    """``tilt="auto"`` for PAIR, resolved without measuring its tables.

    :func:`repro.reliability.rareevent.auto_tilt` reads only the word length,
    the per-symbol error rate and the failure radius ``t + 1``, so a law
    with empty tables gives the same tilt while keeping table work out of
    set-up.  The rare-campaign = tail-fit golden contract checks that the
    two tilts agree bit for bit.
    """
    law = rareevent.LineLaw(
        scheme=pair.name, words=1, n=pair.code.n,
        q=rareevent._symbol_rate(ber), p_flag=np.zeros(1), p_bad=np.zeros(1),
        combine=rareevent.COMBINE_FLAG_DUE, k_fail=pair.code.t + 1,
    )
    return rareevent.auto_tilt(law)


class RareCampaign(Workload):
    """A local rare-event campaign for PAIR under the supervisor.

    The campaign modules are imported here rather than at the top of the
    file, so that only this workload's set-up pays for them.
    """

    name = "rare-campaign"
    trial_unit = "campaign trial"
    uses_obs_spans = True
    WORKERS = 2
    processes = WORKERS

    def __init__(self, chunk_trials: int = TAIL_CHUNK_TRIALS, chunks: int = TAIL_CHUNKS,
                 samples: int = TABLE_SAMPLES):
        self.chunk_trials = chunk_trials
        self.chunks = chunks
        self.samples = samples

    def params(self) -> dict[str, Any]:
        return {"chunk_trials": self.chunk_trials, "chunks": self.chunks,
                "samples": self.samples, "workers": self.WORKERS, "ber": TAIL_BER}

    def prepare(self, seed: int, workdir: Path) -> None:
        from repro.campaign import runner
        from repro.campaign.supervisor import SupervisorPolicy

        (pair,) = _schemes(("pair",))
        self.root = Path(workdir) / "campaigns"
        self.root.mkdir(parents=True, exist_ok=True)
        self.config = runner.CampaignConfig(
            scheme="pair", kind="rareevent", trials=self.chunk_trials * self.chunks,
            seed=seed, chunk_trials=self.chunk_trials,
            rates=DEFAULT_RATES.pure_ber(TAIL_BER),
            tilt=pair_auto_tilt(pair, TAIL_BER),
            rare_samples=self.samples, rare_table_seed=seed,
        )
        self.policy = SupervisorPolicy(workers=self.WORKERS)

    def run(self) -> Any:
        from repro.campaign import runner

        directory = Path(tempfile.mkdtemp(prefix="campaign-", dir=self.root))
        try:
            return directory, runner.start_campaign(directory, self.config, self.policy)
        except BaseException:
            shutil.rmtree(directory, ignore_errors=True)
            raise

    def trials(self, raw: Any) -> int:
        tally = raw[1].tally
        return tally.ok + tally.ce + tally.due + tally.sdc

    def outputs(self, raw: Any) -> dict[str, Any]:
        return {"pair": _weighted_unit(raw[1].tally)}

    def check(self, raw: Any) -> tuple[list[str], list[str]]:
        return ([] if raw[1].complete else ["pair"]), []

    def diagnostics(self, raw: Any) -> dict[str, Any]:
        from repro.campaign.manifest import Manifest

        manifest = Manifest.load(raw[0])
        spans = manifest.obs.get("spans", {}).values()
        return {
            "ess_frac": weighted_summary(raw[1].tally.extra["weighted"])["ess_fraction"],
            "chunk_spans": [span["duration_s"] for span in spans],
            "chunks": manifest.total_chunks,
            "workers": self.WORKERS,
            "retries": sum(rec.attempts - 1 for rec in manifest.chunks.values())
            + sum(rec.attempts for rec in manifest.quarantined.values()),
            "quarantined": len(manifest.quarantined),
        }

    def cleanup(self, raw: Any) -> None:
        shutil.rmtree(raw[0], ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (F2Sweep, IidMc, TailFit, RareCampaign)
}
