"""Crash-safe campaign manifest: the checkpoint/resume ledger.

One campaign lives in one directory holding a single ``manifest.json``.
The manifest records the full campaign config, a SHA-256 *fingerprint* of
everything that affects results (scheme, rates, trial/seed plan, chunking,
plan version), the per-chunk tallies committed so far and any quarantined
chunks.  Every save rewrites the file through
:func:`repro.utils.atomic_io.atomic_write_json`, so a SIGKILL at any moment
leaves either the previous or the next complete manifest - never a torn
one.  Resume loads the manifest, recomputes the fingerprint of the
requested config and refuses with :class:`repro.errors.EngineMismatch` on
any difference, because merging tallies across different configs would be
silent nonsense.  A manifest on disk is untrusted input: every record is
checked for its keys and types on load, and a malformed one raises
:class:`repro.errors.CampaignError` naming the file and the chunk.  The
file is written on one line with sorted keys; an indented manifest from an
older version loads the same way.

Saves are *debounced*: ``save_every`` (default 1: save on every mutation,
the historical behaviour) batches chunk records so a long campaign is not
O(chunks**2) in manifest I/O, and :meth:`Manifest.flush` forces the batch
out.  Debouncing never weakens crash safety - the file on disk is always a
complete, consistent prefix of the in-memory state, and a crash merely
re-runs the (deterministic) chunks recorded since the last save, so the
resumed result stays bit-identical.  Rare events (quarantine, obs merges)
always flush.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import CampaignError, EngineMismatch, guard_weighted
from ..obs.metrics import merge_snapshots
from ..obs.trace import span_dicts_snapshot
from ..reliability.outcomes import Tally
from ..utils.atomic_io import atomic_write_json

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

#: integer fields of a committed chunk record (``extra`` is optional).
_CHUNK_FIELDS = ("ok", "ce", "due", "sdc", "trials", "attempts")
#: keys older builds wrote into chunk records; read and ignored.
_LEGACY_CHUNK_KEYS = frozenset({"engine"})
#: string and non-negative integer fields of a quarantine record.
_QUARANTINE_STRS = ("error", "message")
_QUARANTINE_INTS = ("attempts", "seed")


def fingerprint(config_dict: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of the result-affecting config."""
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class ChunkRecord:
    """A committed chunk: its tally plus how it got there.

    ``extra`` carries the engine-specific JSON-safe sidecar of the tally
    (currently the rare-event engine's weighted accumulator under
    ``"weighted"``); ``None`` for plain count-only chunks, so manifests
    written before the field existed load - and fingerprint - unchanged.
    """

    ok: int
    ce: int
    due: int
    sdc: int
    trials: int
    attempts: int
    extra: dict[str, Any] | None = None

    def tally(self) -> Tally:
        return Tally(ok=self.ok, ce=self.ce, due=self.due, sdc=self.sdc,
                     extra=dict(self.extra) if self.extra else {})


@dataclass
class QuarantineRecord:
    """A chunk that failed repeatedly; surfaced, never silently dropped."""

    error: str
    message: str
    attempts: int
    seed: int


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _section(path: Path, raw: dict[str, Any], name: str,
             total_chunks: int) -> dict[int, Any]:
    """``raw[name]`` as ``{chunk index: record}``; keys must be in range."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise CampaignError(f"campaign manifest {path}: {name!r} is not an object")
    out = {}
    for key, rec in section.items():
        try:
            index = int(key)
        except ValueError:
            raise CampaignError(
                f"campaign manifest {path}: {name} key {key!r} is not a chunk index"
            ) from None
        if not 0 <= index < total_chunks:
            raise CampaignError(
                f"campaign manifest {path}: {name} chunk {index} is outside "
                f"the plan's {total_chunks} chunks"
            )
        if not isinstance(rec, dict):
            raise CampaignError(
                f"campaign manifest {path}: {name} chunk {index} is a "
                f"{type(rec).__name__}, not a record"
            )
        out[index] = rec
    return out


def _check_keys(where: str, rec: dict[str, Any], required: tuple[str, ...],
                optional: frozenset[str] = frozenset()) -> None:
    missing = [key for key in required if key not in rec]
    unknown = sorted(set(rec) - set(required) - optional)
    if missing or unknown:
        raise CampaignError(f"{where} lacks {missing} or has unknown keys {unknown}")


def _chunk_record(path: Path, index: int, rec: dict[str, Any]) -> ChunkRecord:
    where = f"campaign manifest {path}: chunk {index}"
    _check_keys(where, rec, _CHUNK_FIELDS, _LEGACY_CHUNK_KEYS | {"extra"})
    bad = [key for key in _CHUNK_FIELDS if not _is_count(rec[key])]
    if bad:
        raise CampaignError(f"{where} has invalid {bad}: want non-negative integers")
    if rec["ok"] + rec["ce"] + rec["due"] + rec["sdc"] != rec["trials"]:
        raise CampaignError(f"{where} counts do not sum to its {rec['trials']} trials")
    extra = rec.get("extra")
    if extra is not None:
        if not isinstance(extra, dict):
            raise CampaignError(f"{where} extra is not an object")
        if "weighted" in extra:
            guard_weighted(extra["weighted"], expected_total=rec["trials"], context=where)
    return ChunkRecord(**{key: rec[key] for key in _CHUNK_FIELDS}, extra=extra)


def _quarantine_record(path: Path, index: int, rec: dict[str, Any]) -> QuarantineRecord:
    where = f"campaign manifest {path}: quarantined chunk {index}"
    _check_keys(where, rec, _QUARANTINE_STRS + _QUARANTINE_INTS)
    bad = [key for key in _QUARANTINE_STRS if not isinstance(rec[key], str)]
    bad += [key for key in _QUARANTINE_INTS if not _is_count(rec[key])]
    if bad:
        raise CampaignError(f"{where} has invalid {bad}")
    return QuarantineRecord(**rec)


@dataclass
class Manifest:
    """In-memory view of one campaign directory's ``manifest.json``."""

    path: Path
    config: dict[str, Any]
    fingerprint: str
    total_chunks: int
    chunks: dict[int, ChunkRecord] = field(default_factory=dict)
    quarantined: dict[int, QuarantineRecord] = field(default_factory=dict)
    # Optional observability section: {"spans": {index: span_dict},
    # "metrics": metrics_snapshot}.  Never fingerprinted - obs data cannot
    # gate a resume - and absent entirely when campaigns run without obs,
    # so pre-obs manifests load unchanged.
    obs: dict[str, Any] = field(default_factory=dict)
    #: save after this many un-persisted chunk records (1 = every record).
    save_every: int = 1
    _dirty: int = field(default=0, repr=False, compare=False)

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, directory: str | Path, config: dict[str, Any],
               total_chunks: int) -> "Manifest":
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = cls(
            path=directory / MANIFEST_NAME,
            config=config,
            fingerprint=fingerprint(config),
            total_chunks=total_chunks,
        )
        manifest.save()
        return manifest

    @classmethod
    def open(cls, directory: str | Path, config: dict[str, Any],
             total_chunks: int) -> "Manifest":
        """Create the manifest for ``config``, or load the existing one.

        A loaded manifest must match ``config`` (else ``EngineMismatch``);
        its quarantined chunks get a fresh attempt budget.
        """
        if not (Path(directory) / MANIFEST_NAME).exists():
            return cls.create(directory, config, total_chunks)
        manifest = cls.load(directory)
        manifest.check_fingerprint(config)
        manifest.clear_quarantine()
        return manifest

    @classmethod
    def load(cls, directory: str | Path) -> "Manifest":
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise CampaignError(f"no campaign manifest at {path}")
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise CampaignError(
                f"campaign manifest {path} is unreadable or corrupt: {exc}"
            ) from exc
        if not isinstance(raw, dict):
            raise CampaignError(f"campaign manifest {path} is not a JSON object")
        for key in ("version", "fingerprint", "config", "total_chunks"):
            if key not in raw:
                raise CampaignError(f"campaign manifest {path} lacks {key!r}")
        if raw["version"] != MANIFEST_VERSION:
            raise CampaignError(
                f"campaign manifest {path} has version {raw['version']}, "
                f"this build reads version {MANIFEST_VERSION}"
            )
        if not isinstance(raw["config"], dict):
            raise CampaignError(f"campaign manifest {path}: config is not an object")
        if not _is_count(raw["total_chunks"]):
            raise CampaignError(
                f"campaign manifest {path}: total_chunks {raw['total_chunks']!r} "
                "is not a chunk count"
            )
        stored = fingerprint(raw["config"])
        if stored != raw["fingerprint"]:
            raise EngineMismatch(
                f"manifest {path} fingerprint does not match its own config "
                "(file was edited or mixed between campaigns)",
                expected=stored, got=raw["fingerprint"],
            )
        total = raw["total_chunks"]
        manifest = cls(
            path=path,
            config=raw["config"],
            fingerprint=raw["fingerprint"],
            total_chunks=total,
        )
        for index, rec in _section(path, raw, "chunks", total).items():
            manifest.chunks[index] = _chunk_record(path, index, rec)
        for index, rec in _section(path, raw, "quarantined", total).items():
            manifest.quarantined[index] = _quarantine_record(path, index, rec)
        obs = raw.get("obs")
        if isinstance(obs, dict):
            manifest.obs = obs
        return manifest

    # -- persistence ----------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        return {
            "version": MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "config": self.config,
            "total_chunks": self.total_chunks,
            "chunks": {
                # count-only chunks serialize exactly as before the
                # ``extra`` field existed (old manifests keep their shape)
                str(i): {k: v for k, v in vars(rec).items()
                         if k != "extra" or v is not None}
                for i, rec in sorted(self.chunks.items())
            },
            "quarantined": {
                str(i): vars(rec) for i, rec in sorted(self.quarantined.items())
            },
            **({"obs": self.obs} if self.obs else {}),
        }

    def save(self) -> None:
        # no indent: with one, ``json`` falls back to its pure-Python
        # encoder, about 4x slower on a 16-chunk rare-event manifest
        atomic_write_json(self.path, self.as_dict(), indent=None)
        self._dirty = 0

    def flush(self) -> None:
        """Persist any debounced mutations now (no-op when already clean)."""
        if self._dirty:
            self.save()

    def _maybe_save(self) -> None:
        """Debounced save: persist once ``save_every`` mutations accumulate."""
        self._dirty += 1
        if self._dirty >= max(1, self.save_every):
            self.save()

    # -- mutation (persisted atomically; chunk records are debounced) ---------

    def record_chunk(self, index: int, tally: Tally, trials: int,
                     attempts: int,
                     span: dict[str, Any] | None = None) -> None:
        self.chunks[index] = ChunkRecord(
            ok=tally.ok, ce=tally.ce, due=tally.due, sdc=tally.sdc,
            trials=trials, attempts=attempts,
            extra=dict(tally.extra) if tally.extra else None,
        )
        if span is not None:
            self.obs.setdefault("spans", {})[str(index)] = span
        self.quarantined.pop(index, None)
        self._maybe_save()

    def quarantine_chunk(self, index: int, error: str, message: str,
                         attempts: int, seed: int) -> None:
        self.quarantined[index] = QuarantineRecord(
            error=error, message=message, attempts=attempts, seed=seed,
        )
        self.save()

    def clear_quarantine(self) -> None:
        """Give quarantined chunks a fresh attempt budget (used on resume)."""
        if self.quarantined:
            self.quarantined.clear()
            self.save()

    def record_obs_metrics(self, snapshot: dict[str, Any]) -> None:
        """Fold a run's metrics snapshot into the manifest (merge on resume)."""
        prior = self.obs.get("metrics")
        if prior is not None:
            snapshot = merge_snapshots([prior, snapshot], label="campaign")
        self.obs["metrics"] = snapshot
        self.save()

    def record_agent_obs(self, agent: str, snapshot: dict[str, Any]) -> None:
        """Fold one agent's per-chunk metrics snapshot into its own section.

        Arrives once per committed fleet chunk, so the save is debounced
        like :meth:`record_chunk` rather than flushed like the campaign-wide
        merge above.
        """
        agents = self.obs.setdefault("agents", {})
        prior = agents.get(agent)
        if prior is not None:
            snapshot = merge_snapshots([prior, snapshot], label=agent)
        snapshot["source"] = agent
        agents[agent] = snapshot
        self._maybe_save()

    # -- queries --------------------------------------------------------------

    def check_fingerprint(self, config: dict[str, Any]) -> None:
        got = fingerprint(config)
        if got != self.fingerprint:
            raise EngineMismatch(
                "refusing to resume: campaign config does not match the "
                f"manifest at {self.path} (scheme/rates/trials/seed/chunking "
                "must be identical)",
                expected=self.fingerprint, got=got,
            )

    def obs_snapshots(self) -> list[dict[str, Any]]:
        """The manifest's obs section as snapshot dicts for ``obs report``."""
        snaps: list[dict[str, Any]] = []
        metrics_snap = self.obs.get("metrics")
        if metrics_snap:
            snaps.append(metrics_snap)
        for agent in sorted(self.obs.get("agents", {})):
            snaps.append(self.obs["agents"][agent])
        spans = self.obs.get("spans", {})
        if spans:
            ordered = [spans[k] for k in sorted(spans, key=int)]
            snaps.append(span_dicts_snapshot(ordered, label="campaign"))
        return snaps

    def pending_indices(self) -> list[int]:
        return [i for i in range(self.total_chunks) if i not in self.chunks]

    def merged_tally(self) -> Tally:
        total = Tally()
        for _, rec in sorted(self.chunks.items()):
            total = total.merge(rec.tally())
        return total

    @property
    def complete(self) -> bool:
        return len(self.chunks) == self.total_chunks

    def status(self) -> dict[str, Any]:
        """Summary dict for ``python -m repro campaign status``."""
        tally = self.merged_tally()
        return {
            "path": str(self.path),
            "fingerprint": self.fingerprint,
            "scheme": self.config.get("scheme"),
            "kind": self.config.get("kind"),
            "total_chunks": self.total_chunks,
            "chunks_done": len(self.chunks),
            "quarantined": sorted(self.quarantined),
            "trials_done": sum(rec.trials for rec in self.chunks.values()),
            "complete": self.complete and not self.quarantined,
            "tally": tally.as_dict(),
        }
