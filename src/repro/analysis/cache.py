"""On-disk result cache: resumable sweeps, incremental figures.

Every cell of a figure sweep is a pure function of its
:class:`~repro.sim.config.SystemConfig` (the simulator is fully
deterministic across processes), so finished :class:`RunResult`\\ s can
be memoized on disk and reused across invocations.  The cache key is a
SHA-256 of the config's canonical JSON plus a *code version tag*
(:data:`CODE_VERSION`): bumping the tag invalidates every cached result
at once, which is the required move whenever a change alters simulated
statistics (the golden-stats tests catch such changes; hot-path-only
refactors keep the tag).

Entries are one JSON file per key, written atomically (temp file +
``os.replace``), so an interrupted sweep leaves a valid cache holding
exactly the cells that finished — re-running the sweep simulates only
the missing ones.  JSON round-trips Python floats exactly (repr-based),
so cached results are bit-identical to freshly simulated ones; the
tests assert this field by field.

Integrity (entry-format v2): each entry embeds a SHA-256 checksum of
its result payload, verified on every load, so a bit-flipped but
still-parseable entry cannot be served silently.  Undecodable or
checksum-failing entries are moved to a ``quarantine/`` subdirectory —
they degrade to a one-time miss and are re-simulated, instead of being
retried (and failing) every run.  Any other entry format — including
the pre-checksum v1 — counts as corrupt the same way, and the
re-simulated cell is stored as a fresh v2 entry.
:meth:`ResultCache.verify` audits the whole directory eagerly;
:meth:`ResultCache.gc` removes what only wastes space (orphaned tmp
files, stale code versions, quarantined entries).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.obs.events import emit
from repro.sim.config import SystemConfig
from repro.sim.faults import cell_label, guarded_io, maybe_corrupt_entry
from repro.sim.runner import RunResult

#: Code-relevant version of the simulation.  Bump whenever a change
#: perturbs simulated statistics (i.e. whenever the golden values in
#: tests/sim/test_golden_stats.py move); cached results from older
#: tags are then ignored.  Pure speedups keep the tag.
CODE_VERSION = "sim-v2"

#: On-disk format version of the cache entries themselves.  v2 added
#: the per-entry payload checksum; entries of any other format decode
#: as corrupt (quarantined, re-simulated, rewritten as v2).
_ENTRY_FORMAT = 2

#: Subdirectory corrupt entries are moved to (never re-read).
QUARANTINE_DIR = "quarantine"


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Plain-data form of a RunResult (config nested as a dict)."""
    data = dataclasses.asdict(result)
    data["config"] = result.config.to_dict()
    return data


def result_from_dict(data: Dict[str, Any]) -> RunResult:
    """Inverse of :func:`result_to_dict`, exact to the bit."""
    fields = dict(data)
    fields["config"] = SystemConfig.from_dict(fields["config"])
    return RunResult(**fields)


def config_key(config: SystemConfig,
               code_version: str = CODE_VERSION) -> str:
    """Stable hex digest identifying (config, simulation code)."""
    payload = config.canonical_json() + "\n" + code_version
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


def payload_checksum(result_data: Dict[str, Any]) -> str:
    """SHA-256 over the canonical serialization of a result payload.

    ``sort_keys`` makes the digest independent of dict insertion
    order; JSON float round-tripping is exact, so store-time and
    load-time serializations agree byte for byte.
    """
    text = json.dumps(result_data, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Counters for one cache's lifetime in this process."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0   # entries quarantined on load (subset of misses)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclasses.dataclass
class CacheReport:
    """What one :meth:`ResultCache.verify` pass found."""

    checked: int = 0
    ok: int = 0
    corrupt: int = 0            # quarantined by this pass
    stale: int = 0              # other code version (left for gc)
    tmp_orphans: int = 0        # *.tmp.* from a mid-write kill
    quarantined_total: int = 0  # files in quarantine/ after the pass

    def summary(self) -> str:
        return (f"{self.checked} entries: {self.ok} ok, "
                f"{self.corrupt} corrupt (quarantined), "
                f"{self.stale} stale, {self.tmp_orphans} tmp orphans, "
                f"{self.quarantined_total} in quarantine")


class ResultCache:
    """Directory of memoized RunResults keyed by config hash.

    >>> cache = ResultCache(".sweep-cache")
    >>> cached = cache.load(config)          # None on miss
    >>> cache.store(config, run_once(config))
    """

    def __init__(self, root, code_version: str = CODE_VERSION,
                 fault_plan=None):
        self.root = Path(root)
        self.code_version = code_version
        self.stats = CacheStats()
        #: Optional FaultPlan for deterministic corruption injection
        #: (tests / CI chaos job); None falls back to the
        #: ``REPRO_FAULT_PLAN`` environment variable.
        self.fault_plan = fault_plan

    def key(self, config: SystemConfig) -> str:
        return config_key(config, self.code_version)

    def path(self, config: SystemConfig) -> Path:
        return self.root / f"{self.key(config)}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    # -- decode / verify ---------------------------------------------

    def _decode(self, text: str
                ) -> Tuple[str, Optional[Dict[str, Any]]]:
        """Classify one entry body: ('ok', payload) | ('stale', None)
        | ('corrupt', None).

        'stale' (another code version) is not corruption: the bytes
        are fine, they just belong to different simulation code.
        """
        try:
            entry = json.loads(text)
            if entry.get("format") != _ENTRY_FORMAT:
                return "corrupt", None
            if entry.get("code_version") != self.code_version:
                return "stale", None
            payload = entry["result"]
            if entry.get("sha256") != payload_checksum(payload):
                return "corrupt", None
            return "ok", payload
        except (json.JSONDecodeError, KeyError, TypeError,
                ValueError, AttributeError):
            return "corrupt", None

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it is never retried again."""
        qdir = self.quarantine_dir
        qdir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, qdir / path.name)
        except FileNotFoundError:
            pass  # another process got there first

    def load(self, config: SystemConfig,
             key: Optional[str] = None) -> Optional[RunResult]:
        """Return the cached result for ``config`` or None.

        An unreadable entry — truncated JSON, another entry format, a
        failing payload checksum (bit flip), or a payload whose fields
        no longer match the current RunResult/SystemConfig shape —
        degrades to a miss *and* is moved to ``quarantine/`` so it
        isn't re-parsed (and re-failed) on every future run; the cell
        is re-simulated and a fresh entry overwrites its slot.

        ``key`` skips re-hashing when the caller (the sweep runner)
        already computed this config's key.
        """
        path = self.root / f"{key}.json" if key else self.path(config)
        try:
            text = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        status, payload = self._decode(text)
        if status == "ok":
            try:
                result = result_from_dict(payload)
            except (KeyError, TypeError, ValueError, AttributeError):
                # Parseable and checksum-clean, but the shape predates
                # a RunResult/SystemConfig field change.
                status = "corrupt"
            else:
                self.stats.hits += 1
                emit("cache.hit", key=path.stem)
                return result
        self.stats.misses += 1
        if status == "corrupt":
            self.stats.corrupt += 1
            emit("cache.corrupt", key=path.stem)
            self._quarantine(path)
        return None

    def store(self, config: SystemConfig, result: RunResult,
              key: Optional[str] = None) -> Path:
        """Atomically persist ``result`` under ``config``'s key.

        The entry holds only what :meth:`load` reads; the config
        itself travels inside the result (``result.config``).
        """
        path = self.root / f"{key}.json" if key else self.path(config)
        payload = result_to_dict(result)
        entry = {
            "format": _ENTRY_FORMAT,
            "code_version": self.code_version,
            "sha256": payload_checksum(payload),
            "result": payload,
        }
        # Created on first write, not in __init__, so a cache that is
        # only ever consulted leaves no empty directory behind.
        start = time.perf_counter()
        self.root.mkdir(parents=True, exist_ok=True)
        text = json.dumps(entry) + "\n"
        label = cell_label(config)

        def write() -> None:
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            try:
                tmp.write_text(text)
                os.replace(tmp, path)
            except BaseException:
                # Never leave a half-written tmp file behind for
                # verify/gc to sweep — and never amplify ENOSPC by
                # stranding orphans on an already-full disk.
                tmp.unlink(missing_ok=True)
                raise

        # Transient I/O faults (and any injected ioerr/enospc/stall
        # clause matching ``cache/<label>``) retry with bounded
        # backoff; a persistent failure propagates and the sweep
        # supervisor degrades it to a cache hole + manifest entry.
        guarded_io(write, "cache", label, self.fault_plan)
        self.stats.stores += 1
        emit("cache.store", key=path.stem,
             wall=round(time.perf_counter() - start, 6))
        # Fault-injection seam (no-op unless a corrupt clause is
        # active): perturbs the entry just written, as a torn write or
        # bad disk would.
        maybe_corrupt_entry(path, cell_label(config),
                            plan=self.fault_plan)
        return path

    # -- whole-cache maintenance -------------------------------------

    def _classify(self, path: Path) -> str:
        """'ok' | 'stale' | 'corrupt' for one entry file."""
        try:
            text = path.read_text()
        except OSError:
            return "corrupt"
        status, payload = self._decode(text)
        if status == "ok":
            try:
                result_from_dict(payload)
            except (KeyError, TypeError, ValueError, AttributeError):
                return "corrupt"
            return "ok"
        return status

    def verify(self) -> CacheReport:
        """Audit every entry eagerly: parse, format, checksum, shape.

        Corrupt entries are moved to ``quarantine/`` — exactly what
        :meth:`load` would do lazily, but across the whole directory
        at once.  Stale-code-version entries and orphaned tmp files
        are counted but left in place; :meth:`gc` removes them.
        """
        report = CacheReport()
        for path in sorted(self.root.glob("*.json")):
            report.checked += 1
            status = self._classify(path)
            if status == "ok":
                report.ok += 1
            elif status == "stale":
                report.stale += 1
            else:
                self.stats.corrupt += 1
                self._quarantine(path)
                report.corrupt += 1
        report.tmp_orphans = sum(
            1 for _ in self.root.glob("*.tmp.*"))
        report.quarantined_total = sum(
            1 for _ in self.quarantine_dir.glob("*"))
        return report

    def gc(self) -> Dict[str, int]:
        """Sweep out everything that only wastes space.

        Removes orphaned ``*.tmp.*`` files (mid-write kills), entries
        written under another code version (their keys can never be
        looked up by this cache), corrupt entries (quarantining them
        first is unnecessary — gc is the terminal step), and
        previously quarantined files.  Returns counts per category.
        """
        removed = {"tmp_orphans": 0, "stale": 0, "corrupt": 0,
                   "quarantined": 0}
        for path in self.root.glob("*.tmp.*"):
            if self._unlink(path):
                removed["tmp_orphans"] += 1
        for path in self.root.glob("*.json"):
            status = self._classify(path)
            if status in ("stale", "corrupt") and self._unlink(path):
                removed[status] += 1
        for path in self.quarantine_dir.glob("*"):
            if self._unlink(path):
                removed["quarantined"] += 1
        return removed

    def __contains__(self, config: SystemConfig) -> bool:
        return self.path(config).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    @staticmethod
    def _unlink(path: Path) -> bool:
        """Delete tolerating a concurrent deletion; True if we won."""
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Also sweeps up ``*.tmp.*`` orphans a mid-write kill may have
        left behind and the ``quarantine/`` contents (neither is
        counted — they were not live entries).  Concurrent clears are
        safe: losing a deletion race skips the file instead of
        raising ``FileNotFoundError``.
        """
        removed = 0
        for path in self.root.glob("*.json"):
            if self._unlink(path):
                removed += 1
        for path in self.root.glob("*.tmp.*"):
            self._unlink(path)
        for path in self.quarantine_dir.glob("*"):
            self._unlink(path)
        return removed
