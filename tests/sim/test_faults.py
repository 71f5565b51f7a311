"""Tests for fault injection and sweep fault tolerance.

Every recovery path the supervisor advertises is driven here through
a deterministic :class:`FaultPlan`: failing cells retry and quarantine,
wedged cells trip the timeout, SIGKILLed workers respawn, corrupted
cache entries are caught by checksum — and a sweep under faults still
completes every healthy cell bit-identically to a fault-free run.
"""

import dataclasses
import errno
import json
import os
import signal
import threading
import time

import pytest

from repro.analysis.cache import ResultCache
from repro.service import SweepPolicy, SweepService
from repro.sim.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    apply_cell_faults,
    cell_label,
    corrupt_entry,
    guarded_io,
    maybe_corrupt_entry,
    maybe_io_fault,
    reset_fired,
)
from repro.sim.journal import (
    SweepJournal,
    journal_path,
    load_journal,
    sweep_digest,
)
from repro.sim.runner import run_once
from repro.sim.sweep import (
    SweepFailure,
    SweepInterrupted,
    expand_grid,
)

TINY = dict(refs_per_core=300, scale=1 / 64, seed=7)


@pytest.fixture(autouse=True)
def _fresh_fault_state(monkeypatch):
    """No plan leaks in from the environment; one-shot state resets."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    reset_fired()
    yield
    reset_fired()


def tiny_grid(workloads=("rnd", "bfs"), mechanisms=("radix", "ndpage")):
    return expand_grid(workloads=workloads, mechanisms=mechanisms,
                       **TINY)


def fields(result) -> dict:
    return dataclasses.asdict(result)


class TestFaultPlanParsing:
    def test_parse_clauses(self):
        plan = FaultPlan.parse(
            "fail:bfs/ndpage/:*;hang:xs/radix/:1:30;"
            "kill:rnd/radix/:1,2;corrupt:bfs/radix/")
        assert [s.action for s in plan.specs] == \
            ["fail", "hang", "kill", "corrupt"]
        assert plan.specs[0].attempts is None
        assert plan.specs[1].seconds == 30.0
        assert plan.specs[2].attempts == (1, 2)

    def test_round_trip(self):
        text = "fail:bfs/ndpage/:1,2;hang:xs/radix/:*:5.0;kill:rnd/:3"
        assert FaultPlan.parse(FaultPlan.parse(text).to_text()) \
            .to_text() == FaultPlan.parse(text).to_text()

    def test_bad_clause_raises(self):
        with pytest.raises(ValueError, match="bad fault clause"):
            FaultPlan.parse("explode:everything")
        with pytest.raises(ValueError, match="bad fault clause"):
            FaultPlan.parse("fail")

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.parse("")
        assert not FaultPlan()
        assert FaultPlan.parse("fail:x:*")

    def test_from_env(self, monkeypatch):
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULT_PLAN_ENV, "fail:bfs/:1")
        plan = FaultPlan.from_env()
        assert plan is not None
        assert plan.specs[0].match == "bfs/"

    def test_applies_attempt_matching(self):
        spec = FaultSpec("fail", "bfs/ndpage/", attempts=(1,))
        assert spec.applies("bfs/ndpage/ndp/1c/s7", 1)
        assert not spec.applies("bfs/ndpage/ndp/1c/s7", 2)
        assert not spec.applies("rnd/radix/ndp/1c/s7", 1)
        # attempt=None (store-side matching) ignores the attempt filter
        assert spec.applies("bfs/ndpage/ndp/1c/s7", None)

    def test_cell_label_shape(self):
        config = tiny_grid()[0]
        label = cell_label(config)
        assert label == (f"{config.workload}/{config.mechanism}/"
                         f"{config.system}/{config.num_cores}c/"
                         f"s{config.seed}")


class TestApplyCellFaults:
    def test_fail_raises_injected_fault(self):
        plan = FaultPlan.parse("fail:bfs/ndpage/:*")
        with pytest.raises(InjectedFault, match="bfs/ndpage"):
            apply_cell_faults(plan, "bfs/ndpage/ndp/1c/s7", 1)

    def test_no_match_is_a_no_op(self):
        plan = FaultPlan.parse("fail:bfs/ndpage/:*")
        apply_cell_faults(plan, "rnd/radix/ndp/1c/s7", 1)

    def test_attempt_gated_fail(self):
        plan = FaultPlan.parse("fail:bfs/:1")
        with pytest.raises(InjectedFault):
            apply_cell_faults(plan, "bfs/radix/ndp/1c/s7", 1)
        apply_cell_faults(plan, "bfs/radix/ndp/1c/s7", 2)  # recovers


class TestCorruptEntry:
    def test_valid_json_payload_perturbed(self, tmp_path):
        """The adversarial case: still-parseable JSON, wrong payload."""
        path = tmp_path / "entry.json"
        entry = {"format": 2, "result": {"cycles": 100.0}}
        path.write_text(json.dumps(entry))
        corrupt_entry(path)
        after = json.loads(path.read_text())
        assert after["result"]["cycles"] == 101.0

    def test_unparseable_entry_truncated(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("this is not json at all")
        corrupt_entry(path)
        assert len(path.read_text()) < len("this is not json at all")

    def test_maybe_corrupt_is_one_shot(self, tmp_path):
        plan = FaultPlan.parse("corrupt:bfs/radix/")
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({"result": {"cycles": 1.0}}))
        assert maybe_corrupt_entry(path, "bfs/radix/ndp/1c/s7",
                                   plan=plan)
        assert not maybe_corrupt_entry(path, "bfs/radix/ndp/1c/s7",
                                       plan=plan)
        assert json.loads(path.read_text())["result"]["cycles"] == 2.0

    def test_maybe_corrupt_no_plan(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("{}")
        assert not maybe_corrupt_entry(path, "bfs/radix/ndp/1c/s7")


class TestSerialFaultTolerance:
    def test_keep_going_leaves_hole_and_manifest(self):
        configs = tiny_grid()
        bad = cell_label(configs[1])
        service = SweepService(
            jobs=1,
            policy=SweepPolicy(strict=False, retries=1, backoff=0.0,
                               fault_plan=f"fail:{bad}:*"))
        results = service.run(configs)
        assert results[1] is None
        assert all(r is not None
                   for i, r in enumerate(results) if i != 1)
        stats = service.last_stats
        assert stats.failed == 1
        assert stats.retries == 1          # 2 attempts = 1 retry
        assert stats.manifest.labels() == [bad]
        failure = stats.manifest.failures[0]
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert "InjectedFault" in failure.error
        assert bad in stats.manifest.format()
        assert "quarantined" in stats.summary()

    def test_strict_raises_after_completing_others(self, tmp_path):
        configs = tiny_grid()
        bad = cell_label(configs[0])
        cache = ResultCache(tmp_path)
        service = SweepService(
            jobs=1, cache=cache,
            policy=SweepPolicy(strict=True, retries=0, backoff=0.0,
                               fault_plan=f"fail:{bad}:*"))
        with pytest.raises(SweepFailure) as excinfo:
            service.run(configs)
        assert excinfo.value.manifest.labels() == [bad]
        # Every healthy cell was still completed and persisted.
        assert len(cache) == len(configs) - 1

    def test_retry_recovers_flaky_cell(self):
        configs = tiny_grid()
        flaky = cell_label(configs[2])
        service = SweepService(
            jobs=1,
            policy=SweepPolicy(retries=1, backoff=0.0,
                               fault_plan=f"fail:{flaky}:1"))
        results = service.run(configs)
        assert all(r is not None for r in results)
        assert service.last_stats.retries == 1
        assert not service.last_stats.manifest
        # The recovered result is bit-identical to a clean run.
        assert fields(results[2]) == fields(run_once(configs[2]))

    def test_retries_zero_means_one_attempt(self):
        configs = tiny_grid()
        service = SweepService(
            jobs=1,
            policy=SweepPolicy(strict=False, retries=0, backoff=0.0,
                               fault_plan=f"fail:{cell_label(configs[0])}:1"))
        results = service.run(configs)
        assert results[0] is None
        assert service.last_stats.manifest.failures[0].attempts == 1

    def test_plan_from_environment(self, monkeypatch):
        configs = tiny_grid()
        monkeypatch.setenv(FAULT_PLAN_ENV,
                           f"fail:{cell_label(configs[0])}:*")
        service = SweepService(
            jobs=1,
            policy=SweepPolicy(strict=False, retries=0, backoff=0.0))
        results = service.run(configs)
        assert results[0] is None
        assert service.last_stats.failed == 1


class TestSupervisedFaultTolerance:
    def test_worker_kill_recovers_bit_identically(self):
        """SIGKILL mid-cell: the sentinel wakes the supervisor, the
        worker is respawned, the cell re-dispatched and completed."""
        configs = tiny_grid()
        victim = cell_label(configs[1])
        service = SweepService(
            jobs=2,
            policy=SweepPolicy(retries=1, backoff=0.01,
                               fault_plan=f"kill:{victim}:1"))
        results = service.run(configs)
        assert all(r is not None for r in results)
        stats = service.last_stats
        assert stats.worker_deaths >= 1
        assert stats.retries >= 1
        assert not stats.manifest
        assert fields(results[1]) == fields(run_once(configs[1]))

    def test_worker_kill_exhausts_retries_into_manifest(self):
        configs = tiny_grid()
        victim = cell_label(configs[0])
        service = SweepService(
            jobs=2,
            policy=SweepPolicy(strict=False, retries=1, backoff=0.01,
                               fault_plan=f"kill:{victim}:*"))
        results = service.run(configs)
        assert results[0] is None
        assert all(r is not None for r in results[1:])
        failure = service.last_stats.manifest.failures[0]
        assert failure.kind == "worker-died"
        assert failure.attempts == 2
        assert "worker died" in failure.error

    def test_hung_cell_trips_timeout(self):
        configs = tiny_grid()
        wedged = cell_label(configs[1])
        service = SweepService(
            jobs=2,
            policy=SweepPolicy(strict=False, retries=0, cell_timeout=1.0,
                               backoff=0.01, fault_plan=f"hang:{wedged}:*:30"))
        results = service.run(configs)
        assert results[1] is None
        assert all(r is not None
                   for i, r in enumerate(results) if i != 1)
        stats = service.last_stats
        assert stats.timeouts == 1
        failure = stats.manifest.failures[0]
        assert failure.kind == "timeout"
        assert "cell_timeout" in failure.error

    def test_failing_cell_in_pool_quarantined(self):
        configs = tiny_grid()
        bad = cell_label(configs[3])
        service = SweepService(
            jobs=2,
            policy=SweepPolicy(strict=False, retries=1, backoff=0.01,
                               fault_plan=f"fail:{bad}:*"))
        results = service.run(configs)
        assert results[3] is None
        failure = service.last_stats.manifest.failures[0]
        assert failure.kind == "error"
        assert "InjectedFault" in failure.error

    def test_resume_after_worker_kill(self, tmp_path):
        """An always-killed cell quarantines; the healthy cells land in
        the cache, and a clean re-run simulates only the casualty."""
        configs = tiny_grid()
        victim = cell_label(configs[2])
        first = SweepService(
            jobs=2, cache_dir=tmp_path,
            policy=SweepPolicy(strict=False, retries=1, backoff=0.01,
                               fault_plan=f"kill:{victim}:*"))
        results = first.run(configs)
        assert results[2] is None
        assert first.last_stats.failed == 1

        second = SweepService(jobs=1, cache_dir=tmp_path)
        resumed = second.run(configs)
        assert all(r is not None for r in resumed)
        assert second.last_stats.simulated == 1
        assert second.last_stats.cache_hits == len(configs) - 1
        assert fields(resumed[2]) == fields(run_once(configs[2]))

    def test_unpicklable_run_fn_fails_fast(self):
        configs = tiny_grid()
        service = SweepService(jobs=2)
        with pytest.raises(ValueError, match="not picklable"):
            service.run(configs, run_fn=lambda config: run_once(config))


class TestCorruptionThroughSweep:
    def test_corrupt_entry_caught_on_next_load(self, tmp_path):
        """A corrupt clause perturbs the entry at store time; the next
        sweep's checksum check catches it and re-simulates the cell."""
        configs = tiny_grid()
        target = cell_label(configs[0])
        plan = FaultPlan.parse(f"corrupt:{target}")
        cache = ResultCache(tmp_path, fault_plan=plan)
        SweepService(jobs=1, cache=cache).run(configs)

        clean_cache = ResultCache(tmp_path)
        service = SweepService(jobs=1, cache=clean_cache)
        results = service.run(configs)
        assert clean_cache.stats.corrupt == 1
        assert service.last_stats.simulated == 1
        assert service.last_stats.cache_hits == len(configs) - 1
        # The re-simulated result is the real one, not the corrupted.
        assert fields(results[0]) == fields(run_once(configs[0]))


class TestAcceptance20Cells:
    """The ISSUE's acceptance scenario: a 20-cell sweep under injected
    faults completes every healthy cell, quarantines the faulty ones,
    and a follow-up run re-simulates only quarantined/missing cells."""

    GRID = dict(workloads=("rnd", "bfs"),
                mechanisms=("radix", "ndpage", "ech", "hugepage",
                            "ideal"),
                systems=("ndp", "cpu"),
                refs_per_core=120, scale=1 / 64, seed=7)

    def test_chaos_sweep_completes_then_resumes(self, tmp_path):
        configs = expand_grid(**self.GRID)
        assert len(configs) == 20
        labels = [cell_label(c) for c in configs]
        doomed = labels[labels.index("bfs/ndpage/ndp/1c/s7")]
        wedged = labels[labels.index("rnd/ech/ndp/1c/s7")]
        killed = labels[labels.index("bfs/radix/ndp/1c/s7")]
        corrupted = labels[labels.index("rnd/hugepage/ndp/1c/s7")]
        plan = FaultPlan.parse(
            f"fail:{doomed}:*;hang:{wedged}:*:30;"
            f"kill:{killed}:1;corrupt:{corrupted}")

        cache = ResultCache(tmp_path, fault_plan=plan)
        chaos = SweepService(
            jobs=2, cache=cache,
            policy=SweepPolicy(strict=False, retries=1, cell_timeout=1.0,
                               backoff=0.01, fault_plan=plan))
        results = chaos.run(configs)

        stats = chaos.last_stats
        assert stats.failed == 2
        assert sorted(stats.manifest.labels()) == \
            sorted([doomed, wedged])
        assert stats.worker_deaths >= 1
        assert stats.timeouts >= 1
        # Every healthy cell completed despite the chaos.
        holes = {labels[i] for i, r in enumerate(results) if r is None}
        assert holes == {doomed, wedged}

        # Follow-up run, no faults: exactly the 2 quarantined cells
        # plus the 1 corrupt entry are re-simulated, nothing else.
        resume_cache = ResultCache(tmp_path)
        resume = SweepService(jobs=1, cache=resume_cache)
        resumed = resume.run(configs)
        assert all(r is not None for r in resumed)
        assert resume.last_stats.simulated == 3
        assert resume.last_stats.cache_hits == 17
        assert resume_cache.stats.corrupt == 1

        # Third run: fully cache-served and bit-identical to clean.
        third = SweepService(jobs=1, cache_dir=tmp_path)
        final = third.run(configs)
        assert third.last_stats.simulated == 0
        for config, result in zip(configs, final):
            assert fields(result) == fields(run_once(config))


class TestIOFaultParsing:
    def test_parse_io_clauses(self):
        plan = FaultPlan.parse(
            "ioerr:cache/:1;enospc:queue/:*;stall:events/:1:0.2")
        assert [s.action for s in plan.specs] == \
            ["ioerr", "enospc", "stall"]
        assert plan.specs[0].attempts == (1,)
        assert plan.specs[1].attempts is None
        assert plan.specs[2].seconds == 0.2

    def test_stall_default_duration_is_small(self):
        # A stall only needs to be observable (unlike a hang, which
        # must outlast a cell timeout).
        assert FaultPlan.parse("stall:x/:*").specs[0].seconds == 0.05

    def test_io_clauses_round_trip(self):
        text = "ioerr:cache/:1,2;enospc:queue/:*;stall:events/:1:0.25"
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.to_text()).to_text() \
            == plan.to_text()


class TestMaybeIoFault:
    def test_nth_matching_write_fires(self):
        plan = FaultPlan.parse("ioerr:cache/:2")
        maybe_io_fault("cache", "bfs", plan)          # write 1: clean
        with pytest.raises(OSError) as excinfo:
            maybe_io_fault("cache", "bfs", plan)      # write 2: EIO
        assert excinfo.value.errno == errno.EIO
        maybe_io_fault("cache", "bfs", plan)          # write 3: clean

    def test_enospc_errno(self):
        plan = FaultPlan.parse("enospc:queue/:*")
        with pytest.raises(OSError) as excinfo:
            maybe_io_fault("queue", "item.json", plan)
        assert excinfo.value.errno == errno.ENOSPC

    def test_site_detail_matching(self):
        plan = FaultPlan.parse("ioerr:cache/bfs:*")
        maybe_io_fault("queue", "bfs", plan)    # wrong site: no fault
        maybe_io_fault("cache", "rnd", plan)    # wrong detail: no fault
        with pytest.raises(OSError):
            maybe_io_fault("cache", "bfs/radix", plan)

    def test_stall_sleeps_and_returns(self):
        plan = FaultPlan.parse("stall:events/:*:0.01")
        start = time.perf_counter()
        maybe_io_fault("events", "cell.completed", plan)
        assert time.perf_counter() - start >= 0.005

    def test_no_plan_is_a_no_op(self):
        maybe_io_fault("cache", "anything")


class TestGuardedIo:
    def test_transient_fault_absorbed_by_retry(self):
        plan = FaultPlan.parse("ioerr:cache/:1")
        sleeps = []
        assert guarded_io(lambda: "stored", "cache", "bfs", plan,
                          sleep=sleeps.append) == "stored"
        assert len(sleeps) == 1

    def test_persistent_fault_propagates_after_backoff(self):
        plan = FaultPlan.parse("enospc:cache/:*")
        sleeps = []
        with pytest.raises(OSError) as excinfo:
            guarded_io(lambda: "stored", "cache", "bfs", plan,
                       retries=2, backoff=0.02, sleep=sleeps.append)
        assert excinfo.value.errno == errno.ENOSPC
        assert sleeps == [0.02, 0.04]    # exponential backoff

    def test_real_oserror_from_fn_is_retried(self):
        failures = iter([OSError(errno.EIO, "flaky"), None])

        def write():
            exc = next(failures)
            if exc is not None:
                raise exc
            return "ok"

        assert guarded_io(write, "cache", sleep=lambda s: None) == "ok"


class TestCacheStoreDegrade:
    def test_persistent_enospc_degrades_to_manifest_hole(
            self, tmp_path, monkeypatch):
        """The cell's result is still served (this run completes); the
        cache gets a hole and the manifest a ``cache-io`` entry so the
        next run knows to re-simulate."""
        configs = tiny_grid()
        victim = cell_label(configs[1])
        # I/O plans reach writers through the environment (the cache
        # was built without an explicit plan).
        monkeypatch.setenv(FAULT_PLAN_ENV,
                           f"enospc:cache/{victim}:*")
        service = SweepService(
            backend="serial", cache_dir=tmp_path / "cache",
            policy=SweepPolicy(strict=False))
        results = service.run(configs)
        assert all(r is not None for r in results)
        assert fields(results[1]) == fields(run_once(configs[1]))
        manifest = service.last_stats.manifest
        assert len(manifest) == 1
        failure = manifest.failures[0]
        assert failure.kind == "cache-io"
        assert failure.label == victim
        assert "cache store failed" in failure.error
        entries = list((tmp_path / "cache").glob("*.json"))
        assert len(entries) == len(configs) - 1
        assert service.last_stats.metrics["cache.store_errors"] == 1

    def test_transient_enospc_absorbed_silently(self, tmp_path,
                                                monkeypatch):
        configs = tiny_grid()
        victim = cell_label(configs[1])
        monkeypatch.setenv(FAULT_PLAN_ENV,
                           f"enospc:cache/{victim}:1")
        service = SweepService(
            backend="serial", cache_dir=tmp_path / "cache",
            policy=SweepPolicy(strict=False))
        results = service.run(configs)
        assert all(r is not None for r in results)
        assert not service.last_stats.manifest
        entries = list((tmp_path / "cache").glob("*.json"))
        assert len(entries) == len(configs)


class TestSweepJournal:
    def test_digest_is_order_independent(self):
        assert sweep_digest(["b", "a", "c"]) == sweep_digest(
            ["c", "a", "b"])
        assert sweep_digest(["a"]) != sweep_digest(["b"])
        path = journal_path("/tmp/x", ["a", "b"])
        assert path.name == (f"sweep-{sweep_digest(['a', 'b'])}"
                             f".journal.jsonl")

    def test_record_load_round_trip(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        with SweepJournal(path) as journal:
            journal.record("start", cells=4)
            journal.record("dispatch", key="k1", label="l1", attempt=1)
            journal.record("outcome", key="k1", attempt=1,
                           status="error")
            journal.record("retry", key="k1", attempt=1,
                           not_before=123.0)
            journal.record("outcome", key="k2", attempt=1, status="ok")
            journal.record("quarantine", key="k3", label="l3",
                           attempts=2, fail_kind="timeout",
                           error="too slow")
            journal.record("interrupted", completed=1, pending=0,
                           requeued=1)
        state = load_journal(path)
        assert state.attempts == {"k1": 1}
        assert state.not_before == {"k1": 123.0}
        assert state.completed == {"k2"}
        assert state.quarantined["k3"]["fail_kind"] == "timeout"
        assert state.quarantined["k3"]["attempts"] == 2
        assert state.interrupted
        assert bool(state)

    def test_ok_outcome_clears_backoff_gate(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            journal.record("retry", key="k1", attempt=1,
                           not_before=99.0)
            journal.record("outcome", key="k1", attempt=2,
                           status="ok")
        state = load_journal(path)
        assert state.not_before == {}
        assert state.completed == {"k1"}

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            journal.record("outcome", key="k1", attempt=1,
                           status="error")
        with open(path, "a") as handle:
            handle.write('{"v": 1, "kind": "outco')   # torn append
        state = load_journal(path)
        assert state.attempts == {"k1": 1}
        assert state.records == 1

    def test_missing_journal_is_empty_state(self, tmp_path):
        state = load_journal(tmp_path / "absent.jsonl")
        assert not state
        assert state.attempts == {}

    def test_fresh_run_truncates_resume_appends(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            journal.record("outcome", key="old", attempt=1,
                           status="error")
        with SweepJournal(path, resume=True) as journal:
            journal.record("outcome", key="new", attempt=1,
                           status="error")
        assert load_journal(path).attempts == {"old": 1, "new": 1}
        with SweepJournal(path) as journal:       # fresh: truncate
            journal.record("outcome", key="only", attempt=1,
                           status="error")
        assert load_journal(path).attempts == {"only": 1}

    def test_persistent_write_fault_degrades_to_counted_drop(
            self, tmp_path):
        path = tmp_path / "j.jsonl"
        plan = FaultPlan.parse("ioerr:journal/:*")
        with SweepJournal(path, fault_plan=plan) as journal:
            journal.record("outcome", key="k1", attempt=1,
                           status="ok")
            journal.record("outcome", key="k2", attempt=1,
                           status="ok")
            assert journal.dropped == 2
        assert not load_journal(path)


class TestResumeSupervision:
    def _keys(self, tmp_path, configs):
        cache = ResultCache(tmp_path / "cache")
        return [cache.key(config) for config in configs]

    def test_quarantine_carried_on_resume(self, tmp_path):
        """A cell the previous run gave up on stays quarantined under
        ``--resume`` — no silent fresh retry budget."""
        configs = tiny_grid()
        bad = cell_label(configs[1])
        first = SweepService(
            backend="serial", cache_dir=tmp_path / "cache",
            policy=SweepPolicy(retries=0, backoff=0.0, strict=False,
                               fault_plan=f"fail:{bad}:*"))
        assert first.run(configs)[1] is None
        assert len(first.last_stats.manifest) == 1

        resumed = SweepService(
            backend="serial", cache_dir=tmp_path / "cache",
            resume=True,
            policy=SweepPolicy(retries=0, strict=False))
        results = resumed.run(configs)
        assert results[1] is None
        stats = resumed.last_stats
        assert stats.simulated == 0          # nothing re-simulated
        assert stats.cache_hits == len(configs) - 1
        failure = stats.manifest.failures[0]
        assert failure.label == bad
        assert "InjectedFault" in failure.error

        # A plain re-run (no --resume) grants a fresh budget instead.
        fresh = SweepService(
            backend="serial", cache_dir=tmp_path / "cache",
            policy=SweepPolicy(retries=0, strict=False))
        assert all(r is not None for r in fresh.run(configs))
        assert fresh.last_stats.simulated == 1

    def test_attempt_counts_carried_on_resume(self, tmp_path):
        """Failures charged by a killed supervisor still count: the
        journal says two attempts burned, so one more exhausts a
        retries=2 budget."""
        configs = tiny_grid()
        bad_index = 2
        bad = cell_label(configs[bad_index])
        keys = self._keys(tmp_path, configs)
        path = journal_path(tmp_path / "cache" / "journal", keys)
        with SweepJournal(path) as journal:
            journal.record("outcome", key=keys[bad_index], attempt=1,
                           status="error")
            journal.record("outcome", key=keys[bad_index], attempt=2,
                           status="error")

        service = SweepService(
            backend="serial", cache_dir=tmp_path / "cache",
            resume=True,
            policy=SweepPolicy(retries=2, backoff=0.0, strict=False,
                               fault_plan=f"fail:{bad}:*"))
        results = service.run(configs)
        assert results[bad_index] is None
        stats = service.last_stats
        failure = stats.manifest.failures[0]
        assert failure.attempts == 3     # 2 carried + 1 new
        # Only one dispatch happened this run (attempt 3): without the
        # journal the cell would have burned attempts 1..3 again.
        assert stats.retries == 1

    def test_sigterm_drains_and_resume_completes(self, tmp_path):
        """SIGTERM mid-sweep: in-flight work is cancelled, the journal
        records the interruption, SweepInterrupted propagates — and a
        ``--resume`` run completes only what is missing."""
        configs = tiny_grid()
        victim = cell_label(configs[3])
        cache_dir = tmp_path / "cache"
        service = SweepService(
            backend="pool", jobs=2, cache_dir=cache_dir,
            policy=SweepPolicy(retries=0, strict=False,
                               fault_plan=f"hang:{victim}:*:60"))

        def send_term():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if len(list(cache_dir.glob("*.json"))) >= 3:
                    os.kill(os.getpid(), signal.SIGTERM)
                    return
                time.sleep(0.01)

        killer = threading.Thread(target=send_term, daemon=True)
        killer.start()
        with pytest.raises(SweepInterrupted) as excinfo:
            service.run(configs)
        killer.join(timeout=5)
        assert excinfo.value.completed == 3
        assert excinfo.value.requeued == 1
        assert "interrupted" in str(excinfo.value)

        keys = self._keys(tmp_path, configs)
        state = load_journal(
            journal_path(cache_dir / "journal", keys))
        assert state.interrupted
        assert len(state.completed) == 3
        # The in-flight dispatch was never charged an attempt.
        assert state.attempts.get(keys[3], 0) == 0

        resumed = SweepService(backend="serial", cache_dir=cache_dir,
                               resume=True)
        results = resumed.run(configs)
        assert all(r is not None for r in results)
        assert resumed.last_stats.cache_hits == 3
        assert resumed.last_stats.simulated == 1
        assert fields(results[3]) == fields(run_once(configs[3]))

    def test_interrupted_is_not_swallowed_by_except_exception(self):
        with pytest.raises(KeyboardInterrupt):
            try:
                raise SweepInterrupted(1, 2, 3)
            except Exception:             # generic recovery code
                pytest.fail("drain must not be swallowed")
