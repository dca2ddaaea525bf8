"""Failure paths of the fault-tolerant supervision engine.

Workers here are module-level so they survive the fork into child
processes; injected faults (crash, hang, flaky) exercise the supervisor
the way a real broken cell would.
"""

import os
import sys
import time
from pathlib import Path

import pytest

from repro.errors import (
    CellCrashError,
    CellTimeoutError,
    ConfigurationError,
    ExperimentError,
    MatrixPartialFailure,
    WorkloadError,
)
from repro.sim import fault
from repro.sim.fault import Checkpoint, FaultPolicy, run_supervised
from repro.sim.runner import clear_caches, run_matrix

FAST = FaultPolicy(
    retries=1, backoff_base=0.01, backoff_max=0.02, jitter=0.0,
)
SCALE = 0.1


def _key(task):
    return ("task", str(task))


def _ok_worker(task):
    return task * 2


def _crash_worker(task):
    os._exit(3)


def _hang_worker(task):
    time.sleep(60)


def _error_worker(task):
    raise WorkloadError(f"no such workload: {task}")


def _flaky_worker(marker_path):
    # Fails hard on the first attempt, succeeds on the retry: the marker
    # file persists across the child processes of one test.
    marker = Path(marker_path)
    if not marker.exists():
        marker.write_text("seen")
        os._exit(9)
    return "recovered"


class TestSupervisedHappyPath:
    def test_all_cells_succeed(self):
        out = run_supervised([1, 2, 3], _ok_worker, key_of=_key, policy=FAST)
        assert out.ok
        assert out.results == {_key(t): t * 2 for t in (1, 2, 3)}
        assert all(n == 1 for n in out.attempts.values())
        assert out.raise_if_failed() is out

    def test_multiple_workers(self):
        out = run_supervised(
            list(range(6)), _ok_worker, key_of=_key, policy=FAST, max_workers=3
        )
        assert out.ok and len(out.results) == 6

    def test_supervisor_waits_on_events_never_sleeps(self, monkeypatch):
        real_sleep = time.sleep
        sleeps = []

        def recording_sleep(seconds):
            sleeps.append((sys._getframe(1).f_globals.get("__name__"), seconds))
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", recording_sleep)
        out = run_supervised(
            list(range(8)), _ok_worker, key_of=_key, policy=FAST, max_workers=2
        )
        assert out.ok and len(out.results) == 8
        assert [s for s in sleeps if s[0] == fault.__name__] == []


class TestCrashIsolation:
    def test_crash_classified_with_exitcode(self):
        out = run_supervised([1], _crash_worker, key_of=_key, policy=FAST)
        assert not out.ok and not out.results
        failure = out.failures[0]
        assert failure.kind == fault.KIND_CRASH
        assert failure.exitcode == 3
        assert failure.attempts == 2  # 1 try + 1 retry
        assert fault.LEDGER.is_failed(_key(1))

    def test_partial_failure_exception(self):
        out = run_supervised([1, 2], _crash_worker, key_of=_key, policy=FAST)
        with pytest.raises(MatrixPartialFailure) as excinfo:
            out.raise_if_failed()
        assert len(excinfo.value.failures) == 2

    def test_crash_does_not_poison_siblings(self):
        tasks = [1, "boom", 2]

        def run(task):
            return _crash_worker(task) if task == "boom" else _ok_worker(task)

        out = run_supervised(tasks, run, key_of=_key, policy=FAST, max_workers=2)
        assert set(out.results) == {_key(1), _key(2)}
        assert [f.key for f in out.failures] == [_key("boom")]

    def test_fail_fast_raises_typed(self):
        policy = FaultPolicy(
            retries=0, backoff_base=0.01, jitter=0.0, fail_fast=True,
        )
        with pytest.raises(CellCrashError):
            run_supervised([1], _crash_worker, key_of=_key, policy=policy)


class TestTimeout:
    def test_hung_worker_is_terminated(self):
        policy = FaultPolicy(
            timeout=0.3, retries=0, jitter=0.0
        )
        t0 = time.perf_counter()
        out = run_supervised([1], _hang_worker, key_of=_key, policy=policy)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0  # nowhere near the worker's 60 s sleep
        failure = out.failures[0]
        assert failure.kind == fault.KIND_TIMEOUT
        assert failure.timeout == 0.3
        assert failure.to_exception().__class__ is CellTimeoutError

    def test_fail_fast_timeout_raises_typed(self):
        policy = FaultPolicy(
            timeout=0.3, retries=0, jitter=0.0, fail_fast=True,
        )
        with pytest.raises(CellTimeoutError):
            run_supervised([1], _hang_worker, key_of=_key, policy=policy)


class TestRetries:
    def test_flaky_cell_recovers_on_retry(self, tmp_path):
        marker = tmp_path / "attempted"
        out = run_supervised([str(marker)], _flaky_worker,
                             key_of=_key, policy=FAST)
        assert out.ok
        assert out.results[_key(str(marker))] == "recovered"
        assert out.attempts[_key(str(marker))] == 2

    def test_repro_error_classified(self):
        out = run_supervised(["ghost"], _error_worker, key_of=_key, policy=FAST)
        failure = out.failures[0]
        assert failure.kind == fault.KIND_ERROR
        assert failure.exception_type == "WorkloadError"
        assert "ghost" in failure.message

    def test_backoff_is_deterministic_and_grows(self):
        policy = FaultPolicy(backoff_base=0.5, backoff_factor=2.0,
                             backoff_max=10.0, jitter=0.1)
        key = ("w", "BC")
        assert policy.backoff_delay(key, 1) == policy.backoff_delay(key, 1)
        assert policy.backoff_delay(key, 3) > policy.backoff_delay(key, 1)

    def test_backoff_is_capped(self):
        policy = FaultPolicy(backoff_base=1.0, backoff_factor=10.0,
                             backoff_max=2.0, jitter=0.0)
        assert policy.backoff_delay(("k",), 9) == 2.0


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"retries": -1},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPolicy(**kwargs)


class TestCheckpoint:
    def test_resume_skips_completed_cells(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        encode, decode = (lambda r: {"v": r}), (lambda d: d["v"])
        first = run_supervised(
            [1, 2], _ok_worker, key_of=_key, policy=FAST,
            checkpoint=Checkpoint(path, encode=encode, decode=decode),
        )
        assert first.ok and first.reused == 0
        # Second pass over the same keys with a worker that would crash:
        # the checkpoint must satisfy every cell so it never runs.
        second = run_supervised(
            [1, 2], _crash_worker, key_of=_key, policy=FAST,
            checkpoint=Checkpoint(path, encode=encode, decode=decode),
        )
        assert second.ok and second.reused == 2
        assert second.results == first.results

    def test_fresh_discards_existing(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        encode, decode = (lambda r: {"v": r}), (lambda d: d["v"])
        ck = Checkpoint(path, encode=encode, decode=decode)
        ck.add(("a",), 1)
        assert len(Checkpoint(path, encode=encode, decode=decode)) == 1
        assert len(Checkpoint(path, encode=encode, decode=decode, fresh=True)) == 0
        assert not path.exists()

    def test_lenient_load_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        encode, decode = (lambda r: {"v": r}), (lambda d: d["v"])
        ck = Checkpoint(path, encode=encode, decode=decode)
        ck.add(("a",), 1)
        ck.add(("b",), 2)
        path.write_text(
            path.read_text() + "{not json\n", encoding="utf-8"
        )
        reloaded = Checkpoint(path, encode=encode, decode=decode)
        assert len(reloaded) == 2
        assert reloaded.get(("a",)) == 1

    def test_get_missing_key_raises(self, tmp_path):
        ck = Checkpoint(tmp_path / "ck.jsonl")
        with pytest.raises(ExperimentError):
            ck.get(("nope",))


class TestMatrixSupervised:
    def test_interrupted_resume_is_bit_identical_to_serial(self, tmp_path):
        clear_caches()
        workloads, configs = ["olden.mst", "olden.treeadd"], ["BC", "CPP"]
        serial = run_matrix(workloads, configs, scale=SCALE)
        path = tmp_path / "matrix.jsonl"
        # "Interrupt": a first campaign that only got through one workload.
        partial = fault.run_matrix_supervised(
            ["olden.mst"], configs, scale=SCALE, policy=FAST,
            checkpoint_path=path,
        )
        assert partial.ok and len(partial.results) == 2
        # Resume the full campaign: the two checkpointed cells are reused.
        full = fault.run_matrix_supervised(
            workloads, configs, scale=SCALE, policy=FAST,
            checkpoint_path=path, resume=True,
        )
        assert full.ok and full.reused == 2
        assert len(full.results) == len(serial)
        by_name = {(k[0], k[3]): r for k, r in full.results.items()}
        for (workload, config), s in serial.items():
            r = by_name[(workload, config)]
            assert r.cycles == s.cycles, (workload, config)
            assert r.bus_words == s.bus_words, (workload, config)
            assert r.l1.misses == s.l1.misses, (workload, config)
            assert r.l2.misses == s.l2.misses, (workload, config)
            assert (
                r.ready_queue_in_miss_cycles == s.ready_queue_in_miss_cycles
            ), (workload, config)
        clear_caches()

    @pytest.mark.parametrize("prewarm", [True, False])
    def test_prewarm_predecodes_each_program_once_in_the_parent(
        self, tmp_path, monkeypatch, prewarm
    ):
        from repro.cpu import ckernel
        from repro.isa import predecode
        from repro.sim.results_io import result_to_full_dict
        from repro.sim.runner import run_workload

        if not ckernel.kernel_available():
            pytest.skip("compiled kernel unavailable on this host")
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        log = tmp_path / "predecode.pids"
        compute = predecode._compute

        def logged_compute(trace):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return compute(trace)

        monkeypatch.setattr(predecode, "_compute", logged_compute)
        clear_caches()
        workloads = ["olden.mst", "olden.treeadd"]
        configs = ["BC", "BCC", "HAC", "BCP", "CPP"]
        out = fault.run_matrix_supervised(
            workloads, configs, scale=SCALE, policy=FAST, max_workers=2,
            prewarm_programs=prewarm,
        )
        assert out.ok and len(out.results) == 10
        pids = log.read_text().split()
        if prewarm:
            assert pids == [str(os.getpid())] * 2
        else:
            assert len(pids) == 10 and str(os.getpid()) not in pids
        for key, result in out.results.items():
            workload, seed, scale, config, _miss = key
            expected = run_workload(workload, config, seed=seed, scale=scale)
            assert result_to_full_dict(result) == result_to_full_dict(expected)
        clear_caches()

    def test_keys_are_canonical_five_tuples(self):
        out = fault.run_matrix_supervised(
            ["olden.mst"], ["BC"], scale=SCALE, policy=FAST
        )
        (key,) = out.results
        assert key == ("olden.mst", 1, SCALE, "BC", 1.0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ExperimentError):
            fault.run_matrix_supervised([], ["BC"])
        with pytest.raises(ExperimentError):
            fault.run_matrix_supervised(["olden.mst"], [])


class TestTryCell:
    def test_failed_cell_yields_none(self):
        key = fault.cell_key("olden.mst", "BC", seed=1, scale=SCALE)
        fault.LEDGER.record(
            fault.CellFailure(key=key, kind=fault.KIND_CRASH,
                              message="injected", attempts=2)
        )
        assert fault.try_cell("olden.mst", "BC", seed=1, scale=SCALE) is None

    def test_unknown_config_degrades_to_hole(self):
        assert (
            fault.try_cell("olden.mst", "NOPE", seed=1, scale=SCALE) is None
        )
        assert len(fault.LEDGER) == 1

    def test_healthy_cell_returns_result(self):
        clear_caches()
        result = fault.try_cell("olden.mst", "BC", seed=1, scale=SCALE)
        assert result is not None and result.config == "BC"
        clear_caches()


class TestFailureManifests:
    def test_permanent_failure_writes_a_record(self, tmp_path):
        from repro.obs import manifest

        manifest.configure(tmp_path)
        try:
            out = run_supervised(
                [1], _crash_worker, key_of=lambda t: ("olden.mst", 1, 0.1, "CPP", 1.0),
                policy=FAST,
            )
        finally:
            manifest.configure(None)
        assert not out.ok
        records = manifest.load_failures(tmp_path)
        assert len(records) == 1
        record = records[0]
        assert record.workload == "olden.mst"
        assert record.config == "CPP"
        assert record.kind == fault.KIND_CRASH
        assert record.attempts == 2
        assert record.seed == 1 and record.miss_scale == 1.0


class TestWorkersEnv:
    def test_env_caps_the_core_default(self, monkeypatch):
        from repro.sim.parallel import default_workers

        monkeypatch.setattr(os, "cpu_count", lambda: 9)
        assert default_workers() == 8  # cores - 1
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        assert default_workers() == 2

    def test_env_clamped_to_one(self, monkeypatch):
        from repro.sim.parallel import default_workers

        monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_MAX_WORKERS", "-4")
        assert default_workers() == 1

    def test_env_garbage_rejected(self, monkeypatch):
        from repro.sim.parallel import default_workers

        monkeypatch.setenv("REPRO_MAX_WORKERS", "lots")
        with pytest.raises(ConfigurationError):
            default_workers()

    def test_env_blank_falls_back(self, monkeypatch):
        from repro.sim.parallel import default_workers

        monkeypatch.setenv("REPRO_MAX_WORKERS", "  ")
        assert default_workers() >= 1


class TestProgress:
    def test_parallel_configs_report_progress(self):
        from repro.obs import progress
        from repro.sim.config import SIM_CONFIGS
        from repro.sim.parallel import run_matrix_parallel_configs

        lines = []
        progress.set_sink(lines.append)
        try:
            run_matrix_parallel_configs(
                ["olden.mst"], [SIM_CONFIGS["BC"]], scale=SCALE,
                max_workers=1, progress=True,
            )
        finally:
            progress.set_sink(None)
        assert any("completed" in line for line in lines)
