"""Fault-tolerant supervision of the evaluation matrix.

The (workload x configuration) matrix is the expensive artifact behind
every figure, and production experiment campaigns treat partial failure
as the normal case: one hung or crashed cell must cost *one cell*, not
the campaign. This module supplies the machinery:

* **Per-cell isolation** — every cell attempt runs in its own child
  process (:func:`run_supervised`); a segfault, ``os._exit`` or OOM kill
  takes down one attempt, never the supervisor.
* **Timeouts** — a configurable per-attempt wall-clock budget
  (:class:`FaultPolicy.timeout`); hung workers are terminated, not
  waited on.
* **Retries with backoff** — bounded retries with exponential backoff
  plus deterministic jitter, so transient host-side failures (memory
  pressure, noisy neighbours) are ridden out without thundering herds.
* **Failure classification** — every permanent failure is classified
  (``timeout`` / ``crash`` / ``error`` / ``unexpected``) into a
  :class:`CellFailure`, recorded in the process-global :data:`LEDGER`,
  counted in :data:`repro.obs.metrics.REGISTRY` (``fault.*``) and — when
  a manifest directory is configured — written as a
  :class:`~repro.obs.manifest.FailureRecord`.
* **Checkpoint/resume** — completed cells are checkpointed incrementally
  to a JSONL file (atomic write-temp-then-rename via
  :mod:`repro.sim.results_io`), so an interrupted campaign resumes from
  the checkpoint instead of re-simulating; resumed results are
  bit-identical because serialization is lossless.

Downstream, figures degrade gracefully: :func:`try_cell` consults the
ledger, so a failed cell renders as an explicit hole instead of a
traceback (see :mod:`repro.experiments._matrix`).

Determinism contract: supervision only schedules; a cell's result is
still a pure function of ``(workload, config, seed, scale)``, so a
supervised (or resumed) matrix equals the serial one bit for bit.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import (
    CellCrashError,
    CellTimeoutError,
    ConfigurationError,
    ExperimentError,
    MatrixPartialFailure,
    ReproError,
)
from repro.obs import live as _live
from repro.obs import manifest as _manifest
from repro.obs import phases as _phases
from repro.obs import progress as _progress
from repro.obs import span as _span
from repro.obs import telemetry as _telemetry
from repro.obs.metrics import REGISTRY, SECONDS_BUCKETS
from repro.sim.results import SimResult
from repro.sim.results_io import (
    dump_jsonl,
    load_jsonl,
    result_from_dict,
    result_to_full_dict,
)

__all__ = [
    "FaultPolicy",
    "CellFailure",
    "FailureLedger",
    "LEDGER",
    "Checkpoint",
    "SupervisedOutcome",
    "TaskSource",
    "run_supervised",
    "run_matrix_supervised",
    "matrix_task_key",
    "matrix_cell_worker",
    "cell_key",
    "try_cell",
    "default_checkpoint_path",
]

#: Failure classifications (CellFailure.kind values).
KIND_TIMEOUT = "timeout"
KIND_CRASH = "crash"
KIND_ERROR = "error"  #: a ReproError raised inside the cell
KIND_UNEXPECTED = "unexpected"  #: any other exception


@dataclass(frozen=True)
class FaultPolicy:
    """How the supervisor treats a matrix cell's lifecycle.

    ``retries`` counts *re*-attempts: a cell is tried at most
    ``retries + 1`` times. The backoff before attempt ``n+1`` is
    ``min(backoff_max, backoff_base * backoff_factor**(n-1))``, inflated
    by up to ``jitter`` (a fraction, deterministic per cell+attempt so
    runs are reproducible). ``fail_fast`` aborts the whole matrix on the
    first permanent cell failure instead of degrading to a partial
    result.
    """

    timeout: float | None = None  #: per-attempt wall-clock seconds
    retries: int = 1
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 10.0
    jitter: float = 0.1
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError("timeout must be positive (or None)")
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    def backoff_delay(self, key: tuple, attempt: int) -> float:
        """Delay before the retry following failed attempt *attempt*.

        Jitter is seeded from (key, attempt), so the schedule is
        deterministic for a given matrix — reruns behave identically.
        """
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        if self.jitter:
            u = random.Random(f"{key!r}:{attempt}").random()
            delay *= 1.0 + self.jitter * u
        return delay


@dataclass(frozen=True)
class CellFailure:
    """One permanently failed matrix cell (retries exhausted)."""

    key: tuple
    kind: str  #: timeout / crash / error / unexpected
    message: str
    attempts: int
    exception_type: str = ""
    exitcode: int | None = None
    timeout: float | None = None  #: the per-attempt budget, for timeouts

    def to_exception(self) -> ExperimentError:
        """The typed exception this failure classifies as."""
        if self.kind == KIND_TIMEOUT:
            return CellTimeoutError(self.key, self.timeout or 0.0, self.attempts)
        if self.kind == KIND_CRASH:
            return CellCrashError(self.key, self.exitcode, self.attempts)
        return ExperimentError(
            f"cell {self.key!r} failed after {self.attempts} attempt(s): "
            f"{self.exception_type or self.kind}: {self.message}"
        )

    def describe(self) -> str:
        """One human line: where, how, why."""
        workload, config = _key_identity(self.key)
        return (
            f"{workload} on {config}: {self.kind} after "
            f"{self.attempts} attempt(s) — {self.message}"
        )


def _key_identity(key: tuple) -> tuple[str, str]:
    """Best-effort (workload, config) labels from a cell key.

    Canonical matrix keys are ``(workload, seed, scale, cache_config,
    miss_scale)``; the parallel API uses ``(workload, config)``; generic
    supervised tasks may use anything — fall back to ``repr``.
    """
    if isinstance(key, tuple):
        if (
            len(key) == 5
            and isinstance(key[0], str)
            and isinstance(key[3], str)
            and isinstance(key[4], (int, float))
        ):
            config = key[3] if key[4] == 1.0 else f"{key[3]}@x{key[4]:g}"
            return key[0], config
        if len(key) >= 2 and isinstance(key[0], str) and isinstance(key[1], str):
            return key[0], key[1]
        if len(key) == 3 and isinstance(key[0], str) and isinstance(key[1], str):
            return key[0], f"{key[1]}@x{key[2]:g}"
    return repr(key), "?"


class FailureLedger:
    """Process-global record of permanently failed cells.

    The supervisor writes into it; figure code reads it through
    :func:`try_cell` to skip known-bad cells and render holes. Recording
    also publishes ``fault.failures`` metrics and — when a manifest
    directory is configured — a :class:`~repro.obs.manifest.FailureRecord`.
    """

    def __init__(self) -> None:
        self._failures: dict[tuple, CellFailure] = {}

    def record(self, failure: CellFailure) -> None:
        """Register one permanent failure (idempotent per key)."""
        self._failures[failure.key] = failure
        REGISTRY.inc("fault.failures", kind=failure.kind)
        if _manifest.manifest_dir() is not None:
            workload, config = _key_identity(failure.key)
            seed = scale = miss_scale = None
            if len(failure.key) == 5 and isinstance(failure.key[3], str):
                _, seed, scale, _, miss_scale = failure.key
            _manifest.write_failure(
                _manifest.FailureRecord(
                    workload=workload,
                    config=config,
                    kind=failure.kind,
                    message=failure.message,
                    attempts=failure.attempts,
                    exception_type=failure.exception_type,
                    seed=seed,
                    scale=scale,
                    miss_scale=miss_scale,
                )
            )

    def is_failed(self, key: tuple) -> bool:
        """Has *key* been recorded as permanently failed?"""
        return key in self._failures

    def get(self, key: tuple) -> CellFailure | None:
        """The failure recorded for *key* (None if absent)."""
        return self._failures.get(key)

    @property
    def failures(self) -> list[CellFailure]:
        """All recorded failures, in recording order."""
        return list(self._failures.values())

    def __len__(self) -> int:
        return len(self._failures)

    def clear(self) -> None:
        """Forget everything (fresh campaigns, tests)."""
        self._failures.clear()

    def summary(self) -> str:
        """Human-readable failure summary ('' when nothing failed)."""
        if not self._failures:
            return ""
        lines = [f"{len(self._failures)} matrix cell(s) failed permanently:"]
        lines.extend(f"  - {f.describe()}" for f in self._failures.values())
        return "\n".join(lines)


#: The process-global ledger the experiment harness consults.
LEDGER = FailureLedger()


class Checkpoint:
    """Incremental, atomic JSONL checkpoint of completed matrix cells.

    One line per completed cell: ``{"key": [...], "result": {...}}``.
    Every :meth:`add` rewrites the file through write-temp-then-rename,
    so the on-disk checkpoint is always a complete, well-formed prefix of
    the campaign — an interrupt can never corrupt it. Loading is lenient
    (malformed lines are skipped so an old or damaged checkpoint degrades
    to fewer reusable cells, not a failed resume) but never *silent*:
    skipped lines are counted in :attr:`malformed_lines`, published as
    the ``checkpoint.malformed_lines`` metric, and reported in one
    warning line — pre-migration corruption stays visible.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        encode: Callable = result_to_full_dict,
        decode: Callable = result_from_dict,
        fresh: bool = False,
    ) -> None:
        self.path = Path(path)
        self._encode = encode
        self._decode = decode
        self._records: dict[tuple, dict] = {}
        #: Lines the loader had to skip (corruption visibility).
        self.malformed_lines = 0
        if fresh:
            self.path.unlink(missing_ok=True)
        elif self.path.exists():
            bad: list[int] = []
            for record in load_jsonl(
                self.path, on_malformed=lambda lineno, _msg: bad.append(lineno)
            ):
                raw_key = record.get("key")
                if isinstance(raw_key, list) and "result" in record:
                    self._records[tuple(raw_key)] = record
                else:
                    bad.append(-1)  # well-formed JSON, wrong shape
            if bad:
                self.malformed_lines = len(bad)
                REGISTRY.inc("checkpoint.malformed_lines", len(bad))
                first = next((n for n in bad if n > 0), None)
                where = f" (first at line {first})" if first else ""
                _progress.report(
                    f"checkpoint {self.path}: skipped "
                    f"{len(bad)} malformed record(s){where} — the affected "
                    f"cells will be re-simulated",
                    event="checkpoint_malformed",
                    path=str(self.path),
                    malformed=len(bad),
                )

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: tuple) -> bool:
        return tuple(key) in self._records

    def keys(self) -> list[tuple]:
        """Keys of all checkpointed cells."""
        return list(self._records)

    def get(self, key: tuple):
        """Decoded result for *key* (ExperimentError if absent)."""
        record = self._records.get(tuple(key))
        if record is None:
            raise ExperimentError(f"cell {key!r} not in checkpoint {self.path}")
        return self._decode(record["result"])

    def add(self, key: tuple, result) -> None:
        """Record one completed cell and flush atomically."""
        self._records[tuple(key)] = {
            "key": list(key),
            "result": self._encode(result),
        }
        self.flush()

    def flush(self) -> None:
        """Rewrite the checkpoint file (atomic replace)."""
        dump_jsonl(self._records.values(), self.path)


@dataclass
class SupervisedOutcome:
    """What a supervised matrix run produced."""

    results: dict
    failures: list[CellFailure] = field(default_factory=list)
    attempts: dict[tuple, int] = field(default_factory=dict)
    reused: int = 0  #: cells satisfied from the checkpoint without running
    #: The run's telemetry store when the pipeline was armed (else None).
    telemetry: object = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_if_failed(self) -> "SupervisedOutcome":
        """Raise :class:`MatrixPartialFailure` if any cell failed."""
        if self.failures:
            raise MatrixPartialFailure(self.failures, self.results)
        return self


# --------------------------------------------------------------------------
# The supervisor
# --------------------------------------------------------------------------

#: While the live dashboard is shown, the supervisor wakes at least this
#: often (seconds) so running-cell timers advance. Otherwise it sleeps
#: until an attempt ends, a deadline passes or a retry falls due.
_DASHBOARD_REFRESH = 0.25


class TaskSource:
    """Tasks handed to :func:`run_supervised` one at a time, on demand.

    The supervisor asks for a task whenever a worker slot is free and no
    retry is due, so a task is claimed only when it can start at once.
    After :meth:`claim` returns None it asks again once an attempt ends
    or :attr:`retry_interval` seconds have passed; when nothing is
    running or waiting to retry, :meth:`exhausted` decides whether the
    run ends.
    """

    #: Seconds before :meth:`claim` is asked again after it returned None.
    retry_interval: float = 0.5
    #: How many tasks the source expects to hand out (progress totals).
    expected: int = 0

    def claim(self):
        """The next task, or None when none is available right now."""
        raise NotImplementedError

    def exhausted(self) -> bool:
        """True when :meth:`claim` will never return a task again."""
        raise NotImplementedError

    def settle(self, key: tuple, failure: CellFailure | None = None) -> None:
        """Cell *key* ended: its result is committed to the checkpoint
        (when there is one), or it failed permanently with *failure*."""
        raise NotImplementedError


def _child_entry(worker, task, conn, telem=None) -> None:
    """Child-process shell around one cell attempt.

    Sends ``("ok", result)`` or ``("err", (type, is_repro, message,
    traceback))`` back through *conn*; a hard crash sends nothing and is
    classified by the parent from the exit code. SIGINT is ignored so an
    interactive Ctrl-C unwinds through the supervisor's cleanup, which
    terminates children deliberately.

    With telemetry armed, *telem* is the supervisor's handoff
    (:mod:`repro.obs.telemetry`): the child adopts the attempt span's
    context, measures only itself, and spools spans + metrics + phases
    *before* reporting through the pipe — so when the parent sees the
    result, the spool file is already complete. Telemetry failures
    degrade to an untraced cell, never a failed one.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if telem is not None:
        try:
            _telemetry.child_begin(telem)
        except Exception:  # noqa: BLE001 - observability must not kill cells
            telem = None

    def _spool(status: str) -> None:
        if telem is None:
            return
        try:
            _telemetry.child_finish(telem, status=status)
        except Exception:  # noqa: BLE001 - spool loss degrades to partial
            pass

    try:
        if telem is not None:
            with _span.span(
                "cell",
                cell=telem["cell"],
                attempt=telem["attempt"],
                worker=telem.get("worker"),
            ):
                result = worker(task)
        else:
            result = worker(task)
        _spool("ok")
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - classified by the parent
        _spool("error")
        try:
            conn.send(
                (
                    "err",
                    (
                        type(exc).__name__,
                        isinstance(exc, ReproError),
                        str(exc),
                        traceback.format_exc(),
                    ),
                )
            )
        except Exception:
            os._exit(70)  # unpicklable result/exception: report as crash
    finally:
        conn.close()


@dataclass
class _Cell:
    task: object
    key: tuple
    attempts: int = 0
    ready_at: float = 0.0


@dataclass
class _Running:
    cell: _Cell
    proc: object
    conn: object
    deadline: float | None
    started: float
    slot: int = 0  #: worker slot (occupancy tracking, trace swimlanes)
    telem: dict | None = None  #: telemetry handoff given to the child
    attempt_span: object = None  #: the supervisor-side span of this attempt


def _terminate(proc) -> None:
    """Stop a child for good (terminate, escalate to kill)."""
    if not proc.is_alive():
        proc.join()
        return
    proc.terminate()
    proc.join(1.0)
    if proc.is_alive():
        proc.kill()
        proc.join(1.0)


def run_supervised(
    tasks: Sequence,
    worker: Callable,
    *,
    key_of: Callable[[object], tuple],
    policy: FaultPolicy | None = None,
    max_workers: int | None = None,
    checkpoint: Checkpoint | None = None,
    progress: bool = False,
    phase_name: str = "supervised_matrix",
    prepare: Callable | None = None,
    source: TaskSource | None = None,
) -> SupervisedOutcome:
    """Run *tasks* through *worker*, one isolated process per attempt.

    *worker* is a picklable callable ``task -> result`` executed in a
    child process; *key_of* names each task's cell. Cells already present
    in *checkpoint* are returned without running; freshly completed cells
    are checkpointed incrementally. Failures are retried per *policy*,
    then recorded in :data:`LEDGER` and returned in the outcome — this
    function only raises for ``fail_fast`` (the failure's typed
    exception) and for ``KeyboardInterrupt`` (after terminating all
    children; the checkpoint survives).

    With a *source* (:class:`TaskSource`), further tasks are claimed from
    it whenever a worker slot is free, and every cell's end is reported
    to its :meth:`~TaskSource.settle`. The supervisor never polls: it
    waits on the children's result pipes and exit sentinels, waking
    early only for the next attempt deadline, retry or source re-claim.

    *prepare*, when given, is called in this process with a task just
    before the first attempt of each workload is forked, so every
    attempt inherits what it builds. Its time is not part of any
    attempt's timeout budget; with telemetry on it is a ``prepare`` span.
    """
    import multiprocessing as mp
    from multiprocessing.connection import wait as wait_ready

    policy = policy or FaultPolicy()
    if max_workers is None:
        from repro.sim.parallel import default_workers

        max_workers = default_workers()
    if max_workers < 1:
        raise ExperimentError("max_workers must be positive")

    ctx = mp.get_context()
    outcome = SupervisedOutcome(results={})
    pending: list[_Cell] = []
    for task in tasks:
        key = tuple(key_of(task))
        if checkpoint is not None and key in checkpoint:
            outcome.results[key] = checkpoint.get(key)
            outcome.reused += 1
            REGISTRY.inc("fault.cells_reused")
        else:
            pending.append(_Cell(task=task, key=key))
    expected = source.expected if source is not None else 0
    total = len(outcome.results) + len(pending) + expected
    view = _live.maybe_dashboard(total, max_workers) if progress else None
    if outcome.reused:
        if view is not None:
            view.resumed(outcome.reused)
        elif progress:
            _progress.report(
                f"resumed {outcome.reused}/{total} cells from checkpoint"
                + (f" {checkpoint.path}" if checkpoint is not None else ""),
                event="resumed",
                reused=outcome.reused,
                total=total,
            )

    running: list[_Running] = []
    done = outcome.reused
    free_slots = list(range(max_workers))
    telemetry_store = _telemetry.store()
    run_span = (
        _span.start_span(
            phase_name, cells=len(pending) + expected, reused=outcome.reused
        )
        if telemetry_store is not None
        else None
    )
    #: Monotonic time before which the source is not asked again, and
    #: whether it is known to be exhausted.
    claim_after = 0.0
    source_done = source is None

    prepared: set[str] = set()

    def _prepare(cell: _Cell) -> None:
        workload, _config = _key_identity(cell.key)
        if prepare is None or workload in prepared:
            return
        prepared.add(workload)
        prepare_span = (
            _span.start_span("prepare", parent=run_span, workload=workload)
            if telemetry_store is not None
            else None
        )
        try:
            prepare(cell.task)
        finally:
            _span.finish_span(prepare_span)

    def _launch(cell: _Cell, now: float) -> None:
        slot = free_slots.pop(0) if free_slots else 0
        attempt_no = cell.attempts + 1
        workload, config = _key_identity(cell.key)
        telem = None
        attempt_span = None
        if telemetry_store is not None:
            cell_id = _telemetry.cell_id_of(cell.key)
            attempt_span = _span.start_span(
                "attempt",
                parent=run_span,
                cell=cell_id,
                workload=workload,
                config=config,
                attempt=attempt_no,
                worker=slot,
            )
            telem = {
                "dir": str(_telemetry.run_dir()),
                "cell": cell_id,
                "key": list(cell.key),
                "attempt": attempt_no,
                "worker": slot,
                "trace": telemetry_store.trace_id,
                "parent": attempt_span.span_id if attempt_span else None,
            }
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_child_entry,
            args=(worker, cell.task, send_conn, telem),
            daemon=True,
        )
        proc.start()
        send_conn.close()
        cell.attempts += 1
        outcome.attempts[cell.key] = cell.attempts
        REGISTRY.inc("fault.attempts")
        deadline = now + policy.timeout if policy.timeout is not None else None
        running.append(
            _Running(
                cell=cell,
                proc=proc,
                conn=recv_conn,
                deadline=deadline,
                started=now,
                slot=slot,
                telem=telem,
                attempt_span=attempt_span,
            )
        )
        if view is not None:
            view.started(cell.key, slot, f"{workload}/{config}")

    def _cell_done(key: tuple, result) -> None:
        nonlocal done
        outcome.results[key] = result
        done += 1
        if source is not None:
            source.settle(key)
        if view is not None:
            view.finished(key, ok=True)
        elif progress:
            workload, config = _key_identity(key)
            _progress.report(
                f"completed {workload} on {config} ({done}/{total})",
                event="cell_done",
                workload=workload,
                config=config,
                done=done,
                total=total,
            )

    def _fill_slots() -> None:
        """Start a ready retry, or a freshly claimed task, on every free
        slot; ask an idle source again only after its retry interval."""
        nonlocal claim_after, source_done
        while len(running) < max_workers:
            now = time.monotonic()
            idx = next(
                (i for i, c in enumerate(pending) if c.ready_at <= now), None
            )
            if idx is not None:
                cell = pending.pop(idx)
            elif source_done or now < claim_after:
                return
            else:
                task = source.claim()
                if task is None:
                    if not running and not pending and source.exhausted():
                        source_done = True
                    else:
                        claim_after = now + source.retry_interval
                    return
                cell = _Cell(task=task, key=tuple(key_of(task)))
                if checkpoint is not None and cell.key in checkpoint:
                    # Committed by a worker that died before settling it.
                    outcome.reused += 1
                    REGISTRY.inc("fault.cells_reused")
                    _cell_done(cell.key, checkpoint.get(cell.key))
                    continue
            _prepare(cell)
            _launch(cell, time.monotonic())

    def _wait_for_events() -> set:
        """Block until a child reports or exits, or the next deadline,
        retry, source re-claim or dashboard refresh is due."""
        now = time.monotonic()
        wake = [r.deadline for r in running if r.deadline is not None]
        if len(running) < max_workers:
            wake.extend(c.ready_at for c in pending)
            if not source_done:
                wake.append(claim_after)
        if view is not None:
            wake.append(now + _DASHBOARD_REFRESH)
        timeout = max(0.0, min(wake) - now) if wake else None
        handles = [r.conn for r in running] + [r.proc.sentinel for r in running]
        return set(wait_ready(handles, timeout))

    def _attempt_settled(run: _Running, kind: str) -> None:
        """Bookkeeping common to every attempt end: free the worker slot,
        close the attempt span, ingest the child's spool (a child that
        died before spooling becomes a partial-telemetry marker)."""
        nonlocal claim_after
        claim_after = 0.0  # a slot is free: the source may have work now
        free_slots.append(run.slot)
        free_slots.sort()
        _span.finish_span(
            run.attempt_span,
            status="ok" if kind == "ok" else "error",
            outcome=kind,
        )
        if run.telem is not None and telemetry_store is not None:
            telemetry_store.ingest_spool(
                run.telem["cell"], run.telem["attempt"]
            )

    def _attempt_failed(
        run: _Running, kind: str, message: str, exc_type: str = "", exitcode: int | None = None
    ) -> None:
        _attempt_settled(run, kind)
        cell = run.cell
        REGISTRY.inc("fault.attempt_failures", kind=kind)
        if kind == KIND_TIMEOUT:
            REGISTRY.inc("fault.timeouts")
        elif kind == KIND_CRASH:
            REGISTRY.inc("fault.crashes")
        if cell.attempts <= policy.retries:
            delay = policy.backoff_delay(cell.key, cell.attempts)
            REGISTRY.inc("fault.retries")
            cell.ready_at = time.monotonic() + delay
            pending.append(cell)
            if view is not None:
                view.retrying(cell.key)
            elif progress:
                workload, config = _key_identity(cell.key)
                _progress.report(
                    f"retrying {workload} on {config} in {delay:.2f}s "
                    f"(attempt {cell.attempts + 1}/{policy.retries + 1}) "
                    f"after {kind}: {message}",
                    event="cell_retry",
                    workload=workload,
                    config=config,
                    kind=kind,
                    attempt=cell.attempts,
                )
        else:
            failure = CellFailure(
                key=cell.key,
                kind=kind,
                message=message,
                attempts=cell.attempts,
                exception_type=exc_type,
                exitcode=exitcode,
                timeout=policy.timeout if kind == KIND_TIMEOUT else None,
            )
            outcome.failures.append(failure)
            LEDGER.record(failure)
            if source is not None:
                source.settle(cell.key, failure)
            if view is not None:
                view.finished(cell.key, ok=False)
            elif progress:
                workload, config = _key_identity(cell.key)
                _progress.report(
                    f"cell failed permanently: {failure.describe()}",
                    event="cell_failed",
                    workload=workload,
                    config=config,
                    kind=kind,
                    attempts=cell.attempts,
                )
            if policy.fail_fast:
                raise failure.to_exception()

    def _reap(run: _Running) -> None:
        """Settle an attempt whose child reported or exited."""
        report = None  # stays None when the child died before reporting
        if run.conn.poll():
            try:
                report = run.conn.recv()
            except (EOFError, OSError):
                pass  # the pipe hit EOF: os._exit, segfault, OOM kill
        run.proc.join()
        run.conn.close()
        if report is None:
            exitcode = run.proc.exitcode
            _attempt_failed(
                run,
                KIND_CRASH,
                f"worker exited with code {exitcode} before reporting",
                exitcode=exitcode,
            )
            return
        REGISTRY.histogram("fault.attempt_seconds", bounds=SECONDS_BUCKETS).observe(
            time.monotonic() - run.started
        )
        status, payload = report
        if status == "ok":
            _attempt_settled(run, "ok")
            REGISTRY.inc("fault.cells_ok")
            if checkpoint is not None:
                checkpoint.add(run.cell.key, payload)
            _cell_done(run.cell.key, payload)
        else:
            exc_type, is_repro, message, _tb = payload
            kind = KIND_ERROR if is_repro else KIND_UNEXPECTED
            _attempt_failed(run, kind, message, exc_type)

    try:
        with _phases.phase(phase_name):
            while True:
                _fill_slots()
                if not pending and not running and source_done:
                    break
                ready = _wait_for_events()
                now = time.monotonic()
                for run in list(running):
                    if run.conn in ready or run.proc.sentinel in ready:
                        running.remove(run)
                        _reap(run)
                    elif run.deadline is not None and now >= run.deadline:
                        running.remove(run)
                        _terminate(run.proc)
                        run.conn.close()
                        _attempt_failed(
                            run,
                            KIND_TIMEOUT,
                            f"exceeded per-attempt timeout of {policy.timeout:g}s",
                        )
                if view is not None:
                    view.tick()
    finally:
        for run in running:
            _terminate(run.proc)
            try:
                run.conn.close()
            except OSError:
                pass
            _attempt_settled(run, "interrupted")
        if view is not None:
            view.close(
                f"{done}/{total} cells done, {len(outcome.failures)} failed"
            )
        _span.finish_span(
            run_span,
            completed=len(outcome.results),
            failed=len(outcome.failures),
        )
        if telemetry_store is not None:
            outcome.telemetry = telemetry_store
            _telemetry.finalize_run()
    return outcome


# --------------------------------------------------------------------------
# Matrix-shaped entry points
# --------------------------------------------------------------------------


def cell_key(
    workload: str,
    config,
    *,
    seed: int = 1,
    scale: float = 1.0,
) -> tuple:
    """Canonical identity of one matrix cell.

    Matches the runner's memoization key exactly:
    ``(workload, seed, scale, cache_config, miss_scale)``, where the
    cache-config slot is salted with the resolved codec when it is not
    the paper default (see ``SimConfig.cache_config_key``) — a resumed
    checkpoint must never serve cells computed under a different codec.
    """
    from repro.sim.config import SIM_CONFIGS, SimConfig

    if isinstance(config, str):
        config = SIM_CONFIGS.get(config.upper(), None) or SimConfig(
            cache_config=config
        )
    return (workload, seed, scale, config.cache_config_key, config.miss_scale)


def try_cell(
    workload: str,
    config,
    *,
    seed: int = 1,
    scale: float = 1.0,
) -> SimResult | None:
    """Run one cell, degrading to ``None`` instead of raising.

    Cells already recorded as failed in :data:`LEDGER` are skipped
    outright (no pointless re-simulation of a deterministic failure);
    a fresh failure is classified, recorded and reported as ``None`` so
    figure code renders an explicit hole.
    """
    from repro.sim.runner import run_workload

    try:
        key = cell_key(workload, config, seed=seed, scale=scale)
    except ReproError as exc:
        key = (workload, seed, scale, str(config), 1.0)
        if not LEDGER.is_failed(key):
            LEDGER.record(
                CellFailure(
                    key=key,
                    kind=KIND_ERROR,
                    message=str(exc),
                    attempts=1,
                    exception_type=type(exc).__name__,
                )
            )
        return None
    if LEDGER.is_failed(key):
        return None
    try:
        return run_workload(workload, config, seed=seed, scale=scale)
    except ReproError as exc:
        failure = CellFailure(
            key=key,
            kind=KIND_ERROR,
            message=str(exc),
            attempts=1,
            exception_type=type(exc).__name__,
        )
    except Exception as exc:  # noqa: BLE001 - degrade, never traceback
        failure = CellFailure(
            key=key,
            kind=KIND_UNEXPECTED,
            message=str(exc),
            attempts=1,
            exception_type=type(exc).__name__,
        )
    LEDGER.record(failure)
    return None


def default_checkpoint_path(seed: int, scale: float) -> Path:
    """Where the experiments CLI checkpoints a campaign's matrix."""
    return Path("results") / "checkpoints" / f"matrix-seed{seed}-scale{scale:g}.jsonl"


def _matrix_task_key(task: tuple) -> tuple:
    """Canonical cell key of one ``run_matrix_supervised`` task."""
    workload, config_name, miss_scale, seed, scale = task
    base = cell_key(workload, config_name, seed=seed, scale=scale)
    return (base[0], base[1], base[2], base[3], miss_scale)


def _matrix_config(config_name: str):
    """The :class:`SimConfig` a matrix task's config name stands for."""
    from repro.sim.config import SIM_CONFIGS, SimConfig

    return SIM_CONFIGS.get(config_name.upper(), None) or SimConfig(
        cache_config=config_name
    )


def _matrix_cell_worker(task: tuple) -> SimResult:
    """Child entry: simulate one (workload, config, miss_scale) cell."""
    from repro.sim.runner import run_workload

    workload, config_name, miss_scale, seed, scale = task
    config = _matrix_config(config_name)
    if miss_scale != 1.0:
        config = config.with_miss_scale(miss_scale)
    return run_workload(workload, config, seed=seed, scale=scale)


def _matrix_cell_prepare(task: tuple) -> None:
    """Supervisor-side set-up of one matrix task's program.

    Generates (or loads) the program and, when the cell will run on the
    compiled kernel, imports the fast core and builds the trace's kernel
    image (:mod:`repro.isa.predecode`), so every forked attempt of the
    program inherits both instead of rebuilding them. Errors are
    swallowed: a program that cannot be set up fails inside its
    supervised attempt, where it is classified and retried.
    """
    from repro.cpu import ckernel
    from repro.sim.backend import resolve_backend
    from repro.sim.runner import get_program

    workload, config_name, _miss_scale, seed, scale = task
    try:
        program = get_program(workload, seed=seed, scale=scale)
        config = _matrix_config(config_name)
        if resolve_backend(config.backend) == "fast" and ckernel.kernel_available():
            import repro.cpu.fastcore  # noqa: F401 - inherited by the fork
            from repro.isa.predecode import get_predecoded

            trace = program.trace
            get_predecoded(trace).branch(trace, config.core.bimod_entries)
    except Exception:  # noqa: BLE001 - the supervised cell reports it
        pass


#: Public names for the matrix task plumbing: the queue-draining service
#: workers (:mod:`repro.serve.worker`) run the same cell function against
#: jobs whose task tuples were enqueued by ``run_matrix_store`` or the
#: HTTP API, so the computation is one code path no matter who drives it.
matrix_task_key = _matrix_task_key
matrix_cell_worker = _matrix_cell_worker


def run_matrix_supervised(
    workloads: Sequence[str],
    configs: Sequence[str],
    *,
    seed: int = 1,
    scale: float = 1.0,
    miss_scales: Sequence[float] = (1.0,),
    policy: FaultPolicy | None = None,
    max_workers: int | None = None,
    checkpoint_path: str | Path | None = None,
    resume: bool = True,
    progress: bool = False,
    prewarm_programs: bool = False,
) -> SupervisedOutcome:
    """Fault-tolerant run of the full evaluation matrix.

    Keys in the outcome are the canonical
    ``(workload, seed, scale, cache_config, miss_scale)`` tuples, ready
    for :func:`repro.sim.runner.inject_results`. With *checkpoint_path*
    set, completed cells persist across interrupts; ``resume=False``
    discards any existing checkpoint and starts fresh.

    *prewarm_programs* prepares each workload in the parent just before
    its first attempt is forked — the program and, on the compiled
    kernel, the trace's kernel image (see :func:`_matrix_cell_prepare`)
    — so every forked attempt inherits them instead of rebuilding them
    per config. Leave it off when running with a timeout: parent-side
    set-up is not covered by the per-cell budget. A program whose set-up
    fails still fails inside its supervised attempt, where it is
    classified.
    """
    if not workloads or not configs:
        raise ExperimentError("workloads and configs must be non-empty")
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = Checkpoint(checkpoint_path, fresh=not resume)
    tasks = [
        (workload, config, miss_scale, seed, scale)
        for workload in workloads
        for config in configs
        for miss_scale in miss_scales
    ]
    return run_supervised(
        tasks,
        _matrix_cell_worker,
        key_of=_matrix_task_key,
        policy=policy,
        max_workers=max_workers,
        checkpoint=checkpoint,
        progress=progress,
        prepare=_matrix_cell_prepare if prewarm_programs else None,
    )
