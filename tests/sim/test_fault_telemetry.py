"""Supervised fork engine x telemetry: spans per cell, deterministic
merge across completion orders, partial markers from killed children.

Workers are module-level so they survive the fork; every test configures
its own telemetry run directory and disarms on the way out.
"""

import json
import time

import pytest

from repro.obs import telemetry
from repro.obs.metrics import REGISTRY
from repro.obs.phases import PHASES
from repro.obs.telemetry import cell_id_of, load_store, merge_metric_dumps
from repro.sim.fault import FaultPolicy, run_supervised

FAST = FaultPolicy(
    retries=0, backoff_base=0.01, backoff_max=0.02, jitter=0.0,
)


@pytest.fixture(autouse=True)
def _clean_pipeline():
    telemetry.configure(None)
    REGISTRY.reset()
    PHASES.reset()
    yield
    telemetry.configure(None)
    REGISTRY.reset()
    PHASES.reset()


def _key(task):
    return ("cell", task["name"])


def _metric_worker(task):
    """Publishes overlapping metric keys, then takes task-specific time."""
    REGISTRY.inc("cellwork.ops", task["n"])
    REGISTRY.observe("cellwork.lat", task["n"])
    REGISTRY.set_gauge("cellwork.rate", float(task["n"]))
    time.sleep(task["delay"])
    return task["n"]


def _hang_worker(task):
    time.sleep(60)


def _cells_only_merge(store) -> dict:
    """The merged child metrics, excluding the (timing-laden) parent."""
    return merge_metric_dumps(
        {
            f"{cell}#a{attempt}": payload.get("metrics", {})
            for (cell, attempt), payload in store.cells.items()
        }
    )


class TestSpansPerCell:
    def test_every_cell_spools_a_span_under_its_attempt(self, tmp_path):
        telemetry.configure(tmp_path)
        tasks = [
            {"name": "a", "n": 1, "delay": 0.0},
            {"name": "b", "n": 2, "delay": 0.0},
        ]
        out = run_supervised(
            tasks, _metric_worker, key_of=_key, policy=FAST, max_workers=2
        )
        assert out.ok
        store = out.telemetry
        assert store is telemetry.store()
        assert len(store.cells) == 2
        attempt_ids = {
            s.attrs["cell"]: s.span_id
            for s in _finished_parent_spans(store)
            if s.name == "attempt"
        }
        for (cell, _attempt), payload in store.cells.items():
            names = [s["name"] for s in payload["spans"]]
            assert "cell" in names
            cell_span = next(s for s in payload["spans"] if s["name"] == "cell")
            # The child's span parents under the supervisor's attempt span.
            assert cell_span["parent_id"] == attempt_ids[cell]
            assert cell_span["trace_id"] == store.trace_id

    def test_telemetry_json_written_and_loadable(self, tmp_path):
        telemetry.configure(tmp_path)
        run_supervised(
            [{"name": "a", "n": 1, "delay": 0.0}],
            _metric_worker,
            key_of=_key,
            policy=FAST,
        )
        loaded = load_store(tmp_path)
        assert len(loaded.cells) == 1
        assert any(
            s["name"] == "supervised_matrix" for s in loaded.parent["spans"]
        )


def _finished_parent_spans(store):
    from repro.obs import span as span_mod

    return span_mod.finished_spans() or [
        _as_record(s) for s in store.parent.get("spans", ())
    ]


def _as_record(data):
    from repro.obs.span import SpanRecord

    return SpanRecord.from_dict(data)


class TestDeterministicMergeAcrossOrders:
    def _run(self, tmp_path, fast_first: bool):
        telemetry.configure(tmp_path)
        delays = (0.0, 0.25) if fast_first else (0.25, 0.0)
        tasks = [
            {"name": "a", "n": 3, "delay": delays[0]},
            {"name": "b", "n": 5, "delay": delays[1]},
        ]
        out = run_supervised(
            tasks, _metric_worker, key_of=_key, policy=FAST, max_workers=2
        )
        assert out.ok
        merged = _cells_only_merge(out.telemetry)
        telemetry.configure(None)
        return merged

    def test_overlapping_keys_merge_identically(self, tmp_path):
        first = self._run(tmp_path / "run1", fast_first=True)
        second = self._run(tmp_path / "run2", fast_first=False)
        assert first == second
        assert first["cellwork.ops"] == {"type": "counter", "value": 8}
        # Gauge winner is the last cell in sorted id order, not the last
        # cell to finish — identical whichever child completed first.
        assert first["cellwork.rate"]["value"] == second["cellwork.rate"]["value"]
        assert first["cellwork.lat"]["data"]["count"] == 2


class TestPartialMarkers:
    def test_timeout_cell_leaves_partial_never_corrupts_store(self, tmp_path):
        telemetry.configure(tmp_path)
        policy = FaultPolicy(
            timeout=0.3, retries=0, backoff_base=0.01, jitter=0.0,
        )
        task = {"name": "hang", "n": 1, "delay": 0.0}
        out = run_supervised([task], _hang_worker, key_of=_key, policy=policy)
        assert not out.ok and out.failures[0].kind == "timeout"
        cell = cell_id_of(_key(task))
        assert (cell, 1) in out.telemetry.partials
        # The marker survives on disk; the spool payload never appeared.
        assert (tmp_path / "spool" / f"{cell}-a1.partial").exists()
        assert not (tmp_path / "spool" / f"{cell}-a1.json").exists()
        # The persisted store parses and merges cleanly around the hole.
        data = json.loads((tmp_path / "telemetry.json").read_text())
        assert data["merged"]["partials"] == [[cell, 1]]
        reloaded = load_store(tmp_path)
        assert reloaded.merged()["n_attempts"] == 0

    def test_mixed_outcome_keeps_completed_cells(self, tmp_path):
        telemetry.configure(tmp_path)
        policy = FaultPolicy(
            timeout=0.3, retries=0, backoff_base=0.01, jitter=0.0,
        )

        out = run_supervised(
            [
                {"name": "ok", "n": 2, "delay": 0.0},
                {"name": "hang", "n": 1, "delay": 0.0},
            ],
            _mixed_worker,
            key_of=_key,
            policy=policy,
            max_workers=2,
        )
        assert len(out.results) == 1 and len(out.failures) == 1
        store = out.telemetry
        ok_cell = cell_id_of(_key({"name": "ok"}))
        hang_cell = cell_id_of(_key({"name": "hang"}))
        assert (ok_cell, 1) in store.cells
        assert (hang_cell, 1) in store.partials
        assert _cells_only_merge(store)["cellwork.ops"]["value"] == 2


def _mixed_worker(task):
    if task["name"] == "hang":
        time.sleep(60)
    return _metric_worker(task)


class TestDisarmedPath:
    def test_no_telemetry_no_files_no_store(self, tmp_path):
        out = run_supervised(
            [{"name": "a", "n": 1, "delay": 0.0}],
            _metric_worker,
            key_of=_key,
            policy=FAST,
        )
        assert out.ok
        assert out.telemetry is None
        assert not any(tmp_path.iterdir())


_PREPARED: list = []


def _record_prepare(task):
    _PREPARED.append(task["name"])


def _workload_key(task):
    return (task["workload"], task["name"])


class TestPrepareSpan:
    def test_one_prepare_span_per_workload_under_the_run(self, tmp_path):
        telemetry.configure(tmp_path)
        _PREPARED.clear()
        tasks = [
            {"workload": w, "name": f"{w}-{c}", "n": 1, "delay": 0.0}
            for w in ("w1", "w2")
            for c in ("BC", "CPP", "HAC")
        ]
        out = run_supervised(
            tasks,
            _metric_worker,
            key_of=_workload_key,
            policy=FAST,
            max_workers=2,
            prepare=_record_prepare,
        )
        assert out.ok
        # Called in this process, before the first attempt of each workload.
        assert _PREPARED == ["w1-BC", "w2-BC"]
        spans = _finished_parent_spans(out.telemetry)
        (run_span,) = [s for s in spans if s.name == "supervised_matrix"]
        prepares = [s for s in spans if s.name == "prepare"]
        assert sorted(s.attrs["workload"] for s in prepares) == ["w1", "w2"]
        assert all(s.parent_id == run_span.span_id for s in prepares)
        first_attempt = {}
        for s in spans:
            if s.name == "attempt":
                w = s.attrs["workload"]
                first_attempt[w] = min(first_attempt.get(w, s.start), s.start)
        for s in prepares:
            assert s.end <= first_attempt[s.attrs["workload"]]

    def test_no_prepare_no_span(self, tmp_path):
        telemetry.configure(tmp_path)
        out = run_supervised(
            [{"workload": "w1", "name": "a", "n": 1, "delay": 0.0}],
            _metric_worker,
            key_of=_workload_key,
            policy=FAST,
        )
        spans = _finished_parent_spans(out.telemetry)
        assert not [s for s in spans if s.name == "prepare"]
