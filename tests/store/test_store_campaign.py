"""run_matrix_store integration: store-backed campaigns end to end."""

from __future__ import annotations

import os
import time

from repro.sim import fault
from repro.sim.runner import run_workload
from repro.store import (
    CampaignQueue,
    ResultStore,
    StoreCheckpoint,
    campaign_name,
    run_matrix_store,
)
from repro.store import integrity
from repro.store.integrity import cell_digest

WORKLOADS = ["olden.treeadd"]
CONFIGS = ["BC", "CPP"]
SCALE = 0.05


def run(tmp_path, **kwargs):
    return run_matrix_store(
        WORKLOADS,
        CONFIGS,
        store_dir=tmp_path / "store",
        seed=1,
        scale=SCALE,
        max_workers=2,
        lease_ttl=10.0,
        **kwargs,
    )


def test_campaign_computes_commits_and_drains(tmp_path):
    outcome = run(tmp_path)
    assert len(outcome.results) == 2
    assert not outcome.failures
    assert outcome.reused == 0
    store = ResultStore(tmp_path / "store")
    assert store.object_count() == 2
    queue = CampaignQueue(store.root / "queue", campaign_name(1, SCALE))
    assert queue.drained()


def test_second_run_reuses_every_cell(tmp_path):
    run(tmp_path)
    first_log = ResultStore(tmp_path / "store").compute_log()
    outcome = run(tmp_path)
    assert outcome.reused == 2
    assert len(outcome.results) == 2
    # Nothing recomputed: the compute log did not grow.
    assert ResultStore(tmp_path / "store").compute_log() == first_log


def test_campaign_results_match_direct_simulation(tmp_path):
    outcome = run(tmp_path)
    for config in CONFIGS:
        key = ("olden.treeadd", 1, SCALE, config, 1.0)
        direct = run_workload("olden.treeadd", config, seed=1, scale=SCALE)
        assert outcome.results[key] == direct


def test_corrupted_cell_is_requarantined_and_recomputed(tmp_path):
    run(tmp_path)
    store = ResultStore(tmp_path / "store")
    key = ("olden.treeadd", 1, SCALE, "BC", 1.0)
    store.object_path(store.digest_of(key)).write_bytes(b"rotted")
    outcome = run(tmp_path)
    assert outcome.reused == 1  # the intact cell
    assert len(outcome.results) == 2  # the rotted one was recomputed
    direct = run_workload("olden.treeadd", "BC", seed=1, scale=SCALE)
    assert outcome.results[key] == direct
    assert ResultStore(tmp_path / "store").quarantined_count() == 1


def test_store_checkpoint_adapter_round_trip(tmp_path):
    store = ResultStore(tmp_path / "store")
    checkpoint = StoreCheckpoint(store, worker="w1")
    key = ("olden.treeadd", 1, SCALE, "BC", 1.0)
    assert key not in checkpoint
    result = run_workload("olden.treeadd", "BC", seed=1, scale=SCALE)
    checkpoint.add(key, result)
    assert key in checkpoint
    assert checkpoint.get(key) == result
    assert len(store.compute_log()) == 1
    # Re-adding an identical cell is not a fresh compute.
    checkpoint.add(key, result)
    assert len(store.compute_log()) == 1


# -- the drain is continuous: no batch barrier, one prepare per program ----

DRAIN_CONFIGS = ["BC", "BCC", "HAC", "BCP", "CPP"]
#: How long the blocked cell waits for its four siblings before failing
#: (a drain with a batch barrier never commits them, so it fails here).
BLOCK_TIMEOUT = 20.0


def _drain_key(config: str) -> tuple:
    return fault.matrix_task_key(("olden.treeadd", config, 1.0, 1, SCALE))


def _blocking_cell_worker(task):
    """Simulate *task*; the cell named in ``BLOCKED_CONFIG`` first waits
    until the store holds the other four cells of the matrix."""
    _workload, config, _miss_scale, _seed, _scale = task
    if config == os.environ["BLOCKED_CONFIG"]:
        store = ResultStore(os.environ["BLOCKED_STORE"])
        others = [_drain_key(c) for c in DRAIN_CONFIGS if c != config]
        deadline = time.monotonic() + BLOCK_TIMEOUT
        while not all(store.contains(key) for key in others):
            if time.monotonic() > deadline:
                raise RuntimeError("the other four cells were never committed")
            time.sleep(0.02)
    return fault.matrix_cell_worker(task)


def test_blocked_cell_does_not_hold_back_its_siblings(tmp_path, monkeypatch):
    # Block the job claimed first (lowest digest), so a two-cell batch
    # would pair it with a sibling and wait on it.
    blocked = min(DRAIN_CONFIGS, key=lambda c: cell_digest(_drain_key(c)))
    monkeypatch.setenv("BLOCKED_CONFIG", blocked)
    monkeypatch.setenv("BLOCKED_STORE", str(tmp_path / "store"))
    monkeypatch.setattr(fault, "_matrix_cell_worker", _blocking_cell_worker)
    outcome = run_matrix_store(
        ["olden.treeadd"],
        DRAIN_CONFIGS,
        store_dir=tmp_path / "store",
        seed=1,
        scale=SCALE,
        max_workers=2,
        lease_ttl=10.0,
        policy=fault.FaultPolicy(retries=0),
    )
    assert [f.describe() for f in outcome.failures] == []
    assert len(outcome.results) == 5
    queue = CampaignQueue(tmp_path / "store" / "queue", campaign_name(1, SCALE))
    assert queue.drained()


def test_prepare_runs_once_per_workload_over_a_drain(tmp_path, monkeypatch):
    prepared = []
    monkeypatch.setattr(
        fault, "_matrix_cell_prepare", lambda task: prepared.append(task[0])
    )
    outcome = run_matrix_store(
        ["olden.treeadd", "olden.bisort"],
        ["BC", "BCC", "CPP"],
        store_dir=tmp_path / "store",
        seed=1,
        scale=SCALE,
        max_workers=2,
        lease_ttl=10.0,
        prewarm_programs=True,
    )
    assert len(outcome.results) == 6 and not outcome.failures
    assert sorted(prepared) == ["olden.bisort", "olden.treeadd"]


def test_claimed_cell_already_in_the_store_is_settled_without_running(tmp_path):
    # A worker that died between the store put and the done marker left
    # the result behind: whoever claims the job next settles it unrun.
    store = ResultStore(tmp_path / "store")
    direct = {
        ("olden.treeadd", 1, SCALE, config, 1.0): run_workload(
            "olden.treeadd", config, seed=1, scale=SCALE
        )
        for config in CONFIGS
    }

    def commit_on_claim(name: str) -> None:
        if name == "campaign.after_claim":
            for key, result in direct.items():
                store.put(key, result)

    integrity.set_fault_hook(commit_on_claim)
    try:
        outcome = run(tmp_path)
    finally:
        integrity.set_fault_hook(None)
    assert outcome.attempts == {}
    assert outcome.results == direct and not outcome.failures
    assert CampaignQueue(store.root / "queue", campaign_name(1, SCALE)).drained()
