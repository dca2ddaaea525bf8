"""An interrupt right after a lease claim must not leave the lease behind.

Deterministic counterpart of ``test_sigterm_release.py``: instead of
racing a real SIGTERM against the claim, a fault-point hook raises
``KeyboardInterrupt`` at the first instruction after ``claim()`` hands
a job over — the window where a held lease is not yet under any cleanup
guard unless the guard already covers the claim.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.serve.worker import run_worker
from repro.store import CampaignQueue, ResultStore, campaign_name, run_matrix_store
from repro.store import integrity
from repro.utils.signals import deferred_interrupts, interrupt_on_signal

SCALE = 0.05


@pytest.fixture
def interrupt_at():
    """Arm a fault point that raises KeyboardInterrupt on its first hit."""
    hits = []

    def arm(point: str):
        def hook(name: str) -> None:
            if name == point and not hits:
                hits.append(name)
                raise KeyboardInterrupt(f"fault point {name}")

        integrity.set_fault_hook(hook)
        return hits

    yield arm
    integrity.set_fault_hook(None)


def _held_leases(queue: CampaignQueue) -> list:
    return [
        p for p in queue.leases_dir.iterdir()
        if p.suffix == ".json" and not p.name.startswith(".")
    ]


def test_campaign_interrupted_after_claim_releases_lease(tmp_path, interrupt_at):
    hits = interrupt_at("campaign.after_claim")
    with pytest.raises(KeyboardInterrupt):
        run_matrix_store(
            ["olden.treeadd"],
            ["BC", "CPP"],
            store_dir=tmp_path / "store",
            seed=1,
            scale=SCALE,
            max_workers=2,
            lease_ttl=60.0,
        )
    assert hits == ["campaign.after_claim"]
    queue = CampaignQueue(
        tmp_path / "store" / "queue", campaign_name(1, SCALE), lease_ttl=60.0
    )
    assert _held_leases(queue) == []
    snapshot = queue.snapshot()
    assert snapshot["leased"] == 0
    assert snapshot["pending"] == snapshot["jobs"] == 2


def test_worker_interrupted_after_claim_releases_lease(tmp_path, interrupt_at):
    store = ResultStore(tmp_path / "store")
    queue = CampaignQueue(store.root / "queue", "camp", lease_ttl=60.0)
    queue.enqueue(
        ("olden.treeadd", 1, SCALE, "BC", 1.0),
        ("olden.treeadd", "BC", 1.0, 1, SCALE),
    )
    hits = interrupt_at("worker.after_claim")
    rc = run_worker(store.root, worker_id="t-w0", lease_ttl=60.0, poll=0.05)
    assert rc == 0  # an interrupt is a graceful drain
    assert hits == ["worker.after_claim"]
    assert _held_leases(queue) == []
    assert queue.snapshot()["pending"] == 1
    assert store.object_count() == 0


def test_signal_inside_deferred_block_surfaces_after_it():
    reached = []
    with pytest.raises(KeyboardInterrupt):
        with interrupt_on_signal((signal.SIGTERM,)):
            with deferred_interrupts():
                os.kill(os.getpid(), signal.SIGTERM)
                for _ in range(1000):  # plenty of bytecode boundaries
                    pass
                reached.append("end of block")
    assert reached == ["end of block"]
