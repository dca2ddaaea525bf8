"""Shared fixtures: small machines, images, and canned data."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.caches.hierarchy import HierarchyParams, build_hierarchy
from repro.caches.interface import CODE_BITS
from repro.memory.image import MemoryImage
from repro.memory.main_memory import MainMemory

#: A small geometry that exercises conflicts quickly in unit tests:
#: 512 B direct-mapped L1 (64 B lines), 2 KB 2-way L2 (128 B lines).
TINY_PARAMS = HierarchyParams(
    l1_size=512,
    l1_assoc=1,
    l1_line=64,
    l1_latency=1,
    l2_size=2048,
    l2_assoc=2,
    l2_line=128,
    l2_latency=10,
    l1_buffer_entries=2,
    l2_buffer_entries=4,
)

HEAP = 0x1000_0000


@pytest.fixture(autouse=True)
def _clean_failure_ledger():
    """The fault ledger is process-global; never leak it across tests."""
    from repro.sim import fault

    fault.LEDGER.clear()
    yield
    fault.LEDGER.clear()


@pytest.fixture
def image() -> MemoryImage:
    return MemoryImage()


@pytest.fixture
def memory() -> MainMemory:
    return MainMemory(MemoryImage(), latency=100)


@pytest.fixture
def seeded_memory() -> MainMemory:
    """Memory pre-loaded with a deterministic mix of values.

    Words at HEAP + 4*i hold: small values (i % 4 == 0, 1), pointers into
    the same 32 KB chunk (i % 4 == 2), and incompressible junk
    (i % 4 == 3) over the first 16 KB.
    """
    img = MemoryImage()
    for i in range(4096):
        addr = HEAP + 4 * i
        kind = i % 4
        if kind in (0, 1):
            value = (i * 7) % 16000
        elif kind == 2:
            value = (addr & ~0x7FFF) | ((i * 52) & 0x7FFC)
        else:
            value = 0xDEAD_0000 | i
        img.write_word(addr, value)
    return MainMemory(img, latency=100)


def random_word_ops(seed: int, base: int, n_lines: int, n_ops: int = 400):
    """``[(addr, store_value or None, now)]`` over *n_lines* 64 B lines.

    Time advances by 0..60 cycles per op, so prefetches are both late
    and on time; about a third of the ops are stores.
    """
    rng = random.Random(seed)
    ops, now = [], 0
    for _ in range(n_ops):
        addr = base + 64 * rng.randrange(n_lines) + 4 * rng.randrange(16)
        value = rng.getrandbits(32) if rng.random() < 0.35 else None
        ops.append((addr, value, now))
        now += rng.randrange(61)
    return ops


def replay_word_ops(l1, ops) -> list[int]:
    """Run *ops* through *l1*'s word-ops; returns the packed load results.

    The uncounted inline hits (code-0 loads, stores reporting True) are
    flushed into ``l1.stats`` at the end, as the fast core does.
    """
    packed_loads, uncounted = [], 0
    for addr, value, now in ops:
        if value is None:
            packed = l1.load_word(addr, now)
            packed_loads.append(packed)
            uncounted += (packed & ((1 << CODE_BITS) - 1)) == 0
        else:
            uncounted += l1.store_word(addr, value, now)
    l1.stats.accesses += uncounted
    l1.stats.hits += uncounted
    return packed_loads


def replay_access(l1, ops) -> None:
    """Run *ops* through *l1*'s general ``access()`` path."""
    for addr, value, now in ops:
        l1.access(addr, write=value is not None, value=value, now=now)


def cache_state(cache) -> list:
    """(line_no, dirty, data) of every valid line, set by set, MRU first."""
    return [
        (line.line_no, line.dirty, list(line.data))
        for ways in cache._sets
        for line in ways
        if line.valid
    ]


def make_tiny(config: str, mem: MainMemory | None = None):
    """Build a tiny-geometry hierarchy of the given configuration."""
    return build_hierarchy(config, mem or MainMemory(MemoryImage(), latency=100), TINY_PARAMS)


@pytest.fixture(params=["BC", "BCC", "HAC", "BCP", "CPP"])
def any_tiny_hierarchy(request, seeded_memory):
    """Each of the five configurations over the seeded memory."""
    return make_tiny(request.param, seeded_memory)


def rng_values(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << 32, n, dtype=np.uint32)
