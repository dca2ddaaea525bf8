"""Tests for the victim-cache extension."""

import numpy as np
import pytest

from repro.caches.hierarchy import build_hierarchy
from repro.caches.interface import CODE_BITS, SERVED_BY_CODES, MemoryPort
from repro.caches.victim import VictimAwareCache, VictimBuffer, VictimCache
from repro.errors import ConfigurationError
from repro.memory.image import MemoryImage
from repro.memory.main_memory import MainMemory
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.workloads.registry import generate

from tests.conftest import (
    TINY_PARAMS,
    cache_state,
    random_word_ops,
    replay_access,
    replay_word_ops,
)

BASE = 0x1000_0000


def make_victim_l1(mem=None, entries=2):
    mem = mem or MainMemory(MemoryImage(), latency=100)
    cache = VictimAwareCache(
        "L1",
        size_bytes=512,
        assoc=1,
        line_bytes=64,
        hit_latency=1,
        downstream=MemoryPort(mem),
        victim_entries=entries,
    )
    return VictimCache(cache), mem


class TestVictimBuffer:
    def test_insert_pop(self):
        buf = VictimBuffer(2, 16)
        buf.insert(1, np.zeros(16, dtype=np.uint32), dirty=False)
        assert 1 in buf
        assert buf.pop(1) is not None
        assert buf.pop(1) is None

    def test_dirty_spill_on_overflow(self):
        buf = VictimBuffer(1, 16)
        assert buf.insert(1, np.zeros(16, dtype=np.uint32), True) is None
        spilled = buf.insert(2, np.zeros(16, dtype=np.uint32), False)
        assert spilled is not None and spilled[0] == 1
        assert buf.dirty_spills == 1

    def test_clean_overflow_silent(self):
        buf = VictimBuffer(1, 16)
        buf.insert(1, np.zeros(16, dtype=np.uint32), False)
        assert buf.insert(2, np.zeros(16, dtype=np.uint32), False) is None

    def test_entries_checked(self):
        with pytest.raises(ConfigurationError):
            VictimBuffer(0, 16)


class TestVictimRecovery:
    def test_conflict_eviction_recovered(self):
        vc, mem = make_victim_l1()
        mem.poke_word(BASE, 7)
        vc.access(BASE, write=False)  # line A
        vc.access(BASE + 512, write=False)  # conflicts: A -> victim buffer
        result = vc.access(BASE, write=False)  # recovered, not re-fetched
        assert result.served_by == "l1-victim"
        assert result.value == 7
        assert vc.stats.extra["victim_hits"] == 1

    def test_dirty_victim_keeps_data(self):
        vc, mem = make_victim_l1()
        vc.access(BASE, write=True, value=42)
        vc.access(BASE + 512, write=False)  # evict dirty A into buffer
        assert mem.peek_word(BASE) == 0  # write-back deferred!
        result = vc.access(BASE, write=False)
        assert result.value == 42

    def test_deferred_writeback_on_age_out(self):
        vc, mem = make_victim_l1(entries=1)
        vc.access(BASE, write=True, value=9)
        vc.access(BASE + 512, write=False)  # dirty A -> buffer
        vc.access(BASE + 1024, write=False)  # B -> buffer, spills A
        assert mem.peek_word(BASE) == 9

    def test_flush_drains_dirty_victims(self):
        vc, mem = make_victim_l1()
        vc.access(BASE, write=True, value=5)
        vc.access(BASE + 512, write=False)
        vc.flush()
        assert mem.peek_word(BASE) == 5


class TestWordOps:
    """``load_word``/``store_word``: the fast backend's L1 contract."""

    def test_mru_hit_is_uncounted_code_zero(self):
        vc, _ = make_victim_l1()
        vc.access(BASE, write=False)
        before = vc.stats.as_dict()
        assert vc.load_word(BASE + 4) == 1 << CODE_BITS  # code 0, hit latency
        assert vc.store_word(BASE + 8, 77) is True
        assert vc.stats.as_dict() == before
        assert vc.cache.peek_line(vc.cache.line_no(BASE))[2] == 77

    def test_victim_recovery_code(self):
        vc, mem = make_victim_l1()
        mem.poke_word(BASE, 7)
        vc.load_word(BASE)
        vc.load_word(BASE + 512)  # conflicts: A -> victim buffer
        packed = vc.load_word(BASE)
        assert SERVED_BY_CODES[packed & ((1 << CODE_BITS) - 1)] == "l1-victim"
        assert packed >> CODE_BITS == 1
        assert vc.stats.extra["victim_hits"] == 1

    def test_store_into_victim_goes_through_access(self):
        vc, _ = make_victim_l1()
        vc.load_word(BASE)
        vc.load_word(BASE + 512)
        assert vc.store_word(BASE + 4, 99) is False  # recovered, then written
        assert vc.stats.extra["victim_hits"] == 1
        assert vc.access(BASE + 4, write=False).value == 99

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_word_ops_match_access(self, seed):
        ops = random_word_ops(seed, BASE, n_lines=20)
        via_access, mem_a = make_victim_l1()
        replay_access(via_access, ops)
        via_words, mem_w = make_victim_l1()
        replay_word_ops(via_words, ops)
        assert via_words.stats.as_dict() == via_access.stats.as_dict()
        assert cache_state(via_words.cache) == cache_state(via_access.cache)
        assert list(via_words.cache.victim_buffer._entries.items()) == list(
            via_access.cache.victim_buffer._entries.items()
        )
        assert mem_w.bus.total_words == mem_a.bus.total_words


class TestBvcHierarchy:
    def test_builds(self):
        h = build_hierarchy("BVC", MainMemory(MemoryImage()), TINY_PARAMS)
        assert h.name == "BVC"

    def test_verified_run_and_memory_equivalence(self):
        program = generate("spec2000.300.twolf", seed=1, scale=0.15)
        cfg = SimConfig(cache_config="BVC")
        from repro.caches.hierarchy import build_hierarchy as bh
        from repro.cpu.pipeline import OutOfOrderCore

        memory = MainMemory(latency=cfg.effective_memory_latency())
        h = bh("BVC", memory, cfg.effective_hierarchy())
        OutOfOrderCore(h, cfg.core, verify_loads=True).run(program.trace)
        h.flush()
        assert memory.image == program.final_image

    def test_helps_conflict_heavy_workload(self):
        """A victim cache must beat plain BC where conflicts dominate."""
        program = generate("spec2000.300.twolf", seed=1, scale=0.2)
        bc = Machine("BC").run(program)
        bvc = Machine(SimConfig(cache_config="BVC")).run(program)
        assert bvc.cycles < bc.cycles
        assert bvc.l1.extra.get("victim_hits", 0) > 0

    def test_excluded_from_paper_configs(self):
        from repro.sim.config import CONFIG_NAMES

        assert "BVC" not in CONFIG_NAMES
