"""Compiled core loop: availability gating, cache dir override, fallback.

The C kernel is an *optional* accelerator under the ``fast`` backend —
every test here pins the contract that disabling it (or lacking a
compiler) silently falls back to the pure-Python fast loop with
bit-identical results.
"""

import json

import numpy as np
import pytest

from repro.cpu import ckernel
from repro.check.diff import BackendDiffRunner, random_program
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.sim.results_io import result_to_full_dict


def _reset_kernel_state(monkeypatch):
    """Force the next kernel lookup to re-evaluate the environment."""
    monkeypatch.setattr(ckernel, "_TRIED", False)
    monkeypatch.setattr(ckernel, "_KERNEL", None)


def _full_dict(program, backend):
    config = SimConfig(cache_config="CPP", backend=backend)
    result = Machine(config).run(program)
    return json.loads(json.dumps(result_to_full_dict(result)))


class TestAvailabilityGate:
    def test_disable_env_turns_kernel_off(self, monkeypatch):
        _reset_kernel_state(monkeypatch)
        monkeypatch.setenv("REPRO_DISABLE_CKERNEL", "1")
        assert not ckernel.kernel_available()

    def test_missing_compiler_means_unavailable(self, monkeypatch):
        _reset_kernel_state(monkeypatch)
        monkeypatch.delenv("REPRO_DISABLE_CKERNEL", raising=False)
        monkeypatch.setattr(ckernel.shutil, "which", lambda name: None)
        assert not ckernel.kernel_available()

    def test_failed_build_means_unavailable_not_crash(self, monkeypatch):
        _reset_kernel_state(monkeypatch)
        monkeypatch.delenv("REPRO_DISABLE_CKERNEL", raising=False)

        def boom():
            raise OSError("simulated build explosion")

        monkeypatch.setattr(ckernel, "_build", boom)
        assert not ckernel.kernel_available()

    def test_lookup_is_cached_after_first_try(self, monkeypatch):
        _reset_kernel_state(monkeypatch)
        monkeypatch.setenv("REPRO_DISABLE_CKERNEL", "1")
        assert not ckernel.kernel_available()
        # Clearing the env after the first probe must not re-enable it:
        # the verdict is per-process, matching one compile per process.
        monkeypatch.delenv("REPRO_DISABLE_CKERNEL")
        assert not ckernel.kernel_available()


class TestCacheDir:
    def test_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CKERNEL_DIR", str(tmp_path))
        assert ckernel._cache_dir() == tmp_path

    def test_xdg_cache_home_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CKERNEL_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert ckernel._cache_dir() == tmp_path / "repro"

    def test_build_populates_the_override_dir(self, monkeypatch, tmp_path):
        if ckernel.shutil.which("gcc") is None and ckernel.shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        _reset_kernel_state(monkeypatch)
        monkeypatch.delenv("REPRO_DISABLE_CKERNEL", raising=False)
        monkeypatch.setenv("REPRO_CKERNEL_DIR", str(tmp_path))
        assert ckernel.kernel_available()
        assert list(tmp_path.glob("coreloop-*.so"))


class TestFallbackEquivalence:
    def test_python_fast_loop_matches_reference_without_kernel(self, monkeypatch):
        _reset_kernel_state(monkeypatch)
        monkeypatch.setenv("REPRO_DISABLE_CKERNEL", "1")
        assert not ckernel.kernel_available()
        divergence = BackendDiffRunner("CPP").run(random_program(0, n_ops=400))
        assert divergence is None, divergence.describe()

    def test_kernel_and_python_fast_loops_agree(self, monkeypatch):
        """fast-with-kernel vs fast-without-kernel, leaf for leaf."""
        if not ckernel.kernel_available():
            pytest.skip("compiled kernel unavailable on this host")
        program = random_program(1, n_ops=400)
        with_kernel = _full_dict(program, "fast")
        _reset_kernel_state(monkeypatch)
        monkeypatch.setenv("REPRO_DISABLE_CKERNEL", "1")
        without_kernel = _full_dict(program, "fast")
        assert with_kernel == without_kernel


def _count_access(monkeypatch, cls):
    """Patch ``cls.access`` to record the name of every cache it serves."""
    names = []
    access = cls.access

    def counting_access(self, *args, **kwargs):
        names.append(self.name)
        return access(self, *args, **kwargs)

    monkeypatch.setattr(cls, "access", counting_access)
    return names


def test_bcp_runs_on_the_kernel(monkeypatch):
    """The prefetching L1 facade takes word-ops: the kernel runs the
    cell, and only MRU misses reach the facade's general access()."""
    if not ckernel.kernel_available():
        pytest.skip("compiled kernel unavailable on this host")
    from repro.caches.next_line import PrefetchingCache

    tallies = []
    run_compiled = ckernel.run_compiled

    def recording_run_compiled(*args, **kwargs):
        out = run_compiled(*args, **kwargs)
        tallies.append(out)
        return out

    monkeypatch.setattr(ckernel, "run_compiled", recording_run_compiled)
    calls = _count_access(monkeypatch, PrefetchingCache)
    config = SimConfig(cache_config="BCP", backend="fast")
    result = Machine(config).run(random_program(2, n_ops=400))
    assert len(tallies) == 1 and tallies[0] is not None
    metrics = result.metrics
    assert 0 < len(calls) < metrics.load_count + metrics.store_count


class TestCPPOnTheKernel:
    """The kernel serves CPP's MRU primary hits, affiliated hits and
    primary store hits itself; Python sees only misses and promotions."""

    def test_only_misses_and_promotions_reach_access(self, monkeypatch):
        if not ckernel.kernel_available():
            pytest.skip("compiled kernel unavailable on this host")
        from repro.caches.compression_cache import CompressionCache

        names = _count_access(monkeypatch, CompressionCache)
        config = SimConfig(cache_config="CPP", backend="fast")
        result = Machine(config).run(random_program(3, n_ops=2000))
        l1 = result.l1
        assert l1.affiliated_hits > 0
        assert names.count(l1.name) == l1.misses + l1.promotions

    def test_slot_reclaiming_store_evicts_the_mirrored_affiliated_word(self):
        """A store that makes a primary word incompressible drops the
        affiliated word sharing its slot; a later load of that word must
        miss rather than hit a stale mirror."""
        if not ckernel.kernel_available():
            pytest.skip("compiled kernel unavailable on this host")
        from repro.workloads.base import ProgramBuilder

        pb = ProgramBuilder("ckernel.reclaim")
        # Two 64-byte L1 lines (an even line and its affiliated partner)
        # of zeros: every word is compressible.
        base = pb.static_array(32, align=128)
        partner = base + 64

        def drain_window():
            # More independent ops than the RUU holds: the next memory op
            # cannot dispatch before everything above it has committed.
            for i in range(40):
                pb.op(f"f{i % 4}")

        pb.load(base, "r0")  # miss: partner's words ride in the fill
        drain_window()
        pb.store(base + 12, 0x5A5A_5A5A)  # incompressible: reclaims slot 3
        drain_window()
        pb.load(partner + 20, "r1")  # still in the affiliated place
        drain_window()
        pb.load(partner + 12, "r2")  # evicted by the store: must miss
        program = pb.build(description="slot reclamation through the kernel")

        fast = _full_dict(program, "fast")
        assert fast == _full_dict(program, "reference")
        assert fast["l1"]["dropped_affiliated_words"] == 1
        assert fast["l1"]["affiliated_hits"] == 1
        assert fast["metrics"]["loads_by_level"] == {
            "memory": 1,
            "l1-affiliated": 1,
            "l2": 1,
        }


def _numpy_only(pre) -> bool:
    """Every value the kernel image holds is an array, an int, or a
    branch entry of arrays and ints: no per-instruction Python object."""
    from repro.isa.predecode import BranchEntry, Predecoded

    def plain(value):
        return isinstance(value, (np.ndarray, int))

    for name in Predecoded.__slots__:
        value = getattr(pre, name)
        if name == "branches":
            if not all(
                isinstance(e, BranchEntry) and all(plain(v) for v in e)
                for e in value.values()
            ):
                return False
        elif not plain(value):
            return False
    return True


class TestKernelImage:
    """A kernel-backed run reads only the NumPy kernel image."""

    @pytest.mark.parametrize("cache_config", ["BC", "BCP", "CPP"])
    def test_kernel_run_builds_no_list_views(self, monkeypatch, cache_config):
        if not ckernel.kernel_available():
            pytest.skip("compiled kernel unavailable on this host")
        from repro.workloads.registry import generate

        def run(backend):
            program = generate("olden.mst", seed=1, scale=0.1)
            config = SimConfig(cache_config=cache_config, backend=backend)
            result = Machine(config).run(program)
            return program.trace, json.loads(json.dumps(result_to_full_dict(result)))

        trace, with_kernel = run("fast")
        assert trace._hot is None
        pre = trace._predecoded
        assert pre is not None and _numpy_only(pre)
        assert list(pre.branches) == [SimConfig().core.bimod_entries]

        _trace, reference = run("reference")
        assert with_kernel == reference

        _reset_kernel_state(monkeypatch)
        monkeypatch.setenv("REPRO_DISABLE_CKERNEL", "1")
        trace, without_kernel = run("fast")
        # The Python loop's list views are per-run locals.
        assert trace._hot is None and _numpy_only(trace._predecoded)
        assert without_kernel == with_kernel
