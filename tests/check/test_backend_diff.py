"""Backend lockstep differential checks (fast vs reference).

The bit-identicality contract is the load-bearing guarantee of the
backend layer: every leaf of the lossless result dict — cycles, cache
counters, bus word breakdowns, the Welford accumulators behind the
figures — must match between ``fast`` and ``reference``. These tests
exercise the comparison machinery itself, run randomized programs and a
full generated workload through both backends, and re-run a cell with
``REPRO_CHECK=1`` runtime audits armed under ``fast``.
"""

import pytest

from repro.check.diff import BackendDiffRunner, BackendDivergence, _dict_diff, random_program
from repro.check.runtime import set_runtime_checks


class TestDictDiff:
    def test_identical_dicts_have_no_diff(self):
        d = {"a": 1, "b": {"c": [1, 2.5, "x"]}}
        assert _dict_diff(d, dict(d)) is None

    def test_first_differing_leaf_is_reported_with_path(self):
        a = {"core": {"cycles": 100, "m2": 3.0}}
        b = {"core": {"cycles": 100, "m2": 3.0000000001}}
        path, va, vb = _dict_diff(a, b)
        assert path == "core.m2"
        assert (va, vb) == (3.0, 3.0000000001)

    def test_missing_key_is_reported_as_absent(self):
        found = _dict_diff({"a": 1}, {})
        assert found is not None and "<absent>" in map(str, found[1:])

    def test_list_length_mismatch_diffs(self):
        assert _dict_diff({"a": [1, 2]}, {"a": [1]}) is not None

    def test_list_element_paths_are_indexed(self):
        path, _, _ = _dict_diff({"a": [1, 2]}, {"a": [1, 3]})
        assert path == "a[1]"


class TestBackendDivergence:
    def test_describe_names_both_backends_and_the_path(self):
        div = BackendDivergence(
            "CPP", "rand-7", "core.m2", "reference", "fast", 1.0, 2.0
        )
        text = div.describe()
        assert "CPP" in text and "core.m2" in text
        assert "reference" in text and "fast" in text


class TestRandomProgram:
    def test_deterministic_per_seed(self):
        a = random_program(3, n_ops=50)
        b = random_program(3, n_ops=50)
        assert len(a.trace) == len(b.trace)
        assert a.trace.addr.tolist() == b.trace.addr.tolist()

    def test_distinct_seeds_differ(self):
        a = random_program(0, n_ops=50)
        b = random_program(1, n_ops=50)
        assert a.trace.addr.tolist() != b.trace.addr.tolist()


@pytest.mark.parametrize(
    # "CPP+fpc": CPP under a non-prefix codec, where the compiled kernel
    # serves affiliated hits inline with its store journal off.
    "config", ["BC", "BCC", "HAC", "BCP", "CPP", "BSP", "BVC", "CPP+fpc"]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_random_programs(config, seed, monkeypatch):
    config, _, codec = config.partition("+")
    if codec:
        monkeypatch.setenv("REPRO_CODEC", codec)
    runner = BackendDiffRunner(config)
    divergence = runner.run(random_program(seed))
    assert divergence is None, divergence.describe()


def test_lockstep_full_workload():
    from repro.workloads import get_workload

    program = get_workload("olden.treeadd").generate(seed=1, scale=0.05)
    for config in ("BC", "CPP"):
        divergence = BackendDiffRunner(config).run(program)
        assert divergence is None, divergence.describe()


def test_lockstep_under_scaled_misses():
    divergence = BackendDiffRunner("CPP", miss_scale=0.5).run(random_program(4))
    assert divergence is None, divergence.describe()


def test_fast_backend_passes_runtime_invariant_audits():
    """REPRO_CHECK=1 semantics hold under the fast backend's hot loop."""
    from repro.sim.config import SimConfig
    from repro.sim.machine import Machine

    set_runtime_checks(True)
    try:
        program = random_program(5, n_ops=300)
        config = SimConfig(cache_config="CPP", backend="fast")
        result = Machine(config).run(program)
        assert result.cycles > 0
    finally:
        set_runtime_checks(False)
