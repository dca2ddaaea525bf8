"""Pre-decode kernel image: dependence columns, the next-mispredict
index and sidecar checks.

The compiled kernel reads the pre-decode columns by raw pointer, so a
sidecar on disk is used only when every column is in range for the
trace it describes; anything else must be recomputed, never trusted.
"""

import numpy as np
import pytest

from repro.check.diff import random_program
from repro.isa import predecode
from repro.isa.opcodes import OpClass
from repro.isa.predecode import get_predecoded, next_mispredicts, set_cache_path
from repro.isa.trace import TraceBuilder
from repro.workloads.registry import generate


def _brute_next_mispredicts(flags):
    n = len(flags)
    return [next((j for j in range(i, n) if flags[j]), n) for i in range(n)]


class TestNextMispredicts:
    @pytest.mark.parametrize(
        "flags",
        [
            [],
            [0] * 17,
            [1] * 17,
            np.random.default_rng(7).integers(0, 2, 300).tolist(),
            (np.random.default_rng(8).random(300) < 0.03).tolist(),
        ],
        ids=["empty", "no-branches", "all-mispredicted", "random", "sparse"],
    )
    def test_matches_brute_force(self, flags):
        out = next_mispredicts(np.asarray(flags, dtype=np.uint8))
        assert out.dtype == np.int32 and out.flags["C_CONTIGUOUS"]
        assert out.tolist() == _brute_next_mispredicts(flags)


def _brute_columns(trace) -> dict:
    """The dependence columns by a direct walk over the trace."""
    last_writer, last_store = {}, {}
    dep1, dep2, fwd = [], [], []
    for i, ins in enumerate(trace):
        dep1.append(last_writer.get(ins.src1, -1) if ins.src1 >= 0 else -1)
        dep2.append(last_writer.get(ins.src2, -1) if ins.src2 >= 0 else -1)
        fwd.append(last_store.get(ins.addr, -1) if ins.op == OpClass.LOAD else -1)
        if ins.dest >= 0:
            last_writer[ins.dest] = i
        if ins.op == OpClass.STORE:
            last_store[ins.addr] = i
    consumers = [[] for _ in dep1]
    for i, (d1, d2) in enumerate(zip(dep1, dep2)):
        for d in (d1, d2):
            if d >= 0:
                consumers[d].append(i)
    cons_start = [0]
    for edges in consumers:
        cons_start.append(cons_start[-1] + len(edges))
    cons_flat = [i for edges in consumers for i in edges]
    return {"dep1": dep1, "dep2": dep2, "cons_start": cons_start,
            "cons_flat": cons_flat, "fwd": fwd}


class TestCompute:
    def test_self_dependence_reads_the_older_writer(self):
        b = TraceBuilder("self-dep")
        b.append(0, OpClass.IALU, dest=1)
        b.append(4, OpClass.IALU, dest=1, src1=1, src2=1)  # r1 = r1 + r1
        b.append(8, OpClass.STORE, src1=1, addr=64, value=5)
        b.append(12, OpClass.LOAD, dest=2, addr=64, value=5)
        b.append(16, OpClass.IALU, dest=3, src1=2, src2=1)
        cols = _columns(predecode._compute(b.build()))
        assert cols["dep1"] == [-1, 0, 1, -1, 3]
        assert cols["dep2"] == [-1, 0, -1, -1, 1]
        assert cols["fwd"] == [-1, -1, -1, 2, -1]
        assert cols["cons_start"] == [0, 2, 4, 4, 5, 5]
        assert cols["cons_flat"] == [1, 1, 2, 4, 4]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_direct_walk(self, seed):
        trace = random_program(seed, n_ops=300 + 100 * seed).trace
        assert _columns(predecode._compute(trace)) == _brute_columns(trace)

    def test_empty_trace(self):
        pre = predecode._compute(TraceBuilder("empty").build())
        assert _columns(pre) == {"dep1": [], "dep2": [], "cons_start": [0],
                                 "cons_flat": [], "fwd": []}


def _program():
    return generate("olden.mst", seed=1, scale=0.1)


def _columns(pre) -> dict:
    return {name: getattr(pre, name).tolist() for name in predecode._SAVED_COLUMNS}


def _reverse_middle(cons_start):
    """Same ends, decreasing in between."""
    out = cons_start.copy()
    out[1:-1] = out[1:-1][::-1]
    return out


def _rewrite(path, **changes):
    with np.load(path) as data:
        cols = {name: data[name] for name in data.files}
    cols.update(changes)
    np.savez_compressed(path, **cols)


@pytest.fixture
def sidecar(tmp_path):
    """A valid sidecar on disk plus the columns it holds."""
    program = _program()
    set_cache_path(program.trace, tmp_path / "olden.mst.npz")
    pre = get_predecoded(program.trace)
    path = program.trace._predecode_path
    assert path.exists()
    return path, _columns(pre), pre.n


def _reload(path, monkeypatch) -> tuple:
    """Predecode a fresh copy of the program against *path*.

    Returns the columns and whether they were recomputed.
    """
    computed = []
    real = predecode._compute
    monkeypatch.setattr(
        predecode, "_compute", lambda trace: computed.append(1) or real(trace)
    )
    trace = _program().trace
    trace._predecode_path = path
    return _columns(get_predecoded(trace)), bool(computed)


class TestSidecar:
    def test_valid_sidecar_is_used(self, sidecar, monkeypatch):
        path, cols, _n = sidecar
        loaded, recomputed = _reload(path, monkeypatch)
        assert not recomputed
        assert loaded == cols

    def test_truncated_sidecar_is_recomputed(self, sidecar, monkeypatch):
        path, cols, n = sidecar
        with np.load(path) as data:
            assert int(data["n"]) == n
            dep2, fwd, flat = data["dep2"], data["fwd"], data["cons_flat"]
        _rewrite(path, dep2=dep2[:10], fwd=fwd[:3], cons_flat=flat[:5])
        loaded, recomputed = _reload(path, monkeypatch)
        assert recomputed
        assert loaded == cols

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda c: {"dep1": c["dep1"][:-1]},
            lambda c: {"dep2": c["dep2"][:10]},
            lambda c: {"fwd": c["fwd"][:3]},
            lambda c: {"cons_flat": c["cons_flat"][:5]},
            lambda c: {"cons_start": c["cons_start"][:-1]},
            lambda c: {"cons_start": _reverse_middle(c["cons_start"])},
            lambda c: {"cons_start": np.minimum(c["cons_start"], 3)},
            lambda c: {"cons_flat": c["cons_flat"] + len(c["dep1"])},
            lambda c: {"dep1": np.arange(len(c["dep1"]))},
            lambda c: {"fwd": np.full(len(c["fwd"]), -2)},
            lambda c: {"dep2": c["dep2"].astype(np.float64)},
        ],
        ids=[
            "dep1-short",
            "dep2-short",
            "fwd-short",
            "cons_flat-short",
            "cons_start-short",
            "cons_start-decreasing",
            "cons_start-end-mismatch",
            "consumer-out-of-range",
            "producer-not-older",
            "fwd-below-minus-one",
            "non-integer",
        ],
    )
    def test_inconsistent_sidecar_is_recomputed(self, sidecar, monkeypatch, corrupt):
        path, cols, _n = sidecar
        with np.load(path) as data:
            saved = {name: data[name] for name in predecode._SAVED_COLUMNS}
        _rewrite(path, **corrupt(saved))
        loaded, recomputed = _reload(path, monkeypatch)
        assert recomputed
        assert loaded == cols
