"""Trace pre-decode: the fast backend's NumPy-only *kernel image*.

The fast backend (:mod:`repro.cpu.fastcore`) replaces the reference
core's per-dispatch bookkeeping — register-producer maps, consumer
lists, per-address store lists — with flat arrays precomputed here, all
pure functions of the trace and all contiguous NumPy arrays in the
dtypes the compiled kernel (:mod:`repro.cpu.ckernel`) reads by pointer:

* ``dep1``/``dep2`` (int32) — index of the instruction producing each
  source operand (the *last writer* of that register), or -1. At
  dispatch time a dependence is live iff the producer has not yet
  completed; combined with the in-order window this reproduces the
  reference's ``reg_producer`` renaming exactly.
* ``consumers`` (CSR, int32: ``cons_start``/``cons_flat``) — the reverse
  edges, so a completing instruction wakes exactly the entries the
  reference's per-entry consumer lists would.
* ``fwd`` (int32) — for each load, the youngest older store to the same
  address (or -1). A load forwards iff that store has not committed;
  in-order commit makes ``fwd >= committed`` equivalent to the
  reference's in-flight store-list scan.
* ``slot`` (uint8) — functional-unit slot per instruction
  (:data:`repro.cpu.resources._UNIT_INDEX` applied to the op column).
* the trace columns the kernel reads, in its dtypes: ``addr``/``value``
  (uint32), ``lat`` (int32 execution latency), ``is_load``/``is_mem``
  (uint8) and ``kind`` (uint8: 0 other, 1 load, 2 store).
* per-predictor-size :class:`BranchEntry` records (fresh-table bimod
  mispredict flags, next-mispredict index, branch/mispredict counts),
  built on demand by :meth:`Predecoded.branch`.

The record plus the branch entry of the core's predictor size is the
whole input of a compiled-kernel run: no per-instruction Python object
is built. A campaign supervisor builds it once per program before
forking, so every attempt inherits it copy-on-write.

Results are memoized on the :class:`~repro.isa.trace.Trace` object and
— when a cache path has been attached via :func:`set_cache_path` — the
dependence columns are persisted as an ``.npz`` next to the on-disk
trace archive, so one pre-decode serves every process that replays the
same program. A sidecar is used only when every column is in range for
the trace it claims to describe; anything else is recomputed.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.cpu.branch import mispredict_flags
from repro.cpu.resources import _UNIT_INDEX
from repro.isa.trace import _LATENCY_TABLE, Trace

__all__ = [
    "BranchEntry",
    "Predecoded",
    "get_predecoded",
    "next_mispredicts",
    "set_cache_path",
]

#: Bump when the array layout or semantics change: stale cache entries
#: are regenerated, never misread.
PREDECODE_VERSION = 1

_SAVED_COLUMNS = ("dep1", "dep2", "cons_start", "cons_flat", "fwd")

_SLOT_OF_OP = np.asarray(_UNIT_INDEX, dtype=np.uint8)


class BranchEntry(NamedTuple):
    """Fresh-table bimod stream of one trace for one predictor size."""

    #: uint8 per instruction: 1 iff a mispredicted branch.
    flags: np.ndarray
    #: int32 per instruction: index of the next mispredict at or after it.
    next_mp: np.ndarray
    n_branches: int
    n_mispredicts: int


def next_mispredicts(flags) -> np.ndarray:
    """``next_mp[i]``: smallest ``j >= i`` with ``flags[j]`` set, else ``n``.

    Lets fetch advance in blocks instead of testing every instruction's
    flag. Returned as a contiguous int32 array.
    """
    flags = np.asarray(flags, dtype=bool)
    n = len(flags)
    marks = np.where(flags, np.arange(n, dtype=np.int32), np.int32(n))
    return np.ascontiguousarray(np.minimum.accumulate(marks[::-1])[::-1])


class Predecoded:
    """Flat derived columns of one trace (see module docstring)."""

    __slots__ = (
        "n",
        "dep1",
        "dep2",
        "cons_start",
        "cons_flat",
        "fwd",
        "slot",
        "addr",
        "value",
        "lat",
        "is_load",
        "is_mem",
        "kind",
        "n_stores",
        "branches",
    )

    def __init__(
        self,
        trace: Trace,
        dep1: np.ndarray,
        dep2: np.ndarray,
        cons_start: np.ndarray,
        cons_flat: np.ndarray,
        fwd: np.ndarray,
    ) -> None:
        self.n = len(trace)
        self.dep1 = np.ascontiguousarray(dep1, dtype=np.int32)
        self.dep2 = np.ascontiguousarray(dep2, dtype=np.int32)
        self.cons_start = np.ascontiguousarray(cons_start, dtype=np.int32)
        self.cons_flat = np.ascontiguousarray(cons_flat, dtype=np.int32)
        self.fwd = np.ascontiguousarray(fwd, dtype=np.int32)
        self.slot = _SLOT_OF_OP[trace.op]
        self.addr = np.ascontiguousarray(trace.addr, dtype=np.uint32)
        self.value = np.ascontiguousarray(trace.value, dtype=np.uint32)
        self.lat = _LATENCY_TABLE[trace.op].astype(np.int32)
        load = trace.load_mask
        store = trace.store_mask
        self.is_load = load.astype(np.uint8)
        self.is_mem = trace.mem_mask.astype(np.uint8)
        self.kind = (load + 2 * store).astype(np.uint8)
        self.n_stores = int(np.count_nonzero(store))
        #: predictor table size -> BranchEntry (see :meth:`branch`).
        self.branches: dict[int, BranchEntry] = {}

    def branch(self, trace: Trace, n_entries: int) -> BranchEntry:
        """Fresh-table bimod stream of *trace* for *n_entries* counters.

        Computed once per predictor geometry from transient list forms
        of the trace columns; only the arrays are kept.
        """
        entry = self.branches.get(n_entries)
        if entry is None:
            flags, n_br, n_mis = mispredict_flags(
                trace.pc.tolist(),
                trace.taken.tolist(),
                trace.branch_mask.tolist(),
                n_entries,
            )
            flags = np.asarray(flags, dtype=np.uint8)
            entry = self.branches[n_entries] = BranchEntry(
                flags, next_mispredicts(flags), n_br, n_mis
            )
        return entry


def _last_older(
    w_key: np.ndarray, w_pos: np.ndarray, r_key: np.ndarray, r_pos: np.ndarray
) -> np.ndarray:
    """For each read ``(r_key, r_pos)``, the largest write position
    ``< r_pos`` with the same key, or -1.

    Writes and reads are packed as ``key * span + position`` and one
    sorted search finds each read's predecessor; a write at the read's
    own position sorts after it, so it is never its own producer.
    """
    out = np.full(len(r_pos), -1, dtype=np.int64)
    if len(w_pos) == 0 or len(r_pos) == 0:
        return out
    span = max(int(w_pos.max()), int(r_pos.max())) + 1
    packed = w_key.astype(np.int64) * span + w_pos
    order = np.argsort(packed)
    packed = packed[order]
    r_key = r_key.astype(np.int64)
    idx = np.searchsorted(packed, r_key * span + r_pos) - 1
    found = idx >= 0
    idx[~found] = 0
    found &= packed[idx] // span == r_key
    out[found] = w_pos[order][idx[found]]
    return out


def _compute(trace: Trace) -> Predecoded:
    n = len(trace)
    pos = np.arange(n, dtype=np.int64)
    dest = trace.dest
    writes = dest >= 0
    w_key, w_pos = dest[writes], pos[writes]

    # A source's producer is the last older writer of its register (the
    # reference's reg_producer renaming); a load's forwarding store is
    # the youngest older store to its address.
    dep = []
    for src in (trace.src1, trace.src2):
        col = np.full(n, -1, dtype=np.int64)
        reads = src >= 0
        col[reads] = _last_older(w_key, w_pos, src[reads], pos[reads])
        dep.append(col)
    dep1, dep2 = dep
    fwd = np.full(n, -1, dtype=np.int64)
    loads = trace.load_mask
    stores = trace.store_mask
    addr = trace.addr
    fwd[loads] = _last_older(addr[stores], pos[stores], addr[loads], pos[loads])

    # Reverse edges in CSR form: a stable sort by producer keeps each
    # producer's consumers in program order, dep1 before dep2 — the
    # order the reference appends to its per-entry consumer lists. A
    # dual-source consumer (dep1 == dep2) appears twice, matching the
    # two ``wire_source`` registrations.
    producers = np.stack([dep1, dep2], axis=1).ravel()
    consumers = np.repeat(np.arange(n, dtype=np.int32), 2)
    edge = producers >= 0
    producers = producers[edge]
    cons_flat = consumers[edge][np.argsort(producers, kind="stable")]
    cons_start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(producers, minlength=n), out=cons_start[1:])
    return Predecoded(trace, dep1, dep2, cons_start, cons_flat, fwd)


def set_cache_path(trace: Trace, archive_path: str | Path | None) -> None:
    """Attach the on-disk location for this trace's pre-decode arrays.

    *archive_path* is the trace archive's own cache path; the pre-decode
    sidecar lives next to it with a ``.predecode.npz`` suffix. ``None``
    detaches (memory-only pre-decode).
    """
    if archive_path is None:
        trace._predecode_path = None
        return
    trace._predecode_path = Path(archive_path).with_suffix(".predecode.npz")


def _columns_valid(cols: dict, n: int) -> bool:
    """Whether sidecar *cols* are safe to hand the kernel for an *n*-trace.

    Every per-instruction column has one entry per instruction
    (``cons_start`` one more), the CSR offsets are non-decreasing from 0
    to ``len(cons_flat)``, and every index points inside the trace: a
    producer or forwarding store is older than its consumer, and every
    consumer is an instruction.
    """
    if any(
        col.ndim != 1 or not np.issubdtype(col.dtype, np.integer)
        for col in cols.values()
    ):
        return False
    cons_start = cols["cons_start"]
    cons_flat = cols["cons_flat"]
    if len(cons_start) != n + 1 or any(
        len(cols[name]) != n for name in ("dep1", "dep2", "fwd")
    ):
        return False
    if cons_start[0] != 0 or cons_start[n] != len(cons_flat):
        return False
    if np.any(np.diff(cons_start) < 0):
        return False
    if len(cons_flat) and (cons_flat.min() < 0 or cons_flat.max() >= n):
        return False
    position = np.arange(n)
    return all(
        bool(np.all((cols[name] >= -1) & (cols[name] < position)))
        for name in ("dep1", "dep2", "fwd")
    )


def _load_npz(path: Path, trace: Trace) -> Predecoded | None:
    n = len(trace)
    try:
        with np.load(path) as data:
            if int(data["version"]) != PREDECODE_VERSION or int(data["n"]) != n:
                return None
            cols = {name: data[name] for name in _SAVED_COLUMNS}
    except (OSError, KeyError, ValueError):
        return None
    if not _columns_valid(cols, n):
        return None
    return Predecoded(trace, **cols)


def _store_npz(path: Path, pre: Predecoded) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        np.savez_compressed(
            tmp,
            version=np.int64(PREDECODE_VERSION),
            n=np.int64(pre.n),
            **{name: getattr(pre, name) for name in _SAVED_COLUMNS},
        )
        # np.savez appends .npz to names lacking it; normalize then publish.
        produced = tmp if tmp.exists() else tmp.with_name(tmp.name + ".npz")
        produced.replace(path)
    except OSError:
        pass  # best-effort, like the trace disk cache


def get_predecoded(trace: Trace) -> Predecoded:
    """Pre-decoded arrays for *trace* (memoized; disk-cached when wired)."""
    pre = trace._predecoded
    if pre is not None:
        return pre
    path: Path | None = trace._predecode_path
    if path is not None:
        pre = _load_npz(path, trace)
    if pre is None:
        pre = _compute(trace)
        if path is not None:
            _store_npz(path, pre)
    trace._predecoded = pre
    return pre
