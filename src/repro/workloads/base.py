"""Workload-authoring infrastructure.

A :class:`ProgramBuilder` is a tiny "virtual machine" for writing
benchmark kernels: the kernel code runs as ordinary Python, but every
memory access goes through a live :class:`MemoryImage` and every emitted
operation is appended to the trace. The generated trace therefore has

* **real addresses** — from real allocations through a real allocator, so
  pointer-prefix compressibility emerges from heap layout;
* **real values** — whatever the kernel actually computed/stored;
* **real dependences** — kernels thread named virtual registers through
  loads, ALU ops and address bases, so pointer chases serialize in the
  out-of-order core exactly like the original programs;
* **real branch behaviour** — loop back-edges and data-dependent branches
  are emitted with their actual outcomes for the bimod predictor.

The simulation then *replays* the trace against an initially empty
memory: because the trace contains every store the kernel performed
(including structure building), the simulated hierarchy reconstructs the
same memory contents, which the Machine's verify mode checks load by load.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import WorkloadError
from repro.isa.instruction import NO_REG
from repro.isa.opcodes import OpClass
from repro.isa.trace import Trace, TraceBuilder
from repro.memory.allocator import BumpAllocator, FreeListAllocator
from repro.memory.image import MemoryImage
from repro.utils.bitops import MASK32, to_uint32
from repro.utils.rng import make_rng

__all__ = ["Program", "ProgramBuilder", "Workload", "CODE_BASE", "GLOBAL_BASE"]

CODE_BASE = 0x0040_0000  #: synthetic text segment (PC labels)
GLOBAL_BASE = 0x0800_0000  #: synthetic globals/static data
STACK_BASE = 0x7FFF_0000  #: synthetic stack region (grows down)

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
#: Default label of each computational op class (``op@IALU``, ...).
_OP_LABELS = {kind: f"op@{kind.name}" for kind in OpClass}


class _RegisterIds(dict):
    """Register name -> dense id, assigned on first lookup.

    ``None`` (no register) maps to ``NO_REG``, so the emitters resolve
    optional operands with one dict probe.
    """

    def __init__(self) -> None:
        super().__init__({None: NO_REG})

    def __missing__(self, name: str) -> int:
        rid = len(self) - 1  # the None entry holds no id
        if rid > 32000:
            raise WorkloadError("too many distinct register names")
        self[name] = rid
        return rid


class _LabelPcs(dict):
    """Static-instruction label -> synthetic PC, assigned on first lookup."""

    def __missing__(self, label: str) -> int:
        pc = self[label] = CODE_BASE + 8 * len(self)
        return pc


@dataclass(frozen=True)
class Program:
    """A generated benchmark: the trace plus descriptive metadata.

    ``final_image`` is the memory state after the generator ran the kernel
    to completion. A simulation that replays the trace from an empty
    memory and flushes its caches must reproduce it exactly — the
    strongest end-to-end correctness check the integration tests run.
    """

    name: str
    trace: Trace
    description: str = ""
    params: dict = field(default_factory=dict)
    final_image: MemoryImage | None = None

    @property
    def n_instructions(self) -> int:
        return len(self.trace)


class ProgramBuilder:
    """Emit a dynamic instruction trace while executing a kernel."""

    def __init__(
        self,
        name: str,
        seed: int = 0,
        *,
        allocator: str = "bump",
        heap_base: int = 0x1000_0000,
        heap_limit: int = 0x3000_0000,
        alignment: int = 8,
    ) -> None:
        self.name = name
        self.rng = make_rng(seed)
        self.image = MemoryImage()
        if allocator == "bump":
            self.alloc: BumpAllocator | FreeListAllocator = BumpAllocator(
                heap_base, heap_limit, alignment=alignment
            )
        elif allocator == "freelist":
            self.alloc = FreeListAllocator(heap_base, heap_limit, alignment=alignment)
        else:
            raise WorkloadError(f"unknown allocator kind {allocator!r}")
        self._trace = tb = TraceBuilder(name)
        #: The trace's column appenders, in :meth:`_emit` argument order.
        self._columns = tuple(
            col.append
            for col in (tb._pc, tb._op, tb._dest, tb._src1, tb._src2, tb._addr,
                        tb._value, tb._taken)
        )
        self._regs = _RegisterIds()
        self._pcs = _LabelPcs()
        self._stack_next = STACK_BASE
        self._globals_next = GLOBAL_BASE

    # ---- registers & labels ------------------------------------------------

    def reg(self, regname: str) -> int:
        """Intern a virtual register name to a stable id."""
        return self._regs[regname]

    def pc(self, label: str) -> int:
        """Intern a static-instruction label to a synthetic PC."""
        return self._pcs[label]

    # ---- data segments ---------------------------------------------------------

    def malloc(self, size: int) -> int:
        """Allocate heap bytes (layout realism; emits no instructions —
        the allocator metadata accesses of a real ``malloc`` are modeled
        by the kernels that stress them explicitly)."""
        return self.alloc.malloc(size)

    def free(self, addr: int) -> None:
        """Release a heap block (requires the freelist allocator)."""
        if not isinstance(self.alloc, FreeListAllocator):
            raise WorkloadError("free() requires the freelist allocator")
        self.alloc.free(addr)

    def static_array(self, n_words: int, *, align: int = 64) -> int:
        """Reserve a zero-initialized global array; returns its address."""
        addr = (self._globals_next + align - 1) & ~(align - 1)
        self._globals_next = addr + 4 * n_words
        return addr

    def stack_frame(self, n_words: int) -> int:
        """Push a synthetic stack frame; returns its base address."""
        self._stack_next -= 4 * n_words
        self._stack_next &= ~0x7
        return self._stack_next

    # ---- instruction emission -----------------------------------------------------

    def _emit(
        self, pc: int, op: int, dest: int, src1: int, src2: int,
        addr: int = 0, value: int = 0, taken: bool = False,
    ) -> None:
        """Append one instruction to the trace columns, unchecked.

        The emitters below only produce interned register ids and
        addresses the live image accepted; :meth:`build` validates the
        whole trace once (:meth:`Trace.validate`), vectorized, instead of
        per instruction as :meth:`TraceBuilder.append` does.
        """
        e_pc, e_op, e_dest, e_src1, e_src2, e_addr, e_value, e_taken = self._columns
        e_pc(pc)
        e_op(op)
        e_dest(dest)
        e_src1(src1)
        e_src2(src2)
        e_addr(addr & MASK32)
        e_value(value)
        e_taken(taken)

    def load(
        self,
        addr: int,
        into: str,
        *,
        base: str | None = None,
        label: str | None = None,
    ) -> int:
        """Emit a word load; returns the value read (from the live image).

        *base* names the register that computed the address — this is what
        serializes pointer chases in the out-of-order core.
        """
        value = self.image.read_word(addr)
        regs = self._regs
        pc = self._pcs[label or f"ld@{into}"]
        self._emit(pc, _LOAD, regs[into], regs[base], NO_REG, addr, value)
        return value

    def store(
        self,
        addr: int,
        value: int,
        *,
        base: str | None = None,
        src: str | None = None,
        label: str | None = None,
    ) -> None:
        """Emit a word store and update the live image."""
        value = to_uint32(value)
        self.image.write_word(addr, value)
        regs = self._regs
        pc = self._pcs[label or "st"]
        self._emit(pc, _STORE, NO_REG, regs[base], regs[src], addr, value)

    def op(
        self,
        into: str | None,
        srcs: tuple[str | None, ...] = (),
        *,
        kind: OpClass = OpClass.IALU,
        label: str | None = None,
    ) -> None:
        """Emit a computational instruction (ALU/mult/FP...)."""
        if kind in (OpClass.LOAD, OpClass.STORE, OpClass.BRANCH):
            raise WorkloadError("op() is for computational instructions")
        regs = self._regs
        s = (*srcs, None, None)
        pc = self._pcs[label or _OP_LABELS[kind]]
        self._emit(pc, int(kind), regs[into], regs[s[0]], regs[s[1]])

    def branch(
        self,
        label: str,
        taken: bool,
        *,
        srcs: tuple[str | None, ...] = (),
    ) -> None:
        """Emit a conditional branch with its actual outcome."""
        regs = self._regs
        s = (*srcs, None, None)
        pc = self._pcs[label]
        self._emit(pc, _BRANCH, NO_REG, regs[s[0]], regs[s[1]], taken=taken)

    # ---- control-flow sugar -----------------------------------------------------------

    def for_range(
        self, label: str, n: int, *, cond_srcs: tuple[str | None, ...] = ()
    ) -> Iterator[int]:
        """Iterate 0..n-1, emitting the loop back-edge branch each time
        (taken on every iteration but the last, like a compiled loop)."""
        for i in range(n):
            yield i
            self.branch(label, taken=i < n - 1, srcs=cond_srcs)

    def while_cond(
        self, label: str, cond: bool, *, srcs: tuple[str | None, ...] = ()
    ) -> bool:
        """Emit a loop-continuation branch; returns *cond* for idiomatic
        ``while pb.while_cond("loop", p != 0, srcs=("p",)):`` style."""
        self.branch(label, taken=cond, srcs=srcs)
        return cond

    def if_(self, label: str, cond: bool, *, srcs: tuple[str | None, ...] = ()) -> bool:
        """Emit a data-dependent conditional branch; returns *cond*."""
        self.branch(label, taken=cond, srcs=srcs)
        return cond

    def call_overhead(self, label: str, n_ops: int = 2) -> None:
        """Approximate call/return overhead with a couple of ALU ops."""
        for k in range(n_ops):
            self.op("calltmp", ("calltmp",), label=f"{label}#call{k}")

    # ---- finishing --------------------------------------------------------------------

    def build(self, *, description: str = "", params: dict | None = None) -> Program:
        """Freeze the trace into a :class:`Program`."""
        return Program(
            name=self.name,
            trace=self._trace.build(),
            description=description,
            params=dict(params or {}),
            final_image=self.image,
        )

    @property
    def n_emitted(self) -> int:
        return len(self._trace)

    # ---- struct helpers ---------------------------------------------------------------

    def write_struct(
        self, addr: int, word_values: list[int], *, label: str, src: str | None = None
    ) -> None:
        """Emit stores initializing consecutive struct words."""
        for k, v in enumerate(word_values):
            self.store(addr + 4 * k, v, src=src, label=f"{label}#w{k}")

    def rand_small(self, lo: int = 0, hi: int = 16000) -> int:
        """A compressible small value."""
        return int(self.rng.integers(lo, hi))

    def rand_large(self) -> int:
        """An (almost certainly) incompressible 32-bit value."""
        return int(self.rng.integers(1 << 20, (1 << 31) - 1)) | 0x4000_0000

    def rand_word(self) -> int:
        """A uniformly random 32-bit word."""
        return int(self.rng.integers(0, 1 << 32)) & MASK32


@dataclass(frozen=True)
class Workload:
    """Registry entry: a named, parameterized trace generator."""

    name: str
    suite: str  #: "olden" | "spec95" | "spec2000"
    description: str
    factory: Callable[[int, float], Program]  #: (seed, scale) -> Program

    def generate(self, seed: int = 1, scale: float = 1.0) -> Program:
        """Build the program; *scale* grows/shrinks the default input size."""
        if scale <= 0:
            raise WorkloadError("scale must be positive")
        return self.factory(seed, scale)


def scaled(n: int, scale: float, *, minimum: int = 1) -> int:
    """Scale an input-size parameter, keeping it a sane integer."""
    return max(minimum, int(round(n * scale)))
