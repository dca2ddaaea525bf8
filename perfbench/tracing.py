"""Traced runs: spans kept in memory, layer calls timed from outside.

Nothing here edits the program. A traced replay swaps two names the
machine looks up on every run (``build_hierarchy`` and
``ImageCompTable`` in :mod:`repro.sim.machine`) for wrappers that wrap
the freshly built objects' public methods:

* L1: ``load_word``/``store_word`` (the C kernel's callbacks) and
  ``access`` (the Python loops);
* L2: ``fetch``/``write_back``/``supply_prefetch``;
* memory: ``MainMemory.read_line``/``write_line``;
* compression: the ``ImageCompTable`` constructor and its ``line_comp``
  (wrapped on the class for the replay, since instances have slots).

A layer's calls count only when they enter it from outside, so a
method that calls back into its own layer is not counted twice.
"""

from __future__ import annotations

import gc
import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

CONFIGS = ("BC", "BCC", "HAC", "BCP", "CPP")
#: BCP's L2 is a prefetching facade, so its machine attaches no comp table.
COMPTABLE_CONFIGS = ("BC", "BCC", "HAC", "CPP")
#: Configs whose off-chip port probes the comp table (compressed bus).
LINE_COMP_CONFIGS = ("BCC", "CPP")
#: The only config that moves prefetch words over the bus.
PREFETCH_CONFIGS = ("BCP",)

_CELLS = "sim_insn_per_s.{cfg} on cells"
_L1 = "sim_insn_per_s.CPP/.BCC on cells"
_COMP = "sim_insn_per_s.CPP on cells, campaign_s on campaign"

#: Per-config per-layer metrics: (name, unit, end-to-end metric it
#: moves, configs it exists for). Metrics that are always zero for a
#: config (no comp table, no prefetch traffic) are left out for it.
PER_CONFIG = (
    ("sim.machine_run_s", "s", _CELLS, CONFIGS),
    ("cpu.core_self_s", "s", _CELLS, CONFIGS),
    ("caches.l1_calls", "count", _L1, CONFIGS),
    ("caches.l1_calls_per_kinsn", "1/kinsn", _L1, CONFIGS),
    ("caches.l1_s", "s", _L1, CONFIGS),
    ("caches.l2_calls", "count", _CELLS, CONFIGS),
    ("caches.l2_s", "s", _CELLS, CONFIGS),
    ("memory.line_ops", "count", _CELLS, CONFIGS),
    ("memory.s", "s", _CELLS, CONFIGS),
    ("compression.comptable_build_s", "s", _COMP, COMPTABLE_CONFIGS),
    ("compression.line_comp_calls", "count", _COMP, LINE_COMP_CONFIGS),
    ("compression.line_comp_s", "s", _COMP, LINE_COMP_CONFIGS),
    ("cpu.cycles", "cycles", "exact count", CONFIGS),
    ("caches.l1_misses", "count", "exact count", CONFIGS),
    ("caches.l2_misses", "count", "exact count", CONFIGS),
    ("memory.bus_words.fill", "words", "exact count", CONFIGS),
    ("memory.bus_words.prefetch", "words", "exact count", PREFETCH_CONFIGS),
    ("memory.bus_words.writeback", "words", "exact count", CONFIGS),
)
SINGLE = (
    ("workloads.generate_s", "s", "setup_s on cells, campaign_s on campaign"),
    ("isa.predecode_s", "s", "setup_s on cells"),
    ("caches.l1_affiliated_hits.CPP", "count", "exact count"),
    ("caches.l1_partial_fills.CPP", "count", "exact count"),
    ("obs.tracing_overhead_frac", "fraction", "tracing cost of this workload"),
)


def layer_catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric every workload's traced run reports."""
    out = list(SINGLE)
    for cfg in CONFIGS:
        for name, unit, target, configs in PER_CONFIG:
            if cfg in configs:
                out.append((f"{name}.{cfg}", unit, target.format(cfg=cfg)))
    return out


class SpanLog:
    """Spans held in memory (name, start, end, parent) until :meth:`write`."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the ``with`` body."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start - self._origin,
                    "end": end - self._origin,
                    **attrs,
                }
            )

    def rollup(self, parent: int, name: str, calls: int, total: float, self_s: float) -> int:
        """Record many same-named calls under *parent* as one aggregate."""
        rollup_id = next(self._ids)
        self.records.append(
            {
                "id": rollup_id,
                "parent": parent,
                "name": name,
                "calls": calls,
                "total_s": total,
                "self_s": self_s,
            }
        )
        return rollup_id

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its direct children cover."""
        child_time: dict[int, float] = {}
        for rec in self.records:
            if rec["parent"] is not None:
                dur = rec["total_s"] if "calls" in rec else rec["end"] - rec["start"]
                child_time[rec["parent"]] = child_time.get(rec["parent"], 0.0) + dur
        return {
            rec["id"]: rec["end"] - rec["start"] - child_time.get(rec["id"], 0.0)
            for rec in self.records
            if "calls" not in rec
        }

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(
            r["end"] - r["start"] for r in self.records if r["name"] == name and "end" in r
        )

    def write(self, path: Path) -> None:
        """Write every span, with its self time, as JSON lines."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.records, key=lambda r: r["id"]):
                if rec["id"] in selfs:
                    rec = {**rec, "self_s": selfs[rec["id"]]}
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


class NullSpans:
    """Stand-in for :class:`SpanLog` in untraced runs: records nothing."""

    @contextmanager
    def span(self, name: str, **attrs):
        """Run the body without recording."""
        yield None


class CallProbe:
    """Counts and times calls into one layer's public methods."""

    def __init__(self) -> None:
        self._stack = [0.0]
        self.stats: dict[str, list] = {}

    def reset(self) -> None:
        """Forget all counts (between cells)."""
        self.stats.clear()

    def get(self, layer: str) -> tuple[int, float, float]:
        """``(calls, inclusive seconds, self seconds)`` of *layer*."""
        calls, total, self_s = self.stats.get(layer, (0, 0.0, 0.0))
        return calls, total, self_s

    def add(self, layer: str, seconds: float) -> None:
        """Account one call measured elsewhere."""
        stat = self.stats.setdefault(layer, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += seconds
        stat[2] += seconds
        self._stack[-1] += seconds

    def wrap(self, obj, attr: str, layer: str, active: list) -> None:
        """Replace ``obj.attr`` by a timed wrapper that reports to *layer*.

        *active* is shared by every wrapper of one layer instance: calls
        made while the layer is already on the stack are not counted.
        """
        inner = getattr(obj, attr)
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if active[0]:
                return inner(*args, **kwargs)
            active[0] = True
            stack.append(0.0)
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stack[-1] += elapsed
                active[0] = False
                stat = stats.get(layer)
                if stat is None:
                    stat = stats[layer] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child

        setattr(obj, attr, timed)


@contextmanager
def instrumented(probe: CallProbe):
    """Wrap the layers of every machine built inside the ``with`` body."""
    import repro.sim.machine as machine_mod

    original_build = machine_mod.build_hierarchy
    original_table = machine_mod.ImageCompTable

    def build(name, memory, params=None):
        hierarchy = original_build(name, memory, params)
        for obj, attrs, layer in (
            (hierarchy.l1, ("load_word", "store_word", "access"), "caches.l1"),
            (hierarchy.l2, ("fetch", "write_back", "supply_prefetch"), "caches.l2"),
            (memory, ("read_line", "write_line"), "memory"),
        ):
            active = [False]
            for attr in attrs:
                if hasattr(obj, attr):
                    probe.wrap(obj, attr, layer, active)
        return hierarchy

    def table(image, scheme):
        t0 = time.perf_counter()
        comp_table = original_table(image, scheme)
        probe.add("compression.comptable_build", time.perf_counter() - t0)
        return comp_table

    # The table has __slots__, so its probe is wrapped on the class.
    original_line_comp = original_table.line_comp
    probe.wrap(original_table, "line_comp", "compression.line_comp", [False])
    machine_mod.build_hierarchy = build
    machine_mod.ImageCompTable = table
    try:
        yield probe
    finally:
        machine_mod.build_hierarchy = original_build
        machine_mod.ImageCompTable = original_table
        original_table.line_comp = original_line_comp


#: Each probed layer and the layer its calls come from (None: the
#: machine run itself). The L2 reaches memory and the comp-table probe
#: through the off-chip port.
_ROLLUPS = (
    ("caches.l1", None),
    ("compression.comptable_build", None),
    ("caches.l2", "caches.l1"),
    ("memory", "caches.l2"),
    ("compression.line_comp", "caches.l2"),
)


def traced_replay(cells, spans: SpanLog, checker, oracle: dict) -> tuple[dict, float]:
    """Run *cells* ``[(key, program, config)]`` with every layer probed.

    Each result must equal ``oracle[key]`` (the untraced result), so the
    exact model counts are the same with and without tracing. Returns
    the per-config sums of the per-layer measurements and the summed
    ``Machine.run`` time. Garbage is collected before every cell, as in
    :func:`perfbench.sim.run_pass`.
    """
    from repro.sim.config import SimConfig
    from repro.sim.machine import Machine
    from repro.sim.results_io import result_to_full_dict

    from perfbench.common import BACKEND

    sums = {cfg: {} for cfg in CONFIGS}
    probe = CallProbe()
    replay_s = 0.0
    gc.collect()
    gc.freeze()
    with instrumented(probe):
        for key, program, config in cells:
            probe.reset()
            machine = Machine(SimConfig(cache_config=config, backend=BACKEND))
            gc.collect()
            with spans.span(
                "sim.machine_run", workload=program.name, config=config
            ) as span_id:
                t0 = time.perf_counter()
                result = machine.run(program)
                run_s = time.perf_counter() - t0
            replay_s += run_s
            rollup_ids = {None: span_id}
            for layer, caller in _ROLLUPS:
                calls, total, self_s = probe.get(layer)
                if calls:
                    rollup_ids[layer] = spans.rollup(
                        rollup_ids.get(caller, span_id), layer, calls, total, self_s
                    )
            checker.expect(
                f"traced {key} vs untraced", result_to_full_dict(result), oracle[key]
            )
            acc = sums[config]
            _add(acc, "insn", result.instructions)
            _add(acc, "sim.machine_run_s", run_s)
            for layer, count_name, time_name in (
                ("caches.l1", "caches.l1_calls", "caches.l1_s"),
                ("caches.l2", "caches.l2_calls", "caches.l2_s"),
                ("memory", "memory.line_ops", "memory.s"),
                ("compression.comptable_build", None, "compression.comptable_build_s"),
                ("compression.line_comp", "compression.line_comp_calls", "compression.line_comp_s"),
            ):
                calls, total, _ = probe.get(layer)
                if count_name:
                    _add(acc, count_name, calls)
                _add(acc, time_name, total)
            _add(acc, "cpu.cycles", result.cycles)
            _add(acc, "caches.l1_misses", result.l1.misses)
            _add(acc, "caches.l2_misses", result.l2.misses)
            _add(acc, "memory.bus_words.fill", result.bus_fill_words)
            _add(acc, "memory.bus_words.prefetch", result.bus_prefetch_words)
            _add(acc, "memory.bus_words.writeback", result.bus_writeback_words)
            _add(acc, "caches.l1_affiliated_hits", result.l1.affiliated_hits)
            _add(acc, "caches.l1_partial_fills", result.l1.partial_fills)
    return sums, replay_s


def _add(acc: dict, name: str, value) -> None:
    acc[name] = acc.get(name, 0) + value


def layer_metrics(sums: dict, spans: SpanLog, overhead_frac: float) -> dict:
    """The catalogue's values from a traced replay and the set-up spans."""
    values = {
        "workloads.generate_s": spans.total("workloads.generate"),
        "isa.predecode_s": spans.total("isa.predecode"),
        "caches.l1_affiliated_hits.CPP": sums["CPP"].get("caches.l1_affiliated_hits", 0),
        "caches.l1_partial_fills.CPP": sums["CPP"].get("caches.l1_partial_fills", 0),
        "obs.tracing_overhead_frac": overhead_frac,
    }
    for cfg in CONFIGS:
        acc = sums[cfg]
        for name, _, _, configs in PER_CONFIG:
            if cfg not in configs:
                continue
            if name == "cpu.core_self_s":
                value = (
                    acc.get("sim.machine_run_s", 0.0)
                    - acc.get("caches.l1_s", 0.0)
                    - acc.get("compression.comptable_build_s", 0.0)
                )
            elif name == "caches.l1_calls_per_kinsn":
                insn = acc.get("insn", 0)
                value = acc.get("caches.l1_calls", 0) * 1000 / insn if insn else 0.0
            else:
                value = acc.get(name, 0)
            values[f"{name}.{cfg}"] = value
    return values
