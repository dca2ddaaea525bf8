"""In-process simulation helpers: program set-up, passes, the oracle.

The oracle is the in-process result of every cell a workload checks
against: campaign cells on both paths and every result the service
returns must equal it.
"""

from __future__ import annotations

import gc
import time

from perfbench.common import BACKEND
from perfbench.tracing import CONFIGS


def generate_programs(names, *, seed: int, scale: float, spans) -> tuple[dict, float]:
    """Generate and predecode *names*; returns ``(programs, seconds)``."""
    from repro.isa.predecode import get_predecoded
    from repro.workloads.registry import generate

    t0 = time.perf_counter()
    programs = {}
    for name in names:
        with spans.span("workloads.generate", workload=name):
            programs[name] = generate(name, seed=seed, scale=scale)
    for program in programs.values():
        with spans.span("isa.predecode", workload=program.name):
            get_predecoded(program.trace)
    return programs, time.perf_counter() - t0


def run_pass(programs: dict, host=None) -> list[tuple]:
    """Every program on every config once: ``[(name, cfg, seconds, result)]``.

    With a :class:`~perfbench.common.HostClock`, host speed is sampled
    just before every cell.
    """
    from repro.sim.config import SimConfig
    from repro.sim.machine import Machine

    out = []
    clock = time.perf_counter
    # Start every cell with no pending garbage, so a collection triggered
    # by an earlier cell's allocations is not charged to whichever cell
    # runs next. Long-lived objects (the programs) are frozen first, so
    # each collection scans only what the last cell left behind.
    gc.collect()
    gc.freeze()
    for name, program in programs.items():
        for cfg in CONFIGS:
            machine = Machine(SimConfig(cache_config=cfg, backend=BACKEND))
            gc.collect()
            if host is not None:
                host.sample()
            t0 = clock()
            result = machine.run(program)
            out.append((name, cfg, clock() - t0, result))
    return out


def cell_key(name: str, cfg: str, *, seed: int, scale: float) -> tuple:
    """The canonical matrix key the campaign paths and the store use."""
    from repro.sim.fault import matrix_task_key

    return matrix_task_key((name, cfg, 1.0, seed, scale))


def oracle(programs: dict, *, seed: int, scale: float) -> tuple[dict, dict]:
    """One untraced pass over *programs*.

    Returns the :class:`SimResult` and its lossless dict per matrix key.
    """
    from repro.sim.results_io import result_to_full_dict

    results = {
        cell_key(name, cfg, seed=seed, scale=scale): result
        for name, cfg, _, result in run_pass(programs)
    }
    return results, {key: result_to_full_dict(r) for key, r in results.items()}


def traced_layers(programs: dict, spans, checker, oracle: dict, *, seed: int, scale: float) -> dict:
    """Per-layer metrics of the matrix cells of *programs*, traced.

    One untraced pass first gives the baseline for the tracing overhead.
    """
    from perfbench.tracing import layer_metrics, traced_replay

    untraced_s = sum(seconds for _, _, seconds, _ in run_pass(programs))
    cells = [
        (cell_key(name, cfg, seed=seed, scale=scale), program, cfg)
        for name, program in programs.items()
        for cfg in CONFIGS
    ]
    sums, traced_s = traced_replay(cells, spans, checker, oracle)
    return layer_metrics(sums, spans, traced_s / untraced_s - 1.0)
