"""Workload ``cells``: warm in-process simulation of a fixed program mix.

Six programs mixing pointer-chasing and array codes (Olden health,
treeadd and em3d; SPEC95 li and compress; SPEC2000 mcf), each run on
all five configurations through ``Machine.run``. Generation, predecode and one
untimed pass are set-up; then whole passes repeat until the time
budget is spent. No fork, store or HTTP is involved, so this workload
isolates the simulator layers.
"""

from __future__ import annotations

import time

from perfbench import sim
from perfbench.check import check_golden
from perfbench.common import HostClock, Outcome, PeakRss, median, percentile
from perfbench.tracing import CONFIGS, NullSpans

MIX = (
    "olden.health",
    "olden.treeadd",
    "olden.em3d",
    "spec95.130.li",
    "spec95.129.compress",
    "spec2000.181.mcf",
)
SCALE = 0.3
SMOKE_SCALE = 0.05
#: Set-up (generate + predecode) repetitions; the median is reported.
SETUP_REPS = 3


def run(opts, checker, spans) -> Outcome:
    """Measure the workload; *spans* is a SpanLog in traced runs."""
    from repro.sim.results_io import result_to_full_dict

    scale = SMOKE_SCALE if opts.smoke else SCALE
    with PeakRss(tree=False) as rss:
        gen_s = []
        for rep in range(SETUP_REPS):
            programs, seconds = sim.generate_programs(
                MIX, seed=opts.seed, scale=scale, spans=spans if rep == 0 else NullSpans()
            )
            gen_s.append(seconds)
        t0 = time.perf_counter()
        _, first = sim.oracle(programs, seed=opts.seed, scale=scale)
        warm_s = time.perf_counter() - t0
        check_golden(checker)

        passes = []
        host = HostClock()
        budget_end = time.perf_counter() + opts.seconds
        while not passes or time.perf_counter() < budget_end:
            samples = sim.run_pass(programs, host)
            for name, cfg, _, result in samples:
                checker.expect(
                    f"pass {len(passes) + 1} {name}/{cfg} vs first pass",
                    result_to_full_dict(result),
                    first[sim.cell_key(name, cfg, seed=opts.seed, scale=scale)],
                )
            passes.append(samples)

        layers = None
        if opts.trace:
            layers = sim.traced_layers(
                programs, spans, checker, first, seed=opts.seed, scale=scale
            )

    # Each cell's median over the passes, so a burst of host noise that
    # hits one cell in one pass does not move the result.
    cell_s: dict = {}
    insn: dict = {}
    for samples in passes:
        for name, cfg, seconds, result in samples:
            cell_s.setdefault((name, cfg), []).append(seconds)
            insn[(name, cfg)] = result.instructions
    typical = {cell: median(times) for cell, times in cell_s.items()}
    op_ms = [s * 1000 for times in cell_s.values() for s in times]
    e2e = {
        "setup_s": median(gen_s) + warm_s,
        "job_s": sum(typical.values()),
        "op_p50_ms": percentile(op_ms, 50),
        "op_p90_ms": percentile(op_ms, 90),
        "peak_rss_mb": rss.mb(),
    }
    named = {}
    for cfg in CONFIGS:
        cells = [cell for cell in typical if cell[1] == cfg]
        total_s = sum(typical[cell] for cell in cells)
        e2e[f"cell_ms.{cfg}"] = total_s * 1000 / len(cells)
        named[f"sim_insn_per_s.{cfg}"] = (sum(insn[c] for c in cells) / total_s, "insn/s")
    named["passes"] = (len(passes), "count")
    named["cells_per_pass"] = (len(MIX) * len(CONFIGS), "count")
    return Outcome(e2e=e2e, cal_s=host.cal_s(), named=named, layers=layers)
