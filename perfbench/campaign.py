"""Workload ``campaign``: the cold ``fig12`` matrix through the CLI.

14 workloads x 5 configs = 70 cells at scale 0.3, run as a user types
it: ``python -m repro.experiments fig12 --backend fast --workers N``,
once on the default path (fresh checkpoint, ``--no-resume``) and once
with ``--store`` into a fresh store. Nothing is cached between runs: no
trace cache, every forked attempt predecodes and builds its comp table.
``--progress json`` gives the first-cell time and ``--telemetry`` the
per-attempt spans.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time

from perfbench import sim
from perfbench.common import WORK, HostClock, Outcome, PeakRss, median, percentile, workers
from perfbench.tracing import CONFIGS

SCALE = 0.3
SMOKE_SCALE = 0.05
#: Kill a campaign that runs longer than this (seconds).
CAMPAIGN_TIMEOUT = 150.0
#: Seconds between host-speed samples during a campaign.
CAL_INTERVAL_S = 0.2


def _spans(tel_dir) -> list[dict]:
    path = tel_dir / "spans.jsonl"
    if not path.exists():
        return []
    out = []
    for line in path.read_text("utf-8").splitlines():
        span = json.loads(line)
        span["seconds"] = (span["endTimeUnixNano"] - span["startTimeUnixNano"]) / 1e9
        out.append(span)
    return out


def _launch(run_dir, name: str, extra: list, *, seed: int, scale: float) -> dict:
    """Run one campaign; returns its timings, exit code and spans."""
    tel_dir = run_dir / f"{name}-telemetry"
    cmd = [
        sys.executable, "-m", "repro.experiments", "fig12",
        "--seed", str(seed), "--scale", str(scale),
        "--backend", "fast", "--codec", "cpp",
        "--workers", str(workers()),
        "--progress", "json", "--telemetry", str(tel_dir),
        "--no-charts", "--no-profile",
        *extra,
    ]
    first_cell = None
    with open(run_dir / f"{name}.stdout", "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=run_dir, stdout=out, stderr=subprocess.PIPE, text=True
        )
        killer = threading.Timer(CAMPAIGN_TIMEOUT, proc.kill)
        killer.start()
        try:
            for line in proc.stderr:
                if first_cell is None and '"cell_done"' in line:
                    first_cell = time.perf_counter()
            code = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return {
        "wall": wall,
        "setup": (first_cell or time.perf_counter()) - start,
        "code": code,
        "spans": _spans(tel_dir),
    }


def _check_cells(checker, label: str, got: dict, oracle: dict) -> None:
    for key, want in oracle.items():
        have = got.get(key)
        if have is None:
            checker.fail(f"{label}: cell {key} missing")
        else:
            checker.expect(f"{label}: cell {key} vs in-process", have, want)


def run(opts, checker, spans) -> Outcome:
    """Measure the workload; *spans* is a SpanLog in traced runs."""
    from repro.workloads.registry import WORKLOAD_NAMES

    scale = SMOKE_SCALE if opts.smoke else SCALE
    run_dir = WORK / f"campaign-{opts.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        with PeakRss(tree=True) as rss:
            programs, _ = sim.generate_programs(
                WORKLOAD_NAMES, seed=opts.seed, scale=scale, spans=spans
            )
            _, oracle = sim.oracle(programs, seed=opts.seed, scale=scale)

            checkpoint = run_dir / "checkpoint.jsonl"
            store_dir = run_dir / "store"
            runs = {}
            host = HostClock()
            budget_end = time.perf_counter() + opts.seconds
            while not runs or time.perf_counter() < budget_end:
                checkpoint.unlink(missing_ok=True)
                shutil.rmtree(store_dir, ignore_errors=True)
                for path, extra in (
                    ("default", ["--no-resume", "--checkpoint", str(checkpoint)]),
                    ("store", ["--store", str(store_dir)]),
                ):
                    shutil.rmtree(run_dir / f"{path}-telemetry", ignore_errors=True)
                    # This process only waits on the campaign, so it can
                    # sample host speed all through it.
                    with host.sampling(CAL_INTERVAL_S):
                        runs.setdefault(path, []).append(
                            _launch(run_dir, path, extra, seed=opts.seed, scale=scale)
                        )
                _verify(checker, runs, checkpoint, store_dir, oracle)

            layers = None
            if opts.trace:
                layers = sim.traced_layers(
                    programs, spans, checker, oracle, seed=opts.seed, scale=scale
                )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return _outcome(runs, layers, rss.mb(), host.cal_s(), n_cells=len(oracle))


def _verify(checker, runs, checkpoint, store_dir, oracle) -> None:
    """Check the latest campaign pair against the in-process oracle."""
    from repro.sim.results_io import load_jsonl, result_to_full_dict
    from repro.store.cas import ResultStore

    for path in ("default", "store"):
        last = runs[path][-1]
        checker.expect_true(f"{path} campaign exit code {last['code']}", last["code"] == 0)
        reused = sum(
            s["attributes"].get("reused", 0)
            for s in last["spans"]
            if s["name"] in ("supervised_matrix", "store_campaign")
        )
        checker.expect_true(f"{path} campaign reused {reused} cells", reused == 0)
    got = {}
    if checkpoint.exists():
        got = {tuple(rec["key"]): rec["result"] for rec in load_jsonl(checkpoint)}
    _check_cells(checker, "default path", got, oracle)
    store = ResultStore(store_dir)
    _check_cells(
        checker,
        "store path",
        {key: result_to_full_dict(r) for key in oracle if (r := store.get(key)) is not None},
        oracle,
    )


def _outcome(runs: dict, layers, peak_mb: float, cal_s: float, *, n_cells: int) -> Outcome:
    attempts = [
        s for path in runs.values() for r in path for s in r["spans"] if s["name"] == "attempt"
    ]
    op_ms = [s["seconds"] * 1000 for s in attempts] or [0.0]
    e2e = {
        "setup_s": median(r["setup"] for path in runs.values() for r in path),
        "job_s": median(
            d["wall"] + s["wall"] for d, s in zip(runs["default"], runs["store"])
        ),
        "op_p50_ms": percentile(op_ms, 50),
        "op_p90_ms": percentile(op_ms, 90),
        "peak_rss_mb": peak_mb,
    }
    for cfg in CONFIGS:
        # The mean, not the median: the 14 programs differ in size, and a
        # median would jump from one program to another between runs.
        cfg_ms = [s["seconds"] * 1000 for s in attempts if s["attributes"].get("config") == cfg]
        e2e[f"cell_ms.{cfg}"] = sum(cfg_ms) / len(cfg_ms) if cfg_ms else 0.0
    named = {
        "campaign_s": (median(r["wall"] for r in runs["default"]), "s"),
        "campaign_store_s": (median(r["wall"] for r in runs["store"]), "s"),
        "campaign_cells": (n_cells, "count"),
        "campaigns_per_path": (len(runs["default"]), "count"),
    }
    # The layer split describes the first campaign of each path.
    default_spans = runs["default"][0]["spans"]
    store_spans = runs["store"][0]["spans"]

    def total(span_list, name):
        return sum(s["seconds"] for s in span_list if s["name"] == name)

    default_attempts = [s["seconds"] for s in default_spans if s["name"] == "attempt"] or [0.0]
    extras = {
        "sim.attempt_s.p50": (percentile(default_attempts, 50), "s", "campaign_s on campaign"),
        "sim.attempt_s.sum": (sum(default_attempts), "s", "campaign_s on campaign"),
        "sim.cell_simulate_s": (total(default_spans, "simulate"), "s", "campaign_s on campaign"),
        "sim.attempt_overhead_s": (
            sum(default_attempts) - total(default_spans, "simulate"),
            "s",
            "campaign_s on campaign",
        ),
        "experiments.figure_s": (total(default_spans, "figure.fig12"), "s", "campaign_s on campaign"),
        "store.campaign_phase_s": (
            total(store_spans, "store_campaign"),
            "s",
            "campaign_store_s on campaign",
        ),
        "sim.cells_reused": (
            sum(
                s["attributes"].get("reused", 0)
                for s in default_spans + store_spans
                if s["name"] in ("supervised_matrix", "store_campaign")
            ),
            "count",
            "must be 0 on a cold run",
        ),
    }
    return Outcome(e2e=e2e, cal_s=cal_s, named=named, layers=layers, extras=extras)
