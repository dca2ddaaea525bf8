"""Workload ``serve``: result reads from ``repro.serve`` while it computes.

Set-up fills a fresh store with the seed's ``fig12`` cells (computed in
process, outside the timed region) and boots ``python -m repro.serve
--workers 1``. The timed region runs a closed-loop client: one
connection reads ``GET /v1/result`` for every cell in turn, with a
``GET /v1/figure/fig12`` after every ``FIGURE_EVERY`` results. At the
same time a second connection POSTs campaigns that are not in the
store, one after another for the time budget (seeds ``seed + 1000``,
``+ 1001``, ...; two workloads, five configs each), and polls each
until the worker pool has computed and committed it.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from urllib.parse import urlencode

from perfbench import sim
from perfbench.common import WORK, HostClock, Outcome, PeakRss, median, percentile
from perfbench.tracing import CONFIGS, NullSpans

#: Result records are the same size at any scale, so the store is filled
#: at a small one; it keeps the in-process set-up short.
SCALE = 0.1
SMOKE_SCALE = 0.05
#: Each POSTed campaign: these workloads at ``seed + DRAIN_SEED_OFFSET + k``.
DRAIN_WORKLOADS = ("olden.treeadd", "spec95.130.li")
DRAIN_SEED_OFFSET = 1000
#: One figure read after this many result reads.
FIGURE_EVERY = 20
#: Service boots per run; set-up time is their median.
BOOTS = 3
BOOT_TIMEOUT = 60.0
DRAIN_TIMEOUT = 120.0
POLL_S = 0.1
#: Host-speed samples before the boots and after the read window, and
#: between reads after each drained campaign.
CAL_SAMPLES = 20
CAL_SAMPLES_IDLE = 10


def _http(port: int, method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection (the service closes each one)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except OSError:
        return 0, b""
    finally:
        conn.close()


def _result_path(key: tuple) -> str:
    workload, seed, scale, config, _ = key
    query = urlencode(
        {"workload": workload, "config": config, "seed": seed, "scale": scale}
    )
    return f"/v1/result?{query}"


class Service:
    """One ``python -m repro.serve`` process over *store_dir*."""

    def __init__(self, store_dir, run_dir, probe_path: str) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--store", str(store_dir), "--workers", "1", "--port", "0",
            ],
            cwd=run_dir,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        killer = threading.Timer(BOOT_TIMEOUT, self.proc.kill)
        killer.start()
        try:
            self.port = self._await_ready()
            while True:
                status, _ = _http(self.port, "GET", probe_path)
                if status == 200:
                    break
                if self.proc.poll() is not None:
                    raise RuntimeError("service exited before its first 200")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        finally:
            killer.cancel()
        #: Process start to SERVE-READY plus the first 200.
        self.setup_s = time.perf_counter() - self.started
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()

    def _await_ready(self) -> int:
        from repro.serve.app import READY_PREFIX

        for line in self.proc.stdout:
            if line.startswith(READY_PREFIX):
                return int(json.loads(line[len(READY_PREFIX) :])["port"])
        raise RuntimeError("service exited before SERVE-READY")

    def stop(self) -> None:
        """Graceful SIGTERM drain; SIGKILL if it does not end in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Reader(threading.Thread):
    """The closed-loop client: one GET after another over *plan*."""

    def __init__(self, port: int, plan: list) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.plan = plan
        self.log: list = []
        self.stop = threading.Event()
        self._busy = threading.Lock()

    def run(self) -> None:
        clock = time.perf_counter
        i = 0
        while not self.stop.is_set():
            kind, key, path = self.plan[i % len(self.plan)]
            i += 1
            with self._busy:
                t0 = clock()
                status, body = _http(self.port, "GET", path)
                self.log.append((kind, key, status, clock() - t0, body))

    def calibrate(self, host: HostClock) -> None:
        """Sample host speed between two requests, with none in flight."""
        with self._busy:
            host.sample(CAL_SAMPLES_IDLE)


def _drain(port: int, seed: int, scale: float, log: list) -> float:
    """POST the campaign and poll it until drained; returns seconds."""
    query = urlencode({"seed": seed, "scale": scale})
    t0 = time.perf_counter()
    status, body = _http(
        port,
        "POST",
        f"/v1/campaign?{query}",
        {"workloads": list(DRAIN_WORKLOADS), "configs": list(CONFIGS)},
    )
    log.append(("post", None, status, time.perf_counter() - t0, body))
    if status // 100 != 2:
        return time.perf_counter() - t0
    name = json.loads(body)["campaign"]
    while time.perf_counter() - t0 < DRAIN_TIMEOUT:
        t1 = time.perf_counter()
        status, body = _http(port, "GET", f"/v1/campaign/{name}")
        log.append(("poll", None, status, time.perf_counter() - t1, b""))
        if status == 200 or status // 100 != 2:
            break
        time.sleep(POLL_S)
    return time.perf_counter() - t0


def run(opts, checker, spans) -> Outcome:
    """Measure the workload; *spans* is a SpanLog in traced runs."""
    scale = SMOKE_SCALE if opts.smoke else SCALE
    run_dir = WORK / f"serve-{opts.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        with PeakRss(tree=True) as rss:
            outcome = _run(opts, checker, spans, scale, run_dir)
        outcome.e2e["peak_rss_mb"] = rss.mb()
        return outcome
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(opts, checker, spans, scale: float, run_dir) -> Outcome:
    from repro.store.cas import ResultStore
    from repro.workloads.registry import WORKLOAD_NAMES

    seed = opts.seed
    programs, _ = sim.generate_programs(WORKLOAD_NAMES, seed=seed, scale=scale, spans=spans)
    results, oracle = sim.oracle(programs, seed=seed, scale=scale)
    figure_want, assemble_ms = _figure_oracle(results, seed=seed, scale=scale)

    store_dir = run_dir / "store"
    store = ResultStore(store_dir)
    for key, result in results.items():
        store.put(key, result)
    keys = sorted(oracle)
    figure_path = f"/v1/figure/fig12?{urlencode({'seed': seed, 'scale': scale})}"
    plan = []
    for i, key in enumerate(keys):
        plan.append(("result", key, _result_path(key)))
        if (i + 1) % FIGURE_EVERY == 0:
            plan.append(("figure", None, figure_path))

    host = HostClock()
    host.sample(CAL_SAMPLES)
    boots = []
    for _ in range(BOOTS - 1):
        service = Service(store_dir, run_dir, plan[0][2])
        boots.append(service.setup_s)
        service.stop()
    service = Service(store_dir, run_dir, plan[0][2])
    boots.append(service.setup_s)
    try:
        reader = Reader(service.port, plan)
        t0 = time.perf_counter()
        reader.start()
        # POST one new campaign after another (seed + 1000, + 1001, ...)
        # for the time budget; reads run throughout. Host speed is
        # sampled after each drain, when the worker pool is idle.
        drains: dict = {}
        drain_log: list = []
        while not drains or time.perf_counter() - t0 < opts.seconds:
            drain_seed = seed + DRAIN_SEED_OFFSET + len(drains)
            drains[drain_seed] = _drain(service.port, drain_seed, scale, drain_log)
            reader.calibrate(host)
        while len(reader.log) < len(plan):
            time.sleep(0.05)
        reader.stop.set()
        reader.join(timeout=60)
        checker.expect_true("reader thread stopped", not reader.is_alive())
        host.sample(CAL_SAMPLES)
        drain_oracle = {}
        for drain_seed in drains:
            drain_programs, _ = sim.generate_programs(
                DRAIN_WORKLOADS, seed=drain_seed, scale=scale, spans=NullSpans()
            )
            drain_oracle.update(sim.oracle(drain_programs, seed=drain_seed, scale=scale)[1])
        drained = {
            key: _http(service.port, "GET", _result_path(key)) for key in sorted(drain_oracle)
        }
    finally:
        service.stop()

    log = reader.log + drain_log
    _verify(checker, log, drained, store, oracle, drain_oracle, figure_want)

    layers = None
    if opts.trace:
        layers = sim.traced_layers(programs, spans, checker, oracle, seed=seed, scale=scale)
    return _outcome(
        log, boots, list(drains.values()), host.cal_s(), store, keys, drain_oracle, assemble_ms, layers
    )


def _figure_oracle(results: dict, *, seed: int, scale: float) -> tuple[dict, float]:
    """The fig12 table rendered in process from the oracle cells."""
    from repro.experiments.registry import run_experiment
    from repro.sim.runner import inject_results
    from repro.workloads.registry import WORKLOAD_NAMES

    inject_results(results)
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        output = run_experiment("fig12", list(WORKLOAD_NAMES), seed=seed, scale=scale)
        samples.append((time.perf_counter() - t0) * 1000)
    return {"headers": list(output.headers), "rows": [list(r) for r in output.rows]}, median(samples)


def _verify(checker, log, drained, store, oracle, drain_oracle, figure_want) -> None:
    """Every reply 2xx; every 200 payload equal to the store and the oracle."""
    from repro.sim.results_io import result_to_full_dict

    for key, want in oracle.items():
        record = store.get(key)
        if record is None:
            checker.fail(f"store record {key} missing")
        else:
            checker.expect(f"store record {key} vs in-process", result_to_full_dict(record), want)
    # A payload equal to the in-process result equals the store record too.
    for kind, key, status, _, body in log:
        if status // 100 != 2:
            checker.fail(f"{kind} {key}: HTTP {status}")
        elif kind == "result":
            result = json.loads(body).get("result")
            checker.expect(f"GET result {key} vs in-process", result, oracle[key])
        elif kind == "figure":
            output = json.loads(body).get("output") or {}
            got = {"headers": output.get("headers"), "rows": output.get("rows")}
            checker.expect("GET figure fig12 vs in-process", got, figure_want)
        else:
            checker.ok()
    for key, (status, body) in drained.items():
        if status != 200:
            checker.fail(f"drained cell {key}: HTTP {status}")
        else:
            checker.expect(
                f"drained cell {key} vs in-process",
                json.loads(body).get("result"),
                drain_oracle[key],
            )
    computed = [tuple(e.get("key", ())) for e in store.compute_log()]
    checker.expect_true(
        f"compute log has {len(computed)} entries for {len(drain_oracle)} POSTed cells",
        sorted(computed) == sorted(drain_oracle),
    )


def _outcome(log, boots, drains, cal_s, store, keys, drain_oracle, assemble_ms, layers) -> Outcome:
    result_ms = [dt * 1000 for kind, _, s, dt, _ in log if kind == "result"]
    figure_ms = [dt * 1000 for kind, _, s, dt, _ in log if kind == "figure"]
    e2e = {
        "setup_s": median(boots),
        "job_s": median(drains),
        "op_p50_ms": percentile(result_ms, 50),
        "op_p90_ms": percentile(result_ms, 90),
    }
    for cfg in CONFIGS:
        e2e[f"cell_ms.{cfg}"] = median(
            dt * 1000 for kind, key, _, dt, _ in log if kind == "result" and key[3] == cfg
        )
    named = {
        "serve_result_p50_ms": (percentile(result_ms, 50), "ms"),
        "serve_result_p99_ms": (percentile(result_ms, 99), "ms"),
        "serve_result_n": (len(result_ms), "count"),
        "serve_figure_p50_ms": (percentile(figure_ms, 50), "ms"),
        "serve_figure_p90_ms": (percentile(figure_ms, 90), "ms"),
        "serve_figure_n": (len(figure_ms), "count"),
        "serve_drain_s": (median(drains), "s"),
        "serve_drains": (len(drains), "count"),
    }
    get_ms = []
    for _ in range(3):
        for key in keys:
            t0 = time.perf_counter()
            store.get(key)
            get_ms.append((time.perf_counter() - t0) * 1000)
    store_get_ms = median(get_ms)
    extras = {
        "store.get_ms": (store_get_ms, "ms", "serve_result_p50_ms on serve"),
        "serve.overhead_ms": (
            percentile(result_ms, 50) - store_get_ms,
            "ms",
            "serve_result_p50_ms on serve",
        ),
        "experiments.figure_assemble_ms": (assemble_ms, "ms", "serve_figure_p50_ms on serve"),
        "store.compute_log_entries": (
            len(store.compute_log()),
            "count",
            f"serve_drain_s on serve (must equal {len(drain_oracle)})",
        ),
        "serve.drain_cells_per_s": (
            len(drain_oracle) / sum(drains),
            "1/s",
            "serve_drain_s on serve",
        ),
        "serve.non2xx": (
            sum(1 for _, _, s, _, _ in log if s // 100 != 2),
            "count",
            "failed_frac on serve",
        ),
    }
    return Outcome(e2e=e2e, cal_s=cal_s, named=named, layers=layers, extras=extras)
