"""Paths, child-process environment, host/program fingerprint and small
statistics shared by the three benchmark workloads.

Everything the benchmark writes lives under ``.bench_build/perfbench``
in the checkout: the compiled C kernel, temporary files, stores,
telemetry, result files and span logs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Every workload simulates with the fast backend and the paper's codec.
BACKEND = "fast"
CODEC = "cpp"

#: Environment variables that would change what the program computes or
#: where it reads and writes; the benchmark pins or clears them.
_CLEARED = (
    "REPRO_TRACE_CACHE_DIR",
    "REPRO_CHECK",
    "REPRO_MAX_WORKERS",
    "REPRO_STORE_DIR",
    "REPRO_STORE_FAULT_POINT",
    "REPRO_PROGRESS",
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, no kernel...)."""


def prepare() -> None:
    """Check the checkout, pin the environment and import path.

    Raises :class:`SetupError` in a directory without the program's
    sources, before anything is measured or printed.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    for sub in ("tmp", "cache", "ckernel", "results", "spans"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    for name in _CLEARED:
        os.environ.pop(name, None)
    os.environ.update(
        PYTHONPATH=str(SRC),
        REPRO_BACKEND=BACKEND,
        REPRO_CODEC=CODEC,
        REPRO_CKERNEL_DIR=str(WORK / "ckernel"),
        TMPDIR=str(WORK / "tmp"),
        XDG_CACHE_HOME=str(WORK / "cache"),
    )
    tempfile.tempdir = str(WORK / "tmp")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def workers() -> int:
    """Worker processes and client connections: two, capped by ``nproc``."""
    return max(1, min(2, os.cpu_count() or 1))


# ---- fingerprint -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spin(iterations: int, clock=time.perf_counter) -> float:
    """Seconds this host takes for a fixed pure-Python integer loop."""
    t0 = clock()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) & 0xFFFFFFFF
    return clock() - t0


def calibration_s() -> float:
    """Median of three runs of a longer fixed loop (host speed at start)."""
    return median(spin(300_000) for _ in range(3))


class HostClock:
    """Host speed sampled during a run, for host-normalized timings.

    The host this runs on drifts by tens of percent over tens of
    seconds. Each sample is the thread CPU time of :data:`CAL_ITERATIONS`
    of :func:`spin` (about 5 ms); CPU time leaves out time spent waiting
    for a processor, so a sample taken while the program's own processes
    keep both processors busy still measures host speed. A timing
    divided by the samples' median is in ``cal`` units: multiples of
    that loop's time at the same moment, which the drift moves far less
    than it moves the raw timing.
    """

    CAL_ITERATIONS = 40_000

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        """Take *count* samples now."""
        for _ in range(count):
            self.samples.append(spin(self.CAL_ITERATIONS, time.thread_time))

    @contextmanager
    def sampling(self, interval: float):
        """Sample every *interval* seconds from a thread during the body."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(interval):
                self.sample()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join(timeout=5)

    def cal_s(self) -> float:
        """Seconds per ``cal``: the median sample."""
        return median(self.samples)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict:
    """Host and program identity recorded in every result file.

    Loads (and on first use compiles) the C kernel, so the build
    happens here, during warm-up, never inside a timed region.
    """
    import numpy

    import repro
    from repro.compression.codecs import resolve_codec
    from repro.cpu.ckernel import kernel_available
    from repro.sim.backend import resolve_backend
    from repro.store.cas import default_code_version

    return {
        "host": {
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "calibration_s": calibration_s(),
        },
        "program": {
            "version": repro.__version__,
            "source_digest": _source_digest(),
            "ckernel_loaded": kernel_available(),
            "backend": resolve_backend(""),
            "codec": resolve_codec(""),
            "store_code_version": default_code_version(),
        },
    }


# ---- statistics ------------------------------------------------------------


def median(values) -> float:
    """Median of a non-empty sequence."""
    return percentile(values, 50)


def percentile(values, q: float) -> float:
    """Linearly interpolated *q*-th percentile of a non-empty sequence."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def normalized(result_dict: dict) -> dict:
    """A result dict exactly as it survives a JSON round trip."""
    return json.loads(json.dumps(result_dict, sort_keys=True))


# ---- memory ----------------------------------------------------------------

_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def _tree_rss_kb(root: int) -> int:
    """Resident set of *root* and all its descendants, in KiB."""
    parent_of: dict[int, int] = {}
    rss: dict[int, int] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as fh:
                data = fh.read()
        except OSError:
            continue
        fields = data[data.rfind(b")") + 2 :].split()
        pid = int(entry.name)
        parent_of[pid] = int(fields[1])
        rss[pid] = int(fields[21]) * _PAGE_KB
    total = 0
    for pid, kb in rss.items():
        node = pid
        while node > 1 and node != root:
            node = parent_of.get(node, 0)
        if node == root:
            total += kb
    return total


class PeakRss:
    """Peak resident memory of this process, optionally with its children.

    With ``tree=True`` a sampling thread sums the resident set of the
    whole process tree every *interval* seconds; the result is the
    larger of that sampled peak and this process's own ``ru_maxrss``.
    """

    def __init__(self, *, tree: bool, interval: float = 0.1) -> None:
        self._tree = tree
        self._interval = interval
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread = None

    def __enter__(self) -> "PeakRss":
        if self._tree:
            self._thread = threading.Thread(target=self._sample, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def _sample(self) -> None:
        pid = os.getpid()
        while not self._stop.wait(self._interval):
            self._peak_kb = max(self._peak_kb, _tree_rss_kb(pid))

    def mb(self) -> float:
        """Peak in MB (10^6 bytes)."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self._peak_kb, own) * 1024 / 1e6


# ---- workload results ------------------------------------------------------

_CONFIGS = ("BC", "BCC", "HAC", "BCP", "CPP")

#: The raw end-to-end timings every workload measures, in print order.
RAW_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    **{f"cell_ms.{cfg}": "ms" for cfg in _CONFIGS},
    "peak_rss_mb": "MB",
}

#: The end-to-end metrics of the JSON line: (name, unit, raw name,
#: seconds per raw unit). Host timings are normalized by the run's
#: :class:`HostClock`; set-up time and memory are reported raw.
E2E = (
    ("setup_s", "s", "setup_s", None),
    ("job_cal", "cal", "job_s", 1.0),
    ("op_p50_cal", "cal", "op_p50_ms", 1e-3),
    ("op_p90_cal", "cal", "op_p90_ms", 1e-3),
    *((f"cell_cal.{cfg}", "cal", f"cell_ms.{cfg}", 1e-3) for cfg in _CONFIGS),
    ("peak_rss_mb", "MB", "peak_rss_mb", None),
)


def e2e_metrics(raw: dict, cal_s: float) -> dict:
    """The JSON end-to-end metrics from raw timings: name -> (value, unit)."""
    out = {}
    for name, unit, raw_name, seconds in E2E:
        value = raw[raw_name]
        out[name] = (value if seconds is None else value * seconds / cal_s, unit)
    return out


@dataclass
class Outcome:
    """What one workload measured."""

    #: ``RAW_UNITS`` name -> value, from the untraced run.
    e2e: dict
    #: Seconds per ``cal`` over the run (:meth:`HostClock.cal_s`).
    cal_s: float
    #: The workload's own end-to-end metrics: name -> (value, unit).
    named: dict
    #: Per-layer catalogue values (traced runs only).
    layers: dict | None = None
    #: Workload-specific per-layer metrics: name -> (value, unit, target).
    extras: dict = field(default_factory=dict)
