"""The benchmark's correctness gate.

Every operation a workload performs (a simulated cell, a campaign
cell, an HTTP request) is checked here, outside the timed region, and
counted as attempted; a wrong result, a non-2xx reply or a failed cell
counts as failed. ``corrupt=True`` flips one cycle count in the first
result the checker sees, which proves the gate can fail.
"""

from __future__ import annotations

import json

from perfbench.common import ROOT, normalized

GOLDEN_PATH = ROOT / "tests" / "golden" / "golden_cells.json"


def first_difference(got, want, path: str = "") -> str:
    """Path and values of the first leaf where *got* and *want* differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want), key=str):
            if got.get(key, KeyError) != want.get(key, KeyError):
                return first_difference(
                    got.get(key), want.get(key), f"{path}.{key}"
                )
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return first_difference(a, b, f"{path}[{i}]")
    return f"{path or '<root>'}: got {got!r}, want {want!r}"


class Checker:
    """Counts attempted and failed operations and keeps the first mismatches."""

    def __init__(self, *, corrupt: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._corrupt = corrupt

    def fail(self, what: str) -> None:
        """Record one failed operation."""
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def ok(self) -> None:
        """Record one operation that succeeded."""
        self.attempted += 1

    def expect(self, what: str, got: dict, want: dict) -> bool:
        """Compare two result dicts (normalized through JSON)."""
        got = normalized(got)
        if self._corrupt and "cycles" in got:
            got["cycles"] += 1
            self._corrupt = False
        want = normalized(want)
        if got == want:
            self.ok()
            return True
        self.fail(f"{what}: {first_difference(got, want)}")
        return False

    def expect_true(self, what: str, condition: bool) -> bool:
        """Count one operation that succeeded iff *condition*."""
        if condition:
            self.ok()
        else:
            self.fail(what)
        return condition

    @property
    def correct(self) -> bool:
        """True when no operation failed."""
        return self.failed == 0

    @property
    def failed_frac(self) -> float:
        """Failed operations divided by attempted ones."""
        return self.failed / self.attempted if self.attempted else 0.0


def check_golden(checker: Checker) -> None:
    """Replay every golden cell under both backends."""
    from repro.sim.config import SimConfig
    from repro.sim.results_io import result_to_full_dict
    from repro.sim.runner import run_workload

    cells = json.loads(GOLDEN_PATH.read_text("utf-8"))["cells"]
    for backend in ("reference", "fast"):
        for key in sorted(cells):
            workload, config, seed, scale, miss = key.split("|")
            sim_config = SimConfig(cache_config=config, backend=backend)
            result = run_workload(
                workload,
                sim_config.with_miss_scale(float(miss.removeprefix("x"))),
                seed=int(seed.removeprefix("seed")),
                scale=float(scale.removeprefix("scale")),
                use_cache=False,
            )
            checker.expect(
                f"golden {key} ({backend})", result_to_full_dict(result), cells[key]
            )
