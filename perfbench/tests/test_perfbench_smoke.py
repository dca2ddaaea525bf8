"""Smoke test of the benchmark itself: tiny inputs, one pass or campaign.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Every workload must print every metric it names with a unit and end
with the JSON result line; a result corrupted inside the checker must
raise ``failed_frac`` and make the command exit non-zero.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.common import E2E, RAW_UNITS  # noqa: E402
from perfbench.tracing import layer_catalog  # noqa: E402

METRIC = re.compile(r"^(metric|layer) (\S+) = (\S+) (\S+)")


def _run(*args: str) -> tuple[subprocess.CompletedProcess, dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "0", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = METRIC.match(line)
        if match:
            printed[match.group(2)] = (float(match.group(3)), match.group(4))
    return proc, json.loads(lines[-1]), printed


@pytest.mark.parametrize("workload", ["cells", "campaign", "serve"])
def test_every_metric_prints_with_a_unit(workload):
    proc, result, printed = _run("--workload", workload)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert [m for m in result["metrics"]] == [name for name, _, _, _ in E2E]
    for name, unit, _, _ in E2E:
        assert result["metrics"][name]["unit"] == unit
        assert printed[name][1] == unit
        assert result["metrics"][name]["value"] > 0, name
    for _, _, raw_name, seconds in E2E:
        if seconds is not None:
            assert printed[f"raw.{raw_name}"][1] == RAW_UNITS[raw_name]
    assert printed["failed_frac"] == (0.0, "fraction")


def test_traced_run_prints_every_layer_metric():
    proc, result, printed = _run("--workload", "cells", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    catalog = layer_catalog()
    assert set(result["metrics"]) == {name for name, _, _ in catalog}
    for name, unit, _ in catalog:
        assert result["metrics"][name]["unit"] == unit
        assert printed[name][1] == unit
    assert " -> " in proc.stdout


def test_corrupted_result_fails_the_run():
    proc, result, printed = _run("--workload", "cells", "--corrupt")
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] >= 1
    assert printed["failed_frac"][0] > 0
    assert "cycles" in proc.stderr


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cells"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
