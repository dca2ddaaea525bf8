"""Benchmark of the CPP reproduction: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cells --seed 1 --seconds 10 --trace 0

Workloads: ``cells`` (warm in-process simulation), ``campaign`` (the
cold ``fig12`` CLI campaign on the default and ``--store`` paths) and
``serve`` (store-backed HTTP reads while the service computes). Every
workload checks its results outside the timed region and prints its
metrics by name with their units; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics of a separate traced replay). The exit code is 0
when every check passed, 1 on any mismatch and 2 when the checkout
cannot run the benchmark. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402
from perfbench.check import Checker  # noqa: E402
from perfbench.tracing import NullSpans, SpanLog, layer_catalog  # noqa: E402

WORKLOADS = ("cells", "campaign", "serve")
NOTE = (
    "note: every simulated cell starts with empty modelled caches (each "
    "Machine.run builds a fresh hierarchy and memory); the timing model is "
    "not validated against hardware, so no error figure is given"
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs (scale 0.05), for the smoke test"
    )
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="flip one cycle count inside the checker (proves the gate fails)",
    )
    return parser


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    """Run one workload; returns the process exit code."""
    args = _parser().parse_args(argv)
    try:
        common.prepare()
    except common.SetupError as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    fingerprint = common.fingerprint()
    program = fingerprint["program"]
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} backend={program['backend']} codec={program['codec']} "
        f"ckernel={'loaded' if program['ckernel_loaded'] else 'NOT LOADED'}"
    )
    if not program["ckernel_loaded"]:
        print(
            "warning: the fast backend fell back to its pure-Python loop; these "
            "numbers must not be compared with a run that loaded the C kernel"
        )
    print("host: " + " ".join(f"{k}={v}" for k, v in fingerprint["host"].items()))
    print(NOTE)

    checker = Checker(corrupt=args.corrupt)
    spans = SpanLog() if args.trace else NullSpans()
    module = importlib.import_module(f"perfbench.{args.workload}")
    outcome = module.run(args, checker, spans)

    e2e = common.e2e_metrics(outcome.e2e, outcome.cal_s)
    for name, (value, unit) in e2e.items():
        print(f"metric {name} = {_fmt(value)} {unit}")
    print(f"metric cal_ms = {outcome.cal_s * 1000!r} ms (host clock: 1 cal)")
    for _, _, raw_name, seconds in common.E2E:
        if seconds is not None:
            unit = common.RAW_UNITS[raw_name]
            print(f"metric raw.{raw_name} = {_fmt(outcome.e2e[raw_name])} {unit}")
    for name, (value, unit) in outcome.named.items():
        print(f"metric {name} = {_fmt(value)} {unit}")
    print(
        f"metric failed_frac = {checker.failed_frac!r} fraction "
        f"({checker.failed} failed / {checker.attempted} attempted)"
    )
    if outcome.layers is not None:
        for name, unit, target in layer_catalog():
            print(f"layer {name} = {_fmt(outcome.layers[name])} {unit} -> {target}")
    if args.trace:
        for name, (value, unit, target) in outcome.extras.items():
            print(f"layer {name} = {_fmt(value)} {unit} -> {target}")
    for problem in checker.problems:
        print(f"MISMATCH {problem}", file=sys.stderr)

    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failed_frac": checker.failed_frac,
        "problems": checker.problems,
        "e2e": {name: value for name, (value, _) in e2e.items()},
        "raw": outcome.e2e,
        "cal_s": outcome.cal_s,
        "named": {k: v for k, (v, _) in outcome.named.items()},
        "layers": outcome.layers,
        "extras": {k: v for k, (v, _, _) in outcome.extras.items()},
    }
    if args.trace:
        span_path = common.WORK / "spans" / f"{stem}.jsonl"
        spans.write(span_path)
        record["spans"] = str(span_path.relative_to(common.ROOT))
    result_path = common.WORK / "results" / f"{stem}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"result file: {result_path.relative_to(common.ROOT)}")

    if args.trace:
        metrics = {
            name: {"value": outcome.layers[name], "unit": unit}
            for name, unit, _ in layer_catalog()
        }
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(
        json.dumps(
            {
                "correct": checker.correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
