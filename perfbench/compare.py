"""Compare two perfbench result files, metric by metric.

Usage::

    python3 perfbench/compare.py OLD.json NEW.json

Prints NEW/OLD for every end-to-end and workload metric both files
hold, next to the ratio of their calibration loops (host speed). Exits
2 without comparing when the two runs measured different programs:
another workload, backend or codec, or one run with the C kernel and
the other on the fast backend's pure-Python fallback.
"""

from __future__ import annotations

import json
import sys

#: Program fingerprint fields that must match for numbers to compare.
MUST_MATCH = ("ckernel_loaded", "backend", "codec")


def refusal(old: dict, new: dict) -> str | None:
    """Why *old* and *new* must not be compared, or None."""
    if old["workload"] != new["workload"]:
        return f"different workloads: {old['workload']} vs {new['workload']}"
    for field in MUST_MATCH:
        a = old["fingerprint"]["program"][field]
        b = new["fingerprint"]["program"][field]
        if a != b:
            return f"program {field} differs ({a} vs {b}): the runs measure different programs"
    return None


def main(argv: list[str] | None = None) -> int:
    """Print the comparison; returns the exit code."""
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(open(path, encoding="utf-8").read()) for path in args)
    reason = refusal(old, new)
    if reason:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    host_ratio = (
        new["fingerprint"]["host"]["calibration_s"] / old["fingerprint"]["host"]["calibration_s"]
    )
    print(f"workload {new['workload']}: calibration loop new/old = {host_ratio:.3f}")
    for section in ("e2e", "named", "layers", "extras"):
        a, b = old.get(section) or {}, new.get(section) or {}
        for name in sorted(set(a) & set(b)):
            ratio = b[name] / a[name] if a[name] else float("nan")
            print(f"{section:6s} {name:40s} {a[name]:>14.6g} {b[name]:>14.6g}  x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
