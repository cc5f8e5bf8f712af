#!/usr/bin/env python3
"""Check that the committed telemetry baselines hold exactly the metrics of
an older revision's baselines, minus the wall-clock `sim.dispatch_us`
histogram that the simulator no longer records.

Older baselines wrap the report in a tolerance policy
(`{"default_rel_tol": ..., "report": {...}}`); current ones are a bare
report. Counters, gauges and histograms must be equal value for value.

Usage: scripts/check_baseline_repin.py REV
  e.g. scripts/check_baseline_repin.py HEAD~1
"""

import json
import subprocess
import sys

BASELINES = ["BASELINE_telemetry.json", "BASELINE_chaos_telemetry.json"]
DROPPED = {"sim.dispatch_us"}


def metrics(report):
    return {
        kind: {name: value for name, value in report[kind] if name not in DROPPED}
        for kind in ("counters", "gauges", "histograms")
    }


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    rev = sys.argv[1]
    ok = True
    for path in BASELINES:
        old = json.loads(subprocess.check_output(["git", "show", f"{rev}:{path}"]))
        old = old.get("report", old)
        with open(path) as f:
            new = json.load(f)
        extra = sorted(set(new) - {"counters", "gauges", "histograms", "spans"})
        if extra or new["spans"]:
            print(f"{path}: not a bare span-free report (extra keys {extra})")
            ok = False
        before, after = metrics(old), metrics(new)
        for kind in before:
            same = before[kind] == after[kind]
            ok &= same
            print(
                f"{path}: {kind}: {len(before[kind])} at {rev}, "
                f"{len(after[kind])} now, {'identical' if same else 'DIFFERENT'}"
            )
        dropped = sorted(n for n, _ in old["histograms"] if n in DROPPED)
        print(f"{path}: dropped {dropped or 'nothing'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
