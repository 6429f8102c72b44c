"""Print every metric, by name and with its unit, for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs run.py once untraced (end-to-end metrics) and once traced
(per-layer metrics) per workload; S defaults to run_seconds in
BENCHMARK.json.  Exits 1 if a run gives no result or a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = spec["run_seconds"]
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: no result\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            status |= not result["correct"]
            print(f"{workload}  trace={trace}  correct={result['correct']}  "
                  f"failed_ratio={result['failed']}/{result['attempted']} operations")
            for name, m in result["metrics"].items():
                value = "null" if m["value"] is None else f"{m['value']:.6g}"
                print(f"  {name:<44} {value:>14} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
