"""reslat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload census-7|mp-large|enum-7 \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; reslat is imported from its src/.
Every pass runs in a fresh interpreter (worker.py), because reslat's
process-wide caches would make a second pass in one process nearly free.

A run first starts SETUP_PROBES interpreters that only set up, then
repeats full passes while the next one is expected to end within S
seconds (at least one pass).  With --trace 0 it reports the medians of
setup_s and wall_s, both at reference speed (see worker.py), and of
peak_rss_mb.
With --trace 1 it stops one pass earlier, adds one traced pass and
reports the per-layer figures of that pass.

Output: progress and a metric table on stdout, then, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.
A fuller report (provenance, every sample, the whole layer table) goes to
.perfbench/ in the checkout, with the traced pass's spans.  The exit code
is 0 whenever a result is printed; it is 1, with no result, when reslat
cannot be imported or a pass cannot be run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import SPAN_NAMES
from worker import EXIT_NO_PROGRAM

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 9
PASS_TIMEOUT_S = 170

# span names whose cache_info() the per-layer metrics report
CACHED = (
    "filters.filter_lattice",
    "spectra.prime_spectrum",
    "coann.skeleton",
    "purity.omega_lattice",
    "purity.pure_spectrum",
)


class NoResult(Exception):
    """The benchmark cannot produce a result (no program, or a broken pass)."""


def run_child(spec: dict, threads: str) -> dict:
    """Run one worker to completion and return its report."""
    env = dict(os.environ, RESLAT_THREADS=threads)
    spec = dict(spec, launched=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise NoResult(f"{spec['mode']} pass did not end within {PASS_TIMEOUT_S} s") from None
    finally:
        # enum-7's pool workers share the pass's session; none may outlive it
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    if proc.returncode == EXIT_NO_PROGRAM:
        raise NoResult(err.strip())
    if proc.returncode != 0 or not out.strip():
        raise NoResult(f"{spec['mode']} pass exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "src").rglob("*.json")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "workloads": {
            name: {"argv": ["reslat", *w["argv"]], "RESLAT_THREADS": w["threads"],
                   "traced RESLAT_THREADS": workloads.TRACE_THREADS}
            for name, w in workloads.WORKLOADS.items()
        },
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # a traced run's untraced passes, the overhead reference, use its worker count
    threads = workloads.TRACE_THREADS if trace else workloads.WORKLOADS[workload]["threads"]
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    # A single-threaded pass is pinned, so the speed probe shares its CPU.
    # enum-7's pool workers would inherit the pin, so its passes stay free
    # and are probed on every CPU.
    cpu = min(os.sched_getaffinity(0))
    base = {"root": str(ROOT), "workload": workload, "seed": seed, "cpu": cpu,
            "workdir": str(workdir), "spans_path": str(OUT / f"{tag}.spans")}
    timed = dict(base, mode="pass", cpu=cpu if threads == "1" else None)
    start = time.monotonic()
    try:
        setups = [run_child(dict(base, mode="setup"), threads) for _ in range(SETUP_PROBES)]
        passes, lengths = [], []
        while True:
            t = time.monotonic()
            passes.append(run_child(timed, threads))
            lengths.append(time.monotonic() - t)
            p = passes[-1]
            print(f"# pass {len(passes)}: wall {p['wall_s']:.3f} s, at reference speed "
                  f"{p['wall_ref_s']:.3f} s ({p['probes']} probes), "
                  f"failed {p['failed']}/{p['attempted']}", flush=True)
            # a traced run keeps room for its traced pass within the same time
            room = statistics.median(lengths) * (2 if trace else 1)
            if time.monotonic() - start + room > seconds:
                break
        traced = run_child(dict(timed, mode="traced"), threads) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    done = passes + ([traced] if traced else [])
    return {
        "workload": workload,
        "setups": setups,
        "passes": passes,
        "traced": traced,
        "attempted": sum(p["attempted"] for p in done),
        "failed": sum(p["failed"] for p in done),
        "failures": [f for p in done for f in p["failures"]],
    }


def end_to_end(m: dict) -> dict:
    return {
        "setup_s": (statistics.median(s["setup_ref_s"] for s in m["setups"]), "s"),
        "wall_s": (statistics.median(p["wall_ref_s"] for p in m["passes"]), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in m["passes"]), "MB"),
    }


def per_layer(m: dict) -> dict:
    t = m["traced"]["trace"]
    out = {}
    for span in SPAN_NAMES:
        row = t["layers"][span]
        out[f"{span}.calls"] = (row["calls"], "count")
        out[f"{span}.total_s"] = (row["total_s"], "s")
        out[f"{span}.self_s"] = (row["self_s"], "s")
    for span in CACHED:
        out[f"{span}.cache_hits"] = (t["layers"][span]["cache_hits"], "count")
        out[f"{span}.cache_misses"] = (t["layers"][span]["cache_misses"], "count")
    out["enumerator.products_max_share"] = (t["products_max_share"], "ratio")
    docs = m["traced"]["invocations"] if m["workload"] == "mp-large" else {}
    for name in workloads.MP_NAMES:
        out[f"cli.mp.{name}.s"] = (docs.get(name, 0.0), "s")
    out["trace.coverage"] = (t["coverage"], "ratio")
    untraced = statistics.median(p["wall_ref_s"] for p in m["passes"])
    out["trace.overhead_ratio"] = (m["traced"]["wall_ref_s"] / untraced, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "reslat").is_dir():
        print(f"error: no reslat sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(m) if args.trace else end_to_end(m)
    prov = provenance(args.seed)
    print("# provenance " + json.dumps(prov))

    for text in m["failures"]:
        print(f"# FAILED {text}")
    walls = [p["wall_s"] for p in m["passes"]]
    print(f"# {args.workload}: {len(walls)} passes, {len(m['setups'])} set-ups, "
          f"failed_ratio {m['failed']}/{m['attempted']} operations")
    print(f"# measured pass wall times (s): {', '.join(f'{w:.4f}' for w in walls)}; "
          f"median {statistics.median(walls):.4f}; measured set-up median "
          f"{statistics.median(s['setup_s'] for s in m['setups']):.4f} s")
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"# {name:<44} {shown:>14} {unit}")
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = dict(m, provenance=prov, args=vars(args), metrics=values)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({"correct": m["failed"] == 0, "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
