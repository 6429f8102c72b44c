"""One pass of one workload, in a fresh interpreter.

reslat keeps process-wide caches keyed on the lattice, so a second pass in
the same process would measure cache lookups only; run.py therefore starts
this script once per pass.  It imports reslat from the checkout's src/,
builds the inputs, runs ``reslat.cli.main`` in-process with stdout
captured, checks every output and prints one JSON line.  Meanwhile a
SpeedProbe thread measures how fast the pass's CPU runs, so that times can
also be given at a reference speed.

Modes: ``setup`` stops once the inputs are ready; ``pass`` runs the
workload; ``traced`` runs it with every public layer function wrapped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads

# exit code meaning "there is no reslat to benchmark"; run.py gives up
EXIT_NO_PROGRAM = 3

PROBE_PERIOD_S = 0.02
# the probe loop's time on an idle CPU of a 2-vCPU Xeon VM under Python 3.11
PROBE_REFERENCE_S = 1.2e-4


def _probe_loop() -> int:
    acc = 0
    for i in range(40):
        m = (i * 2654435761) & 0xFFFFFFFFFF
        while m:
            low = m & -m
            acc ^= low.bit_length()
            m ^= low
    return acc


class SpeedProbe:
    """Times a fixed loop every PROBE_PERIOD_S on each given CPU while a pass runs.

    On a shared machine one CPU may run the same code 1.7x slower for
    seconds at a time, whenever a neighbour keeps it busy.  A probe thread
    pinned to the pass's CPU shares that CPU, and the interpreter lock, with
    the pass, so its loop slows down together with the pass.  It calls
    nothing in reslat, so a change to reslat cannot move it.
    """

    def __init__(self, cpus: list[int]):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._halt = threading.Event()
        self._threads = [threading.Thread(target=self._run, args=(cpu,), daemon=True)
                         for cpu in cpus]

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # pid 0 is the calling thread
        clock = time.perf_counter
        while not self._halt.wait(PROBE_PERIOD_S):
            t0 = clock()
            _probe_loop()
            self.samples.append((t0, clock() - t0))

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        self._halt.set()
        for thread in self._threads:
            thread.join()

    def scale(self, t0: float, t1: float) -> tuple[float, int]:
        """(mean of PROBE_REFERENCE_S / duration, sample count) over [t0, t1].

        Multiplying a time measured over [t0, t1] by the scale gives the
        time it would have taken at the reference speed.
        """
        speeds = [PROBE_REFERENCE_S / d for start, d in self.samples if t0 <= start < t1]
        return (sum(speeds) / len(speeds), len(speeds)) if speeds else (1.0, 0)


def _import_reslat(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import reslat.cli
    except ImportError as exc:
        print(f"cannot import reslat from {src}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    if src not in Path(reslat.cli.__file__).resolve().parents:
        print(f"reslat was imported from {reslat.cli.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    return reslat.cli


def prepare(spec: dict) -> list[tuple[str, list[str], object]]:
    """The invocations of one pass as (name, reslat argv, expected answer)."""
    argv = workloads.WORKLOADS[spec["workload"]]["argv"]
    if spec["workload"] != "mp-large":
        return [(spec["workload"], list(argv), None)]
    docdir = Path(spec["workdir"])
    docdir.mkdir(parents=True, exist_ok=True)
    calls = []
    for name, doc, expected in workloads.mp_documents(Path(spec["root"]), spec["seed"]):
        path = docdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        calls.append((name, [str(path) if a == "FILE" else a for a in argv], expected))
    return calls


def run_cli(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, reported below
            code = None
            error = traceback.format_exc(limit=3)
    return {"seconds": time.perf_counter() - t0, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def _census_failures(res: dict) -> list[str]:
    if res["code"] != 0:
        return [f"order {n}: exit {res['code']}" for n in range(1, 8)]
    try:
        rows = {row["order"]: row for row in json.loads(res["stdout"])}
    except (ValueError, TypeError, KeyError):
        return [f"order {n}: unreadable output" for n in range(1, 8)]
    expected_rows = {
        n: {"lattices": workloads.LATTICES[n - 1], "residuated": workloads.RESIDUATED[n - 1],
            **{k: v[n - 1] for k, v in workloads.PINNED.items()}}
        for n in range(1, 8)
    }
    failures = []
    for n, want in expected_rows.items():
        got = rows.get(n, {})
        bad = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
        if bad:
            failures.append(f"order {n}: (got, expected) {bad}")
    return failures


def _mp_failures(name: str, res: dict, expected: bool) -> list[str]:
    want_code = 0 if expected else 3
    if res["code"] != want_code:
        return [f"{name}: exit {res['code']}, expected {want_code}"]
    try:
        out = json.loads(res["stdout"])
        verdicts = out["verdicts"]
    except (ValueError, TypeError, KeyError):
        return [f"{name}: unreadable output"]
    if out.get("mp") is not expected or out.get("agree") is not True:
        return [f"{name}: mp {out.get('mp')} agree {out.get('agree')}, expected mp {expected}"]
    if len(verdicts) != workloads.VERDICTS or set(verdicts.values()) != {expected}:
        return [f"{name}: verdicts {verdicts}"]
    if not expected and not out.get("witnesses"):
        return [f"{name}: no witnesses for a failing lattice"]
    return []


def _enum_failures(res: dict) -> list[str]:
    if res["code"] != 0:
        return [f"enum-7: exit {res['code']}"]
    lines = res["stdout"].count("\n")
    digest = hashlib.sha256(res["stdout"].encode("utf-8")).hexdigest()
    if lines != workloads.ENUM7_LINES or digest != workloads.ENUM7_SHA256:
        return [f"enum-7: {lines} lines, sha256 {digest}"]
    return []


def check(workload: str, name: str, res: dict, expected) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, messages) for one invocation."""
    if workload == "census-7":
        failures = _census_failures(res)
        attempted = 7
    elif workload == "mp-large":
        failures = _mp_failures(name, res, expected)
        attempted = 1
    else:
        failures = _enum_failures(res)
        attempted = 1
    detail = res["error"] or res["stderr"]
    messages = failures + [detail[-2000:]] if failures and detail else failures
    return attempted, len(failures), messages


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["cpu"] is None:
        cpus = sorted(os.sched_getaffinity(0))
    else:
        os.sched_setaffinity(0, {spec["cpu"]})
        cpus = [spec["cpu"]]
    probe = SpeedProbe(cpus)
    probe.start()
    started = time.perf_counter()
    root = Path(spec["root"])
    cli = _import_reslat(root)
    calls = prepare(spec)
    setup_s = time.monotonic() - spec["launched"]
    setup_end = time.perf_counter()
    if spec["mode"] == "setup":
        while not probe.samples:
            time.sleep(PROBE_PERIOD_S / 4)
        probe.stop()
        # set-up is too short for many samples: fall back to the first one after it
        scale, n = probe.scale(started, setup_end)
        if n == 0:
            scale = PROBE_REFERENCE_S / probe.samples[0][1]
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_s * scale}))
        return 0

    tracer = None
    if spec["mode"] == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    t0 = time.perf_counter()
    for name, argv, expected in calls:
        results.append((name, run_cli(cli.main, argv), expected))
    t1 = time.perf_counter()
    wall_s = t1 - t0
    probe.stop()
    scale, probes = probe.scale(t0, t1)

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    attempted = failed = 0
    messages = []
    for name, res, expected in results:
        n, bad, text = check(spec["workload"], name, res, expected)
        attempted += n
        failed += bad
        messages += text
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_ref_s": wall_s * scale,
        "probes": probes,
        "peak_rss_mb": rss_kb / 1024,
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
        "invocations": {name: res["seconds"] for name, res, _ in results},
    }
    if tracer is not None:
        report["trace"] = tracer.summary(wall_s)
        tracer.write(spec["spans_path"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
