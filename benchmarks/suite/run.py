#!/usr/bin/env python3
"""The repository benchmark: six synthesis workloads, end-to-end metrics
and a traced per-layer ledger.  See README.md in this directory.

One workload, one pass kind (the form ``BENCHMARK.json``'s command takes;
the last stdout line is the JSON result)::

    python3 benchmarks/suite/run.py --workload queko_depth --seed 1 \\
        --seconds 15 --trace 0

The whole suite, every workload untraced and traced, with a JSON report
and the spans of the traced passes in ``<out>.trace.jsonl``::

    python3 benchmarks/suite/run.py --seed 1 --out results/a1.json

Before measuring, the command rebuilds the compiled solver kernel from
the checked-out ``kernel.c`` and refuses to run unless the solver then
resolves to the native backend, so a stale extension cannot be measured
by mistake.  Each measurement runs in a fresh subprocess; the set-up time
of several fresh subprocesses gives ``setup_s``.  ``--seconds`` sets the
amount of work (passes over the pool), so both sides of a comparison do
the same work.  A single run reports wrong outputs in its JSON line
(``correct``); the suite's exit status is non-zero when any was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ledger import Ledger, layer_breakdown, layer_metrics, percentile
from workloads import WORKLOADS, Runner, present

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
KERNEL_C = SRC / "repro" / "sat" / "kernel" / "kernel.c"
SCRATCH = ROOT / ".bench_build"

#: Fresh subprocesses timed for set-up besides the measuring one.
SETUP_PROBES = 4
#: On the in-process workloads the layers must explain all but this share
#: of the traced items' wall time, or the run fails.
MAX_UNATTRIBUTED = 0.05
#: Jobs per pass in --smoke mode.
SMOKE_JOBS = 3
#: Nominal seconds of one pass over a pool on the reference machine; a run
#: makes --seconds / PASS_SECONDS passes (traced runs: half as many pairs).
PASS_SECONDS = 3.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to measuring wrong outputs)."""


def declaration() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def child_env() -> Dict[str, str]:
    """Environment of every subprocess: the source tree on the path, a
    fixed hash seed, and temporary files kept inside the checkout."""
    tmp = SCRATCH / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    return env


def build_kernel() -> str:
    """Compile ``_native`` from the checked-out kernel.c; return its sha256."""
    if not KERNEL_C.is_file():
        raise BenchError(f"no source tree: {KERNEL_C} is missing")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.sat.kernel.build import build; build()"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise BenchError(f"kernel build failed:\n{proc.stderr[-2000:]}")
    return hashlib.sha256(KERNEL_C.read_bytes()).hexdigest()


# -- orchestration --------------------------------------------------------------


def _spawn(role: str, args: argparse.Namespace, trace: int):
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    return proc, started


def _stop(proc) -> None:
    """Ask a child to exit, so it stops its own worker processes, then force
    it.  Waits on the process, not on its stdout: workers it could not stop
    may still hold the pipe open."""
    proc.terminate()
    try:
        proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _collect(proc, started: float, timeout: float) -> Dict[str, Any]:
    """Wait for a child; return its set-up time and final JSON line."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:
        _stop(proc)
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"child timed out after {timeout:.0f}s") from None
        raise
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise BenchError(f"child failed (exit {proc.returncode})")
    report = json.loads(lines[-1]) if len(lines) > 1 else {}
    report["setup_s"] = float(lines[0].split()[1]) - started
    return report


def run_workload(args: argparse.Namespace, trace: int,
                 decl: Dict[str, Any]) -> Dict[str, Any]:
    """One workload, one pass kind: set-up probes, then the measuring child."""
    setups: List[float] = []
    if trace == 0:
        for _ in range(1 if args.smoke else SETUP_PROBES):
            proc, started = _spawn("setup", args, trace)
            setups.append(_collect(proc, started, 120)["setup_s"])
    proc, started = _spawn("measure", args, trace)
    child = _collect(proc, started, args.seconds + 150)
    setups.append(child.pop("setup_s"))
    metrics = child.pop("metrics")
    section = "per_layer" if trace else "end_to_end"
    if trace == 0:
        metrics["setup_s"] = statistics.median(setups)
    declared = {m["name"]: m["unit"] for m in decl[section]}
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise BenchError(f"{args.workload}: metrics not measured: {missing}")
    line = {
        "correct": child.pop("correct"),
        "attempted": child.pop("attempted"),
        "failed": child.pop("failed"),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }
    child["setup_samples_s"] = setups
    return {"line": line, "details": child}


def header(args: argparse.Namespace, kernel_sha: str) -> Dict[str, Any]:
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "kernel_c_sha256": kernel_sha,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def measure_all(args: argparse.Namespace, decl: Dict[str, Any]) -> int:
    """Run the selected workloads and pass kinds; report, and with --out
    write the JSON report and the traced spans (``<out>.trace.jsonl``).

    A single workload and pass prints its JSON line last and exits 0 (the
    line's ``correct`` carries the verdict); the suite prints a table and
    exits 1 when any output was wrong.
    """
    kernel_sha = build_kernel()
    single = args.workload is not None
    names = [args.workload] if single else [w["name"] for w in decl["workloads"]]
    kinds = [args.trace] if single else [0, 1]
    result: Dict[str, Any] = {"header": header(args, kernel_sha), "workloads": {}}
    traces: List[str] = []
    for name in names:
        args.workload = name
        for trace in kinds:
            kind = "traced" if trace else "untraced"
            report = run_workload(args, trace, decl)
            traces.extend(
                json.dumps({"workload": name, **row})
                for row in report["details"].pop("spans", [])
            )
            result["workloads"].setdefault(name, {})[kind] = report
            if single:
                continue
            line = report["line"]
            print(f"{name} [{kind}] correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']}")
            for metric, value in line["metrics"].items():
                print(f"  {metric:36s} {value['value']:14.6g} {value['unit']}")
            for error in report["details"].get("errors", []):
                print(f"  ERROR {error}")
            if trace:
                print("  layer shares: " + ", ".join(
                    f"{layer} {share:.1%}"
                    for layer, share in report["details"]["layer_breakdown"].items()
                ))
            sys.stdout.flush()
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1))
        if traces:
            out.with_name(out.name + ".trace.jsonl").write_text("\n".join(traces) + "\n")
    lines = [r["line"] for w in result["workloads"].values() for r in w.values()]
    if single:
        print(json.dumps(lines[0]))
        return 0
    return 0 if all(line["correct"] for line in lines) else 1


# -- child: set-up and measurement ----------------------------------------------


def _pass_time(out: Dict[str, Any]) -> float:
    if "wall" in out:
        return out["wall"]
    return sum(r["wall"] for r in out["records"])


def _pass_cpu(out: Dict[str, Any]) -> float:
    if "cpu" in out:
        return out["cpu"]
    return sum(r["cpu"] for r in out["records"])


def _per_instance(records: List[Dict[str, Any]], field: str) -> List[float]:
    """Each pool instance's median ``field`` over its relabelings in the run."""
    samples: Dict[str, List[float]] = {}
    for r in records:
        if r[field] is not None:
            samples.setdefault(r["key"], []).append(r[field])
    return [statistics.median(values) for values in samples.values()]


def end_to_end(passes: List[Dict[str, Any]], service: bool) -> Dict[str, float]:
    """End-to-end metrics of the untraced passes.

    Instance workloads see every pool instance under several relabelings;
    each instance is summarized by its median, which damps the search-order
    luck a relabeling brings, and the metrics are taken over those medians
    (throughput is instances per second at median cost).  The service
    workload's requests overlap in time, so its throughput, CPU and memory
    are medians over passes and its latencies pool all requests.
    """
    records = [r for p in passes for r in p["records"]]
    common = {
        # Each pass's peak, median over passes: how much the allocator
        # already holds, and so a single pass's peak, depends on job order.
        "peak_rss_mb": statistics.median(
            p["rss"] if service else max(r["rss"] for r in p["records"])
            for p in passes
        ),
        "proven_frac": sum(r["optimal"] for r in records) / len(records),
        "depth_mean": statistics.mean(_per_instance(records, "depth")),
    }
    if service:
        walls = [r["wall"] for r in records]
        return {
            "throughput_per_s": statistics.median(
                len(p["records"]) / _pass_time(p) for p in passes
            ),
            "latency_p50_s": percentile(walls, 0.5),
            "latency_p90_s": percentile(walls, 0.9),
            "cpu_per_item_s": statistics.median(
                _pass_cpu(p) / len(p["records"]) for p in passes
            ),
            **common,
        }
    walls = _per_instance(records, "wall")
    return {
        "throughput_per_s": len(walls) / sum(walls),
        "latency_p50_s": percentile(walls, 0.5),
        "latency_p90_s": percentile(walls, 0.9),
        "cpu_per_item_s": statistics.mean(_per_instance(records, "cpu")),
        **common,
    }


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    from repro.sat.kernel import native_error, resolve_backend

    backend = resolve_backend("auto")
    if backend != "native":
        print(f"refusing to run: solver backend is {backend!r}, not 'native' "
              f"({native_error() or 'REPRO_KERNEL override'})", file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload]
    expected = json.loads((SUITE / "expected.json").read_text())
    runner = Runner(workload, expected)
    warm = runner.warmup()
    errors = [r["error"] for r in warm["records"] if r["error"]]
    if errors:
        print(f"warm-up failed: {errors[0]}", file=sys.stderr)
        return 4
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.role == "setup":
        return 0

    limit = SMOKE_JOBS if args.smoke else None
    # --seconds sets the amount of work, not a deadline: both sides of a
    # comparison then measure the same passes over the same relabelings.
    rounds = 1 if args.smoke else max(1, round(args.seconds / PASS_SECONDS))
    start = time.monotonic()
    passes: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    overheads: List[float] = []
    for pass_index in range(rounds if not args.trace else max(1, rounds // 2)):
        jobs = present(workload, args.seed, pass_index, limit)
        if not args.trace:
            passes.append(dict(runner.run_pass(jobs, None), traced=False))
            continue
        # Each traced pass is paired with an untraced pass over the same
        # jobs (alternating which goes first); their time ratio is the
        # tracing overhead.
        pair = {}
        for traced in ((False, True) if pass_index % 2 == 0 else (True, False)):
            if traced:
                with Ledger() as ledger:
                    out = runner.run_pass(jobs, ledger)
                rows = ledger.span_rows()
                for row in rows:
                    row["pass"] = pass_index
                spans.extend(rows)
                events.extend(ledger.event_rows())
            else:
                out = runner.run_pass(jobs, None)
            pair[traced] = dict(out, traced=traced)
            passes.append(pair[traced])
        overheads.append(_pass_time(pair[True]) / _pass_time(pair[False]) - 1)

    records = [r for p in passes for r in p["records"]]
    failures = [r for r in records if r["error"]]
    details: Dict[str, Any] = {
        "backend": backend,
        "measure_s": time.monotonic() - start,
        "passes": [
            {"traced": p["traced"], "items": len(p["records"]),
             "time_s": _pass_time(p), "cpu_s": _pass_cpu(p)}
            for p in passes
        ],
        "depth_total": sum(r["depth"] or 0 for r in records),
        "swap_total": sum(r["swaps"] or 0 for r in records),
        "errors": sorted({f"{r['key']}: {r['error']}" for r in failures})[:10],
    }
    correct = not failures
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        trace_records = [r for p in traced_passes for r in p["records"]]
        services = [p["service"] for p in traced_passes if "service" in p]
        metrics = layer_metrics(spans, events, trace_records, services, overheads)
        details["layer_breakdown"] = layer_breakdown(spans)
        details["spans"] = spans
        unattributed = metrics["layers.unattributed_frac"]
        if workload.kind == "inprocess" and unattributed > MAX_UNATTRIBUTED:
            correct = False
            details["errors"].append(
                f"layers.unattributed_frac {unattributed:.3f} > {MAX_UNATTRIBUTED}"
            )
    else:
        metrics = end_to_end(passes, workload.kind == "service")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
        **details,
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: the suite)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float,
                        help="work per run, in nominal seconds: one pass over the "
                        f"pool per {PASS_SECONDS:g} s (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass, report per-layer metrics")
    parser.add_argument("--out", help="write a JSON report (and the traced "
                        "passes' spans to <out>.trace.jsonl)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"one pass over {SMOKE_JOBS} jobs per workload")
    parser.add_argument("--role", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exit, so every started process is stopped and
    # reaped: children by _collect, and the service and ParallelDescent
    # workers (daemonic) by multiprocessing's exit hook in the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.role:
        return child_main(args)
    try:
        decl = declaration()
        if args.seconds is None:
            args.seconds = decl["run_seconds"]
        known = [w["name"] for w in decl["workloads"]]
        if args.workload is not None and args.workload not in known:
            raise BenchError(f"unknown workload {args.workload!r}; one of {known}")
        return measure_all(args, decl)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
