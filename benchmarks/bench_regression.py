"""Fixed-workload perf regression harness (PR 2-10 acceptance numbers).

Runs a small, deterministic workload suite against the in-tree solver and
writes the measurements to a JSON file (``BENCH_PR10.json`` at the repo root
by default):

* **encode** — the PR 10 acceptance workload: the queko encode clause set
  loaded per-clause vs through :meth:`Solver.add_clauses_bulk` under both
  kernels, with the bulk/per-clause ratio gated at >= 3x on the resolved
  default kernel (``gate_passed``) and final-state identity asserted;

* **prop_network** — a pure unit-propagation workload (long binary
  implication chains plus wide size-4 clauses, solved repeatedly with no
  conflicts), isolating watcher/arena throughput from search heuristics;
* **sat_engine** — the :mod:`bench_sat_engine` workloads (pigeonhole UNSAT
  + random 3-SAT), measuring end-to-end CDCL wall time and props/sec;
* **queko_synthesis** — ``optimize_depth`` on QUEKO circuits built for a
  2x3 grid but synthesized on a 6-qubit line, so SWAPs push the optimum
  past the dependency bound and the relax phase must grow the horizon —
  exercising :meth:`LayoutEncoder.extend_horizon` learnt-clause reuse;
* **parallel_portfolio** — the PR 3 acceptance workload: the same QUEKO
  SWAP-minimisation instance solved sequentially, by the *independent*
  :class:`PortfolioSynthesizer`, and by the *cooperating*
  :class:`ParallelDescent` (bound splitting + clause sharing) at 1/2/4
  workers, recording wall time, conflicts, clauses shared/imported/pruned
  and encoded-template hits per worker count, plus a
  ``scaling_efficiency`` summary that flags any cooperating-N run slower
  than sequential (the BENCH_PR8 negative-scaling regression was silent);
* **proof_checker** — the PR 4 acceptance workload: an ascending ladder
  of UNSAT refutations (pigeonhole + over-constrained random 3-SAT),
  certified by the old naive fixpoint RUP checker
  (:func:`check_unsat_proof_slow`) and the new watched-literal one
  (:func:`check_unsat_proof`) under one fixed wall-clock budget per
  refutation; the acceptance bar is that the new checker certifies a
  refutation at least 10x larger (in proof steps) than the largest the
  old checker manages within the same budget;
* **service** — the PR 6 acceptance workload: a batch of relabeled-
  isomorphic circuit families driven through the async
  :class:`repro.service.SynthesisService` cold, cache-warm, and
  pool-warm, recording cache-hit rate, solver dispatches, and p50/p95
  response latency per phase;
* **large_device** — the PR 8 acceptance workload: QUEKO circuits from a
  2x3 grid synthesized on 27/54/127-qubit devices with subarchitecture
  extraction + SABRE warm start on vs off, recording wall clocks, the
  on/off speedup (must be >= 3x), and the initial descent interval width;
* **kernel** — the PR 7 acceptance workload: the ``sat_engine`` suite
  run once under ``kernel="python"`` and once under ``kernel="native"``
  (same formulas, same seeds), reporting props/sec side by side plus the
  native/python ratio — the direct measurement of the compiled
  propagation kernel.  Skipped gracefully when the extension is not
  built (``python -m repro.sat.kernel.build``).

Usage::

    PYTHONPATH=src python benchmarks/bench_regression.py [--out FILE] [--tiny]

``--tiny`` shrinks every workload for CI smoke runs (seconds, not minutes).
The JSON is self-describing; ``baseline`` captures the pre-PR2 numbers,
``baseline_pr4`` the PR 4 numbers, and ``baseline_pr5`` the PR 5 numbers
(the last all-Python solver), all measured on the same machine, so the
file is a complete before/after document on its own.

A note on metrics: this box is a single-core VM whose wall clock (and
therefore props/sec) swings tens of percent between runs of byte-identical
work, while conflict counts are fully deterministic.  Every section is
therefore reported as the best of three identical passes, with the
per-pass wall clocks retained under ``runs_wall_sec`` (single-core noise
is one-sided — a pass can only be slowed down, never sped up — so the
minimum is the stable estimator, the same reasoning ``timeit`` uses).
Judge search-quality changes by ``conflicts``; treat ``props_per_sec``
deltas under ~1.3x as within machine noise unless measured back to back.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

from repro.arch import grid, ibm_eagle, ibm_falcon, linear, sycamore_region
from repro.core import OLSQ2, SynthesisConfig
from repro.core.encoder import LayoutEncoder
from repro.core.optimizer import IterativeSynthesizer
from repro.sat import SatResult, Solver, mk_lit
from repro.telemetry import MemorySink, Tracer
from repro.workloads.queko import queko_circuit

#: Numbers measured at the pre-PR commit (rebuild loop, object-based clause
#: storage) with this same script, recorded so the JSON is a complete
#: before/after document on its own.
BASELINE = {
    "prop_network": {"props_per_sec": 1198323, "wall_sec": 0.1001},
    "sat_engine": {
        "wall_sec": 3.193,
        "props_per_sec": 96001,
        "conflicts": 11794,
    },
    "queko_synthesis": {
        "conflicts": 11041,
        "propagations": 967207,
        "wall_sec": 3.7754,
        "depths": [5, 7, 5, 6, 5, 4],
    },
}

#: Numbers re-measured at the PR 4 commit on this machine, immediately
#: before the PR 5 (inprocessing) work.  BENCH_PR4.json recorded 89,550
#: props/sec for sat_engine in an earlier run of the same code; the spread
#: against the 86,556 here is pure wall-clock noise (conflict counts are
#: identical), which is why the PR 5 acceptance ratios below are computed
#: against a same-session re-measurement rather than the archived file.
BASELINE_PR4 = {
    "sat_engine": {"props_per_sec": 86556, "conflicts": 15364},
    "queko_synthesis": {"conflicts": 7270, "propagations": 528796},
}

#: Numbers from BENCH_PR5.json — the last commit where the solver hot path
#: was pure Python over plain lists.  The PR 7 acceptance ratios (compiled
#: kernel vs interpreter) are computed against these.
BASELINE_PR5 = {
    "prop_network": {"props_per_sec": 2877956},
    "sat_engine": {"props_per_sec": 107932, "conflicts": 13636},
    "queko_synthesis": {"conflicts": 6204, "props_per_sec": 145537},
}

#: Same-session like-for-like control for the ``kernel="python"`` fallback,
#: following the BASELINE_PR4 precedent above: the archived 107,932 was
#: recorded on a faster day of this VM (the PR 5 commit itself, checked out
#: and re-run at the PR 7 commit, measured 99,427-113,734 across the same
#: session).  Interleaved pairs — PR 5 code and ``kernel="python"``
#: alternating in one session, identical 13,636 conflicts — are the
#: apples-to-apples measurement of what PR 7 did to the interpreter path.
#: PR 10 acceptance bar: bulk clause loading must be at least this much
#: faster than the per-clause path on the queko encode clause set
#: (bench_encode), measured on the resolved default kernel.
ENCODE_GATE_RATIO = 3.0

PR5_LIKE_FOR_LIKE = {
    "pr5_commit_props_per_sec": [99427, 103841, 113734],
    "pr7_python_props_per_sec": [95141, 114648, 100485],
    # best vs best across the interleaved session: 114648 / 113734
    "ratio": 1.01,
}


def _cpu_model() -> str:
    """The CPU model string, best effort (``/proc/cpuinfo`` on Linux)."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _best_of(measure, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wrapper: keep the fastest pass, retain all walls.

    ``measure`` must return a fresh report dict with a ``wall_sec`` key.
    The winning report gains ``runs_wall_sec`` listing every pass's wall
    clock in run order, so the JSON documents the noise spread alongside
    the headline number.
    """
    runs: list = []
    best: dict = {}
    for _ in range(max(1, repeats)):
        report = measure()
        runs.append(report["wall_sec"])
        if not best or report["wall_sec"] < best["wall_sec"]:
            best = report
    best["runs_wall_sec"] = runs
    return best


def bench_prop_network(n_vars: int, rounds: int) -> dict:
    """Unit-propagation throughput, isolated from search.

    A long binary implication chain plus wide size-4 clauses; each round
    asserts the chain head on a fresh decision level and times exactly one
    ``_propagate`` call that derives every variable.  Warm-up rounds are
    excluded so watcher lists reach their steady state first — this
    measures the propagation loop itself, not heap/model/restart overhead.
    """
    import repro.sat.solver as satmod

    no_clause = getattr(satmod, "NO_CLAUSE", None)  # absent pre-arena
    solver = Solver()
    solver.new_vars(n_vars)
    for v in range(n_vars - 1):
        solver.add_clause([mk_lit(v, True), mk_lit(v + 1)])
    rng = random.Random(42)
    for _ in range(n_vars):
        vs = rng.sample(range(1, n_vars), 4)
        solver.add_clause([mk_lit(vs[0], True)] + [mk_lit(v) for v in vs[1:]])
    warmup = max(3, rounds // 10)
    props = 0
    wall = 0.0
    for rnd in range(rounds + warmup):
        solver._new_decision_level()
        solver._unchecked_enqueue(mk_lit(0), no_clause)
        before = solver.stats.propagations
        start = time.perf_counter()
        confl = solver._propagate()
        elapsed = time.perf_counter() - start
        solver._cancel_until(0)
        assert confl in (None, -1), "propagation workload must be conflict-free"
        if rnd >= warmup:
            props += solver.stats.propagations - before
            wall += elapsed
    return {
        "propagations": props,
        "wall_sec": round(wall, 4),
        "props_per_sec": int(props / wall),
    }


#: SolverStats counters maintained by repro.sat.inprocess, surfaced so the
#: bench JSON shows how much simplification each workload actually saw.
_INPROCESS_KEYS = (
    "inprocessings",
    "vivified_clauses",
    "vivified_literals",
    "failed_literals",
    "hyper_binaries",
    "equivalent_literals",
    "subsumed_clauses",
    "strengthened_clauses",
)


def _pigeonhole(
    n_pigeons: int, n_holes: int, kernel: str = "auto", sanitize=None
) -> Solver:
    solver = Solver(kernel=kernel, sanitize=sanitize)
    x = [[solver.new_var() for _ in range(n_holes)] for _ in range(n_pigeons)]
    for p in range(n_pigeons):
        solver.add_clause([mk_lit(x[p][h]) for h in range(n_holes)])
    for h in range(n_holes):
        for p1 in range(n_pigeons):
            for p2 in range(p1 + 1, n_pigeons):
                solver.add_clause([mk_lit(x[p1][h], True), mk_lit(x[p2][h], True)])
    return solver


def _random_3sat(
    n_vars: int, ratio: float, seed: int, kernel: str = "auto", sanitize=None
) -> Solver:
    rng = random.Random(seed)
    solver = Solver(kernel=kernel, sanitize=sanitize)
    solver.new_vars(n_vars)
    for _ in range(int(ratio * n_vars)):
        vs = rng.sample(range(n_vars), 3)
        solver.add_clause([mk_lit(v, rng.random() < 0.5) for v in vs])
    return solver


def bench_sat_engine(tiny: bool, kernel: str = "auto", sanitize=None) -> dict:
    """One pass over the bench_sat_engine.py workloads, timed end to end.

    Formula construction stays outside the timed region.  The search
    itself is deterministic: propagation and conflict counts are
    identical on every pass (and across backends — the compiled kernel
    is byte-for-byte equivalent to the interpreter loops).  Wrap with
    :func:`_best_of` for the noise-stable wall clock.
    """
    if tiny:
        specs = [
            (
                "pigeonhole-6-5",
                lambda: _pigeonhole(6, 5, kernel, sanitize),
                SatResult.UNSAT,
            )
        ]
        seeds = (7,)
    else:
        specs = [
            (
                "pigeonhole-8-7",
                lambda: _pigeonhole(8, 7, kernel, sanitize),
                SatResult.UNSAT,
            )
        ]
        seeds = (7, 11, 13)
    for seed in seeds:
        specs.append(
            (
                f"3sat-150-{seed}",
                lambda s=seed: _random_3sat(150, 4.2, s, kernel, sanitize),
                None,
            )
        )
    jobs = [(name, build(), expect) for name, build, expect in specs]
    start = time.perf_counter()
    props = conflicts = 0
    inprocess = {key: 0 for key in _INPROCESS_KEYS}
    backend = None
    for name, solver, expect in jobs:
        verdict = solver.solve(conflict_budget=20000)
        if expect is not None:
            assert verdict is expect, f"{name}: {verdict}"
        backend = solver.kernel
        props += solver.stats.propagations
        conflicts += solver.stats.conflicts
        for key in _INPROCESS_KEYS:
            inprocess[key] += getattr(solver.stats, key)
    wall = time.perf_counter() - start
    return {
        "workloads": [name for name, _, _ in specs],
        "kernel": backend,
        "propagations": props,
        "conflicts": conflicts,
        "wall_sec": round(wall, 4),
        "props_per_sec": int(props / wall),
        "inprocess": inprocess,
    }


def bench_sanitize_cost(tiny: bool) -> dict:
    """The sanitizer's zero-cost-when-off claim, measured.

    Runs the sat_engine workload three ways: the default solver (what
    every earlier baseline measured), an explicit ``sanitize="off"``
    solver, and ``sanitize="light"`` for scale.  Off must search
    identically (same propagation/conflict counts — the hot loops are
    untouched) and land within noise of the default; light's overhead is
    reported but not gated (it is a debug mode).
    """
    default = _best_of(lambda: bench_sat_engine(tiny))
    off = _best_of(lambda: bench_sat_engine(tiny, sanitize="off"))
    light = bench_sat_engine(tiny, sanitize="light")
    return {
        "default_props_per_sec": default["props_per_sec"],
        "off_props_per_sec": off["props_per_sec"],
        "off_vs_default": round(
            off["props_per_sec"] / default["props_per_sec"], 3
        ),
        "light_props_per_sec": light["props_per_sec"],
        "identical_search": (
            off["propagations"] == default["propagations"]
            and off["conflicts"] == default["conflicts"]
            and light["propagations"] == default["propagations"]
        ),
    }


def bench_large_device(tiny: bool) -> dict:
    """Subarchitecture extraction + warm start on 54+ qubit devices (PR 8).

    QUEKO circuits (6 qubits, hidden optimum) are synthesized on real
    large-device topologies.  The source coupling is chosen to embed in
    the target: grid-2x3 for sycamore (square lattice), line-6 for the
    heavy-hex IBM devices (girth 12 — any 6-qubit region is a tree, so
    only tree-embeddable interactions can reach the hidden swap-free
    optimum there).  Each instance runs twice:

    * **subarch on** — ``subarch="auto"`` + ``warm_start="sabre"``: the
      driver extracts a circuit-width region, SABRE bounds the optimum
      from above, and the descent interval opens at
      ``[T_LB, warm_depth)`` instead of unbounded;
    * **subarch off** — the plain full-device encoding (every physical
      qubit a solver variable), the pre-PR-8 behaviour.

    Both runs must reach the proven optimum; the report records the wall
    clocks, the speedup, and the initial interval width (``inf`` for the
    off run, which starts with no upper bound).  On devices past ~100
    qubits the off run is skipped (the full encoding is exactly the cost
    this PR removes) and only the subarch wall clock is reported.
    """
    targets = (
        [(sycamore_region(54), grid(2, 3))]
        if tiny
        else [
            (ibm_falcon(), linear(6)),
            (sycamore_region(54), grid(2, 3)),
            (ibm_eagle(), linear(6)),
        ]
    )
    seeds = (1,) if tiny else (1, 2, 3)
    rows = []
    for device, source in targets:
        run_off = device.n_qubits <= 60
        for seed in seeds:
            inst = queko_circuit(source, depth=4, n_gates=10, seed=seed)
            on_cfg = SynthesisConfig(
                swap_duration=1,
                time_budget=300,
                solve_time_budget=150,
                subarch="auto",
                warm_start="sabre",
            )
            start = time.perf_counter()
            r_on = OLSQ2(on_cfg).synthesize(inst.circuit, device)
            wall_on = time.perf_counter() - start
            assert r_on.optimal, (device.name, seed)
            assert r_on.depth == inst.optimal_depth, (device.name, seed)
            interval = r_on.solver_stats.get("interval", {})
            row = {
                "device": device.name,
                "n_qubits": device.n_qubits,
                "seed": seed,
                "source": source.name,
                "depth": r_on.depth,
                "proven_optimal": r_on.optimal,
                "wall_on_sec": round(wall_on, 4),
                "interval_width_on": (
                    interval["warm_depth_ub"] - interval["depth_lb"]
                    if "warm_depth_ub" in interval
                    else None
                ),
                "interval_width_off": "inf",  # no upper bound pre-warm-start
                "region": r_on.solver_stats.get("subarch", {}).get("region"),
            }
            if run_off:
                off_cfg = SynthesisConfig(
                    swap_duration=1, time_budget=600, solve_time_budget=300
                )
                start = time.perf_counter()
                r_off = OLSQ2(off_cfg).synthesize(inst.circuit, device)
                wall_off = time.perf_counter() - start
                assert r_off.optimal and r_off.depth == inst.optimal_depth
                row["wall_off_sec"] = round(wall_off, 4)
                row["speedup"] = round(wall_off / max(wall_on, 1e-6), 1)
            rows.append(row)
            print(f"  {row}", flush=True)
    speedups = [r["speedup"] for r in rows if "speedup" in r]
    assert speedups, "at least one on/off pair must have run"
    # The 3x acceptance floor applies where the encoding size is the
    # bottleneck: devices of >= 54 qubits.  Smaller devices (falcon,
    # 27q) record their speedup informationally — the full encoding is
    # still cheap enough there that the ratio is noise-dominated.
    gated = [
        r["speedup"] for r in rows if "speedup" in r and r["n_qubits"] >= 54
    ]
    assert gated, "the >= 54-qubit on/off pair must have run"
    assert min(gated) >= 3.0, (
        f"subarch+warm-start must be >= 3x faster than the full encoding "
        f"on >= 54-qubit devices, got {min(gated)}x"
    )
    return {
        "source": "queko depth 4 (grid-2x3 / line-6 per target)",
        "rows": rows,
        # min_speedup is the acceptance metric: worst on/off ratio over
        # the >= 54-qubit pairs.  all_speedups keeps the small-device
        # ratios visible without gating on them.
        "min_speedup": min(gated),
        "max_speedup": max(speedups),
        "all_speedups": speedups,
    }


def bench_kernel(tiny: bool) -> dict:
    """Python vs native backend on identical formulas (PR 7 acceptance).

    Each backend gets its own best-of-3 over the full ``sat_engine``
    suite.  Determinism across backends is asserted, not assumed: the
    conflict counts must match exactly, otherwise the props/sec ratio
    would be comparing different searches.
    """
    from repro.sat.kernel import native_available, native_error

    backends = {"python": _best_of(lambda: bench_sat_engine(tiny, "python"))}
    if native_available():
        backends["native"] = _best_of(lambda: bench_sat_engine(tiny, "native"))
        assert (
            backends["native"]["conflicts"] == backends["python"]["conflicts"]
        ), "backends diverged: not measuring the same search"
    report: dict = {"workload": "sat_engine", "backends": backends}
    if "native" in backends:
        report["native_vs_python"] = round(
            backends["native"]["props_per_sec"]
            / backends["python"]["props_per_sec"],
            2,
        )
    else:
        report["native_unavailable"] = native_error() or "extension not built"
    return report


def bench_encode(tiny: bool) -> dict:
    """Bulk vs per-clause clause loading on the queko encode clause set.

    Captures the exact clause stream a QUEKO encode emits (grid 2x3 circuit
    on a 6-qubit line, horizon 10), then loads it into fresh
    solvers two ways: one :meth:`Solver.add_clause` call per clause (the
    pre-PR10 path) vs a single :meth:`Solver.add_clauses_bulk` call (one
    arena bulk alloc + one native attach per run of non-unit clauses, with
    C-side normalization under the native kernel).  The PR 10 acceptance
    gate is ratio >= 3x on the resolved default kernel; equivalence is
    asserted, not assumed — both solvers must end with identical arenas.
    """
    from repro.sat.kernel import native_available, resolve_backend
    from repro.sat.solver import Solver
    from repro.smt.context import SMTContext

    source = grid(2, 3)
    target = linear(6)
    inst = queko_circuit(source, depth=4, n_gates=12, seed=1)
    cfg = SynthesisConfig()
    capture_solver = Solver(kernel="python")
    captured = []
    orig_add = Solver.add_clause

    def capturing_add(self, lits):
        captured.append(list(lits))
        return orig_add(self, lits)

    Solver.add_clause = capturing_add
    try:
        LayoutEncoder(
            inst.circuit, target, 10, config=cfg,
            ctx=SMTContext(sink=capture_solver),
        ).encode()
    finally:
        Solver.add_clause = orig_add
    n_vars = capture_solver.n_vars
    flat = [lit for clause in captured for lit in clause]
    sizes = [len(clause) for clause in captured]

    def fresh(kernel):
        solver = Solver(kernel=kernel)
        for _ in range(n_vars):
            solver.new_var()
        return solver

    repeats = 5 if tiny else 9
    report: dict = {
        "workload": "queko-2x3-d4g12s1-on-line6-h10",
        "clauses": len(captured),
        "vars": n_vars,
        "threshold": ENCODE_GATE_RATIO,
        "gate_kernel": resolve_backend("auto"),
        "backends": {},
    }
    kernels = ["python"] + (["native"] if native_available() else [])
    for kernel in kernels:
        per = bulk = float("inf")
        for _ in range(repeats):
            solver = fresh(kernel)
            start = time.perf_counter()
            for clause in captured:
                solver.add_clause(clause)
            per = min(per, time.perf_counter() - start)
            per_solver = solver
            solver = fresh(kernel)
            start = time.perf_counter()
            solver.add_clauses_bulk(flat, sizes)
            bulk = min(bulk, time.perf_counter() - start)
            bulk_solver = solver
        identical = (
            list(per_solver.arena.lits) == list(bulk_solver.arena.lits)
            and len(per_solver.clauses) == len(bulk_solver.clauses)
            and list(per_solver.trail[: per_solver.trail_size])
            == list(bulk_solver.trail[: bulk_solver.trail_size])
        )
        report["backends"][kernel] = {
            "per_clause_wall_sec": round(per, 5),
            "bulk_wall_sec": round(bulk, 5),
            "ratio": round(per / bulk, 2),
            "clauses_per_sec_bulk": int(len(captured) / bulk),
            "identical_final_state": identical,
        }
    gate = report["backends"].get(report["gate_kernel"])
    report["gate_passed"] = bool(
        gate
        and gate["identical_final_state"]
        and gate["ratio"] >= ENCODE_GATE_RATIO
    )
    return report


def bench_queko_synthesis(tiny: bool) -> dict:
    """optimize_depth with mid-run horizon growth (learnt-clause reuse)."""
    seeds = (3, 5) if tiny else (1, 2, 3, 4, 5, 7)
    source = grid(2, 3)
    target = linear(6)
    depths = []
    conflicts = props = 0
    encode_wall = solve_wall = 0.0
    inprocess = {key: 0 for key in _INPROCESS_KEYS}
    start = time.perf_counter()
    for seed in seeds:
        inst = queko_circuit(source, depth=4, n_gates=12, seed=seed)
        sink = MemorySink()
        cfg = SynthesisConfig(
            swap_duration=1,
            tub_ratio=1.0,
            time_budget=600,
            solve_time_budget=300,
            tracer=Tracer(sinks=[sink]),
        )
        result = IterativeSynthesizer(inst.circuit, target, cfg).optimize_depth()
        depths.append(result.depth)
        encode_wall += result.solver_stats.get("encode_wall_sec", 0.0)
        solve_wall += result.solver_stats.get("solve_wall_sec", 0.0)
        solves = list(sink.events("solver.solve"))
        for event in solves:
            conflicts += event.attrs.get("d_conflicts", 0)
            props += event.attrs.get("d_propagations", 0)
        if solves:
            # The last solve event carries the solver's cumulative counters
            # (explicit simplify() passes run outside any solve() call, so
            # per-call deltas alone would miss them).
            last = solves[-1].attrs
            for key in _INPROCESS_KEYS:
                inprocess[key] += last.get(key, 0)
    wall = time.perf_counter() - start
    return {
        "seeds": list(seeds),
        "depths": depths,
        "conflicts": conflicts,
        "propagations": props,
        "wall_sec": round(wall, 4),
        # Encode vs solve wall split (PR 10): encoding cost used to hide
        # inside the synthesis wall; now both halves stay visible.
        "encode_wall_sec": round(encode_wall, 4),
        "solve_wall_sec": round(solve_wall, 4),
        "encode_fraction": round(encode_wall / (encode_wall + solve_wall), 3)
        if encode_wall + solve_wall > 0
        else None,
        "props_per_sec": int(props / wall),
        "inprocess": inprocess,
    }


def bench_parallel_portfolio(tiny: bool) -> dict:
    """Sequential vs independent vs cooperating portfolio (PR 3 numbers).

    On a single-core box the cooperating portfolio cannot win on raw
    parallelism; the interesting comparison is *total work*: bound
    splitting stops N workers from each re-walking the full descent, and
    clause sharing lets one worker's conflicts prune another's search, so
    the cooperating runs should match the sequential optimum with fewer
    summed conflicts (and less wall time) than the independent race at
    the same worker count.
    """
    from repro.core import (
        ParallelDescent,
        PortfolioEntry,
        PortfolioSynthesizer,
    )

    source = grid(2, 3)
    target = linear(6)
    # Tiny keeps CI in seconds; the full instance is hard enough (~15 s
    # sequential) that probe work dominates worker startup, which is what
    # makes cooperation visible on wall clock even on one core.
    if tiny:
        inst = queko_circuit(source, depth=4, n_gates=12, seed=3)
        workload = "queko-2x3-d4g12s3-on-line6"
    else:
        inst = queko_circuit(source, depth=6, n_gates=18, seed=1)
        workload = "queko-2x3-d6g18s1-on-line6"
    budget = 60.0 if tiny else 240.0
    base = dict(
        swap_duration=1,
        tub_ratio=1.0,
        time_budget=budget,
        solve_time_budget=budget / 2,
    )
    variants = [
        SynthesisConfig(**base),
        SynthesisConfig(cardinality="totalizer", **base),
        SynthesisConfig(injectivity="channeling", **base),
        SynthesisConfig(cardinality="adder", **base),
    ]

    def entries(n):
        return [
            PortfolioEntry(f"w{i}", variants[i % len(variants)])
            for i in range(n)
        ]

    report: dict = {
        "workload": workload,
        "objective": "swap",
        # scaling_efficiency is meaningless without knowing how many cores
        # backed the workers: on a 1-core host cooperating wall-clock is
        # roughly the *summed* worker CPU, so cooperating-N can only beat
        # sequential if bound splitting + clause sharing shrink total work
        # below the sequential descent's — template reuse removes the
        # redundant encodes but the probe work itself still replicates.
        "cpu_count": os.cpu_count(),
        "runs": {},
    }

    def run_sequential() -> dict:
        start = time.perf_counter()
        seq = IterativeSynthesizer(
            inst.circuit, target, SynthesisConfig(**base)
        ).optimize_swaps()
        return {
            "wall_sec": round(time.perf_counter() - start, 4),
            "swaps": seq.swap_count,
            "optimal": seq.optimal,
            "conflicts": seq.solver_stats.get("conflicts", 0),
        }

    def run_independent(n: int) -> dict:
        start = time.perf_counter()
        res = PortfolioSynthesizer(entries(n), time_budget=budget).synthesize(
            inst.circuit, target, objective="swap"
        )
        return {
            "wall_sec": round(time.perf_counter() - start, 4),
            "swaps": res.swap_count,
            "optimal": res.optimal,
            "winner_conflicts": res.solver_stats.get("conflicts", 0),
        }

    def run_cooperating(n: int) -> dict:
        start = time.perf_counter()
        res = ParallelDescent(
            entries=entries(n), time_budget=budget, slice_budget=0.5
        ).synthesize(inst.circuit, target, objective="swap")
        par = res.solver_stats["parallel"]
        return {
            "wall_sec": round(time.perf_counter() - start, 4),
            "swaps": res.swap_count,
            "optimal": res.optimal,
            "conflicts": par["conflicts"],
            "clauses_shared": par["clauses_exported"],
            "clauses_imported": par["clauses_imported"],
            "probes_pruned": par["pruned_probes"],
            "template_hits": par.get("template_hits", 0),
            "share_transport": par.get("share_transport"),
        }

    report["runs"]["sequential"] = _best_of(run_sequential)
    print(f"  sequential: {report['runs']['sequential']}", flush=True)
    counts = (2,) if tiny else (1, 2, 4)
    for n in counts:
        report["runs"][f"independent-{n}"] = _best_of(lambda: run_independent(n))
        print(f"  independent-{n}: {report['runs'][f'independent-{n}']}", flush=True)
    for n in counts:
        report["runs"][f"cooperating-{n}"] = _best_of(lambda: run_cooperating(n))
        print(f"  cooperating-{n}: {report['runs'][f'cooperating-{n}']}", flush=True)
    # Scaling summary (PR 10): the BENCH_PR8 negative-scaling regression
    # (cooperating-N slower than sequential) was silent because nothing
    # compared the walls.  scaling_efficiency is seq_wall / (n * coop_wall)
    # — 1.0 means perfect linear scaling, > 1/n means cooperating-N still
    # beats sequential on raw wall.
    seq_wall = report["runs"]["sequential"]["wall_sec"]
    scaling = {}
    slower = []
    for n in counts:
        coop = report["runs"][f"cooperating-{n}"]
        if coop["wall_sec"] > 0:
            scaling[str(n)] = round(seq_wall / (n * coop["wall_sec"]), 3)
        if coop["wall_sec"] > seq_wall:
            slower.append(n)
    report["scaling_efficiency"] = scaling
    report["cooperating_slower_than_sequential"] = slower
    if slower:
        print(
            f"  WARNING: cooperating-{slower} slower than sequential "
            f"({seq_wall}s) — negative scaling",
            flush=True,
        )
    return report


def bench_proof_checker(tiny: bool) -> dict:
    """Old (naive fixpoint) vs new (watched-literal) RUP checker.

    Builds an ascending ladder of UNSAT refutations, then asks each
    checker: what is the largest refutation (in proof steps) you can fully
    certify within one fixed wall-clock budget?  The ladder is walked in
    size order and stops for a checker once a check exceeds the budget (or
    once the projected time would blow far past it), so the slow checker
    never burns minutes on hopeless sizes.
    """
    from repro.sat import CNF
    from repro.sat.proof import check_unsat_proof, check_unsat_proof_slow

    budget = 4.0 if tiny else 10.0
    hard_cap = 8 * budget

    def php(n):
        cnf = CNF()
        x = [[cnf.new_var() for _ in range(n)] for _ in range(n + 1)]
        for p in range(n + 1):
            cnf.add_clause([mk_lit(x[p][h]) for h in range(n)])
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    cnf.add_clause(
                        [mk_lit(x[p1][h], True), mk_lit(x[p2][h], True)]
                    )
        return cnf

    def r3sat(n, seed):
        rng = random.Random(seed)
        cnf = CNF()
        cnf.new_vars(n)
        for _ in range(int(5.2 * n)):
            vs = rng.sample(range(n), 3)
            cnf.add_clause([mk_lit(v, rng.random() < 0.5) for v in vs])
        return cnf

    specs = [("php-5-4", php(4)), ("php-6-5", php(5))]
    # The jump from 130 to 200 variables is deliberate: proof length grows
    # ~16x across it, so the rung separates a near-linear checker from a
    # quadratic one without burning minutes on intermediate sizes.
    sizes = (60, 100, 130, 200, 250)
    specs += [(f"r3sat-{n}", r3sat(n, seed=n)) for n in sizes]

    ladder = []
    for name, cnf in specs:
        solver = Solver(proof_log=True)
        cnf.to_solver(solver)
        if solver.solve(time_budget=60.0) is not SatResult.UNSAT:
            continue  # a rare satisfiable draw: not a refutation workload
        ladder.append((name, cnf, solver.proof))
    ladder.sort(key=lambda item: len(item[2]))

    def largest_within_budget(checker):
        best = 0
        runs = []
        last_time, last_steps = 0.0, 0
        for name, cnf, proof in ladder:
            if last_steps:
                # Extrapolate quadratically in proof length: a checker whose
                # projected time blows far past the budget never starts, so
                # the naive checker cannot burn minutes on hopeless rungs.
                est = last_time * (len(proof) / last_steps) ** 2
                if est > hard_cap:
                    continue
            start = time.perf_counter()
            ok = checker(cnf, proof)
            elapsed = time.perf_counter() - start
            assert ok, f"{name}: refutation did not certify"
            runs.append(
                {"workload": name, "steps": len(proof), "wall_sec": round(elapsed, 4)}
            )
            last_time, last_steps = elapsed, len(proof)
            if elapsed <= budget:
                best = max(best, len(proof))
            else:
                break
        return best, runs

    def one_pass() -> dict:
        old_best, old_runs = largest_within_budget(check_unsat_proof_slow)
        new_best, new_runs = largest_within_budget(check_unsat_proof)
        wall = sum(r["wall_sec"] for r in old_runs + new_runs)
        return {
            "budget_sec": budget,
            "ladder_steps": [len(proof) for _, _, proof in ladder],
            "old_checker": {"largest_steps": old_best, "runs": old_runs},
            "new_checker": {"largest_steps": new_best, "runs": new_runs},
            "size_ratio": round(new_best / max(1, old_best), 2),
            "wall_sec": round(wall, 4),
        }

    # The ladder (solving each refutation) is built once above; only the
    # checking phase repeats — that is the part being measured.
    return _best_of(one_pass)


def _percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty list (pct in [0, 100])."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def bench_service(tiny: bool) -> dict:
    """The PR 6 acceptance workload: batch service, warm vs cold pool.

    A workload of base circuits plus relabeled-isomorphic copies is
    driven through one :class:`SynthesisService` three times:

    * **cold** — fresh pool, empty cache: every equivalence class costs
      one solver dispatch, the copies are cache hits (the acceptance
      criterion: k relabeled copies -> 1 dispatch, k-1 hits);
    * **warm_cache** — the identical batch again: 100% cache hits, no
      dispatches; this is the service's steady-state latency floor;
    * **warm_pool** — cache cleared, batch again: every class solves
      again, but on workers whose device caches and learnt-clause banks
      the cold pass warmed, isolating pool warmth from result caching.

    Latencies are per-response wall times (queueing included — this is
    what a client observes), summarized as p50/p95.
    """
    import asyncio

    from repro.circuit import Gate, QuantumCircuit
    from repro.service import CompileRequest, SynthesisService
    from repro.workloads import qaoa_circuit

    rng = random.Random(9)
    n_base = 2 if tiny else 4
    n_copies = 2 if tiny else 3
    device = "line-5"
    cfg = SynthesisConfig(swap_duration=1, time_budget=60.0).to_dict()

    def relabeled(circuit, perm):
        out = QuantumCircuit(circuit.n_qubits)
        for g in circuit.gates:
            out.append(Gate(g.name, tuple(perm[q] for q in g.qubits), g.params))
        return out

    # Distinct (n_qubits, degree) pairs give structurally distinct base
    # circuits.  Varying only the seed at 4 qubits would not: every
    # 3-regular graph on 4 nodes is K4, so the canonicalizer would
    # (rightly) collapse the seeds into a single equivalence class.
    shapes = [(4, 3), (4, 1), (5, 2), (4, 2)][:n_base]
    requests = []
    for i, (n, degree) in enumerate(shapes):
        base = qaoa_circuit(n, seed=i, degree=degree)
        family = [base]
        for _ in range(n_copies):
            perm = list(range(base.n_qubits))
            rng.shuffle(perm)
            family.append(relabeled(base, perm))
        for circuit in family:
            requests.append(
                CompileRequest.from_circuit(
                    circuit, device, budget=60.0, config=dict(cfg)
                )
            )

    async def drive():
        phases = {}
        async with SynthesisService(n_workers=1) as service:
            for phase in ("cold", "warm_cache", "warm_pool"):
                if phase == "warm_pool":
                    service.cache.clear()
                before = service.stats()
                start = time.perf_counter()
                responses = await service.submit_batch(requests)
                wall = time.perf_counter() - start
                after = service.stats()
                assert all(r.ok for r in responses), [r.error for r in responses]
                latencies = [r.wall_time for r in responses]
                phases[phase] = {
                    "wall_sec": round(wall, 4),
                    "p50_sec": round(_percentile(latencies, 50), 4),
                    "p95_sec": round(_percentile(latencies, 95), 4),
                    "cache_hit_rate": round(
                        (after["cache_hits"] - before["cache_hits"])
                        / len(requests),
                        3,
                    ),
                    "solver_dispatches": after["solver_dispatches"]
                    - before["solver_dispatches"],
                    "bank_clauses_served": after["pool"]["bank_clauses_served"]
                    - before["pool"]["bank_clauses_served"],
                }
                print(f"  {phase}: {phases[phase]}", flush=True)
            final = service.stats()
        return phases, final

    phases, final = asyncio.run(drive())
    n_classes = n_base
    assert phases["cold"]["solver_dispatches"] == n_classes, phases["cold"]
    assert phases["warm_cache"]["solver_dispatches"] == 0, phases["warm_cache"]
    return {
        "requests": len(requests),
        "equivalence_classes": n_classes,
        "copies_per_class": n_copies + 1,
        "device": device,
        "wall_sec": round(sum(p["wall_sec"] for p in phases.values()), 4),
        "phases": phases,
        "final_stats": {
            "cache": final["cache"],
            "pool": final["pool"],
            "coalesced": final["coalesced"],
            "max_queue_depth": final["max_queue_depth"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_PR10.json"),
        help="output JSON path (default: BENCH_PR10.json at the repo root)",
    )
    parser.add_argument(
        "--tiny", action="store_true", help="shrunken workloads for CI smoke runs"
    )
    args = parser.parse_args(argv)

    from repro.sat.kernel import resolve_backend

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "kernel": resolve_backend("auto"),
        "tiny": args.tiny,
        "baseline": None if args.tiny else BASELINE,
        "baseline_pr4": None if args.tiny else BASELINE_PR4,
        "baseline_pr5": None if args.tiny else BASELINE_PR5,
        "results": {},
    }
    print("prop_network ...", flush=True)
    report["results"]["prop_network"] = _best_of(
        lambda: bench_prop_network(
            n_vars=800 if args.tiny else 3000, rounds=10 if args.tiny else 40
        )
    )
    print("sat_engine ...", flush=True)
    report["results"]["sat_engine"] = _best_of(lambda: bench_sat_engine(args.tiny))
    print("encode ...", flush=True)
    report["results"]["encode"] = bench_encode(args.tiny)
    print("kernel ...", flush=True)
    report["results"]["kernel"] = bench_kernel(args.tiny)
    print("sanitize ...", flush=True)
    report["results"]["sanitize"] = bench_sanitize_cost(args.tiny)
    print("queko_synthesis ...", flush=True)
    report["results"]["queko_synthesis"] = _best_of(
        lambda: bench_queko_synthesis(args.tiny)
    )
    print("large_device ...", flush=True)
    report["results"]["large_device"] = bench_large_device(args.tiny)
    print("parallel_portfolio ...", flush=True)
    report["results"]["parallel_portfolio"] = bench_parallel_portfolio(args.tiny)
    print("proof_checker ...", flush=True)
    report["results"]["proof_checker"] = bench_proof_checker(args.tiny)
    print("service ...", flush=True)
    report["results"]["service"] = _best_of(lambda: bench_service(args.tiny))

    if not args.tiny:
        for key in ("prop_network", "sat_engine"):
            now = report["results"][key]["props_per_sec"]
            then = BASELINE[key]["props_per_sec"]
            report["results"][key]["speedup_vs_baseline"] = round(now / then, 2)
        queko = report["results"]["queko_synthesis"]
        queko["conflicts_vs_baseline"] = round(
            queko["conflicts"] / BASELINE["queko_synthesis"]["conflicts"], 2
        )
        # PR 5 acceptance ratios (inprocessing vs the PR 4 commit).
        sat = report["results"]["sat_engine"]
        sat["speedup_vs_pr4"] = round(
            sat["props_per_sec"] / BASELINE_PR4["sat_engine"]["props_per_sec"], 2
        )
        queko["conflicts_vs_pr4"] = round(
            queko["conflicts"] / BASELINE_PR4["queko_synthesis"]["conflicts"], 2
        )
        # PR 7 acceptance ratios (compiled kernel vs the PR 5 interpreter).
        sat["speedup_vs_pr5"] = round(
            sat["props_per_sec"] / BASELINE_PR5["sat_engine"]["props_per_sec"], 2
        )
        pr5 = BASELINE_PR5["sat_engine"]["props_per_sec"]
        for name, rep in report["results"]["kernel"]["backends"].items():
            rep["speedup_vs_pr5"] = round(rep["props_per_sec"] / pr5, 2)
        report["results"]["kernel"]["pr5_like_for_like"] = PR5_LIKE_FOR_LIKE

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["results"], indent=2))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
