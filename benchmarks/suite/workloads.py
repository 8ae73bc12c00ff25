"""The six benchmark workloads: instance pools, presentation, runners.

Every workload draws from a fixed *pool* of QUEKO instances built from
fixed generator seeds, so the proven optimum of every pool entry can be
recorded once in ``expected.json`` and checked on every run.  A run is a
sequence of passes over the pool; each pass shows every instance under a
different relabeling of its program qubits, and the program only ever
sees the relabeled circuits.  A relabeling leaves the optimum unchanged
but renumbers the solver's variables, so it changes the search path (on
the large devices it even decides whether SABRE alone closes the
instance); taking each instance's median over its relabelings measures
the instance rather than one lucky or unlucky numbering.

The relabelings are fixed per instance and pass, and the run seed orders
the jobs of each pass.  Every seed therefore measures the same work, and
the spread between seeds is the machine's noise, not the draw.

Timings are taken around the call into the program's public API;
validating the output and checking it against the oracle happen outside
the timed region.
"""

from __future__ import annotations

import asyncio
import gc
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-instance budget: running out counts as a failure, never as slow timing.
TIME_BUDGET = 60.0

#: Every workload's target coupling except large_device's.
LINE = "line-6"

#: Config shared by every workload: SWAP duration 1 and a horizon starting
#: at T_LB, so the relax ladder grows the formula in place.
BASE_CONFIG = dict(
    swap_duration=1,
    tub_ratio=1.0,
    time_budget=TIME_BUDGET,
    solve_time_budget=TIME_BUDGET,
)

#: Large-device targets and the QUEKO source graphs that embed in them:
#: line sources in the heavy-hex IBM devices (every small region there is a
#: tree), grid sources in the Sycamore square lattice.
LARGE_COMBOS = (
    ("falcon", "line-6"),
    ("falcon", "line-8"),
    ("eagle", "line-6"),
    ("eagle", "line-8"),
    ("sycamore", "grid-2x3"),
    ("sycamore", "grid-3x3"),
)
LARGE_DEPTHS = (4, 5, 6, 7, 8)


@dataclass(frozen=True)
class Instance:
    """One pool entry: an oracle key, its circuit, target and objective."""

    key: str
    source: str  # QUEKO source coupling graph (device name)
    depth: int  # QUEKO layer count (the optimum on the source graph)
    gates: int
    seed: int  # QUEKO generator seed
    device: str
    objective: str

    def circuit(self):
        from repro.arch.devices import by_name
        from repro.workloads.queko import queko_circuit

        return queko_circuit(
            by_name(self.source), self.depth, self.gates, seed=self.seed
        ).circuit


def queko_instance(depth: int, seed: int, objective: str, device: str = LINE,
                   source: str = "grid-2x3", per_layer: int = 3) -> Instance:
    key = f"{source}/d{depth}g{per_layer * depth}/s{seed}@{device}:{objective}"
    return Instance(key, source, depth, per_layer * depth, seed, device, objective)


def _queko_depth_pool(n: int) -> List[Instance]:
    return [
        queko_instance(depth, seed, "depth")
        for seed in range(1, n + 1)
        for depth in (4, 5)
    ]


def _large_pool() -> List[Instance]:
    from repro.arch.devices import by_name

    pool = []
    for i, depth in enumerate(LARGE_DEPTHS):
        for j, (device, source) in enumerate(LARGE_COMBOS):
            # Three quarters of the source qubits busy per layer, counting a
            # two-qubit gate as two (the QUEKO paper's fill factor).
            per_layer = max(1, int(by_name(source).n_qubits * 0.75 / 2))
            pool.append(
                queko_instance(
                    depth, 100 + len(LARGE_COMBOS) * i + j, "depth",
                    device=device, source=source, per_layer=per_layer,
                )
            )
    return pool


@dataclass(frozen=True)
class Workload:
    """A named pool plus how its instances are driven through the program."""

    name: str
    kind: str  # "inprocess" | "parallel" | "service"
    pool: Callable[[], List[Instance]]
    config: Dict[str, Any] = field(default_factory=dict)


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
#: Pool sizes make one pass take about 3 s on the reference machine, so a
#: 15 s run sees every instance under five relabelings.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "queko_depth",
            "inprocess",
            lambda: _queko_depth_pool(14),
        ),
        Workload(
            "queko_swap",
            "inprocess",
            lambda: [queko_instance(4, s, "swap") for s in range(1, 13)],
        ),
        Workload(
            "certified_depth",
            "inprocess",
            lambda: [queko_instance(4, s, "depth") for s in range(1, 17)],
            {"certify": True},
        ),
        Workload(
            "large_device",
            "inprocess",
            _large_pool,
            {"subarch": "auto", "warm_start": "sabre"},
        ),
        Workload(
            "parallel_swap",
            "parallel",
            lambda: [
                queko_instance(depth, s, "swap")
                for s in range(1, 4)
                for depth in (5, 6)
            ],
        ),
        Workload(
            "service_mix",
            "service",
            lambda: [queko_instance(4, s, "depth") for s in range(1, 21)],
        ),
    )
}

#: Service traffic mix per pass: every pool circuit is first requested for
#: depth; every other one is later re-requested for SWAPs (same formula, so
#: the worker's template store can serve the encode); each circuit is then
#: repeated once under a fresh relabeling (a cache read).  Hits are 40% of
#: requests, so both latency percentiles fall among solves, whose work the
#: service's canonicalization makes independent of the relabeling; hit
#: latency is reported per layer.
SERVICE_REPEATS = 1
SERVICE_SWAP_EVERY = 2


def make_config(workload: Workload, tracer=None):
    from repro.core import SynthesisConfig

    return SynthesisConfig(**BASE_CONFIG, **workload.config, tracer=tracer)


def parallel_descent(cfg, tracer=None):
    """parallel_swap's driver: two workers whose entries share one encode
    shape (cardinality is a post-encode knob), so the coordinator ships
    one template."""
    from repro.core import ParallelDescent, PortfolioEntry

    entries = [
        PortfolioEntry("seqcounter", cfg),
        PortfolioEntry("totalizer", cfg.replace(cardinality="totalizer")),
    ]
    return ParallelDescent(
        entries=entries, time_budget=TIME_BUDGET, slice_budget=0.5, tracer=tracer
    )


def swap_twins(pool: List[Instance]) -> Dict[str, Instance]:
    """Service pool key -> the SWAP-objective request of the same circuit."""
    return {
        inst.key: queko_instance(inst.depth, inst.seed, "swap")
        for i, inst in enumerate(pool)
        if i % SERVICE_SWAP_EVERY == 0
    }


def oracle_instances(workload: Workload) -> List[Instance]:
    """Every instance whose optimum a run of ``workload`` checks."""
    pool = workload.pool()
    if workload.kind == "service":
        pool += list(swap_twins(pool).values())
    return pool


# -- presentation -------------------------------------------------------------


@dataclass
class Job:
    """One presented request: a pool instance under a seeded relabeling."""

    instance: Instance
    circuit: Any  # the relabeled QuantumCircuit the program sees
    objective: str


def _relabeled(rng: random.Random, instance: Instance):
    circuit = instance.circuit()
    perm = list(range(circuit.n_qubits))
    rng.shuffle(perm)
    return circuit.remapped(perm)


def present(workload: Workload, seed: int, pass_index: int,
            limit: Optional[int] = None) -> List[Job]:
    """The job list of pass ``pass_index`` over ``workload``'s pool.

    Pass ``j`` shows every instance under its ``j``-th relabeling, which
    depends on the instance and ``j`` only; the run seed orders the jobs.
    The service's request order is part of its work (it decides which
    requests coalesce and queue), so it is fixed per pass, and the seed
    picks the requests' relabelings instead: the service canonicalizes
    circuits, so those never change a solve.
    """
    rng = random.Random(f"{workload.name}/{seed}/{pass_index}")
    pool = workload.pool()[:limit] if limit else workload.pool()
    if workload.kind != "service":
        rng.shuffle(pool)
        return [
            Job(inst, _relabeled(random.Random(f"{inst.key}/{pass_index}"), inst),
                inst.objective)
            for inst in pool
        ]
    twins = swap_twins(pool)
    tokens = [
        inst
        for inst in pool
        for _ in range(1 + SERVICE_REPEATS + (inst.key in twins))
    ]
    order = random.Random(f"{workload.name}/{pass_index}")
    order.shuffle(tokens)
    jobs: List[Job] = []
    asked: Dict[str, List[Instance]] = {}
    for inst in tokens:
        seen = asked.get(inst.key)
        if seen is None:
            asked[inst.key] = [inst]
            jobs.append(Job(inst, _relabeled(rng, inst), "depth"))
        elif inst.key in twins and len(seen) == 1:
            seen.append(twins[inst.key])
            jobs.append(Job(seen[-1], _relabeled(rng, seen[-1]), "swap"))
        else:
            again = seen[order.randrange(len(seen))]
            jobs.append(Job(again, _relabeled(rng, again), again.objective))
    return jobs


# -- running ------------------------------------------------------------------


def children_cpu() -> float:
    """User+sys seconds of every reaped child process."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def reset_peak_rss() -> None:
    """Restart this process's peak-resident-set watermark (Linux VmHWM)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # no reset available: the peak then covers the whole process life


def peak_rss_mb() -> float:
    """This process's peak resident set since the last reset, in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_output(job: Job, result, expected: Dict[str, Dict[str, int]],
                 certify: bool) -> Optional[str]:
    """Why ``result`` is wrong for ``job``, or None when it is correct.

    Runs outside the timed region: the independent validator, the oracle
    objective from ``expected.json`` and, for certified runs, a complete
    certificate.
    """
    from repro.core import ValidationError, validate_result

    try:
        validate_result(result)
    except ValidationError as exc:
        return f"invalid schedule: {exc}"
    want = expected.get(job.instance.key)
    if want is None:
        return f"no oracle entry for {job.instance.key}"
    got = result.depth if job.objective == "depth" else result.swap_count
    if got != want[job.objective]:
        return f"{job.objective} {got} != proven optimum {want[job.objective]}"
    if certify and (result.certificate is None or not result.certificate.complete):
        return "certificate missing or incomplete"
    return None


def item_record(job: Job, wall: float, cpu: float, result=None,
                error: Optional[str] = None, **extra) -> Dict[str, Any]:
    record = {
        "key": job.instance.key,
        "objective": job.objective,
        "wall": wall,
        "cpu": cpu,
        "error": error,
        "depth": result.depth if result is not None else None,
        "swaps": result.swap_count if result is not None else None,
        "optimal": bool(result.optimal) if result is not None else False,
    }
    record.update(extra)
    return record


def _stats_extract(result) -> Dict[str, Any]:
    """The solver_stats slices the per-layer ledger reads."""
    stats = result.solver_stats
    out: Dict[str, Any] = {"warm_start_model": bool(stats.get("warm_start_model"))}
    if "subarch" in stats:
        out["regions_tried"] = stats["subarch"].get("candidate_index", 0) + 1
    if "parallel" in stats:
        # The summary covers every worker; the winner's own "templates"
        # entry would count one of them twice.
        par = stats["parallel"]
        out["parallel"] = {
            k: par.get(k, 0)
            for k in ("pruned_probes", "clauses_exported", "clauses_imported",
                      "conflicts", "template_hits")
        }
    else:
        out["templates"] = dict(stats.get("templates") or {})
    return out


class Runner:
    """Drives one workload's jobs through the program, one pass at a time.

    ``run_pass`` returns one record per job plus pass-level facts.
    ``ledger`` is the traced pass's instrumentation, or None.
    """

    def __init__(self, workload: Workload, expected: Dict[str, Dict[str, int]]):
        self.workload = workload
        self.expected = expected
        self.certify = bool(workload.config.get("certify"))

    def warmup(self) -> Dict[str, Any]:
        """One untimed pass over a single job, so lazy set-up (imports,
        device factories, compiled-kernel handles) finishes before timing."""
        return self.run_pass(present(self.workload, 0, 0, limit=1), None)

    def run_pass(self, jobs: List[Job], ledger) -> Dict[str, Any]:
        if self.workload.kind == "service":
            return asyncio.run(self._service_pass(jobs, ledger))
        return {"records": [self._one(i, job, ledger) for i, job in enumerate(jobs)]}

    def _call(self, job: Job, tracer):
        from repro.arch.devices import by_name

        device = by_name(job.instance.device)
        if self.workload.kind == "parallel":
            return parallel_descent(make_config(self.workload), tracer).synthesize(
                job.circuit, device, objective=job.objective
            )
        from repro.core import OLSQ2

        return OLSQ2(make_config(self.workload, tracer)).synthesize(
            job.circuit, device, objective=job.objective
        )

    def _one(self, index: int, job: Job, ledger) -> Dict[str, Any]:
        from repro.core import SynthesisTimeout

        tracer = ledger.tracer if ledger is not None else None
        root = "parallel.call" if self.workload.kind == "parallel" else "item"
        result, error = None, None
        # Start every item from the same collector state: otherwise when the
        # cyclic GC's full collections fall depends on the jobs run before.
        gc.collect()
        reset_peak_rss()
        cpu0, kids0 = time.process_time(), children_cpu()
        start = time.perf_counter()
        try:
            if ledger is not None:
                with tracer.span(root, item=index, key=job.instance.key):
                    result = self._call(job, tracer)
            else:
                result = self._call(job, None)
        except SynthesisTimeout as exc:
            error = f"budget exhausted: {exc}"
        except Exception as exc:  # noqa: BLE001 - a failure is a result here
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        coordinator = time.process_time() - cpu0
        workers = children_cpu() - kids0
        extra: Dict[str, Any] = {
            "worker_cpu": workers, "coordinator_cpu": coordinator, "rss": peak_rss_mb(),
        }
        if result is not None:
            extra.update(_stats_extract(result))
            error = self._check(ledger, index, job, result)
        return item_record(job, wall, coordinator + workers, result, error, **extra)

    def _check(self, ledger, index: int, job: Job, result) -> Optional[str]:
        """check_output, under a ``validate`` span in a traced pass."""
        if ledger is None:
            return check_output(job, result, self.expected, self.certify)
        with ledger.tracer.span("validate", item=index):
            return check_output(job, result, self.expected, self.certify)

    async def _service_pass(self, jobs: List[Job], ledger) -> Dict[str, Any]:
        """A fresh 2-worker service driven by 2 closed-loop clients.

        The service starts before and stops after the timed window; its
        worker processes are reaped at stop, so their CPU lands in
        RUSAGE_CHILDREN for this pass.
        """
        from repro.core import SynthesisResult
        from repro.service import CompileRequest, SynthesisService

        config = make_config(self.workload).to_dict()
        requests = [
            CompileRequest.from_circuit(
                job.circuit, job.instance.device, objective=job.objective,
                budget=TIME_BUDGET, config=config,
            )
            for job in jobs
        ]
        tracer = ledger.tracer if ledger is not None else None
        timed: List[Tuple[int, Any, float, float]] = []
        gc.collect()
        reset_peak_rss()
        cpu0, kids0 = time.process_time(), children_cpu()
        async with SynthesisService(n_workers=2, tracer=tracer) as service:
            cursor = iter(range(len(jobs)))

            async def client() -> None:
                for index in cursor:
                    start = time.perf_counter()
                    response = await service.submit(requests[index])
                    timed.append((index, response, start, time.perf_counter()))

            started = time.perf_counter()
            await asyncio.gather(client(), client())
            wall = time.perf_counter() - started
            stats = service.stats()
        rss = peak_rss_mb()
        cpu = time.process_time() - cpu0 + children_cpu() - kids0
        records = []
        for index, response, start, end in sorted(timed, key=lambda t: t[0]):
            job = jobs[index]
            result, error = None, response.error
            if ledger is not None:
                ledger.requests.append({
                    "item": index, "cache_hit": response.cache_hit,
                    "start": start - started, "end": end - started,
                })
            if response.ok:
                result = SynthesisResult.from_dict(response.result)
                error = self._check(ledger, index, job, result)
            records.append(
                item_record(job, end - start, 0.0, result, error,
                            cache_hit=response.cache_hit)
            )
        return {
            "records": records,
            "wall": wall,
            "cpu": cpu,
            "rss": rss,
            "service": stats,
        }
