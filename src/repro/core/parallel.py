"""Cooperating parallel portfolio: bound splitting + clause sharing.

:class:`~repro.core.portfolio.PortfolioSynthesizer` races *independent*
workers: every process walks the full Sec. III-B optimization loop on its
own, so N workers do roughly N times the work of one.  This module makes
the workers cooperate along two channels:

1. **Bound splitting** — the Sec. III-B loops are sequences of bounded
   SAT probes ("is depth <= B feasible?").  :class:`ParallelDescent`
   turns the portfolio into a team of *probe servers*: the coordinator
   hands each worker a distinct bound from the open interval
   ``[lb, ub)``, and every verdict shrinks the interval for everyone —
   an UNSAT at ``B`` prunes every probe at or below ``B`` (monotone:
   tightening a bound only shrinks the feasible set), a SAT achieving
   ``d`` retargets every probe at or above ``d``.  With one worker the
   schedule degenerates to the classic relax-then-descend walk of
   :class:`~repro.core.optimizer.IterativeSynthesizer`, so the optimum
   found is the same by construction.

2. **Learnt-clause sharing** — each worker's CDCL solver exports its
   good learnt clauses (LBD/size-filtered, restricted to the common
   variable prefix) through a :class:`~repro.sat.sharing.ShareRelay`,
   so a conflict analysed in one process prunes the search of all the
   others.  See ``repro.sat.sharing`` for the soundness argument.

Workers are processes (the CDCL loop holds the GIL); the coordinator
keeps a command queue per worker and one shared result queue.  A worker
polls its command queue at every solver restart, so a retarget or a stop
takes effect within one restart interval, not at the end of a slice.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import queue as _queue
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..arch.coupling import CouplingGraph
from ..arch.subarch import extract_candidates, translate_result
from ..circuit.circuit import QuantumCircuit
from ..circuit.dag import longest_chain_length
from ..sat.result import SatResult
from ..sat.sharing import SharedClauseRing, ShareRelay
from ..sat.snapshot import (
    SnapshotUnsupported,
    TemplateStore,
    snapshot_solver,
)
from ..sat.solver import Solver
from ..telemetry import NULL_TRACER
from .encoder import LayoutEncoder
from .interface import check_initial_mapping, check_objective
from .optimizer import (
    IterativeSynthesizer,
    SynthesisTimeout,
    analytic_swap_lower_bound,
)
from .portfolio import PortfolioEntry, default_portfolio
from .result import SynthesisResult
from .templates import template_key
from .validator import is_valid, validate_result

# Command tuples: ("probe", phase, depth_bound, swap_bound, counter_max)
# or ("stop",).  Result tuples: ("ready", wid, name),
# ("verdict", wid, phase, depth_bound, swap_bound, verdict, result,
#  achieved, stats) or ("error", wid, text).


def _worker_stats(synth: IterativeSynthesizer) -> dict:
    encoder = synth.encoder
    if encoder is None:
        return {}
    stats = encoder.ctx.stats()
    share = getattr(encoder.ctx.sink, "share", None)
    if share is not None:
        for k, v in share.stats.as_dict().items():
            stats["share_" + k] = v
    stats["template_hits"] = synth.template_events["hits"]
    return stats


def _descent_worker(
    wid: int,
    name: str,
    config,
    transition_based: bool,
    circuit,
    device,
    region,
    full_device,
    initial_mapping,
    cmd_q,
    res_q,
    endpoint,
    slice_budget: float,
    deadline: float,
    template=None,
) -> None:
    """Probe server: answer bounded feasibility questions until told to stop.

    Each probe is solved in ``slice_budget``-second slices, exchanging
    clauses in between; a command reaching a busy worker (a retarget or a
    stop) ends the slice at the next restart, and the newest one wins.

    ``region`` (with ``full_device``) marks a *subarchitecture worker*: it
    encodes only the ``region`` qubits of the full device and translates
    every SAT model back to full-device labels before reporting it, so the
    coordinator only ever sees full-device schedules.  The achieved bounds
    are computed *before* translation (translation preserves depth and
    SWAP count exactly).

    ``template`` is an optional ``(key, blob)`` encoded-state snapshot the
    coordinator pre-encoded for this worker's instance shape (see
    :func:`ParallelDescent._prepare_templates`): it is seeded into a
    single-entry template store so the initial ``_build_encoder`` restores
    a clone instead of re-encoding the formula from scratch.
    """
    try:
        if template is not None:
            store = TemplateStore(max_entries=1)
            store.put(template[0], template[1])
            config = config.replace(template_store=store)
        synth = IterativeSynthesizer(
            circuit,
            device,
            config=config,
            transition_based=transition_based,
            encoder_kwargs=(
                {"initial_mapping": initial_mapping}
                if initial_mapping is not None
                else {}
            ),
            share=endpoint,
        )
        encoder = synth._build_encoder(synth._initial_horizon())
        res_q.put(("ready", wid, name))
        cmd = cmd_q.get()
        while cmd[0] != "stop":
            _, phase, depth_bound, swap_bound, counter_max = cmd
            started = time.monotonic()
            if depth_bound > encoder.horizon:
                horizon = max(depth_bound, math.ceil(encoder.horizon * 1.5))
                if not encoder.extend_horizon(horizon):
                    encoder = synth._build_encoder(horizon)
            if phase == "swap" and encoder._swap_counter is None:
                encoder.init_swap_counter(max_bound=counter_max)
            assumptions = [encoder.depth_guard(depth_bound)]
            if phase == "swap":
                guard = encoder.swap_guard(swap_bound)
                if guard is not None:
                    assumptions.append(guard)
            sink = encoder.ctx.sink
            if isinstance(sink, Solver):
                # A command reaching a busy worker supersedes its probe.
                sink.interrupt = lambda: not cmd_q.empty()
            cmd = None
            while cmd is None:
                budget = min(slice_budget, deadline - time.monotonic())
                if budget <= 0:
                    res_q.put(
                        ("verdict", wid, phase, depth_bound, swap_bound,
                         "unknown", None, None, _worker_stats(synth))
                    )
                    cmd = cmd_q.get()
                    break
                status = encoder.solve(assumptions=assumptions, time_budget=budget)
                if isinstance(sink, Solver):
                    sink.share_sync()
                if status is SatResult.SAT:
                    extraction = encoder.extract()
                    result = synth._make_result(
                        extraction,
                        "depth" if phase == "depth" else "swap",
                        False,
                        started,
                    )
                    validate_result(result, strict_dependencies=True)
                    achieved = (
                        synth._current_bound_of(result),
                        len(extraction[2]),
                    )
                    if region is not None:
                        # Relabel to full-device qubits; translate_result
                        # re-validates against the full coupling graph.
                        result = translate_result(result, region, full_device)
                    res_q.put(
                        ("verdict", wid, phase, depth_bound, swap_bound,
                         "sat", result, achieved, _worker_stats(synth))
                    )
                    cmd = cmd_q.get()
                elif status is SatResult.UNSAT:
                    res_q.put(
                        ("verdict", wid, phase, depth_bound, swap_bound,
                         "unsat", None, None, _worker_stats(synth))
                    )
                    cmd = cmd_q.get()
                else:
                    # Slice over or interrupted: adopt the newest command.
                    try:
                        while True:
                            cmd = cmd_q.get_nowait()
                    except _queue.Empty:
                        pass
        res_q.put(("verdict", wid, "stopped", 0, 0, "stopped", None, None,
                   _worker_stats(synth)))
    except Exception as exc:  # pragma: no cover - surfaced to coordinator
        res_q.put(("error", wid, f"{type(exc).__name__}: {exc}"))


def _probe_order(lo: int, hi: int, k: int) -> List[int]:
    """The bounds of ``[lo, hi]`` in the order ``k`` workers take them: the
    descend bound ``hi``, the points bisecting the rest, then the others
    from the top, each once, so no two workers prefer the same bound."""
    width, k = hi - lo, max(1, k)
    return list(dict.fromkeys(
        [hi - (j * width) // k for j in range(k)] + list(range(hi, lo - 1, -1))
    ))


class _WorkerPool:
    """Coordinator-side bookkeeping: who is probing what, who is idle."""

    def __init__(self, cmd_qs, res_q, names: List[str]):
        self.cmd_qs = cmd_qs
        self.res_q = res_q
        self.names = names
        n = len(names)
        self.alive: Set[int] = set(range(n))
        self.idle: Set[int] = set(range(n))
        #: wid -> (phase, depth_bound, swap_bound) of the newest command.
        self.assigned: Dict[int, Optional[Tuple[str, int, Optional[int]]]] = {}
        self.stats: Dict[int, dict] = {}
        self.errors: List[Tuple[str, str]] = []

    def send(self, wid: int, cmd) -> None:
        self.assigned[wid] = (cmd[1], cmd[2], cmd[3])
        self.idle.discard(wid)
        self.cmd_qs[wid].put(cmd)

    def taken_bounds(self, phase: str, depth_bound: Optional[int]) -> Set[int]:
        """Bounds currently being probed (for this phase/round)."""
        out: Set[int] = set()
        for wid, probe in self.assigned.items():
            if wid not in self.alive or probe is None or probe[0] != phase:
                continue
            if phase == "swap":
                if probe[1] == depth_bound:
                    out.add(probe[2])
            else:
                out.add(probe[1])
        return out

    def recv(self, timeout: float):
        try:
            return self.res_q.get(timeout=timeout)
        except _queue.Empty:
            return None

    def note_verdict(self, wid, phase, depth_bound, swap_bound) -> None:
        """A worker goes idle iff the verdict answers its *newest* command
        (a verdict for an older probe means a retarget is already queued)."""
        if self.assigned.get(wid) == (phase, depth_bound, swap_bound):
            self.assigned[wid] = None
            self.idle.add(wid)

    def reap(self, procs) -> None:
        """Drop workers whose process died without reporting an error."""
        for wid in list(self.alive):
            if not procs[wid].is_alive():
                self.alive.discard(wid)
                self.idle.discard(wid)
                self.errors.append((self.names[wid], "worker process died"))


class ParallelDescent:
    """Cooperating parallel descent over the Sec. III-B optimization loops.

    Parameters
    ----------
    entries:
        Portfolio configurations, one worker each.  All entries must agree
        on ``transition_based`` (bound units must be comparable).  Default:
        :func:`~repro.core.portfolio.default_portfolio`, cycled to
        ``n_workers`` entries.
    n_workers:
        Worker count when ``entries`` is not given (default 2).
    share:
        Exchange learnt clauses between workers (needs >= 2 workers).
    share_transport:
        ``"shm"`` — zero-copy shared-memory ring
        (:class:`~repro.sat.sharing.SharedClauseRing`); ``"queue"`` — the
        relay-thread queue bus; ``"auto"`` (default) — the ring, falling
        back to queues if shared memory is unavailable on the platform.
    slice_budget:
        Seconds per solver slice; retargets and stops do not wait for it.
    certify:
        Attach a machine-checkable optimality certificate to the result.
        Workers' UNSAT verdicts may rest on *imported* learnt clauses that
        are not locally derivable, so their proof logs cannot certify them
        (the proof-logging-vs-clause-sharing exclusivity rule); instead the
        coordinator re-proves the headline bounds post-hoc on a fresh
        proof-logging solver via :func:`repro.analysis.certify.certify_bound`
        after the race finishes.
    """

    def __init__(
        self,
        entries: Optional[Sequence[PortfolioEntry]] = None,
        n_workers: Optional[int] = None,
        time_budget: float = 300.0,
        share: bool = True,
        share_transport: str = "auto",
        slice_budget: float = 1.0,
        share_buffer: int = 64,
        swap_duration: int = 3,
        tracer=None,
        certify: bool = False,
    ):
        if entries is None:
            base = default_portfolio(
                swap_duration=swap_duration, time_budget=time_budget
            )
            n = n_workers if n_workers is not None else 2
            entries = [
                PortfolioEntry(
                    f"{base[i % len(base)].name}#{i}",
                    base[i % len(base)].config,
                    base[i % len(base)].transition_based,
                )
                for i in range(max(1, n))
            ]
        elif n_workers is not None and n_workers != len(entries):
            entries = [entries[i % len(entries)] for i in range(max(1, n_workers))]
        self.entries = list(entries)
        if not self.entries:
            raise ValueError("ParallelDescent needs at least one entry")
        if len({e.transition_based for e in self.entries}) > 1:
            raise ValueError(
                "ParallelDescent workers must share one transition model; "
                "mixing time-resolved and transition-based entries would "
                "make their depth bounds incomparable"
            )
        if share_transport not in ("auto", "shm", "queue"):
            raise ValueError(
                f"share_transport must be 'auto', 'shm' or 'queue', "
                f"got {share_transport!r}"
            )
        self.time_budget = time_budget
        self.share = share
        self.share_transport = share_transport
        self.slice_budget = slice_budget
        self.share_buffer = share_buffer
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.certify = certify
        self.outcomes: List[Tuple[str, Optional[str]]] = []
        # Headline bounds to certify post-hoc (set by _run/_swap_phase):
        # refuted depth bound, and (depth_bound, swap_bound, counter_max).
        self._depth_cert: Optional[int] = None
        self._swap_cert: Optional[Tuple[int, int, int]] = None
        # Subarchitecture portfolio dimension (set per synthesize() call):
        # wid -> full-device qubit labels of the worker's region (None =
        # full device), and the set of wids whose UNSAT verdicts are valid
        # for the full device (region UNSATs are local knowledge only).
        self._regions: List[Optional[Tuple[int, ...]]] = []
        self._prover_wids: Set[int] = set()
        # Interval telemetry of the last run (analytic lower bounds, warm
        # upper bounds), surfaced in solver_stats["interval"].
        self._interval: dict = {}

    # -- public API -------------------------------------------------------

    def synthesize(
        self,
        circuit: QuantumCircuit,
        device: CouplingGraph,
        *,
        objective: str = "depth",
        initial_mapping: Optional[Sequence[int]] = None,
    ) -> SynthesisResult:
        check_objective("ParallelDescent", objective)
        mapping = check_initial_mapping(circuit, device, initial_mapping)
        n = len(self.entries)
        started = time.monotonic()
        self._interval = {}
        self._assign_regions(circuit, device, mapping)
        templates = self._prepare_templates(circuit, device, mapping)
        ctx = (
            mp.get_context("fork")
            if "fork" in mp.get_all_start_methods()
            else mp.get_context()
        )
        relay = None
        ring = None
        ring_final_stats = None
        transport_used = None
        endpoints: List[Optional[object]] = [None] * n
        if self.share and n > 1:
            if self.share_transport in ("auto", "shm"):
                # Zero-copy path: one shared-memory ring every worker
                # appends to and reads from directly — no relay thread,
                # no pickling, no per-hop queue copy.
                try:
                    ring = SharedClauseRing(
                        capacity_words=max(1 << 14, self.share_buffer * 512),
                        ctx=ctx,
                    )
                    endpoints = [ring.endpoint(i) for i in range(n)]
                    transport_used = "shm"
                except Exception:
                    if self.share_transport == "shm":
                        raise
                    ring = None
            if ring is None:
                relay = ShareRelay(
                    n,
                    buffer=self.share_buffer,
                    queue_factory=lambda: ctx.Queue(self.share_buffer),
                )
                endpoints = [relay.endpoint(i) for i in range(n)]
                relay.start()
                transport_used = "queue"
        res_q = ctx.Queue()
        cmd_qs = [ctx.Queue() for _ in range(n)]
        # Workers outlive the depth deadline when a swap phase follows
        # (the sequential loop also re-arms its deadline between phases).
        worker_deadline = started + self.time_budget * (
            2 if objective == "swap" else 1
        ) + 30.0
        procs = []
        for wid, entry in enumerate(self.entries):
            cfg = entry.config.replace(tracer=None, progress_callback=None)
            region = self._regions[wid]
            worker_device = (
                device if region is None else self._region_graphs[wid]
            )
            procs.append(
                ctx.Process(
                    target=_descent_worker,
                    args=(wid, entry.name, cfg, entry.transition_based,
                          circuit, worker_device, region,
                          None if region is None else device,
                          mapping, cmd_qs[wid], res_q,
                          endpoints[wid], self.slice_budget, worker_deadline,
                          templates[wid]),
                    daemon=True,
                )
            )
        for proc in procs:
            proc.start()
        pool = _WorkerPool(cmd_qs, res_q, [e.name for e in self.entries])
        counters = {"pruned": 0}
        try:
            with self.tracer.span(
                "parallel.synthesize",
                workers=n,
                objective=objective,
                share=transport_used is not None,
                share_transport=transport_used,
            ):
                result = self._run(
                    circuit, device, mapping, objective, pool, procs,
                    counters, started,
                )
        finally:
            for q in cmd_qs:
                try:
                    q.put_nowait(("stop",))
                except Exception:
                    pass
            # Give workers one slice to exit cleanly and report their final
            # counters; whatever is still alive after that gets terminated.
            stop_deadline = time.monotonic() + min(2.0, 2 * self.slice_budget)
            waiting = set(pool.alive)
            while waiting and time.monotonic() < stop_deadline:
                msg = pool.recv(timeout=0.1)
                if msg is None:
                    pool.reap(procs)
                    waiting &= pool.alive
                    continue
                if msg[0] == "verdict":
                    pool.stats[msg[1]] = msg[8]
                    if msg[2] == "stopped":
                        waiting.discard(msg[1])
                elif msg[0] == "error":
                    waiting.discard(msg[1])
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=5)
            if relay is not None:
                relay.stop()
            if ring is not None:
                # Workers are gone; the coordinator owns the segment.
                ring_final_stats = ring.stats()
                ring.close(unlink=True)
        self.outcomes = [(name, err) for name, err in pool.errors]
        result.wall_time = time.monotonic() - started
        result.solver_stats = dict(result.solver_stats)
        per_worker = {
            pool.names[wid]: pool.stats.get(wid, {}) for wid in range(n)
        }
        parallel = {
            "workers": n,
            "share": transport_used is not None,
            "share_transport": transport_used,
            "pruned_probes": counters["pruned"],
            "clauses_exported": sum(
                s.get("exported_clauses", 0) for s in per_worker.values()
            ),
            "clauses_imported": sum(
                s.get("imported_clauses", 0) for s in per_worker.values()
            ),
            "conflicts": sum(
                s.get("conflicts", 0) for s in per_worker.values()
            ),
            "template_hits": sum(
                s.get("template_hits", 0) for s in per_worker.values()
            ),
            "per_worker": per_worker,
        }
        if relay is not None:
            parallel["relay"] = relay.stats()
        if ring_final_stats is not None:
            parallel["ring"] = ring_final_stats
        if any(r is not None for r in self._regions):
            parallel["subarch_regions"] = {
                pool.names[wid]: list(region)
                for wid, region in enumerate(self._regions)
                if region is not None
            }
        result.solver_stats["parallel"] = parallel
        if self._interval:
            result.solver_stats["interval"] = dict(self._interval)
        if self.certify:
            self._attach_certificate(result, circuit, device, mapping, objective)
        self.tracer.event("parallel.summary", **{
            k: v for k, v in parallel.items() if k != "per_worker"
        })
        result.wall_time = time.monotonic() - started
        return result

    def _assign_regions(self, circuit, device, mapping) -> None:
        """Decide the subarchitecture portfolio dimension for this run.

        Worker 0 always stays on the full device — it is the *global
        prover*: only its UNSAT verdicts (and those of other full-device
        workers) may raise the shared lower bound, so optimality proofs
        never rest on region-local infeasibility.  Workers 1..n-1 are
        assigned distinct extracted candidate regions (cycled when there
        are more workers than candidates); their SAT models are translated
        back to full-device labels inside the worker, their UNSATs only
        retire their own region.  Region assignment follows the first
        entry's ``subarch`` config knob and is skipped entirely for a
        pinned initial mapping (its labels may lie outside every region).
        """
        n = len(self.entries)
        self._regions = [None] * n
        self._region_graphs: List[Optional[CouplingGraph]] = [None] * n
        self._prover_wids = set(range(n))
        cfg = self.entries[0].config
        if (
            n < 2
            or mapping is not None
            or cfg.subarch == "off"
            or device.n_qubits <= circuit.n_qubits
            or circuit.n_qubits < 1
        ):
            return
        if cfg.subarch != "on" and device.n_qubits < 2 * circuit.n_qubits:
            return
        candidates = extract_candidates(
            circuit, device, max_candidates=max(1, n - 1)
        )
        if not candidates:
            return
        for wid in range(1, n):
            candidate = candidates[(wid - 1) % len(candidates)]
            self._regions[wid] = candidate.qubits
            self._region_graphs[wid] = candidate.graph
            self._prover_wids.discard(wid)

    def _prepare_templates(
        self, circuit, device, mapping
    ) -> List[Optional[Tuple[tuple, bytes]]]:
        """Pre-encode one snapshot per shared instance shape.

        Workers used to rebuild the same formula independently — pure
        Python encoding, done N times, which is what turned the parallel
        scaling negative once propagation moved into the compiled kernel.
        Here the coordinator groups workers by their encode key (portfolio
        entries differing only in post-encode knobs such as ``cardinality``
        share one), encodes each multi-member group's formula **once**, and
        ships the snapshot to every member; singleton groups keep encoding
        locally (a coordinator pre-encode would only serialize their work).
        Returns a per-wid list of ``(key, blob)`` or ``None``.
        """
        n = len(self.entries)
        templates: List[Optional[Tuple[tuple, bytes]]] = [None] * n
        groups: Dict[tuple, List[int]] = {}
        for wid, entry in enumerate(self.entries):
            cfg = entry.config
            if cfg.templates != "on" or cfg.certify:
                continue
            worker_device = (
                device if self._regions[wid] is None
                else self._region_graphs[wid]
            )
            horizon = IterativeSynthesizer(
                circuit,
                worker_device,
                config=cfg,
                transition_based=entry.transition_based,
            )._initial_horizon()
            key = template_key(
                circuit,
                worker_device,
                horizon,
                cfg,
                transition_based=entry.transition_based,
                initial_mapping=mapping,
            )
            groups.setdefault(key, []).append(wid)
        for key, wids in groups.items():
            if len(wids) < 2:
                continue
            wid0 = wids[0]
            entry = self.entries[wid0]
            encoder = LayoutEncoder(
                circuit,
                device if self._regions[wid0] is None
                else self._region_graphs[wid0],
                # key[4] is the horizon the group's members agreed on.
                key[4],
                config=entry.config.replace(
                    tracer=None, progress_callback=None
                ),
                transition_based=entry.transition_based,
                initial_mapping=list(mapping) if mapping is not None else None,
            ).encode()
            try:
                blob = snapshot_solver(encoder.ctx.sink)
            except SnapshotUnsupported:  # pragma: no cover - defensive
                continue
            for wid in wids:
                templates[wid] = (key, blob)
        return templates

    def _attach_certificate(
        self, result, circuit, device, mapping, objective
    ) -> None:
        """Post-hoc certificate: re-prove the headline UNSAT bounds on a
        fresh proof-logging solver (workers' own proofs are unusable when
        clause imports were on) and validate the returned model."""
        from ..analysis.certify import Certificate, certify_bound
        from .validator import is_valid

        cfg = self.entries[0].config
        tb = self.entries[0].transition_based
        horizon = IterativeSynthesizer(
            circuit, device, config=cfg, transition_based=tb
        )._initial_horizon()
        budget = min(60.0, self.time_budget)
        refutations = []
        expected = 0
        if result.optimal and self._depth_cert is not None:
            expected += 1
            refutations.append(
                certify_bound(
                    circuit,
                    device,
                    max(horizon, self._depth_cert),
                    depth_bound=self._depth_cert,
                    config=cfg,
                    transition_based=tb,
                    initial_mapping=mapping,
                    time_budget=budget,
                )
            )
        if result.optimal and objective == "swap" and self._swap_cert is not None:
            depth_bound, swap_bound, counter_max = self._swap_cert
            expected += 1
            refutations.append(
                certify_bound(
                    circuit,
                    device,
                    max(horizon, depth_bound),
                    depth_bound=depth_bound,
                    swap_bound=swap_bound,
                    swap_counter_max=counter_max,
                    config=cfg,
                    transition_based=tb,
                    initial_mapping=mapping,
                    time_budget=budget,
                )
            )
        certificate = Certificate(
            objective=objective,
            depth=result.depth,
            swap_count=result.swap_count,
            model_valid=is_valid(result),
            refutations=refutations,
            expected_refutations=expected,
            check_time=sum(r.check_time for r in refutations),
        )
        result.certificate = certificate
        if result.optimal:
            result.solver_stats["certified"] = certificate.refutations_ok
        self.tracer.event(
            "certify",
            complete=certificate.complete,
            refutations=len(refutations),
            expected=expected,
        )

    # -- phases -----------------------------------------------------------

    def _run(
        self, circuit, device, mapping, objective, pool, procs, counters,
        started,
    ):
        tb = self.entries[0].transition_based
        t_lb = max(1, 1 if tb else longest_chain_length(circuit))
        deadline = started + self.time_budget
        best: Dict[str, object] = {"result": None, "name": "", "key": None}
        self._interval["depth_lb"] = t_lb

        def apply_depth_sat(payload, achieved, d, s, wid, stale):
            key = (achieved[0], achieved[1])
            if best["result"] is None or key < best["key"]:
                best.update(result=payload, name=pool.names[wid], key=key)
            return achieved[0]

        # Warm start: one coordinator-side SABRE run seeds the race with a
        # validated full-device model, so the relax ladder is skipped and
        # the interval opens at [t_lb, warm_depth) instead of unbounded.
        # Sound because a validated heuristic schedule is a feasible model;
        # TB entries are excluded (block counts and time-resolved depths
        # are not comparable bound units).
        warm_ub = None
        if not tb and any(
            e.config.warm_start == "sabre" for e in self.entries
        ):
            warm = self._warm_reference(circuit, device, mapping)
            if warm is not None:
                warm.objective = "depth"
                warm.solver_stats = dict(warm.solver_stats)
                warm.solver_stats["warm_start_model"] = True
                raw_swaps = getattr(warm, "_raw_swaps", warm.swaps)
                best.update(
                    result=warm,
                    name="sabre-warm",
                    key=(warm.depth, len(raw_swaps)),
                )
                warm_ub = warm.depth
                self._interval["warm_depth_ub"] = warm_ub

        with self.tracer.span("parallel.phase", phase="depth") as span:
            lb, ub, proven = self._race(
                pool, procs, "depth", t_lb, warm_ub, None,
                [t_lb], tb, apply_depth_sat, deadline, counters,
            )
            span.set(lb=lb, ub=ub, proven=proven)
        # Headline UNSAT bound of the depth phase (monotonicity: the race
        # refuted lb - 1 >= ub - 1, so ub - 1 is the tightest claim).
        self._depth_cert = (
            ub - 1 if proven and ub is not None and ub > 1 else None
        )
        self._swap_cert = None
        if best["result"] is None:
            raise SynthesisTimeout(
                "no worker found a schedule within the time budget; "
                f"errors: {pool.errors}"
            )
        if objective == "depth":
            result = best["result"]
            result.optimal = proven
            result.solver_stats = dict(result.solver_stats)
            result.solver_stats["portfolio_winner"] = best["name"]
            return result
        return self._swap_phase(
            circuit, device, pool, procs, best, ub, counters, started
        )

    def _warm_reference(self, circuit, device, mapping):
        """A validated full-device SABRE schedule, or None on any failure."""
        from ..baselines.sabre import SABRE  # runtime import; avoids a cycle

        cfg = self.entries[0].config
        with self.tracer.span("warm_start", source="sabre") as span:
            try:
                heuristic = SABRE(
                    swap_duration=cfg.swap_duration, seed=0
                ).synthesize(circuit, device, initial_mapping=mapping)
            except (RuntimeError, ValueError):
                heuristic = None
            if heuristic is not None and is_valid(heuristic):
                span.set(depth=heuristic.depth, swaps=heuristic.swap_count)
                return heuristic
            span.set(depth=None)
        return None

    def _swap_phase(
        self, circuit, device, pool, procs, best, depth_ub, counters, started
    ):
        """2-D Pareto search (Sec. III-B.2), with each round's swap descent
        parallelised the same way as the depth phase."""
        deadline = time.monotonic() + self.time_budget
        depth_result = best["result"]
        depth_bound = depth_ub
        best_swaps = len(getattr(depth_result, "_raw_swaps", depth_result.swaps))
        counter_max = best_swaps
        # The analytic bound floors every round's descent: probes below it
        # cannot be SAT on any device region, so the race opens on
        # [floor, best_swaps) and reaching the floor proves optimality
        # without a final (often slowest) UNSAT query.  Certified runs keep
        # the floor at zero — the post-hoc certificate re-proves S*-1, which
        # the analytic shortcut would otherwise leave unrecorded.
        swap_floor = analytic_swap_lower_bound(circuit, device)
        self._interval["swap_lb"] = swap_floor
        if self.certify:
            swap_floor = 0
        self._interval["swap_ub_initial"] = best_swaps
        max_rounds = self.entries[0].config.max_pareto_rounds
        pareto: List[Tuple[int, int]] = []
        proven_any = False
        rounds = 0
        while True:
            entering = best_swaps
            round_floor = {"value": best_swaps}

            def apply_swap_sat(payload, achieved, d, s, wid, stale,
                               _floor=round_floor, _depth=depth_bound):
                nonlocal best_swaps
                if not stale and d == _depth:
                    _floor["value"] = min(_floor["value"], achieved[1])
                if achieved[1] < best_swaps:
                    best_swaps = achieved[1]
                    best.update(result=payload, name=pool.names[wid])
                    return achieved[1]
                return None

            with self.tracer.span(
                "parallel.phase", phase="swap", round=rounds + 1,
                depth_bound=depth_bound,
            ) as span:
                _lb, ub, proven = self._race(
                    pool, procs, "swap", swap_floor, best_swaps, depth_bound,
                    None, False, apply_swap_sat, deadline, counters,
                    counter_max=counter_max,
                )
                best_swaps = min(best_swaps, ub)
                span.set(swaps=best_swaps, proven=proven)
            pareto.append((depth_bound, round_floor["value"]))
            proven_any = proven_any or proven
            if proven and best_swaps > swap_floor:
                self._swap_cert = (depth_bound, best_swaps - 1, best_swaps)
            rounds += 1
            if best_swaps <= swap_floor:
                proven_any = True
                break
            if (
                rounds > max_rounds
                or time.monotonic() >= deadline
                or not pool.alive
            ):
                break
            if rounds > 1 and best_swaps >= entering:
                break  # relaxing depth no longer helps
            depth_bound += 1

        result = best["result"]
        result.objective = "swap"
        result.optimal = proven_any
        result.pareto_points = pareto
        result.solver_stats = dict(result.solver_stats)
        result.solver_stats["portfolio_winner"] = best["name"]
        return result

    # -- the interval race ------------------------------------------------

    def _race(
        self,
        pool: _WorkerPool,
        procs,
        phase: str,
        lb: int,
        ub: Optional[int],
        depth_bound: Optional[int],
        rung_state: Optional[List[int]],
        tb: bool,
        apply_sat,
        deadline: float,
        counters: dict,
        counter_max: Optional[int] = None,
    ) -> Tuple[int, Optional[int], bool]:
        """Drive the pool over probe bounds in ``[lb, ub)`` until the
        interval empties (optimality proven) or the deadline passes.

        ``ub is None`` starts in *relax* mode: probes walk the geometric
        ladder in ``rung_state`` until the first SAT establishes ``ub``.
        Returns ``(lb, ub, proven)``.

        Subarchitecture workers get *private* floors: their UNSAT verdicts
        only retire bounds for their own region (the full device might
        still satisfy them), so ``lb`` — and with it any optimality claim —
        advances on full-device (prover) verdicts alone.  When every alive
        worker's effective floor reaches ``ub`` with ``lb`` still below it,
        the race is stalled (all regions exhausted, no prover left) and
        returns unproven.
        """
        cfg = self.entries[0].config
        provers = self._prover_wids if self._prover_wids else set(pool.alive)
        #: wid -> region-local lower bound (UNSATs on that worker's region).
        floors: Dict[int, int] = {}

        # Sanitizer hook (repro.analysis.sanitize): under REPRO_SANITIZE or
        # config.sanitize, verify once that every shared-lower-bound writer
        # is a full-device prover, and re-verify at each raise site.  Off
        # costs one None check per shared-lb raise.
        lb_guard = None
        sanitize_mode = cfg.sanitize if cfg.sanitize is not None else (
            os.environ.get("REPRO_SANITIZE") or "off"
        )
        if sanitize_mode != "off" and self._regions:
            from ..analysis.sanitize import check_prover_assignment

            check_prover_assignment(provers, self._regions)

            def lb_guard(wid: int) -> None:
                check_prover_assignment((wid,), self._regions)

        def next_rung(b: int) -> int:
            if tb:
                return b + 1
            ratio = (
                cfg.depth_relax_small
                if b < cfg.depth_relax_threshold
                else cfg.depth_relax_large
            )
            return max(b + 1, math.ceil(ratio * b))

        def make_cmd(b: int):
            if phase == "swap":
                return ("probe", "swap", depth_bound, b, counter_max)
            return ("probe", "depth", b, None, None)

        def floor_of(wid: int) -> int:
            return max(lb, floors.get(wid, lb))

        def pick(wid: int) -> Optional[int]:
            if ub is None:
                b = rung_state[0]
                rung_state[0] = next_rung(b)
                return b
            lo = floor_of(wid)
            hi = ub - 1
            if hi < lo:
                return None
            taken = pool.taken_bounds(phase, depth_bound)
            alive = sorted(pool.alive)
            order = _probe_order(lo, hi, len(alive))
            # The j-th live worker tries the j-th bound first, so who probes
            # what does not hang on the order verdicts arrive in.
            rank = alive.index(wid) if wid in alive else 0
            mine = order[rank:rank + 1]
            return next((b for b in mine + order if b not in taken), None)

        while True:
            if ub is not None and lb >= ub:
                return lb, ub, True
            if time.monotonic() >= deadline or not pool.alive:
                return lb, ub, False
            if ub is not None and all(
                floor_of(wid) >= ub for wid in pool.alive
            ):
                # Every region (and any surviving prover) has retired the
                # whole interval privately, but lb < ub: nothing left to
                # probe, nothing proven for the full device.
                return lb, ub, False
            for wid in sorted(pool.idle & pool.alive):
                b = pick(wid)
                if b is None:
                    continue
                pool.send(wid, make_cmd(b))
                self.tracer.event(
                    "parallel.dispatch", worker=wid, phase=phase,
                    bound=b, depth_bound=depth_bound,
                )
            # Retarget busy workers whose probe the interval has outrun,
            # plus ones still chewing on a previous phase's or round's probe.
            for wid in sorted(pool.alive - pool.idle):
                probe = pool.assigned.get(wid)
                if probe is None:
                    continue
                if probe[0] == phase and (
                    phase != "swap" or probe[1] == depth_bound
                ):
                    b = probe[2] if phase == "swap" else probe[1]
                    if not (
                        b < floor_of(wid) or (ub is not None and b >= ub)
                    ):
                        continue
                    reason = "unsat_below" if b < floor_of(wid) else "sat_above"
                else:
                    b = probe[2] if probe[0] == "swap" else probe[1]
                    reason = "stale"
                nb = pick(wid)
                if nb is None:
                    continue
                counters["pruned"] += 1
                self.tracer.event(
                    "parallel.prune", worker=wid, phase=phase, bound=b,
                    reason=reason,
                )
                pool.send(wid, make_cmd(nb))
            msg = pool.recv(
                timeout=min(0.25, max(0.01, deadline - time.monotonic()))
            )
            if msg is None:
                pool.reap(procs)
                continue
            kind = msg[0]
            if kind == "ready":
                continue
            if kind == "error":
                wid = msg[1]
                pool.errors.append((pool.names[wid], msg[2]))
                pool.alive.discard(wid)
                pool.idle.discard(wid)
                continue
            _, wid, vphase, d, s, verdict, payload, achieved, stats = msg
            pool.stats[wid] = stats
            pool.note_verdict(wid, vphase, d, s)
            self.tracer.event(
                "parallel.verdict", worker=wid, phase=vphase,
                depth_bound=d, swap_bound=s, verdict=verdict,
            )
            if verdict == "sat":
                # A solution is a solution even when the probe is stale
                # (e.g. a depth-phase answer landing mid-swap-phase).
                new_ub = apply_sat(payload, achieved, d, s, wid, vphase != phase)
                if new_ub is not None:
                    ub = new_ub if ub is None else min(ub, new_ub)
            elif verdict == "unsat" and vphase == phase:
                if phase == "swap":
                    # UNSAT at a *tighter* depth proves nothing here.
                    if d == depth_bound:
                        if wid in provers:
                            if lb_guard is not None:
                                lb_guard(wid)
                            if s >= lb:
                                lb = s + 1
                        else:
                            floors[wid] = max(floors.get(wid, 0), s + 1)
                elif wid in provers:
                    if lb_guard is not None:
                        lb_guard(wid)
                    if d >= lb:
                        lb = d + 1
                else:
                    floors[wid] = max(floors.get(wid, 0), d + 1)
