"""The OLSQ2 succinct SMT formulation (paper Sec. III-A) over our SAT core.

Variables (no space variables — Improvement 1):

* mapping ``pi[q][t]`` — bounded-domain variable over physical qubits,
* time ``time[g]`` — bounded-domain variable over ``[0, horizon)``,
* SWAP ``sigma[e][t]`` — Boolean, true iff a SWAP on edge ``e`` finishes at
  time ``t`` (it occupies ``t - S_D + 1 .. t``; the mapping change becomes
  visible at ``t + 1``).

Constraint groups (Sec. II-A numbering):

1. mapping injectivity per time step (pairwise or EUF-style channeling),
2. gate dependencies (``t_g < t_g'``; ``<=`` in the transition-based model),
3. valid two-qubit scheduling via edge-selector literals (Eq. 1) — gate
   positions are *inferred* from mapping + time, the paper's key idea,
4. SWAP mapping transformation (stay/move clauses),
5. SWAPs don't overlap gates (Eq. 2-3) or other SWAPs.

The encoder also owns the *incremental bound machinery*: depth bounds and
SWAP-count bounds are activated per solve via assumption literals, so the
optimization loops in :mod:`repro.core.optimizer` reuse all learned clauses
across iterations (Sec. III-B).  Gate-time variables use the extensible
:class:`repro.smt.stepvar.StepVar` encoding so :meth:`LayoutEncoder.extend_horizon` can grow the formula *in place* when the relax phase needs
more time steps — the solver (and everything it has learned) survives.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..arch.coupling import CouplingGraph
from ..circuit.circuit import QuantumCircuit
from ..circuit.dag import dependencies
from ..encodings.adder import IncrementalAdder
from ..encodings.cardinality import IncrementalCounter, IncrementalTotalizer
from ..sat.result import SatResult
from ..sat.solver import Solver
from ..sat.types import neg
from ..smt.context import SMTContext
from ..smt.domain import make_domain_var
from ..smt.injectivity import encode_injectivity
from ..smt.stepvar import StepVar
from ..telemetry import NULL_TRACER
from .config import (
    CARD_ADDER,
    CARD_SEQUENTIAL,
    CARD_TOTALIZER,
    SynthesisConfig,
)
from .result import SwapEvent


class LayoutEncoder:
    """Encodes one layout-synthesis instance at a fixed horizon.

    ``transition_based=True`` switches to the TB-OLSQ2 coarse-grained model
    (Sec. III-D): time steps become blocks, dependencies become non-strict,
    the SWAP/gate overlap constraints disappear, and SWAPs happen in the
    transitions between consecutive blocks.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        device: CouplingGraph,
        horizon: int,
        config: Optional[SynthesisConfig] = None,
        transition_based: bool = False,
        ctx: Optional[SMTContext] = None,
        initial_mapping: Optional[List[int]] = None,
        tracer=None,
    ):
        if circuit.n_qubits > device.n_qubits:
            raise ValueError(
                f"circuit needs {circuit.n_qubits} qubits but device has "
                f"{device.n_qubits}"
            )
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.circuit = circuit
        self.device = device
        self.horizon = horizon
        self.config = config or SynthesisConfig()
        self.transition_based = transition_based
        # The default sink honours the config's kernel choice ("auto" /
        # "python" / "native") and sanitize mode; an explicitly passed ctx
        # keeps its sink.
        self.ctx = ctx or SMTContext(
            sink=Solver(
                kernel=self.config.kernel, sanitize=self.config.sanitize
            )
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer is not NULL_TRACER and isinstance(self.ctx.sink, Solver):
            # Let the solver publish per-solve stats snapshots into the
            # same trace (and poll cancellation at restarts).
            self.ctx.sink.tracer = self.tracer
        if initial_mapping is not None:
            if len(initial_mapping) != circuit.n_qubits:
                raise ValueError("initial mapping size != circuit qubits")
            if len(set(initial_mapping)) != len(initial_mapping):
                raise ValueError("initial mapping must be injective")
        self.initial_mapping = initial_mapping
        # Bulk clause loading (config.encode_bulk): each constraint family
        # stages its clauses and lands them through one arena bulk alloc.
        # Only a Solver sink has the staging API; CNF sinks (certify) keep
        # the plain per-clause path.
        self._bulk = self.config.encode_bulk != "off" and isinstance(
            self.ctx.sink, Solver
        )

        self.pi: List[List] = []  # [q][t] -> domain var over P
        self.time: List[StepVar] = []  # [g] -> extensible step var
        self.sigma: List[List[int]] = []  # [e][t] -> swap literal
        self.swap_lits: List[Tuple[int, int, int]] = []  # (lit, e_idx, t)
        self._depth_guards: Dict[int, int] = {}
        self._swap_counter = None
        self._encoded = False
        # Activation literal of the *current* horizon: assumed at every
        # solve (via the context's persistent assumptions) and implied by
        # every depth guard; it arms the at-least-one of each time var.
        self._act: Optional[int] = None
        # Number of variables after _make_variables at the *initial*
        # horizon: the pi/time/sigma prefix whose numbering is identical
        # across every encoder built for the same (circuit, device,
        # horizon, encoding) — the clause-sharing window (see share_key).
        self.base_vars = 0
        self._horizon0 = horizon
        self._share_key: Optional[tuple] = None
        # Operation journal: every variable-allocating call after encode(),
        # in order, so repro.analysis.certify can replay this encoder onto a
        # CNF sink and reproduce the exact variable numbering (the encoding
        # itself is deterministic; the journal pins the call sequence).
        self.journal: List[Tuple[str, object]] = []
        # Worker-private constraint groups (bounds, counters): label plus
        # the clause-index range they contributed.  The ranges are only
        # meaningful on a CNF sink, which keeps every clause verbatim.
        self._private_groups: List[dict] = []

    # -- encoding ----------------------------------------------------------

    def encode(self) -> "LayoutEncoder":
        """Build all variables and static constraints.  Idempotent."""
        if self._encoded:
            return self
        self._encoded = True
        started = time.monotonic()
        with self.tracer.span(
            "encode",
            horizon=self.horizon,
            transition_based=self.transition_based,
            encoding=self.config.encoding,
        ) as span:
            self._traced("variables", self._make_variables)
            self.base_vars = self.ctx.n_vars
            self._horizon0 = self.horizon
            if self.initial_mapping is not None:
                for q, p in enumerate(self.initial_mapping):
                    self.pi[q][0].fix(p)
            self._traced("injectivity", self._encode_injectivity)
            self._traced("dependencies", self._encode_dependencies)
            self._traced("adjacency", self._encode_two_qubit_adjacency)
            self._traced("transformation", self._encode_mapping_transformation)
            if not self.transition_based:
                self._traced("swap_gate_exclusion", self._encode_swap_gate_exclusion)
            self._traced("swap_swap_exclusion", self._encode_swap_swap_exclusion)
            span.set(n_vars=self.ctx.n_vars, n_clauses=self.ctx.num_clauses)
        sink = self.ctx.sink
        if isinstance(sink, Solver):
            # Encode-side wall clock (the counterpart of solve_wall_sec,
            # which solve() accumulates): replaying onto a restored
            # snapshot also lands here, so a template hit shows up as a
            # near-zero encode share instead of a missing one.
            sink.stats.encode_wall_sec += time.monotonic() - started
        return self

    def _traced(self, family: str, build) -> None:
        """Run one constraint-family builder under a span that records the
        variable/clause counts it contributed.

        With bulk loading on, the family's clauses are staged and flushed
        at the family boundary — inside this method, so the span's clause
        delta still sees the landed count.  Replay mode (snapshot restore)
        skips staging: add_clause is a no-op there.
        """
        with self.tracer.span("encode." + family) as span:
            v0, c0 = self.ctx.n_vars, self.ctx.num_clauses
            sink = self.ctx.sink
            if self._bulk and not sink.replaying:
                sink.begin_bulk()
                try:
                    build()
                finally:
                    sink.end_bulk()
            else:
                build()
            span.set(vars=self.ctx.n_vars - v0, clauses=self.ctx.num_clauses - c0)

    def _make_variables(self) -> None:
        ctx, cfg = self.ctx, self.config
        n_phys = self.device.n_qubits
        horizon = self.horizon
        self.pi = [
            [make_domain_var(ctx, n_phys, cfg.encoding) for _ in range(horizon)]
            for _ in range(self.circuit.n_qubits)
        ]
        self.time = [StepVar(ctx, horizon) for _ in range(self.circuit.num_gates)]
        self._activate_horizon()
        # SWAP literals.  Non-TB: sigma[e][t] = swap finishing at t; only
        # t in [S_D-1, horizon-1) is meaningful.  TB: sigma[e][k] = swap in
        # the transition after block k, k in [0, horizon-1).
        n_transitions = horizon - 1
        self.sigma = []
        for e_idx in range(self.device.num_edges):
            col = []
            for t in range(n_transitions):
                lit = ctx.new_bool()
                col.append(lit)
                if not self.transition_based and t < cfg.swap_duration - 1:
                    ctx.add([neg(lit)])  # cannot finish before one full duration
                else:
                    self.swap_lits.append((lit, e_idx, t))
            self.sigma.append(col)

    def _activate_horizon(self) -> None:
        """(Re-)arm the guarded at-least-one of every time variable.

        A fresh activation literal ``act`` is created with
        ``act -> (z_0 | ... | z_{H-1})`` per gate; it replaces the previous
        horizon's literal in the context's persistent assumptions, so old
        at-least-ones retire silently when the horizon grows.
        """
        act = self.ctx.new_bool()
        for var in self.time:
            self.ctx.add([neg(act)] + list(var.selectors))
        if self._act is not None:
            self.ctx.persistent_assumptions.remove(self._act)
        self._act = act
        self.ctx.persistent_assumptions.append(act)

    @property
    def horizon_act(self) -> int:
        """The current horizon's activation literal (see extend_horizon)."""
        self.encode()
        return self._act

    def share_key(self) -> tuple:
        """The clause-sharing context key for this encoder's base prefix.

        Two workers may exchange learnt clauses over variables below
        :attr:`base_vars` exactly when their keys are equal: the key pins
        everything that determines both the *numbering* (circuit shape,
        device size, initial horizon, variable encoding) and the
        *semantics* (transition model, SWAP duration, pinned initial
        mapping) of those variables.  Knobs that only add auxiliary
        variables above the prefix (injectivity method, cardinality
        encoding, warm-start hints) deliberately stay out of the key —
        sharing across those configurations is the whole point.  The key
        is fixed at first encode: clauses over the initial-horizon prefix
        stay sound when a worker later extends its horizon in place, since
        extension only ever appends clauses and every model of the shorter
        formula extends to the longer one.
        """
        self.encode()
        if self._share_key is None:
            mapping = (
                tuple(self.initial_mapping)
                if self.initial_mapping is not None
                else None
            )
            self._share_key = (
                "olsq2",
                self.config.encoding,
                self.transition_based,
                self.config.swap_duration,
                self._horizon0,
                self.base_vars,
                self.circuit.num_gates,
                self.circuit.n_qubits,
                self.device.n_qubits,
                self.device.num_edges,
                mapping,
            )
        return self._share_key

    def _encode_injectivity(self) -> None:
        for t in range(self.horizon):
            encode_injectivity(
                self.ctx,
                [self.pi[q][t] for q in range(self.circuit.n_qubits)],
                self.device.n_qubits,
                method=self.config.injectivity,
                encoding=self.config.encoding,
            )

    def _encode_dependencies(self) -> None:
        for earlier, later in dependencies(self.circuit):
            if self.transition_based:
                self.time[earlier].less_equal(self.time[later])
            else:
                self.time[earlier].less_than(self.time[later])

    def _encode_two_qubit_adjacency(self) -> None:
        """Eq. 1: a two-qubit gate's qubits sit on some edge at its time.

        For each gate g(q, q') and time t, an edge-selector literal
        ``s[g,t,e]`` commits the gate to edge e; the selector implies both
        qubits lie on e's endpoints (injectivity then forces them onto the
        two distinct endpoints).
        """
        ctx = self.ctx
        edges = self.device.edges
        for g_idx, gate in self.circuit.two_qubit_gates:
            q, q_prime = gate.qubits
            for t in range(self.horizon):
                z = self.time[g_idx].eq_lit(t)
                selectors = []
                for a, b in edges:
                    s = ctx.new_bool()
                    selectors.append(s)
                    ctx.add([neg(s), self.pi[q][t].eq_lit(a), self.pi[q][t].eq_lit(b)])
                    ctx.add(
                        [
                            neg(s),
                            self.pi[q_prime][t].eq_lit(a),
                            self.pi[q_prime][t].eq_lit(b),
                        ]
                    )
                ctx.add([neg(z)] + selectors)

    def _encode_mapping_transformation(self) -> None:
        """Constraint (4): the mapping evolves only through SWAPs.

        Between steps t-1 and t the mapping of q changes exactly when a SWAP
        finishing at t-1 (TB: in transition t-1) touches q's position.
        """
        ctx = self.ctx
        edges = self.device.edges
        incident = self.device.incident_edges
        for t in range(1, self.horizon):
            for q in range(self.circuit.n_qubits):
                prev_var, cur_var = self.pi[q][t - 1], self.pi[q][t]
                for p in range(self.device.n_qubits):
                    x_prev = prev_var.eq_lit(p)
                    # Stay clause: no incident swap => same position.
                    stay = [neg(x_prev)]
                    stay.extend(self.sigma[e][t - 1] for e in incident[p])
                    stay.append(cur_var.eq_lit(p))
                    ctx.add(stay)
                    # Move clauses: incident swap => other endpoint.
                    for e in incident[p]:
                        a, b = edges[e]
                        other = b if a == p else a
                        ctx.add(
                            [
                                neg(x_prev),
                                neg(self.sigma[e][t - 1]),
                                cur_var.eq_lit(other),
                            ]
                        )

    def _encode_swap_gate_exclusion(self) -> None:
        """Eq. 2-3: a SWAP occupying ``t-S_D+1..t`` on edge e excludes gates
        scheduled in that window whose qubits sit on e's endpoints."""
        ctx = self.ctx
        duration = self.config.swap_duration
        edges = self.device.edges
        for lit, e_idx, t in self.swap_lits:
            a, b = edges[e_idx]
            window = range(max(0, t - duration + 1), t + 1)
            for g_idx, gate in enumerate(self.circuit.gates):
                for t_prime in window:
                    z = self.time[g_idx].eq_lit(t_prime)
                    for q in gate.qubits:
                        # Mapping is stable across the window (no other swap
                        # may touch these qubits meanwhile), so testing the
                        # position at the finish time t is sound (cf. paper).
                        ctx.add([neg(z), neg(self.pi[q][t].eq_lit(a)), neg(lit)])
                        ctx.add([neg(z), neg(self.pi[q][t].eq_lit(b)), neg(lit)])

    def _encode_swap_swap_exclusion(self) -> None:
        """Two SWAPs sharing a qubit cannot overlap in time.

        In the TB model this degenerates to: within one transition, the
        chosen swap edges form a matching (one layer of parallel SWAPs).
        """
        ctx = self.ctx
        duration = 1 if self.transition_based else self.config.swap_duration
        edges = self.device.edges
        n_transitions = self.horizon - 1
        # Pairs of distinct edges sharing an endpoint.
        incident_pairs = []
        for p in range(self.device.n_qubits):
            inc = self.device.incident_edges[p]
            for i in range(len(inc)):
                for j in range(i + 1, len(inc)):
                    incident_pairs.append((inc[i], inc[j]))
        incident_pairs = sorted(set(incident_pairs))
        for t in range(n_transitions):
            for e1, e2 in incident_pairs:
                for dt in range(duration):
                    t2 = t + dt
                    if t2 >= n_transitions:
                        break
                    ctx.add([neg(self.sigma[e1][t]), neg(self.sigma[e2][t2])])
                    if dt > 0:
                        ctx.add([neg(self.sigma[e2][t]), neg(self.sigma[e1][t2])])
            # Same edge twice within the duration window.
            if duration > 1:
                for e in range(len(edges)):
                    for dt in range(1, duration):
                        t2 = t + dt
                        if t2 >= n_transitions:
                            break
                        ctx.add([neg(self.sigma[e][t]), neg(self.sigma[e][t2])])

    # -- incremental horizon extension ------------------------------------------

    def _supports_extension(self) -> bool:
        """Whether :meth:`extend_horizon` can grow this encoder in place.

        Subclasses with extra constraint families (e.g. the OLSQ baseline's
        space variables) must override their own extension or fall back to a
        rebuild; a built SWAP cardinality layer is pinned to the current
        ``swap_lits`` and cannot be widened, so it also forces a rebuild.
        """
        return type(self) is LayoutEncoder and self._swap_counter is None

    def extend_horizon(self, new_horizon: int) -> bool:
        """Grow the encoded formula in place to ``new_horizon`` time steps.

        Appends the new steps' variables and constraints to the *existing*
        solver, so learnt clauses, VSIDS activities, and saved phases all
        survive (the point of Sec. III-B's incremental loop).  Returns
        ``False`` when this encoder cannot extend (see
        :meth:`_supports_extension`) — the caller should rebuild instead.
        A ``new_horizon`` at or below the current one is a successful no-op.
        """
        self.encode()
        if new_horizon <= self.horizon:
            return True
        if not self._supports_extension():
            return False
        started = time.monotonic()
        with self.tracer.span(
            "extend", old_horizon=self.horizon, new_horizon=new_horizon
        ) as span:
            v0, c0 = self.ctx.n_vars, self.ctx.num_clauses
            sink = self.ctx.sink
            if self._bulk and not sink.replaying:
                sink.begin_bulk()
                try:
                    self._extend_to(new_horizon)
                finally:
                    sink.end_bulk()
            else:
                self._extend_to(new_horizon)
            span.set(vars=self.ctx.n_vars - v0, clauses=self.ctx.num_clauses - c0)
        self.journal.append(("extend", new_horizon))
        if isinstance(sink, Solver):
            sink.stats.encode_wall_sec += time.monotonic() - started
        return True

    def _extend_to(self, new_h: int) -> None:
        ctx, cfg = self.ctx, self.config
        old_h = self.horizon
        n_phys = self.device.n_qubits
        edges = self.device.edges
        incident = self.device.incident_edges

        # Variables: wider time domains, new mapping columns, new SWAPs.
        for var in self.time:
            var.grow(new_h)
        for q in range(self.circuit.n_qubits):
            self.pi[q].extend(
                make_domain_var(ctx, n_phys, cfg.encoding)
                for _ in range(old_h, new_h)
            )
        old_nt, new_nt = old_h - 1, new_h - 1
        new_swap_lits: List[Tuple[int, int, int]] = []
        for e_idx in range(self.device.num_edges):
            col = self.sigma[e_idx]
            for t in range(old_nt, new_nt):
                lit = ctx.new_bool()
                col.append(lit)
                if not self.transition_based and t < cfg.swap_duration - 1:
                    ctx.add([neg(lit)])
                else:
                    entry = (lit, e_idx, t)
                    self.swap_lits.append(entry)
                    new_swap_lits.append(entry)

        # Constraints, mirroring encode() restricted to the new steps.
        for t in range(old_h, new_h):
            encode_injectivity(
                ctx,
                [self.pi[q][t] for q in range(self.circuit.n_qubits)],
                n_phys,
                method=cfg.injectivity,
                encoding=cfg.encoding,
            )
        for var in self.time:
            var.extend_orders(old_h)
        for g_idx, gate in self.circuit.two_qubit_gates:
            q, q_prime = gate.qubits
            for t in range(old_h, new_h):
                z = self.time[g_idx].eq_lit(t)
                selectors = []
                for a, b in edges:
                    sel = ctx.new_bool()
                    selectors.append(sel)
                    ctx.add([neg(sel), self.pi[q][t].eq_lit(a), self.pi[q][t].eq_lit(b)])
                    ctx.add(
                        [
                            neg(sel),
                            self.pi[q_prime][t].eq_lit(a),
                            self.pi[q_prime][t].eq_lit(b),
                        ]
                    )
                ctx.add([neg(z)] + selectors)
        for t in range(max(1, old_h), new_h):
            for q in range(self.circuit.n_qubits):
                prev_var, cur_var = self.pi[q][t - 1], self.pi[q][t]
                for p_ in range(n_phys):
                    x_prev = prev_var.eq_lit(p_)
                    stay = [neg(x_prev)]
                    stay.extend(self.sigma[e][t - 1] for e in incident[p_])
                    stay.append(cur_var.eq_lit(p_))
                    ctx.add(stay)
                    for e in incident[p_]:
                        a, b = edges[e]
                        other = b if a == p_ else a
                        ctx.add(
                            [
                                neg(x_prev),
                                neg(self.sigma[e][t - 1]),
                                cur_var.eq_lit(other),
                            ]
                        )
        if not self.transition_based:
            duration = cfg.swap_duration
            for lit, e_idx, t in new_swap_lits:
                a, b = edges[e_idx]
                window = range(max(0, t - duration + 1), t + 1)
                for g_idx, gate in enumerate(self.circuit.gates):
                    for t_prime in window:
                        z = self.time[g_idx].eq_lit(t_prime)
                        for q in gate.qubits:
                            ctx.add([neg(z), neg(self.pi[q][t].eq_lit(a)), neg(lit)])
                            ctx.add([neg(z), neg(self.pi[q][t].eq_lit(b)), neg(lit)])
        self._extend_swap_swap_exclusion(old_nt, new_nt)

        self.horizon = new_h
        self._activate_horizon()

        # Cached depth guards keep their meaning: forbid every new time
        # step (all are >= the old horizon > bound - 1) and every new SWAP.
        for bound, guard in self._depth_guards.items():
            for var in self.time:
                for t in range(old_h, new_h):
                    ctx.add([neg(guard), neg(var.selectors[t])])
            for lit, _e, t in new_swap_lits:
                if t >= bound - 1:
                    ctx.add([neg(guard), neg(lit)])

    def _extend_swap_swap_exclusion(self, old_nt: int, new_nt: int) -> None:
        """The swap/swap pairs whose later endpoint lands in the new steps."""
        ctx = self.ctx
        duration = 1 if self.transition_based else self.config.swap_duration
        incident_pairs = []
        for p_ in range(self.device.n_qubits):
            inc = self.device.incident_edges[p_]
            for i in range(len(inc)):
                for j in range(i + 1, len(inc)):
                    incident_pairs.append((inc[i], inc[j]))
        incident_pairs = sorted(set(incident_pairs))
        for t in range(new_nt):
            for e1, e2 in incident_pairs:
                for dt in range(duration):
                    t2 = t + dt
                    if t2 >= new_nt:
                        break
                    if t2 < old_nt:
                        continue  # both endpoints predate the extension
                    ctx.add([neg(self.sigma[e1][t]), neg(self.sigma[e2][t2])])
                    if dt > 0:
                        ctx.add([neg(self.sigma[e2][t]), neg(self.sigma[e1][t2])])
            if duration > 1:
                for e in range(self.device.num_edges):
                    for dt in range(1, duration):
                        t2 = t + dt
                        if t2 >= new_nt:
                            break
                        if t2 < old_nt:
                            continue
                        ctx.add([neg(self.sigma[e][t]), neg(self.sigma[e][t2])])

    # -- incremental bounds -----------------------------------------------------

    def depth_guard(self, bound: int) -> int:
        """Assumption literal enforcing depth (block count) <= ``bound``.

        Gates must finish by ``bound - 1``; SWAPs whose effect would only be
        visible at or beyond ``bound`` are forbidden as useless.
        """
        if not 1 <= bound <= self.horizon:
            raise ValueError(f"bound {bound} outside [1, {self.horizon}]")
        guard = self._depth_guards.get(bound)
        if guard is not None:
            return guard
        c0 = self.ctx.num_clauses
        guard = self.ctx.new_bool()
        # The guard arms the current horizon (so a certifying caller may
        # assert the guard as a unit clause and needs no assumptions).
        self.ctx.add([neg(guard), self._act])
        for time_var in self.time:
            time_var.leq_const(bound - 1, guard=guard)
        for lit, _e, t in self.swap_lits:
            if t >= bound - 1:
                self.ctx.add([neg(guard), neg(lit)])
        self._depth_guards[bound] = guard
        self.journal.append(("depth_guard", bound))
        self._private_groups.append(
            {
                "kind": "private",
                "label": f"depth_guard[{bound}]",
                "guard": guard,
                "clause_range": (c0, self.ctx.num_clauses),
            }
        )
        return guard

    def init_swap_counter(self, max_bound: int) -> None:
        """Build the cardinality layer for SWAP-count bounds (once).

        ``max_bound`` should be the SWAP count of an already-found solution;
        the iterative descent only ever asks for bounds below it.
        """
        if self._swap_counter is not None:
            return
        lits = [lit for lit, _e, _t in self.swap_lits]
        method = self.config.cardinality
        c0 = self.ctx.num_clauses
        if method == CARD_SEQUENTIAL:
            self._swap_counter = IncrementalCounter(
                self.ctx.sink, lits, max_bound=max_bound
            )
        elif method == CARD_TOTALIZER:
            self._swap_counter = IncrementalTotalizer(self.ctx.sink, lits)
        elif method == CARD_ADDER:
            self._swap_counter = IncrementalAdder(self.ctx.sink, lits)
        else:  # pragma: no cover - config validates
            raise ValueError(f"unknown cardinality method {method!r}")
        self.journal.append(("swap_counter", max_bound))
        self._private_groups.append(
            {
                "kind": "private",
                "label": f"swap_counter[{method}]",
                "guard": None,
                "clause_range": (c0, self.ctx.num_clauses),
            }
        )

    def swap_guard(self, bound: int) -> Optional[int]:
        """Assumption literal enforcing total SWAP count <= ``bound``."""
        if self._swap_counter is None:
            raise RuntimeError("call init_swap_counter() first")
        c0 = self.ctx.num_clauses
        lit = self._swap_counter.bound_literal(bound)
        self.journal.append(("swap_guard", bound))
        if self.ctx.num_clauses != c0:
            # Some cardinality layers (the adder) lazily encode each new
            # bound's comparison; track those clauses like any other
            # worker-private bound group.
            self._private_groups.append(
                {
                    "kind": "private",
                    "label": f"swap_guard[{bound}]",
                    "guard": lit,
                    "clause_range": (c0, self.ctx.num_clauses),
                }
            )
        return lit

    # -- search guidance -----------------------------------------------------

    def seed_initial_mapping(self, mapping: List[int]) -> None:
        """Warm-start the solver toward a given t=0 mapping.

        The mapping (e.g. produced by SABRE) is turned into phase-saving
        polarity hints on the ``pi[q][0]`` variables — the paper's Sec. V
        idea of guiding the generic SAT search with application-specific
        heuristics.  Hints never constrain the problem.
        """
        self.encode()
        if len(mapping) != self.circuit.n_qubits:
            raise ValueError("mapping size != number of program qubits")
        self.journal.append(("seed_mapping", tuple(mapping)))
        hints: Dict[int, bool] = {}
        for q, p in enumerate(mapping):
            var = self.pi[q][0]
            hints.update(var.polarity_hints(p))
            # Also cover the (cached) equality-indicator auxiliaries — the
            # solver may branch on those before the raw value bits.
            for value in range(var.size):
                lit = var.eq_lit(value)
                hints[lit >> 1] = (value == p) ^ bool(lit & 1)
        # A CNF sink has no notion of phase saving; the eq_lit walk above
        # still matters there, so a certification mirror replaying this call
        # allocates the same equality auxiliaries as the live solver did.
        warm = getattr(self.ctx.sink, "warm_start", None)
        if warm is not None:
            warm(hints)

    def seed_schedule(self, gate_times: List[int]) -> None:
        """Warm-start the solver toward a given gate schedule."""
        self.encode()
        if len(gate_times) != self.circuit.num_gates:
            raise ValueError("schedule size != number of gates")
        self.journal.append(("seed_schedule", tuple(gate_times)))
        hints: Dict[int, bool] = {}
        for g_idx, t in enumerate(gate_times):
            if 0 <= t < self.horizon:
                var = self.time[g_idx]
                hints.update(var.polarity_hints(t))
                for value in range(var.size):
                    lit = var.eq_lit(value)
                    hints[lit >> 1] = (value == t) ^ bool(lit & 1)
        warm = getattr(self.ctx.sink, "warm_start", None)
        if warm is not None:
            warm(hints)

    # -- static-analysis metadata --------------------------------------------

    def constraint_groups(self) -> List[dict]:
        """Structured metadata about the encoding's constraint groups.

        Consumed by :mod:`repro.analysis.lint` to verify that the CNF the
        encoder produced actually contains the clauses each group promises:

        * ``amo``/``alo`` — a gate-time variable's pairwise at-most-one and
          its act-guarded at-least-one (the selectors plus guard literal),
        * ``exactly_one`` — a one-hot mapping variable's value group,
        * ``ladder`` — the sequential counter's register rows (Sinz LT_{n,k}),
        * ``private`` — worker-local bound machinery (depth guards, SWAP
          cardinality) whose every clause must carry at least one literal
          outside the shared :attr:`base_vars` prefix, so it can never leak
          through ``ShareClient`` exports into a sibling solver that does
          not share the same bounds.

        ``private`` clause ranges index into ``ctx.sink.clauses`` and are
        only meaningful on a CNF sink (a live solver drops and simplifies
        clauses as it goes).
        """
        self.encode()
        from ..smt.domain import OneHotVar

        groups: List[dict] = []
        for g_idx, var in enumerate(self.time):
            selectors = list(var.selectors)
            groups.append(
                {"kind": "amo", "label": f"time[{g_idx}]", "lits": selectors}
            )
            groups.append(
                {
                    "kind": "alo",
                    "label": f"time[{g_idx}]",
                    "lits": selectors,
                    "guard": self._act,
                }
            )
        for q, column in enumerate(self.pi):
            for t, dom in enumerate(column):
                if isinstance(dom, OneHotVar):
                    groups.append(
                        {
                            "kind": "exactly_one",
                            "label": f"pi[{q}][{t}]",
                            "lits": list(dom.selectors),
                        }
                    )
        counter = self._swap_counter
        if isinstance(counter, IncrementalCounter) and counter.registers:
            groups.append(
                {
                    "kind": "ladder",
                    "label": "swap_counter",
                    "inputs": list(counter.lits),
                    "rows": [list(row) for row in counter.registers],
                }
            )
        groups.extend(self._private_groups)
        return groups

    # -- solving / extraction ----------------------------------------------------

    def solve(self, assumptions=(), time_budget=None) -> SatResult:
        self.encode()
        return self.ctx.solve(assumptions=assumptions, time_budget=time_budget)

    def extract(self) -> Tuple[List[int], List[int], List[SwapEvent]]:
        """Read (initial mapping, gate times, swaps) from the current model."""
        model = self.ctx.sink.model
        if not model:
            raise RuntimeError("no model available")
        initial = [self.pi[q][0].decode(model) for q in range(self.circuit.n_qubits)]
        times = [var.decode(model) for var in self.time]
        swaps = []
        for lit, e_idx, t in self.swap_lits:
            if model[lit >> 1] ^ bool(lit & 1):
                a, b = self.device.edges[e_idx]
                swaps.append(SwapEvent(a, b, t))
        swaps.sort(key=lambda s: s.finish_time)
        return initial, times, swaps
