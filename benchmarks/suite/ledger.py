"""Traced-pass instrumentation and the per-layer ledger built from it.

A traced pass hands a ``Tracer(sinks=[MemorySink()])`` to the program
through its public hooks (``SynthesisConfig(tracer=...)``,
``ParallelDescent(tracer=...)``, ``SynthesisService(tracer=...)``), which
records the spans and events the program already emits.  Public entry
points that emit no span of their own are timed here, from outside, by
wrapping the name where its consumer looks it up (a function imported by
name is patched in the importing module).  The wrappers exist only while
a traced pass runs, so untraced passes pay nothing for them.

Every span's *self* time is its duration minus its direct children's; the
span name decides the layer it is charged to, except that everything the
certificate checker runs is charged to certification.  Each item (instance or
request) has one root span; the layers' self times inside the roots must
explain the roots' wall time (``layers.unattributed_frac``).
"""

from __future__ import annotations

import importlib
import statistics
from typing import Any, Callable, Dict, List, Optional

#: The seven constraint families the encoder emits as ``encode.<family>``.
FAMILIES = (
    "variables",
    "injectivity",
    "dependencies",
    "adjacency",
    "transformation",
    "swap_gate_exclusion",
    "swap_swap_exclusion",
)

#: Span name -> layer charged with its self time.  The benchmark's own
#: ``item`` roots belong to no layer: their self time is unattributed.
LAYER_OF = {
    "optimize": "optimizer",
    "encode": "encoder",
    "extend": "encoder",
    "extract": "encoder",
    "encode.bounds": "encoder",
    **{"encode." + family: "encoder" for family in FAMILIES},
    "simplify": "inprocess",
    "inprocess.run": "inprocess",
    "solve": "solver",
    "warm_start": "sabre",
    "subarch.extract": "subarch",
    "subarch.translate": "subarch",
    "snapshot.restore": "snapshot",
    "snapshot.store": "snapshot",
    "certify.check": "certify",
    "certify.rup": "certify",
    "parallel.call": "parallel",
    "parallel.synthesize": "parallel",
    "parallel.phase": "parallel",
    "service.submit": "service",
    "validate": "validator",
}

#: One root span per item: the benchmark's wrapper of the public call.
ROOTS = ("item", "parallel.call", "service.submit")

INPROCESS_COUNTERS = ("vivified_clauses", "subsumed_clauses", "strengthened_clauses")


def _formula_size(encoder) -> Dict[str, int]:
    return {"clauses": encoder.ctx.num_clauses, "vars": encoder.ctx.n_vars}


def _inprocess_counters(inprocessor) -> Dict[str, int]:
    stats = inprocessor.solver.stats
    return {c: getattr(stats, c) for c in INPROCESS_COUNTERS}


def _delta(measure: Callable[[Any], Dict[str, int]]):
    """``after`` hook: the growth of ``measure(self)`` across the call."""
    return lambda before, _result, owner, *a, **k: {
        key: value - before[key] for key, value in measure(owner).items()
    }


class Ledger:
    """Instrumentation for one traced pass (a context manager).

    ``tracer`` goes to the program.  ``requests`` collects the service
    request intervals the driver measures itself: requests interleave on
    the event loop, so they cannot nest on the tracer's span stack.
    """

    def __init__(self) -> None:
        from repro.telemetry import MemorySink, Tracer

        self.sink = MemorySink()
        self.tracer = Tracer(sinks=[self.sink])
        self.requests: List[Dict[str, Any]] = []
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, owner: Any, attr: str, span: str,
              before: Optional[Callable[..., Dict[str, Any]]] = None,
              after: Optional[Callable[..., Dict[str, Any]]] = None) -> None:
        original = getattr(owner, attr)
        tracer = self.tracer

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(span) as sp:
                start = before(*args, **kwargs) if before else None
                result = original(*args, **kwargs)
                if after is not None:
                    sp.set(**after(start, result, *args, **kwargs))
            return result

        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def __enter__(self) -> "Ledger":
        mod = importlib.import_module
        olsq2 = mod("repro.core.olsq2")
        optimizer = mod("repro.core.optimizer")
        snapshot = mod("repro.sat.snapshot")
        encoder_cls = mod("repro.core.encoder").LayoutEncoder

        self._wrap(olsq2, "extract_candidates", "subarch.extract",
                   after=lambda _b, found, *a, **k: {"candidates": len(found)})
        self._wrap(olsq2, "translate_result", "subarch.translate")
        # The optimizer imports these from repro.sat.snapshot at each call;
        # the parallel coordinator imported snapshot_solver by name.
        self._wrap(snapshot, "restore_solver", "snapshot.restore")
        self._wrap(snapshot, "snapshot_solver", "snapshot.store")
        self._wrap(mod("repro.core.parallel"), "snapshot_solver", "snapshot.store")
        self._wrap(optimizer, "check_records", "certify.check")
        self._wrap(optimizer, "certify_bound", "certify.check")
        self._wrap(mod("repro.analysis.certify"), "check_unsat_proof", "certify.rup",
                   before=lambda _cnf, proof, *a, **k: {"steps": len(proof)},
                   after=lambda before, *a, **k: before)
        for method in ("init_swap_counter", "swap_guard", "depth_guard"):
            self._wrap(encoder_cls, method, "encode.bounds",
                       before=lambda enc, *a, **k: _formula_size(enc),
                       after=_delta(_formula_size))
        self._wrap(mod("repro.sat.inprocess").Inprocessor, "run", "inprocess.run",
                   before=lambda ip, *a, **k: _inprocess_counters(ip),
                   after=_delta(_inprocess_counters))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            self._undo.pop()()

    def span_rows(self) -> List[Dict[str, Any]]:
        """Closed spans as flat rows: self time, layer, item id, ancestors.

        Service requests are appended as ``service.submit`` roots whose
        self time is their whole interval: the work happens in the pool's
        worker processes, visible here only as counters and child CPU.
        """
        from repro.telemetry import SpanEnd

        ends = [r for r in self.sink.records if isinstance(r, SpanEnd)]
        by_id = {span.span_id: span for span in ends}
        child_time: Dict[int, float] = {}
        for span in ends:
            if span.parent_id is not None:
                child_time[span.parent_id] = (
                    child_time.get(span.parent_id, 0.0) + span.duration
                )
        rows = []
        for span in ends:
            ancestors = []
            item = span.attrs.get("item")
            parent = by_id.get(span.parent_id)
            while parent is not None:
                ancestors.append(parent.name)
                if item is None:
                    item = parent.attrs.get("item")
                parent = by_id.get(parent.parent_id)
            rows.append({
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "start": span.ts - span.duration,
                "duration": span.duration,
                "self": max(0.0, span.duration - child_time.get(span.span_id, 0.0)),
                # Re-encoding and guards run by the certificate checker are
                # certification work, whatever span they open.
                "layer": "certify" if "certify.check" in ancestors
                else LAYER_OF.get(span.name),
                "item": item,
                "under": ancestors,
                "attrs": dict(span.attrs),
            })
        for req in self.requests:
            rows.append({
                "name": "service.submit",
                "span_id": None,
                "parent_id": None,
                "start": req["start"],
                "duration": req["end"] - req["start"],
                "self": req["end"] - req["start"],
                "layer": "service",
                "item": req["item"],
                "under": [],
                "attrs": {"cache_hit": req["cache_hit"]},
            })
        return rows

    def event_rows(self) -> List[Dict[str, Any]]:
        from repro.telemetry import Event

        return [
            {"name": r.name, "attrs": dict(r.attrs)}
            for r in self.sink.records
            if isinstance(r, Event)
        ]


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0 <= q <= 1); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _attributed(row: Dict[str, Any]) -> bool:
    return row["layer"] is not None and row["item"] is not None and row["name"] != "validate"


def unattributed_frac(spans: List[Dict[str, Any]]) -> float:
    """1 - (layer self time inside item roots) / (item roots' wall time)."""
    root_wall = sum(r["duration"] for r in spans if r["name"] in ROOTS)
    if root_wall <= 0:
        return 0.0
    attributed = sum(r["self"] for r in spans if _attributed(r))
    return max(0.0, 1.0 - attributed / root_wall)


def layer_breakdown(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Share of item wall time charged to each layer (self time)."""
    root_wall = sum(r["duration"] for r in spans if r["name"] in ROOTS)
    shares: Dict[str, float] = {}
    for row in spans:
        if _attributed(row):
            shares[row["layer"]] = shares.get(row["layer"], 0.0) + row["self"]
    if root_wall <= 0:
        return {}
    return {layer: value / root_wall for layer, value in sorted(shares.items())}


def layer_metrics(spans: List[Dict[str, Any]], events: List[Dict[str, Any]],
                  records: List[Dict[str, Any]], services: List[Dict[str, Any]],
                  overheads: List[float]) -> Dict[str, float]:
    """Every per-layer metric of one traced run, normalized per item.

    ``spans``/``events`` are the rows of all traced passes, ``records``
    their item records, ``services`` their ``service.stats()``, and
    ``overheads`` the traced/untraced time ratios (minus one) of paired
    passes over identical inputs.  A layer that did not run reads 0.
    """
    items = max(1, len(records))
    self_of: Dict[str, float] = {}
    dur_of: Dict[str, float] = {}
    count_of: Dict[str, int] = {}
    attr_sum: Dict[str, float] = {}
    # Spans charged to another layer than their name's (work the
    # certificate checker did) count only there, not in their name's sums.
    by_name = [r for r in spans if r["layer"] == LAYER_OF.get(r["name"])]
    for row in by_name:
        name = row["name"]
        self_of[name] = self_of.get(name, 0.0) + row["self"]
        dur_of[name] = dur_of.get(name, 0.0) + row["duration"]
        count_of[name] = count_of.get(name, 0) + 1
        for key, value in row["attrs"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                attr_sum[f"{name}.{key}"] = attr_sum.get(f"{name}.{key}", 0.0) + value

    def per(value: float) -> float:
        return value / items

    def self_s(name: str) -> float:
        return per(self_of.get(name, 0.0))

    def total_s(name: str) -> float:
        return per(dur_of.get(name, 0.0))

    def count(name: str) -> float:
        return per(count_of.get(name, 0))

    def attr(key: str) -> float:
        return per(attr_sum.get(key, 0.0))

    def events_named(name: str) -> List[Dict[str, Any]]:
        return [e["attrs"] for e in events if e["name"] == name]

    # encode spans enclose their encode-time simplify pass; that pass is
    # charged to inprocess, not to the encoder.
    simplify_in_encode = sum(
        r["duration"] for r in by_name
        if r["name"] == "simplify" and "encode" in r["under"]
    )
    search_passes = [
        r for r in by_name if r["name"] == "inprocess.run" and "simplify" not in r["under"]
    ]
    verdicts = [r["attrs"].get("verdict") for r in by_name if r["name"] == "solve"]
    solves = events_named("solver.solve")

    def solver_total(key: str) -> float:
        return sum(e.get("d_" + key, 0) for e in solves)

    solve_self = self_of.get("solve", 0.0)
    m: Dict[str, float] = {
        "optimizer.self_s": self_s("optimize"),
        "optimizer.solve_calls": count("solve"),
        "optimizer.sat_calls": per(verdicts.count("sat")),
        "optimizer.unsat_calls": per(verdicts.count("unsat")),
        "optimizer.extends": count("extend"),
        "optimizer.encodes_per_synth": count("encode"),
        "encoder.encode_s": per(dur_of.get("encode", 0.0) - simplify_in_encode),
        "encoder.extend_s": self_s("extend"),
        "encoder.bounds_s": self_s("encode.bounds"),
        "encoder.extract_s": self_s("extract"),
        "encoder.clauses": sum(
            attr(f"{name}.clauses")
            for name in ["extend", "encode.bounds"] + ["encode." + f for f in FAMILIES]
        ),
        "encoder.vars": sum(
            attr(f"{name}.vars")
            for name in ["extend", "encode.bounds"] + ["encode." + f for f in FAMILIES]
        ),
    }
    for family in FAMILIES:
        m[f"encoder.{family}_s"] = self_s("encode." + family)
        m[f"encoder.{family}_clauses"] = attr(f"encode.{family}.clauses")
    m.update({
        "inprocess.simplify_s": total_s("simplify"),
        "inprocess.simplify_calls": count("simplify"),
        "inprocess.search_s": per(sum(r["duration"] for r in search_passes)),
        "inprocess.search_passes": per(len(events_named("solver.inprocess"))),
        **{"inprocess." + c: attr("inprocess.run." + c) for c in INPROCESS_COUNTERS},
        "solver.solve_s": self_s("solve"),
        "solver.conflicts": per(solver_total("conflicts")),
        "solver.propagations": per(solver_total("propagations")),
        "solver.decisions": per(solver_total("decisions")),
        "solver.restarts": per(solver_total("restarts")),
        "solver.props_per_s": (
            solver_total("propagations") / solve_self if solve_self > 0 else 0.0
        ),
    })

    par = [r for r in records if "parallel" in r]

    def par_total(key: str) -> float:
        return per(sum(r["parallel"].get(key, 0) for r in par))

    def pool_total(key: str) -> float:
        return per(sum(svc["pool"][key] for svc in services))

    def svc_total(key: str) -> float:
        return per(sum(svc[key] for svc in services))

    m.update({
        "templates.hits": per(sum(r.get("templates", {}).get("hits", 0) for r in records))
        + pool_total("template_hits") + par_total("template_hits"),
        "templates.misses": per(
            sum(r.get("templates", {}).get("misses", 0) for r in records)
        ) + pool_total("template_misses"),
        "snapshot.restore_s": total_s("snapshot.restore"),
        "snapshot.store_s": total_s("snapshot.store"),
        "subarch.extract_s": self_s("subarch.extract"),
        "subarch.candidates": attr("subarch.extract.candidates"),
        "subarch.regions_tried": per(sum(r.get("regions_tried", 0) for r in records)),
        "subarch.translate_s": self_s("subarch.translate"),
        "sabre.warm_start_s": self_s("warm_start"),
        "sabre.zero_solve_closes": per(
            sum(1 for r in records if r.get("warm_start_model") and r["optimal"])
        ),
        "parallel.self_s": sum(
            self_s(name) for name in ("parallel.call", "parallel.synthesize", "parallel.phase")
        ),
        "parallel.dispatches": per(len(events_named("parallel.dispatch"))),
        "parallel.pruned_probes": par_total("pruned_probes"),
        "parallel.clauses_exported": par_total("clauses_exported"),
        "parallel.clauses_imported": par_total("clauses_imported"),
        "parallel.conflicts": par_total("conflicts"),
        "parallel.template_hits": par_total("template_hits"),
        "parallel.worker_cpu_s": per(sum(r["worker_cpu"] for r in par)),
        "parallel.coordinator_cpu_s": per(sum(r["coordinator_cpu"] for r in par)),
        "certify.check_s": total_s("certify.check"),
        "certify.proof_steps": attr("certify.rup.steps"),
        "certify.bounds_checked": count("certify.rup"),
    })

    requests = sum(svc["requests"] for svc in services)
    m.update({
        "service.cache_hit_rate": (
            sum(svc["cache_hits"] for svc in services) / requests if requests else 0.0
        ),
        "service.coalesced": svc_total("coalesced"),
        "service.dispatches": svc_total("solver_dispatches"),
        "service.hit_latency_p50_s": percentile(
            [r["wall"] for r in records if r.get("cache_hit") is True], 0.5
        ),
        "service.miss_latency_p50_s": percentile(
            [r["wall"] for r in records if r.get("cache_hit") is False], 0.5
        ),
        "service.max_queue_depth": float(
            max((svc["max_queue_depth"] for svc in services), default=0)
        ),
        "service.pool_template_hits": pool_total("template_hits"),
        "service.bank_clauses_served": pool_total("bank_clauses_served"),
        "service.respawns": float(sum(svc["pool"]["respawns"] for svc in services)),
        "validator.validate_s": total_s("validate"),
        "tracing.overhead_frac": statistics.median(overheads) if overheads else 0.0,
        "layers.unattributed_frac": unattributed_frac(spans),
    })
    return m
