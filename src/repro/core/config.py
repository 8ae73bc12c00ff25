"""Configuration for the layout synthesizers.

Bundles every knob the paper ablates (Sec. III): variable encoding
(bit-vector vs one-hot/"integer"), injectivity encoding (pairwise vs
EUF-style channeling), cardinality encoding for the SWAP bound (sequential
counter CNF vs totalizer vs adder-network/"AtMost"), the SWAP gate duration,
the T_UB ratio, and the optimization time budget — plus the observability
hooks (``tracer`` / ``progress_callback``) every synthesizer honours.

All string-valued knobs are validated in ``__post_init__``: a typo like
``SynthesisConfig(encoding="bogus")`` fails at construction with the list
of valid choices, not deep inside the encoder.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, fields, replace
from typing import Any, Callable, Dict, Optional

from ..encodings.cardinality import SEQUENTIAL
from ..smt.domain import BITVEC, ENCODINGS, INT, ONEHOT
from ..smt.injectivity import CHANNELING_INJ, INJECTIVITY_METHODS, PAIRWISE_INJ

CARD_SEQUENTIAL = "seqcounter"
CARD_TOTALIZER = "totalizer"
CARD_ADDER = "adder"
CARDINALITY_METHODS = (CARD_SEQUENTIAL, CARD_TOTALIZER, CARD_ADDER)

WARM_START_SOURCES = (None, "sabre")

SUBARCH_OFF = "off"
SUBARCH_AUTO = "auto"
SUBARCH_ON = "on"
SUBARCH_MODES = (SUBARCH_OFF, SUBARCH_AUTO, SUBARCH_ON)

#: Default candidate-region count for the sequential subarch driver.
DEFAULT_SUBARCH_CANDIDATES = 4

#: Runtime sanitizer modes (mirrors repro.analysis.sanitize.SANITIZE_MODES,
#: spelled out here so validating a config never imports the analysis
#: package).  ``None`` defers to the REPRO_SANITIZE environment variable.
SANITIZE_MODES = (None, "off", "light", "full")

#: Bulk clause loading at encode time (repro.sat.solver begin_bulk /
#: end_bulk): "on" (default) stages each constraint family's clauses and
#: lands them through one arena bulk allocation (and, in native mode, one
#: k_load_clauses FFI call); "off" forces the per-clause add path.  Both
#: produce byte-identical solver state; "off" exists for differential
#: testing and the encode-throughput microbench.
BULK_MODES = ("on", "off")

#: Encoded-state template reuse (repro.sat.snapshot): "on" (default) lets
#: synthesizers consult ``template_store`` (when one is attached) for a
#: post-encode snapshot keyed by the instance's encode-relevant shape,
#: skipping Python encoding on a hit; "off" always encodes from scratch.
TEMPLATE_MODES = ("on", "off")

#: Sentinel distinguishing "verbose was not passed" from any user value, so
#: the removed kwarg can be rejected with a migration hint instead of the
#: bare TypeError a plain unknown keyword would produce.
_VERBOSE_REMOVED = object()

#: Fields dropped by ``to_dict`` — the process-local observability hooks.
#: They hold live objects (a Tracer with open sinks, an arbitrary callable)
#: that cannot survive serialization; a deserialized config starts with
#: both unset and callers re-attach what they need.  This is the one rule
#: the service wire format, the tuning store, and bench reports share.
NON_SERIALIZABLE_FIELDS = ("tracer", "progress_callback", "template_store")


def _choice(name: str, value, valid) -> None:
    """Reject ``value`` unless it is one of ``valid``, listing the choices."""
    if value not in valid:
        choices = sorted(str(v) for v in valid if v is not None)
        raise ValueError(
            f"unknown {name} {value!r}; valid choices: {', '.join(choices)}"
        )


@dataclass
class SynthesisConfig:
    """All knobs of the OLSQ2 formulation and optimization loops.

    The defaults are the paper's winning configuration: bit-vector
    variables, pairwise injectivity, sequential-counter CNF cardinality,
    SWAP duration 3 (set to 1 for QAOA per Sec. IV), and the
    ``T_UB = 1.5 x T_LB`` horizon.

    Observability:

    * ``tracer`` — a :class:`repro.telemetry.Tracer`; every phase of the
      run (encoding, each solver query, each optimization iteration) is
      recorded through it,
    * ``progress_callback`` — shorthand for cooperative cancellation: it
      receives every trace record and returning ``False`` aborts the run
      cleanly with the best result found so far.

    The long-deprecated ``verbose`` flag is gone: pass
    ``tracer=Tracer(sinks=[StderrSink()])`` from :mod:`repro.telemetry`
    instead.  Both observability hooks are process-local and excluded from
    :meth:`to_dict` (see :data:`NON_SERIALIZABLE_FIELDS`).
    """

    encoding: str = BITVEC
    injectivity: str = PAIRWISE_INJ
    cardinality: str = CARD_SEQUENTIAL
    swap_duration: int = 3
    tub_ratio: float = 1.5
    time_budget: float = 600.0  # seconds for a whole optimization run
    solve_time_budget: float = 300.0  # per individual SAT query
    depth_relax_small: float = 1.3  # bound growth while T_B < 100 (Sec. III-B.1)
    depth_relax_large: float = 1.1  # bound growth once T_B >= 100
    depth_relax_threshold: int = 100
    max_pareto_rounds: int = 4  # depth relaxations in the 2-D SWAP search
    warm_start: Optional[str] = None  # None or "sabre": heuristic search seeding
    # Subarchitecture pruning (repro.arch.subarch): "off" always encodes
    # the full device; "auto" (recommended for 50+ qubit devices) solves
    # on an extracted circuit-width region when the device is at least
    # twice the circuit width; "on" forces region extraction whenever the
    # device is strictly larger than the circuit.  Results are always
    # translated back to full-device labels and re-validated; optimality
    # is only claimed when the achieved objective meets a
    # device-independent lower bound.  Ignored when the caller pins an
    # initial mapping (pinned physical labels may lie outside any region).
    subarch: str = SUBARCH_OFF
    # How many distinct (post-pruning) candidate regions to try in the
    # sequential driver; ParallelDescent instead races one candidate per
    # worker.
    subarch_candidates: int = DEFAULT_SUBARCH_CANDIDATES
    certify: bool = False  # re-prove the final UNSAT bound with a checked RUP proof
    # SAT-solver backend (repro.sat.kernel): "python" forces the pure
    # interpreter loops, "native" requires the compiled kernel, "auto"
    # (default) uses the kernel when built, honouring the REPRO_KERNEL
    # environment variable.  Both backends are byte-for-byte equivalent.
    kernel: str = "auto"
    # Runtime sanitizer (repro.analysis.sanitize): "off" disables it,
    # "light" validates trail/level and kernel generation invariants at
    # the solver's level-0 safe points, "full" adds watcher completeness,
    # the python/C watch mirror comparison, online proof-log discipline
    # (add-before-delete, RUP at emission) and shared-ring checks.  The
    # default None defers to the REPRO_SANITIZE environment variable
    # (off when unset).  A debugging knob: "full" is deliberately slow.
    sanitize: Optional[str] = None
    # Encode-time bulk clause loading (see BULK_MODES).  Byte-identical to
    # the per-clause path; "off" is a differential-testing/microbench knob.
    encode_bulk: str = "on"
    # Encoded-state template reuse (see TEMPLATE_MODES).  Only effective
    # when a ``template_store`` is attached (the service worker pool and
    # ParallelDescent do this themselves).
    templates: str = "on"
    tracer: Optional[Any] = field(default=None, compare=False)
    progress_callback: Optional[Callable] = field(default=None, compare=False)
    # Process-local repro.sat.snapshot.TemplateStore consulted by the
    # synthesizers when ``templates == "on"``.  Like the tracer, it holds
    # live state (snapshot bytes, hit counters) and never crosses a wire.
    template_store: Optional[Any] = field(default=None, compare=False)
    # Removed knob: accepted only so the rejection can name the replacement.
    verbose: InitVar[Any] = _VERBOSE_REMOVED

    def __post_init__(self, verbose):
        if verbose is not _VERBOSE_REMOVED:
            raise TypeError(
                "SynthesisConfig(verbose=...) was removed after a five-PR "
                "deprecation; attach a stderr telemetry sink instead: "
                "SynthesisConfig(tracer=Tracer(sinks=[StderrSink()])) "
                "with Tracer and StderrSink from repro.telemetry"
            )
        _choice("variable encoding", self.encoding, ENCODINGS)
        _choice("injectivity method", self.injectivity, INJECTIVITY_METHODS)
        _choice("cardinality method", self.cardinality, CARDINALITY_METHODS)
        _choice("warm-start source", self.warm_start, WARM_START_SOURCES)
        _choice("subarch mode", self.subarch, SUBARCH_MODES)
        _choice("sanitize mode", self.sanitize, SANITIZE_MODES)
        _choice("encode_bulk mode", self.encode_bulk, BULK_MODES)
        _choice("templates mode", self.templates, TEMPLATE_MODES)
        if self.subarch_candidates < 1:
            raise ValueError("subarch candidate count must be >= 1")
        # Validate kernel choice *and* availability up front: asking for
        # the native backend without the built extension should fail at
        # config construction with the remedy, not deep inside a solve.
        from ..sat.kernel import BACKENDS, native_available

        _choice("solver kernel", self.kernel, BACKENDS)
        if self.kernel == "native" and not native_available():
            raise ValueError(
                "kernel='native' requested but the compiled kernel is not "
                "available; build it with 'python -m repro.sat.kernel.build' "
                "or use kernel='auto' to fall back to the pure-Python solver"
            )
        if self.swap_duration < 1:
            raise ValueError("swap duration must be >= 1")
        if self.tub_ratio < 1.0:
            raise ValueError("T_UB ratio must be >= 1")
        # Zero is allowed (it means "no time left": the loops raise
        # SynthesisTimeout on their first budget check); negatives are typos.
        if self.time_budget < 0:
            raise ValueError("time budget must be >= 0")
        if self.solve_time_budget < 0:
            raise ValueError("per-solve time budget must be >= 0")
        if self.progress_callback is not None and not callable(self.progress_callback):
            raise ValueError("progress_callback must be callable")

    def replace(self, **kwargs) -> "SynthesisConfig":
        return replace(self, **kwargs)

    def make_tracer(self):
        """Resolve the effective tracer for one synthesis run.

        Priority: an explicit ``tracer`` wins (with ``progress_callback``
        attached to it if it has none); otherwise ``progress_callback``
        gets a fresh :class:`~repro.telemetry.Tracer`; otherwise the
        shared no-op :data:`~repro.telemetry.NULL_TRACER`.
        """
        from ..telemetry import NULL_TRACER, Tracer

        if self.tracer is not None:
            tracer = self.tracer
            if self.progress_callback is not None and tracer.progress_callback is None:
                tracer.progress_callback = self.progress_callback
            return tracer
        if self.progress_callback is not None:
            return Tracer(progress_callback=self.progress_callback)
        return NULL_TRACER

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The config as a JSON-serializable dict.

        Every knob round-trips losslessly through :meth:`from_dict`; only
        the process-local observability hooks in
        :data:`NON_SERIALIZABLE_FIELDS` are dropped (they hold live
        objects that cannot cross a wire or a process boundary).
        """
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in NON_SERIALIZABLE_FIELDS
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SynthesisConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected (a typo'd knob must not silently become
        a default), with the same construction-time validation as direct
        instantiation.
        """
        dropped = set(data) & set(NON_SERIALIZABLE_FIELDS)
        if dropped:
            raise ValueError(
                f"fields {sorted(dropped)} are process-local and not part "
                "of the wire format; attach them after from_dict()"
            )
        valid = {
            f.name for f in fields(cls) if f.name not in NON_SERIALIZABLE_FIELDS
        }
        unknown = set(data) - valid
        if unknown:
            raise ValueError(
                f"unknown SynthesisConfig fields: {sorted(unknown)}; "
                f"valid fields: {sorted(valid)}"
            )
        return cls(**data)


def qaoa_config(**kwargs) -> SynthesisConfig:
    """The paper's QAOA setting: SWAP duration 1 (Sec. IV)."""
    kwargs.setdefault("swap_duration", 1)
    return SynthesisConfig(**kwargs)


def paper_variant(name: str, **kwargs) -> SynthesisConfig:
    """Named encoding variants from Table I.

    ``olsq2-bv`` (default winner), ``olsq2-int``, ``olsq2-euf-int``,
    ``olsq2-euf-bv``.  The OLSQ (space-variable) variants live in
    :mod:`repro.baselines.olsq` and reuse these configs.
    """
    variants = {
        "olsq2-bv": dict(encoding=BITVEC, injectivity=PAIRWISE_INJ),
        "olsq2-int": dict(encoding=INT, injectivity=PAIRWISE_INJ),
        "olsq2-euf-int": dict(encoding=INT, injectivity=CHANNELING_INJ),
        "olsq2-euf-bv": dict(encoding=BITVEC, injectivity=CHANNELING_INJ),
        "olsq2-onehot": dict(encoding=ONEHOT, injectivity=PAIRWISE_INJ),
        "olsq2-order": dict(encoding="order", injectivity=PAIRWISE_INJ),
    }
    if name not in variants:
        raise ValueError(f"unknown variant {name!r}; choose from {sorted(variants)}")
    merged = dict(variants[name])
    merged.update(kwargs)
    return SynthesisConfig(**merged)
