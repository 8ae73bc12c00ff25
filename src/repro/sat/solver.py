"""A conflict-driven clause-learning (CDCL) SAT solver.

This module is the constraint-solving substrate for the whole repository.  The
original OLSQ2 paper solves its layout-synthesis models with Z3; its winning
configuration bit-blasts every bit-vector variable down to propositional logic
so that Z3's *internal SAT engine* does the actual work.  Since no external
solver is available here, this file implements that engine from scratch in the
MiniSat lineage:

* two-watched-literal unit propagation over a **flat clause arena**
  (:mod:`repro.sat.arena`) with blocker literals, so most watcher visits
  never touch clause storage at all,
* first-UIP conflict analysis with clause minimisation,
* VSIDS variable activities with phase saving,
* Luby-sequence restarts (memoised sequence),
* a three-tier learnt-clause database (core / tier2 / local, by LBD) with
  O(1) lazy deletion, usage-driven promotion/demotion and periodic arena
  compaction,
* incremental solving under assumptions with failed-assumption cores.

Search is plain CDCL: no pass rewrites the clause database behind the
caller's back.  :meth:`Solver.simplify` runs one explicit, bounded
:mod:`repro.sat.inprocess` pass (vivification, probing, subsumption)
between :meth:`Solver.solve` calls for callers that ask for it.

Incrementality matters: the paper's iterative depth/SWAP refinement re-solves
a sequence of near-identical models and relies on the solver reusing learned
information between iterations (Sec. III-B).  Assumption-based solving gives
exactly that — learnt clauses survive across :meth:`Solver.solve` calls — and
:meth:`repro.core.encoder.LayoutEncoder.extend_horizon` extends the *formula*
in place so they also survive horizon growth.

Performance notes (pure Python): clauses are addressed by integer refs into
one flat literal list (plain lists beat ``array('i')`` under CPython because
reads return cached int objects instead of boxing); binary and ternary
clauses bypass the arena entirely via scan-only ``watches_bin`` /
``watches_ter`` lists with reasons packed into the reason integer; n-ary
watcher lists are flat ``[cref, blocker, cref, blocker, ...]`` lists scanned
with swap-remove and circular new-watch search; the hot loops hoist every
attribute access into locals.  See ``docs/PERFORMANCE.md`` for the layout
rationale and measured effect.
"""

from __future__ import annotations

import os
import time
from array import array
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .arena import ClauseArena, FloatBuf, IntBuf
from .result import SatResult
from .types import FALSE, TRUE, UNDEF, neg

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .inprocess import Inprocessor

#: Sentinel clause reference meaning "no clause" (decision / no conflict).
NO_CLAUSE = -1

# Binary and ternary clauses are fully inlined into dedicated watch lists
# and into the reason array, so propagating them never touches the arena.
# A reason value ``r < NO_CLAUSE`` packs the clause's *other* literals into
# ``k = BIN_BASE - r``: even ``k`` is a binary reason (other literal
# ``k >> 1``); odd ``k`` is a ternary reason (literals ``k >> 33`` and
# ``(k >> 1) & 0xFFFFFFFF``).  Conflicts in these clauses use the constant
# tag ``BIN_BASE`` plus the ``_confl_lits`` side channel.
BIN_BASE = -2

_TER_MASK = 0xFFFFFFFF


def _addr(buf: Any) -> int:
    """Raw base address of an ``array`` buffer.

    Unlike ``ffi.from_buffer``, ``buffer_info()`` does not export the
    buffer, so the array stays resizable; the caller (the kernel binding
    layer) is responsible for rebinding after any growth.
    """
    return int(buf.buffer_info()[0])


def _packed_reason_lits(tag: int) -> tuple:
    """The packed literals inside a binary/ternary reason value."""
    k = BIN_BASE - tag
    if k & 1:
        return (k >> 33, (k >> 1) & _TER_MASK)
    return (k >> 1,)


class Clause(list):
    """A clause as a list of packed literals plus solver metadata.

    The solver itself now stores clauses in the flat :class:`ClauseArena`
    and addresses them by integer reference; this class remains as the
    public value type for callers that want a self-contained clause object
    (e.g. pulling clauses out of a solver for inspection).
    """

    __slots__ = ("learnt", "lbd", "act")

    def __init__(self, lits: Iterable[int], learnt: bool = False):
        super().__init__(lits)
        self.learnt = learnt
        self.lbd = 0
        self.act = 0.0


class SolverStats:
    """Counters describing the work a solver instance has performed."""

    __slots__ = (
        "conflicts",
        "decisions",
        "propagations",
        "restarts",
        "learnt_literals",
        "removed_clauses",
        "solve_calls",
        "exported_clauses",
        "imported_clauses",
        "inprocessings",
        "vivified_clauses",
        "vivified_literals",
        "failed_literals",
        "hyper_binaries",
        "equivalent_literals",
        "subsumed_clauses",
        "strengthened_clauses",
        "encode_wall_sec",
        "solve_wall_sec",
        "lbd_counts",
        "kernel",
    )

    #: Slots excluded from :meth:`snapshot`, which must stay numeric so the
    #: per-solve telemetry can diff it (``lbd_counts`` is a histogram,
    #: ``kernel`` a backend name string).
    _NON_SCALAR = frozenset({"lbd_counts", "kernel"})

    #: Wall-clock slots (floats, nondeterministic): part of snapshots and
    #: telemetry deltas, but excluded by the differential tests when they
    #: compare two solvers' stats for byte-identical search behaviour.
    WALL_CLOCK = frozenset({"encode_wall_sec", "solve_wall_sec"})

    def __init__(self) -> None:
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learnt_literals = 0
        self.removed_clauses = 0
        self.solve_calls = 0
        self.exported_clauses = 0
        self.imported_clauses = 0
        # Inprocessing counters (explicit simplify() passes): passes run,
        # clauses / literals removed by vivification, units from
        # failed-literal probing, hyper-binary resolvents, literals merged
        # by equivalence substitution, clauses subsumed, clauses
        # strengthened (SSR + level-0 cleaning).
        self.inprocessings = 0
        self.vivified_clauses = 0
        self.vivified_literals = 0
        self.failed_literals = 0
        self.hyper_binaries = 0
        self.equivalent_literals = 0
        self.subsumed_clauses = 0
        self.strengthened_clauses = 0
        # Wall-clock split: seconds spent building the formula (accumulated
        # by the encoder while it owns this solver as its sink) vs seconds
        # inside solve().  Together they answer "is this workload
        # encode-bound or search-bound?" per solver instance.
        self.encode_wall_sec = 0.0
        self.solve_wall_sec = 0.0
        # LBD value -> number of clauses learnt with that LBD (cumulative).
        self.lbd_counts: dict = {}
        # The propagation/analysis backend actually driving this solver
        # ("python" or "native"); set by Solver.__init__.
        self.kernel = "python"

    def as_dict(self) -> dict:
        d = {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self._NON_SCALAR
        }
        d["lbd_counts"] = dict(self.lbd_counts)
        d["kernel"] = self.kernel
        return d

    def snapshot(self) -> dict:
        """Flat scalar counters (no histogram) — cheap to diff per solve()."""
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self._NON_SCALAR
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SolverStats({inner})"


# The Luby sequence as exponents of 2, built from the doubling identity
# S_k = S_{k-1} + S_{k-1} + [k-1]; luby(y, x) == y ** _LUBY_EXP[x].
_LUBY_EXP: List[int] = [0]


def luby(y: float, x: int) -> float:
    """Return the ``x``-th term of the Luby restart sequence scaled by ``y``.

    The integer exponent sequence is memoised, so per-restart calls are a
    list index instead of the classic loop + float pow.
    """
    exp = _LUBY_EXP
    while x >= len(exp):
        k = (len(exp) + 1).bit_length() - 1  # len == 2**k - 1 here
        exp.extend(exp)
        exp.append(k)
    return y ** exp[x]


class _VarOrderHeap:
    """Indexed max-heap over variable activities (the VSIDS order)."""

    __slots__ = ("activity", "heap", "indices", "n")

    def __init__(self, activity: FloatBuf, typed: bool = False):
        self.activity = activity
        # ``typed`` switches the heap arrays to array('i') so the compiled
        # kernel can pop/reinsert/percolate in place (zero-copy view).
        # ``heap`` is preallocated to one slot per variable with the live
        # prefix length in ``n`` — C cannot append to a Python container,
        # and a fixed-capacity heap never needs to (it holds at most every
        # variable once).
        self.heap: IntBuf = array("i") if typed else []
        self.indices: IntBuf = array("i") if typed else []
        self.n = 0

    def _lt(self, u: int, v: int) -> bool:
        return self.activity[u] > self.activity[v]

    def in_heap(self, v: int) -> bool:
        return v < len(self.indices) and self.indices[v] >= 0

    def _percolate_up(self, i: int) -> None:
        heap, indices, activity = self.heap, self.indices, self.activity
        x = heap[i]
        ax = activity[x]
        while i > 0:
            p = (i - 1) >> 1
            hp = heap[p]
            if ax > activity[hp]:
                heap[i] = hp
                indices[hp] = i
                i = p
            else:
                break
        heap[i] = x
        indices[x] = i

    def _percolate_down(self, i: int) -> None:
        heap, indices, activity = self.heap, self.indices, self.activity
        x = heap[i]
        ax = activity[x]
        n = self.n
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            right = left + 1
            child = (
                right
                if right < n and activity[heap[right]] > activity[heap[left]]
                else left
            )
            hc = heap[child]
            if activity[hc] > ax:
                heap[i] = hc
                indices[hc] = i
                i = child
            else:
                break
        heap[i] = x
        indices[x] = i

    def grow_to(self, n_vars: int) -> None:
        while len(self.indices) < n_vars:
            self.indices.append(-1)
            self.heap.append(0)  # capacity slot; live prefix is self.n

    def insert(self, v: int) -> None:
        if self.indices[v] >= 0:
            return
        n = self.n
        self.indices[v] = n
        self.heap[n] = v
        self.n = n + 1
        self._percolate_up(n)

    def decrease(self, v: int) -> None:
        """Activity of ``v`` increased; restore heap order."""
        if self.indices[v] >= 0:
            self._percolate_up(self.indices[v])

    def pop(self) -> int:
        heap, indices = self.heap, self.indices
        x = heap[0]
        self.n -= 1
        n = self.n
        last = heap[n]
        indices[x] = -1
        if n:
            heap[0] = last
            indices[last] = 0
            self._percolate_down(0)
        return x

    def __len__(self) -> int:
        return self.n


class Solver:
    """Incremental CDCL SAT solver.

    Typical usage::

        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([mk_lit(a), mk_lit(b)])
        assert solver.solve() is SatResult.SAT
        assert solver.solve(assumptions=[mk_lit(a, negative=True)])

    :meth:`solve` returns a :class:`repro.sat.SatResult`:
    :attr:`~SatResult.SAT` (read :attr:`model`), :attr:`~SatResult.UNSAT`
    (read :attr:`core` for failed assumptions), or
    :attr:`~SatResult.UNKNOWN` when a conflict/time budget expired or the
    attached tracer was cancelled.  The enum is truthy exactly on SAT and
    ``==``-compatible with the legacy ``True``/``False``/``None``.

    Clauses live in :attr:`arena` and are addressed by integer reference;
    :attr:`clauses` and :attr:`learnts` are lists of such references.
    """

    VAR_DECAY = 1.0 / 0.95
    CLA_DECAY = 1.0 / 0.999
    RESCALE_LIMIT = 1e100
    RESTART_BASE = 100
    #: Route size-3 clauses through the scan-only ternary watch lists
    #: instead of the generic two-watch scheme (see :meth:`_attach`).
    TERNARY_SPECIAL = True
    #: Learnt clauses with LBD at or below this go to the *core* tier and
    #: are never reduced away (glue clauses, imports).
    TIER_CORE_LBD = 2
    #: Learnt clauses with LBD at or below this start in *tier2*; anything
    #: above starts in the aggressively-reduced *local* tier.
    TIER2_LBD = 6

    def __init__(
        self,
        proof_log: bool = False,
        kernel: Optional[str] = None,
        sanitize: Optional[str] = None,
    ) -> None:
        # Backend selection (see repro.sat.kernel): "python" keeps every
        # structure a plain list (the fastest layout for the interpreter);
        # "native" lays per-variable state and the arena out in typed
        # array buffers and runs propagate/analyze in the
        # compiled kernel over those buffers zero-copy.  Both backends are
        # byte-for-byte equivalent (same trail, learnts, proof log).
        from .kernel import kernel_handles, resolve_backend

        self.kernel = resolve_backend(kernel)
        native = self.kernel == "native"
        self._k_ffi: Any = None
        self._k_lib: Any = None
        self._kern: Any = None
        if native:
            # The (ffi, lib) pair is cached at module level: parallel probes
            # and pool workers construct solvers by the hundred, and
            # re-deriving the handles from the extension module on each
            # construction is measurable overhead for nothing.
            ffi, lib = kernel_handles()
            self._k_ffi = ffi
            self._k_lib = lib
            self._kern = ffi.gc(lib.k_new(), lib.k_free)
            # Persistent scratch cdata reused across calls.
            self._k_out = ffi.new("int64_t[6]")
            self._k_confl = ffi.new("int32_t[3]")
            self._k_ints = ffi.new("int64_t[3]")
            self._k_dbl = ffi.new("double[2]")
            self._k_learnt = ffi.new("int32_t[16]")
            self._k_learnt_cap = 16
            self._k_heapn = ffi.new("int32_t[1]")
            # Binding generation markers: the kernel caches the raw base
            # addresses of the Python-owned buffers (k_bind_vars /
            # k_bind_arena), and every native entry point rebinds first
            # when one of these is stale.  n_vars covers the per-variable
            # buffers (they grow only in new_var); arena.version covers
            # every arena buffer (bumped on each alloc/compact).
            self._k_nvars = -1
            self._k_aver = -1
        # Runtime sanitizer (repro.analysis.sanitize): an ASan-style debug
        # layer validating engine invariants at the level-0 safe points.
        # ``None`` defers to the REPRO_SANITIZE environment variable.  Off
        # (the default) costs nothing: the attribute stays None, the module
        # is never imported, and the hot loops below contain no hook — the
        # checks run only where this attribute is tested, which is never
        # inside _propagate/_analyze.
        self._sanitizer: Any = None
        mode = sanitize if sanitize is not None else (
            os.environ.get("REPRO_SANITIZE") or "off"
        )
        if mode != "off":
            from ..analysis.sanitize import SolverSanitizer, resolve_sanitize

            mode = resolve_sanitize(mode)
            if mode != "off":
                self._sanitizer = SolverSanitizer(self, mode)
        self.sanitize = mode
        # When proof logging is on, every clause the solver derives (learnt
        # clauses, strengthened input clauses, the final empty clause) is
        # appended to ``proof`` as ("a", lits); deletions as ("d", lits).
        # repro.sat.proof.check_unsat_proof replays the log by reverse unit
        # propagation, giving an independently checkable UNSAT certificate.
        self.proof: Optional[List[tuple]] = [] if proof_log else None
        if proof_log and self._sanitizer is not None:
            # Under the sanitizer the proof list enforces discipline online:
            # add-before-delete always, RUP-at-emission in "full" mode.
            self.proof = self._sanitizer.checked_proof_log()
        # How many root-level (level-0) trail literals have been emitted
        # into the proof as explicit unit additions.  simplify() logs each
        # root unit once before deleting clauses satisfied by it, so the
        # checker never loses a derivation the solver still relies on.
        self._proof_root_logged = 0
        # Optional repro.telemetry.Tracer; when set, every solve() emits a
        # "solver.solve" stats-snapshot event and restarts become both
        # "solver.restart" events and cooperative-cancellation poll points.
        # Kept as a plain None-default attribute (not NULL_TRACER) so the
        # disabled-path cost is a single identity check per solve().
        self.tracer = None
        # Optional repro.sat.sharing.ShareClient: when set, freshly learnt
        # clauses passing the share filter are exported and foreign clauses
        # are imported at restart boundaries (the level-0 safe points).
        # None keeps the solo-solver cost at one identity check per conflict.
        self.share = None
        # Optional zero-argument callable polled at every restart; a true
        # return ends solve() with UNKNOWN, as an exhausted budget does.
        self.interrupt: Optional[Callable[[], bool]] = None
        self.n_vars = 0
        self.arena = ClauseArena(typed=native)
        self.clauses: List[int] = []  # crefs of problem clauses
        # Learnt clauses live in three tiers (Chanseok-Oh style): ``core``
        # (LBD <= TIER_CORE_LBD, kept forever), ``tier2`` (mid LBD, demoted
        # to local when unused between reductions) and ``local`` (reduced
        # by activity).  ``self.learnts`` is a read-only concatenation.
        self.learnts_core: List[int] = []
        self.learnts_tier2: List[int] = []
        self.learnts_local: List[int] = []
        # Per-literal watcher lists, flat: [cref0, blocker0, cref1, ...].
        self.watches: List[List[int]] = []
        # Per-literal binary watch lists: watches_bin[p] holds, for every
        # binary clause {p^1, other}, the literal ``other``.  These lists
        # are scan-only during propagation (binary clauses are never
        # deleted), so the hot loop never rewrites them.
        self.watches_bin: List[List[int]] = []
        # Per-literal ternary watch lists: watches_ter[p] holds flat
        # (a, b) pairs, one per size-3 clause containing ``p ^ 1``; the
        # clause is examined whenever any of its literals becomes false,
        # so nothing is ever rewritten or dereferenced through the arena.
        self.watches_ter: List[List[int]] = []
        # Truth value per *literal* (TRUE/FALSE/UNDEF): one read answers
        # "is this literal true?" with no shift/mask arithmetic, which is
        # where a Python hot loop spends its time.  assigns_lit[l] and
        # assigns_lit[l ^ 1] are kept complementary (or both UNDEF).
        #
        # Under the native kernel these (and level/reason/trail/seen/
        # polarity/activity) become typed buffers the C side reads and
        # writes through cffi ``from_buffer`` pointers: int8 truth values,
        # int32 levels/trail, int64 reasons (packed ternary reasons exceed
        # 32 bits), float64 activities.  Both container families share the
        # list subscript/append API, so all cold-path code is written once.
        self.assigns_lit: IntBuf = array("b") if native else []
        self.level: IntBuf = array("i") if native else []
        # cref or NO_CLAUSE (or a packed binary/ternary reason < NO_CLAUSE)
        self.reason: IntBuf = array("q") if native else []
        # saved phases; truthy = assign negative
        self.polarity: IntBuf = array("b") if native else []
        self.activity: FloatBuf = array("d") if native else []
        self.order = _VarOrderHeap(self.activity, typed=native)
        # Preallocated trail buffer; trail_size is the live prefix length.
        self.trail: IntBuf = array("i") if native else []
        self.trail_size = 0
        self.trail_lim: List[int] = []
        self.qhead = 0
        # seen[] flags for conflict analysis.  array('B') rather than
        # bytearray in native mode: the kernel binds its raw address via
        # buffer_info(), which bytearray does not expose.
        self.seen: IntBuf = array("B") if native else []
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.ok = True
        self.model: List[bool] = []
        self.core: List[int] = []
        self.stats = SolverStats()
        self.stats.kernel = self.kernel
        self.max_learnts = 1000.0
        # Literal pair of the most recent binary-clause conflict (valid when
        # _propagate returned a tag < NO_CLAUSE).
        self._confl_lits = (0, 0)
        # The simplify() engine (repro.sat.inprocess), built on the first
        # explicit pass; search itself never runs one.
        self.inprocessor: Optional["Inprocessor"] = None
        self._last_reduce_conflicts = 0
        # Bulk-load staging (begin_bulk/end_bulk): when set, add_clause
        # appends raw literals here and end_bulk lands everything through
        # add_clauses_bulk in emission order.
        self._bulk_staged: Optional[Tuple[List[int], List[int]]] = None
        # Encode replay (begin_replay/end_replay): after restoring an
        # encoded-state snapshot the encoder re-runs its builders purely to
        # reconstruct *Python-side* objects (domain vars, literal tables).
        # During replay new_var hands back the already-allocated variables
        # in order and add_clause drops clauses (they are all in the
        # restored arena).  ``None`` means off; otherwise the next variable
        # index to replay.
        self._replay_cursor: Optional[int] = None

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable and return its index."""
        cursor = self._replay_cursor
        if cursor is not None:
            # Replay mode: the variable already exists (snapshot restore);
            # hand indices back in the original allocation order.
            assert cursor < self.n_vars, "replay allocated past the snapshot"
            self._replay_cursor = cursor + 1
            return cursor
        v = self.n_vars
        self.n_vars += 1
        self.watches.append([])
        self.watches.append([])
        self.watches_bin.append([])
        self.watches_bin.append([])
        self.watches_ter.append([])
        self.watches_ter.append([])
        self.assigns_lit.append(UNDEF)
        self.assigns_lit.append(UNDEF)
        self.level.append(0)
        self.reason.append(NO_CLAUSE)
        self.polarity.append(True)
        self.activity.append(0.0)
        self.seen.append(0)
        self.trail.append(0)
        self.order.grow_to(self.n_vars)
        self.order.insert(v)
        return v

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables."""
        return [self.new_var() for _ in range(count)]

    def value(self, lit: int) -> int:
        """Current truth value of ``lit``: TRUE, FALSE or UNDEF."""
        return self.assigns_lit[lit]

    def _check_literals(self, lits: Sequence[int], what: str) -> None:
        """Raise ``ValueError`` unless every literal names a variable.

        Literals use the ``2 * var + sign`` encoding, so the valid range is
        ``[0, 2 * n_vars)``.  One ``min``/``max`` pass keeps the common
        (valid) case cheap; only a failure scans for the offender.  An
        out-of-range literal would otherwise index the per-literal buffers
        from the end (python kernel) or out of bounds (native kernel).
        """
        if not lits:
            return
        limit = 2 * self.n_vars
        if min(lits) >= 0 and max(lits) < limit:
            return
        bad = next(lit for lit in lits if not 0 <= lit < limit)
        raise ValueError(
            f"{what}: literal {bad} out of range [0, {limit}) for a solver "
            f"with {self.n_vars} variables (literals are 2*var+sign, "
            "not signed DIMACS integers)"
        )

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause; returns ``False`` if the formula became trivially UNSAT.

        Must be called at decision level 0 (i.e. between :meth:`solve` calls).
        Duplicate literals are removed, tautologies are dropped, and literals
        already false at level 0 are stripped.  Raises ``ValueError`` on a
        literal outside ``[0, 2 * n_vars)``.
        """
        if not self.ok:
            return False
        assert not self.trail_lim, "clauses may only be added at level 0"
        if self._replay_cursor is not None:
            # Replay mode: the clause is already stored (snapshot restore).
            return self.ok
        staged = self._bulk_staged
        if staged is not None:
            # Bulk mode (begin_bulk/end_bulk): record the raw clause and
            # defer everything — range check, normalization, proof lines,
            # storage, attachment, unit propagation — to end_bulk, which
            # replays the staged clauses in this exact emission order.
            staged[0].extend(lits)
            staged[1].append(len(lits))
            return self.ok
        self._check_literals(lits, "add_clause")
        if self._sanitizer is not None and self.proof is not None:
            # The proof discipline checker needs the original clause in its
            # shadow database *before* any "a"/"d" line can reference it.
            self._sanitizer.note_input_clause(lits)
        out: List[int] = []
        seen_here = set()
        for lit in sorted(lits):
            if lit in seen_here:
                continue
            if (lit ^ 1) in seen_here:
                return True  # tautology
            val = self.value(lit)
            if val == TRUE:
                return True  # already satisfied at level 0
            if val == FALSE:
                continue  # falsified at level 0; drop literal
            seen_here.add(lit)
            out.append(lit)
        if self.proof is not None and sorted(out) != sorted(set(lits)):
            self.proof.append(("a", tuple(out)))
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._unchecked_enqueue(out[0], NO_CLAUSE)
            self.ok = self._propagate() == NO_CLAUSE
            if not self.ok and self.proof is not None:
                self.proof.append(("a", ()))
            return self.ok
        cref = self.arena.alloc(out)
        self.clauses.append(cref)
        self._attach(cref)
        return True

    def add_clauses(self, clause_list: Iterable[Sequence[int]]) -> bool:
        ok = True
        for lits in clause_list:
            ok = self.add_clause(lits) and ok
        return ok

    def begin_bulk(self) -> None:
        """Enter bulk-load staging: subsequent :meth:`add_clause` calls are
        buffered as flat literals and landed together by :meth:`end_bulk`.

        The final solver state is byte-identical to immediate per-clause
        adds (end_bulk processes the staged clauses in emission order with
        add_clause's exact semantics), but storage and watch attachment
        happen in bulk.  Nesting is not supported; reads of clause counts
        or level-0 truth values made *between* begin and end see the
        pre-staging state.
        """
        assert self._bulk_staged is None, "bulk staging does not nest"
        self._bulk_staged = ([], [])

    def end_bulk(self) -> bool:
        """Land every clause staged since :meth:`begin_bulk`; returns
        ``False`` if the formula became trivially UNSAT."""
        staged = self._bulk_staged
        self._bulk_staged = None
        if staged is None:
            return self.ok
        return self.add_clauses_bulk(staged[0], staged[1])

    def begin_replay(self) -> None:
        """Enter encode-replay mode (snapshot restore).

        While replaying, :meth:`new_var` returns the already-allocated
        variables in their original order and :meth:`add_clause` is a
        no-op: the encoder re-runs its builders only to rebuild Python-side
        bookkeeping (domain variables, literal tables, selector lists) on
        top of a restored solver whose formula is already complete.
        """
        assert self._bulk_staged is None, "cannot replay inside bulk staging"
        assert self._replay_cursor is None, "replay does not nest"
        self._replay_cursor = 0

    def end_replay(self) -> int:
        """Leave replay mode; returns how many variables were replayed.

        Callers should check the count against :attr:`n_vars` — a replay
        that allocates fewer variables than the snapshot holds means the
        builders diverged from the encode that produced it.
        """
        cursor = self._replay_cursor
        assert cursor is not None, "end_replay without begin_replay"
        self._replay_cursor = None
        return cursor

    @property
    def replaying(self) -> bool:
        """True while :meth:`begin_replay` is active."""
        return self._replay_cursor is not None

    def add_clauses_bulk(self, flat: Sequence[int], sizes: Sequence[int]) -> bool:
        """Bulk-load problem clauses from a flat literal buffer.

        ``flat`` holds the literals of every clause back to back, ``sizes``
        the per-clause literal counts.  Semantically identical to a loop of
        :meth:`add_clause` calls over the same clauses — same normalization
        (sort / dedup / tautology drop / level-0 strip), same unit
        propagation points, same proof lines, same final solver state — but
        the surviving clauses land in the arena through one
        :meth:`ClauseArena.alloc_bulk` per run of non-unit clauses, and in
        native mode their watches attach through a single ``k_load_clauses``
        call instead of one FFI round trip per clause.  Raises
        ``ValueError``, before any clause lands, on a literal outside
        ``[0, 2 * n_vars)``.
        """
        assert not self.trail_lim, "clauses may only be added at level 0"
        self._check_literals(flat, "add_clauses_bulk")
        sanitizer = self._sanitizer
        proof = self.proof
        assigns = self.assigns_lit
        staged: List[int] = []
        staged_sizes: List[int] = []
        pos = 0
        if proof is None and self._kern is not None and self.TERNARY_SPECIAL:
            # Native hot path: normalization runs in C against the bound
            # assigns view (k_normalize_clauses), stopping at each unit so
            # propagation happens at the exact per-clause points.
            return self._add_clauses_bulk_native(flat, sizes)
        if proof is None:
            # Hot path (no proof logging): clauses of size 1-3 dominate
            # layout encodings (>90% of the queko formula), and for those
            # the sort/dedup/tautology/level-0 normalization reduces to a
            # handful of comparisons — no slice, no sorted(), no set.
            # Every branch below lands the exact literals the generic
            # loop would have produced, in the same order.
            sap = staged.append
            ssap = staged_sizes.append
            true_ = TRUE
            false_ = FALSE
            for sz in sizes:
                if sz == 3:
                    a = flat[pos]
                    b = flat[pos + 1]
                    c = flat[pos + 2]
                    pos += 3
                    if b < a:
                        a, b = b, a
                    if c < b:
                        b, c = c, b
                        if b < a:
                            a, b = b, a
                    # Sorted triple: any tautology pair is adjacent
                    # (complements differ only in the low bit, so nothing
                    # can sort between them).
                    if b == (a ^ 1) or c == (b ^ 1):
                        continue
                    va = assigns[a]
                    vb = assigns[b]
                    vc = assigns[c]
                    if va == true_ or vb == true_ or vc == true_:
                        continue
                    n_out = 0
                    if va != false_:
                        l0 = a
                        n_out = 1
                    if b != a and vb != false_:
                        if n_out:
                            l1 = b
                        else:
                            l0 = b
                        n_out += 1
                    if c != b and vc != false_:
                        if n_out == 0:
                            l0 = c
                        elif n_out == 1:
                            l1 = c
                        else:
                            l2 = c
                        n_out += 1
                    if n_out == 3:
                        sap(l0)
                        sap(l1)
                        sap(l2)
                        ssap(3)
                        continue
                    if n_out == 2:
                        sap(l0)
                        sap(l1)
                        ssap(2)
                        continue
                elif sz == 2:
                    a = flat[pos]
                    b = flat[pos + 1]
                    pos += 2
                    if b < a:
                        a, b = b, a
                    if b == (a ^ 1):
                        continue  # tautology
                    va = assigns[a]
                    vb = assigns[b]
                    if va == true_ or vb == true_:
                        continue  # already satisfied at level 0
                    n_out = 0
                    if va != false_:
                        l0 = a
                        n_out = 1
                    if b != a and vb != false_:
                        if n_out:
                            sap(l0)
                            sap(b)
                            ssap(2)
                            continue
                        l0 = b
                        n_out = 1
                elif sz == 1:
                    l0 = flat[pos]
                    pos += 1
                    va = assigns[l0]
                    if va == true_:
                        continue
                    n_out = 0 if va == false_ else 1
                else:
                    # Rare sizes: generic normalization, same as the
                    # proof-logging loop below.
                    clause = flat[pos : pos + sz]
                    pos += sz
                    out: List[int] = []
                    seen_here: Set[int] = set()
                    skip = False
                    for lit in sorted(clause):
                        if lit in seen_here:
                            continue
                        if (lit ^ 1) in seen_here:
                            skip = True
                            break
                        val = assigns[lit]
                        if val == true_:
                            skip = True
                            break
                        if val == false_:
                            continue
                        seen_here.add(lit)
                        out.append(lit)
                    if skip:
                        continue
                    n_out = len(out)
                    if n_out > 1:
                        staged.extend(out)
                        ssap(n_out)
                        continue
                    if n_out == 1:
                        l0 = out[0]
                if n_out == 0:
                    self.ok = False
                    break
                # Unit survivor: flush so staged clauses are live before
                # the unit propagates (matching the per-clause order).
                self._flush_bulk(staged, staged_sizes)
                self._unchecked_enqueue(l0, NO_CLAUSE)
                self.ok = self._propagate() == NO_CLAUSE
                if not self.ok:
                    break
            self._flush_bulk(staged, staged_sizes)
            return self.ok
        for sz in sizes:
            if not self.ok:
                break
            clause = flat[pos : pos + sz]
            pos += sz
            if sanitizer is not None and proof is not None:
                sanitizer.note_input_clause(clause)
            out: List[int] = []
            seen_here: Set[int] = set()
            skip = False
            for lit in sorted(clause):
                if lit in seen_here:
                    continue
                if (lit ^ 1) in seen_here:
                    skip = True  # tautology
                    break
                val = assigns[lit]
                if val == TRUE:
                    skip = True  # already satisfied at level 0
                    break
                if val == FALSE:
                    continue  # falsified at level 0; drop literal
                seen_here.add(lit)
                out.append(lit)
            if skip:
                continue
            if proof is not None and sorted(out) != sorted(set(clause)):
                proof.append(("a", tuple(out)))
            if not out:
                self.ok = False
                break
            if len(out) == 1:
                # Staged clauses must be live before the unit propagates:
                # the per-clause path attaches each clause before the next
                # unit's propagation can walk its watches.
                self._flush_bulk(staged, staged_sizes)
                self._unchecked_enqueue(out[0], NO_CLAUSE)
                self.ok = self._propagate() == NO_CLAUSE
                if not self.ok and proof is not None:
                    proof.append(("a", ()))
                continue
            staged.extend(out)
            staged_sizes.append(len(out))
        self._flush_bulk(staged, staged_sizes)
        return self.ok

    def _add_clauses_bulk_native(self, flat: Sequence[int], sizes: Sequence[int]) -> bool:
        """Native-kernel bulk load: C-side normalization + bulk attach.

        Semantically identical to the pure-Python loops in
        :meth:`add_clauses_bulk` (``k_normalize_clauses`` mirrors the
        add_clause normalization literal for literal), but the per-clause
        sort/dedup/level-0 work runs in C over typed buffers and control
        only returns to Python at unit boundaries and for the final flush.
        Only used when proof logging is off — proof lines depend on the
        pre-normalization literals, which the C path does not report.
        """
        if not self.ok:
            return False
        ffi, lib = self._k_ffi, self._k_lib
        n = len(sizes)
        flat_buf = (
            flat
            if isinstance(flat, array) and flat.typecode == "i"
            else array("i", flat)
        )
        sizes_buf = (
            sizes
            if isinstance(sizes, array) and sizes.typecode == "i"
            else array("i", sizes)
        )
        # The C normalizer compacts survivors in place into out_flat, so
        # its capacity requirement is exactly len(flat) (kept literals of
        # finished clauses plus the scratch copy of the current clause
        # never exceed the raw cursor).
        out_flat = array("i", bytes(4 * len(flat_buf)))
        out_sizes = array("i", bytes(4 * n))
        p_flat = ffi.cast("const int32_t *", _addr(flat_buf))
        p_sizes = ffi.cast("const int32_t *", _addr(sizes_buf))
        p_oflat = ffi.cast("int32_t *", _addr(out_flat))
        p_osizes = ffi.cast("int32_t *", _addr(out_sizes))
        io = ffi.new("int32_t[5]")
        self._k_sync()  # bind assigns before C reads level-0 truth values
        fo = fs = 0  # flushed-prefix cursors into the out buffers
        while True:
            rc = lib.k_normalize_clauses(
                self._kern, p_flat, p_sizes, n, p_oflat, p_osizes, io
            )
            # Land the staged prefix first: clauses must be live before
            # the next unit propagates (matching the per-clause order).
            self._flush_bulk_range(out_flat, fo, io[2], out_sizes, fs, io[3])
            fo, fs = io[2], io[3]
            if rc == 0:
                return self.ok
            if rc == 2:
                self.ok = False
                return False
            self._unchecked_enqueue(io[4], NO_CLAUSE)
            self.ok = self._propagate() == NO_CLAUSE
            if not self.ok:
                return False

    def _flush_bulk_range(
        self,
        out_flat: "array[int]",
        lo: int,
        hi: int,
        out_sizes: "array[int]",
        slo: int,
        shi: int,
    ) -> None:
        """Land normalized clauses ``out_sizes[slo:shi]`` (literals
        ``out_flat[lo:hi]``): one arena bulk alloc, Python bin/ter watch
        mirrors, and one native attach call."""
        if slo == shi:
            return
        chunk = out_flat[lo:hi]
        sizes_chunk = out_sizes[slo:shi]
        crefs = self.arena.alloc_bulk(chunk, sizes_chunk)
        self.clauses.extend(crefs)
        wb = self.watches_bin
        wt = self.watches_ter
        base = 0
        for sz in sizes_chunk:
            if sz == 2:
                l0 = chunk[base]
                l1 = chunk[base + 1]
                wb[l0 ^ 1].append(l1)
                wb[l1 ^ 1].append(l0)
            elif sz == 3:
                l0 = chunk[base]
                l1 = chunk[base + 1]
                l2 = chunk[base + 2]
                wt[l0 ^ 1].extend((l1, l2))
                wt[l1 ^ 1].extend((l0, l2))
                wt[l2 ^ 1].extend((l0, l1))
            base += sz
        # alloc_bulk bumped arena.version; rebind before the kernel walks
        # the new cref range.
        self._k_sync()
        self._k_lib.k_load_clauses(self._kern, crefs.start, len(crefs))

    def _flush_bulk(self, staged: List[int], staged_sizes: List[int]) -> None:
        """Land staged (already normalized) clauses: one arena bulk alloc,
        python bin/ter watch mirrors, and one native attach call."""
        if not staged_sizes:
            return
        crefs = self.arena.alloc_bulk(staged, staged_sizes)
        self.clauses.extend(crefs)
        if self._kern is not None and self.TERNARY_SPECIAL:
            # alloc_bulk laid the clauses out in staging order, so the
            # bin/ter Python mirrors can be built straight from the local
            # staged buffer without touching the arena again.
            wb = self.watches_bin
            wt = self.watches_ter
            base = 0
            for sz in staged_sizes:
                if sz == 2:
                    l0 = staged[base]
                    l1 = staged[base + 1]
                    wb[l0 ^ 1].append(l1)
                    wb[l1 ^ 1].append(l0)
                elif sz == 3:
                    l0 = staged[base]
                    l1 = staged[base + 1]
                    l2 = staged[base + 2]
                    wt[l0 ^ 1].extend((l1, l2))
                    wt[l1 ^ 1].extend((l0, l2))
                    wt[l2 ^ 1].extend((l0, l1))
                base += sz
            # alloc_bulk bumped arena.version, so this rebinds the arena
            # views before the kernel walks the new cref range.
            self._k_sync()
            self._k_lib.k_load_clauses(self._kern, crefs.start, len(crefs))
        else:
            for cref in crefs:
                self._attach(cref)
        staged.clear()
        staged_sizes.clear()

    def clause_literals(self, cref: int) -> List[int]:
        """The literals of clause ``cref`` (a fresh list)."""
        return self.arena.literals(cref)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------

    def _attach(self, cref: int) -> None:
        arena = self.arena
        base = arena.start[cref]
        l0 = arena.lits[base]
        l1 = arena.lits[base + 1]
        if arena.size[cref] == 2:
            # Binary clause: its whole content lives in the binary watch
            # lists, so propagation never dereferences the arena for it.
            # The Python lists stay authoritative even in native mode
            # (inprocessing reads them directly); the kernel keeps an
            # identically-ordered C mirror because propagation scans it.
            self.watches_bin[l0 ^ 1].append(l1)
            self.watches_bin[l1 ^ 1].append(l0)
            if self._kern is not None:
                self._k_lib.k_attach_bin(self._kern, l0, l1)
            return
        if self.TERNARY_SPECIAL and arena.size[cref] == 3:
            # Ternary clause: scan-only entries under all three literals.
            l2 = arena.lits[base + 2]
            self.watches_ter[l0 ^ 1].extend((l1, l2))
            self.watches_ter[l1 ^ 1].extend((l0, l2))
            self.watches_ter[l2 ^ 1].extend((l0, l1))
            if self._kern is not None:
                self._k_lib.k_attach_ter(self._kern, l0, l1, l2)
            return
        if self._kern is not None:
            # N-ary watch lists are rewritten *by* propagation (blocker
            # updates, swap-removes, watch moves), so in native mode they
            # live only on the C side; k_copy_list reads them back for
            # invariant checks.
            self._k_lib.k_attach_nary(self._kern, cref, l0, l1)
            return
        w0 = self.watches[l0 ^ 1]
        w0.append(cref)
        w0.append(l1)
        w1 = self.watches[l1 ^ 1]
        w1.append(cref)
        w1.append(l0)

    def _unchecked_enqueue(self, lit: int, reason: int) -> None:
        var = lit >> 1
        self.assigns_lit[lit] = TRUE
        self.assigns_lit[lit ^ 1] = FALSE
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail[self.trail_size] = lit
        self.trail_size += 1

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting cref or ``NO_CLAUSE``.

        The hot loop of the whole repository.  Every watcher entry carries a
        *blocker* literal (the other watched literal at attach time): when
        the blocker is already true the clause is satisfied and the arena is
        never touched.  Watchers of dead clauses are dropped lazily here,
        which is what lets :meth:`_reduce_db` delete in O(1).

        Under the native kernel the identical loop runs in C over the same
        state (:meth:`_propagate_native` / kernel.c).
        """
        if self._kern is not None:
            return self._propagate_native()
        watches = self.watches
        watches_bin = self.watches_bin
        watches_ter = self.watches_ter
        assigns_lit = self.assigns_lit
        level = self.level
        reason = self.reason
        arena = self.arena
        alits = arena.lits
        astart = arena.start
        asize = arena.size
        aspos = arena.spos
        trail = self.trail
        qhead = self.qhead
        qstart = qhead
        trail_size = self.trail_size
        dlevel = len(self.trail_lim)
        confl = NO_CLAUSE
        while qhead < trail_size:
            p = trail[qhead]
            qhead += 1
            false_lit = p ^ 1
            breason = BIN_BASE - (false_lit << 1)
            # Binary clauses first: one flat list of implied literals,
            # no watcher rewriting, no arena access.
            for other in watches_bin[p]:
                vo = assigns_lit[other]
                if vo < 0:
                    assigns_lit[other] = 1
                    assigns_lit[other ^ 1] = 0
                    var = other >> 1
                    level[var] = dlevel
                    reason[var] = breason
                    trail[trail_size] = other
                    trail_size += 1
                elif vo == 0:  # other is FALSE -> conflict
                    confl = BIN_BASE
                    self._confl_lits = (other, false_lit)
                    break
            if confl != NO_CLAUSE:
                break
            # Ternary clauses: scan the (a, b) pairs; a clause is acted on
            # only when one co-literal is false and the other unassigned
            # (unit) or false too (conflict) -- no rewriting, no arena.
            wt = watches_ter[p]
            if wt:
                tbase = (false_lit << 33) | 1
                for ti in range(0, len(wt), 2):
                    a = wt[ti]
                    va = assigns_lit[a]
                    if va > 0:
                        continue
                    b = wt[ti + 1]
                    vb = assigns_lit[b]
                    if vb > 0:
                        continue
                    if va < 0:
                        if vb < 0:
                            continue  # two unassigned: not unit yet
                        assigns_lit[a] = 1
                        assigns_lit[a ^ 1] = 0
                        var = a >> 1
                        level[var] = dlevel
                        reason[var] = BIN_BASE - (tbase | (b << 1))
                        trail[trail_size] = a
                        trail_size += 1
                    elif vb < 0:
                        assigns_lit[b] = 1
                        assigns_lit[b ^ 1] = 0
                        var = b >> 1
                        level[var] = dlevel
                        reason[var] = BIN_BASE - (tbase | (a << 1))
                        trail[trail_size] = b
                        trail_size += 1
                    else:  # all three false -> conflict
                        confl = BIN_BASE
                        self._confl_lits = (false_lit, a, b)
                        break
                if confl != NO_CLAUSE:
                    break
            ws = watches[p]
            if not ws:
                continue
            n = len(ws)
            # Fast read-only scan: as long as blockers are true the list
            # needs no rewriting at all.
            i = 0
            while i < n and assigns_lit[ws[i + 1]] > 0:
                i += 2
            if i == n:
                continue
            # Swap-remove scan: surviving watchers are left in place (no
            # copy-back at all); a watcher that moves to another literal is
            # deleted by swapping the current tail pair into its slot, and
            # that pair is then processed in the same position.
            while i < n:
                blocker = ws[i + 1]
                if assigns_lit[blocker] > 0:
                    i += 2
                    continue
                cref = ws[i]
                sz = asize[cref]
                if sz < 0:  # dead clause: drop its watcher lazily
                    n -= 2
                    ws[i] = ws[n]
                    ws[i + 1] = ws[n + 1]
                    continue
                base = astart[cref]
                # Ensure the false literal is at position 1.
                first = alits[base]
                if first == false_lit:
                    first = alits[base + 1]
                    alits[base] = first
                    alits[base + 1] = false_lit
                v0 = assigns_lit[first]
                if first != blocker and v0 > 0:
                    ws[i + 1] = first  # better blocker for future scans
                    i += 2
                    continue
                # Look for a new literal to watch, resuming the circular
                # scan where this clause's previous search stopped so a
                # long false prefix is never rescanned (positional memory).
                sp = aspos[cref]
                found = False
                for k in range(base + sp, base + sz):
                    lk = alits[k]
                    if assigns_lit[lk] != 0:
                        found = True
                        break
                if not found:
                    for k in range(base + 2, base + sp):
                        lk = alits[k]
                        if assigns_lit[lk] != 0:
                            found = True
                            break
                if found:
                    alits[base + 1] = lk
                    alits[k] = false_lit
                    aspos[cref] = k - base
                    wl = watches[lk ^ 1]
                    wl.append(cref)
                    wl.append(first)
                    n -= 2
                    ws[i] = ws[n]
                    ws[i + 1] = ws[n + 1]
                    continue
                # Clause is unit or conflicting.
                ws[i + 1] = first
                if v0 == 0:  # first is FALSE -> conflict
                    confl = cref
                    break
                i += 2
                assigns_lit[first] = 1
                assigns_lit[first ^ 1] = 0
                var = first >> 1
                level[var] = dlevel
                reason[var] = cref
                trail[trail_size] = first
                trail_size += 1
            if n != len(ws):
                del ws[n:]
            if confl != NO_CLAUSE:
                break
        self.qhead = qhead
        self.trail_size = trail_size
        self.stats.propagations += qhead - qstart
        return confl

    def _k_bind_vars(self) -> None:
        """(Re)bind the per-variable buffers' raw addresses into the kernel.

        ``array.buffer_info()`` hands out the base address *without*
        exporting the buffer, so Python stays free to grow the arrays; the
        trade is that any growth may realloc and dangle the bound pointer.
        Safe because the only growth site is :meth:`new_var`, after which
        ``self._k_nvars != self.n_vars`` forces a rebind before the next
        kernel call.
        """
        order = self.order
        self._k_lib.k_bind_vars(
            self._kern,
            _addr(self.assigns_lit),
            _addr(self.polarity),
            _addr(self.seen),
            _addr(self.level),
            _addr(self.reason),
            _addr(self.trail),
            _addr(self.activity),
            _addr(order.heap),
            _addr(order.indices),
            self.n_vars,
        )
        self._k_nvars = self.n_vars

    def _k_bind_arena(self) -> None:
        """(Re)bind the arena buffers; stale whenever arena.version moved
        (every alloc may extend/realloc, every compact replaces ``lits``)."""
        arena = self.arena
        self._k_lib.k_bind_arena(
            self._kern,
            _addr(arena.lits),
            _addr(arena.start),
            _addr(arena.size),
            _addr(arena.spos),
            _addr(arena.learnt),
            _addr(arena.act),
            _addr(arena.touch),
        )
        self._k_aver = arena.version

    def _k_sync(self) -> None:
        """Rebind any kernel buffer views invalidated since the last call."""
        if self._k_nvars != self.n_vars:
            self._k_bind_vars()
        if self._k_aver != self.arena.version:
            self._k_bind_arena()

    def _propagate_native(self) -> int:
        """Unit propagation in the compiled kernel (byte-equivalent to
        :meth:`_propagate`).

        The hot path passes only scalars: buffer pointers are pre-bound in
        the kernel and refreshed by the generation checks below.
        """
        lib = self._k_lib
        if self._k_nvars != self.n_vars:
            self._k_bind_vars()
        if self._k_aver != self.arena.version:
            self._k_bind_arena()
        out = self._k_out
        qstart = self.qhead
        confl = lib.k_propagate(
            self._kern, self.trail_size, self.qhead, len(self.trail_lim), out
        )
        self.qhead = out[0]
        self.trail_size = out[1]
        n_confl = out[2]
        if n_confl == 2:
            self._confl_lits = (out[3], out[4])
        elif n_confl == 3:
            self._confl_lits = (out[3], out[4], out[5])
        self.stats.propagations += self.qhead - qstart
        return int(confl)

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _new_decision_level(self) -> None:
        self.trail_lim.append(self.trail_size)

    def _cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        bound = self.trail_lim[target_level]
        if self._kern is not None:
            self._k_sync()
            order = self.order
            order.n = self._k_lib.k_cancel_until(
                self._kern, order.n, self.trail_size, bound
            )
        else:
            trail = self.trail
            assigns_lit = self.assigns_lit
            polarity = self.polarity
            reason = self.reason
            order = self.order
            for idx in range(self.trail_size - 1, bound - 1, -1):
                lit = trail[idx]
                var = lit >> 1
                assigns_lit[lit] = UNDEF
                assigns_lit[lit ^ 1] = UNDEF
                polarity[var] = bool(lit & 1)
                reason[var] = NO_CLAUSE
                if not order.in_heap(var):
                    order.insert(var)
        self.trail_size = bound
        del self.trail_lim[target_level:]
        self.qhead = bound

    def _var_bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > self.RESCALE_LIMIT:
            inv = 1.0 / self.RESCALE_LIMIT
            for i in range(self.n_vars):
                self.activity[i] *= inv
            self.var_inc *= inv
        self.order.decrease(var)

    def _cla_bump(self, cref: int) -> None:
        act = self.arena.act
        act[cref] += self.cla_inc
        if act[cref] > self.RESCALE_LIMIT:
            inv = 1.0 / self.RESCALE_LIMIT
            for c in self.learnts:
                act[c] *= inv
            self.cla_inc *= inv

    def _analyze(self, confl: int) -> tuple:
        """First-UIP conflict analysis.

        Returns ``(learnt_clause_lits, backtrack_level, lbd)``.
        """
        if self._kern is not None:
            return self._analyze_native(confl)
        seen = self.seen
        level = self.level
        trail = self.trail
        reason = self.reason
        arena = self.arena
        alits = arena.lits
        astart = arena.start
        asize = arena.size
        alearnt = arena.learnt
        atier = arena.tier
        atouch = arena.touch
        nconf = self.stats.conflicts
        learnt: List[int] = [0]  # placeholder for the asserting literal
        to_clear: List[int] = []
        counter = 0
        p = -1
        index = self.trail_size - 1
        cur_level = len(self.trail_lim)
        cref = confl
        while True:
            if cref < NO_CLAUSE:
                # Binary/ternary clause packed into the reference itself:
                # as a reason the other literal(s) decode from the tag; as
                # the initial conflict all false literals are in
                # _confl_lits (the tag is just the BIN_BASE sentinel).
                span = _packed_reason_lits(cref) if p >= 0 else self._confl_lits
            else:
                assert cref != NO_CLAUSE
                if alearnt[cref]:
                    self._cla_bump(cref)
                    # Usage stamp: tier2 clauses not stamped between two
                    # reductions are demoted to the local tier.
                    atouch[cref] = nconf
                base = astart[cref]
                # Skip position 0 of reason clauses: it holds the implied
                # literal (the propagation loop maintains that invariant).
                start = base + 1 if p >= 0 else base
                span = alits[start : base + asize[cref]]
            for q in span:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    self._var_bump(var)
                    if level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            cref = reason[p >> 1]
            index -= 1
            counter -= 1
            if counter <= 0:
                break
        learnt[0] = p ^ 1

        # Conflict-clause minimisation: drop literals implied by the rest.
        kept = [learnt[0]]
        for q in learnt[1:]:
            r = reason[q >> 1]
            if r == NO_CLAUSE:
                kept.append(q)
                continue
            if r < NO_CLAUSE:
                for x in _packed_reason_lits(r):
                    xv = x >> 1
                    if not seen[xv] and level[xv] > 0:
                        kept.append(q)
                        break
                continue
            redundant = True
            base = astart[r]
            for k in range(base, base + asize[r]):
                x = alits[k]
                if x == q ^ 1:
                    continue
                xv = x >> 1
                if not seen[xv] and level[xv] > 0:
                    redundant = False
                    break
            if not redundant:
                kept.append(q)
        learnt = kept

        # Compute backtrack level and LBD.
        if len(learnt) == 1:
            bt_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = level[learnt[1] >> 1]
        lbd_levels = {level[q >> 1] for q in learnt}
        for var in to_clear:
            seen[var] = 0
        return learnt, bt_level, len(lbd_levels)

    def _analyze_native(self, confl: int) -> tuple:
        """First-UIP conflict analysis in the compiled kernel.

        Statement-for-statement equivalent to :meth:`_analyze`, including
        the VSIDS variable/clause bumps, rescales and heap percolation the
        Python loop performs inline — those mutate ``var_inc``/``cla_inc``,
        which is why the kernel hands the updated values back.
        """
        ffi = self._k_ffi
        lib = self._k_lib
        self._k_sync()
        n_vars = self.n_vars
        if self._k_learnt_cap < n_vars + 1:
            self._k_learnt_cap = max(2 * self._k_learnt_cap, n_vars + 1)
            self._k_learnt = ffi.new("int32_t[]", self._k_learnt_cap)
        confl_buf = self._k_confl
        confl_n = 0
        if confl < NO_CLAUSE:
            lits = self._confl_lits
            confl_n = len(lits)
            for i in range(confl_n):
                confl_buf[i] = lits[i]
        out_ints = self._k_ints
        out_dbl = self._k_dbl
        lib.k_analyze(
            self._kern,
            confl,
            confl_buf,
            confl_n,
            n_vars,
            len(self.arena.size),
            self.trail_size,
            len(self.trail_lim),
            self.stats.conflicts,
            self.var_inc,
            self.cla_inc,
            self._k_learnt,
            out_ints,
            out_dbl,
        )
        self.var_inc = out_dbl[0]
        self.cla_inc = out_dbl[1]
        learnt = list(ffi.unpack(self._k_learnt, out_ints[0]))
        return learnt, int(out_ints[1]), int(out_ints[2])

    def _analyze_final(self, p: int) -> None:
        """Compute the failed-assumption core.

        ``p`` is an assumption literal found FALSE under the other
        assumptions.  Afterwards :attr:`core` contains a subset of the
        assumption literals sufficient for unsatisfiability (including ``p``).
        """
        self.core = [p]
        if not self.trail_lim:
            return
        seen = self.seen
        arena = self.arena
        alits = arena.lits
        astart = arena.start
        asize = arena.size
        seen[p >> 1] = 1
        for idx in range(self.trail_size - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[idx]
            var = lit >> 1
            if not seen[var]:
                continue
            r = self.reason[var]
            if r == NO_CLAUSE:
                # A decision inside the assumption prefix is an assumption.
                if lit != p:
                    self.core.append(lit)
            elif r < NO_CLAUSE:
                for x in _packed_reason_lits(r):
                    if self.level[x >> 1] > 0:
                        seen[x >> 1] = 1
            else:
                base = astart[r]
                for k in range(base + 1, base + asize[r]):
                    x = alits[k]
                    if self.level[x >> 1] > 0:
                        seen[x >> 1] = 1
            seen[var] = 0
        seen[p >> 1] = 0

    def _detach_small(self, cref: int) -> None:
        """Eagerly remove a binary/ternary clause's scan-only watch entries.

        Binary and ternary watchers carry no clause reference, so a dead
        clause of size <= 3 can never be dropped lazily by the propagation
        loop — it would keep propagating forever.  Anything that frees such
        a clause must call this first.
        """
        arena = self.arena
        base = arena.start[cref]
        sz = arena.size[cref]
        lits = arena.lits
        if sz == 2:
            a, b = lits[base], lits[base + 1]
            self.watches_bin[a ^ 1].remove(b)
            self.watches_bin[b ^ 1].remove(a)
            if self._kern is not None:
                self._k_lib.k_detach_bin(self._kern, a, b)
            return
        if sz == 3 and self.TERNARY_SPECIAL:
            a, b, c = lits[base], lits[base + 1], lits[base + 2]
            for x, y, z in ((a, b, c), (b, a, c), (c, a, b)):
                wt = self.watches_ter[x ^ 1]
                for i in range(0, len(wt), 2):
                    p, q = wt[i], wt[i + 1]
                    if (p == y and q == z) or (p == z and q == y):
                        wt[i] = wt[-2]
                        wt[i + 1] = wt[-1]
                        del wt[-2:]
                        break
            if self._kern is not None:
                self._k_lib.k_detach_ter(self._kern, a, b, c)
        # Size-3 clauses with TERNARY_SPECIAL off live in the n-ary watch
        # lists and are dropped lazily like any other n-ary clause.

    def _register_learnt(self, cref: int, lbd: int) -> None:
        """File a learnt clause into its tier by LBD and stamp its usage."""
        arena = self.arena
        if lbd <= self.TIER_CORE_LBD:
            self.learnts_core.append(cref)
        elif lbd <= self.TIER2_LBD:
            arena.tier[cref] = 1
            self.learnts_tier2.append(cref)
        else:
            arena.tier[cref] = 2
            self.learnts_local.append(cref)
        arena.touch[cref] = self.stats.conflicts

    def _reduce_db(self) -> None:
        """Tiered learnt-clause reduction.

        Core clauses are kept unconditionally.  Tier2 clauses not used by
        conflict analysis since the previous reduction are demoted to the
        local tier; local clauses promoted by analysis (tier flag rewritten
        in place) move up to tier2.  The local tier then loses its least
        active half.  Deletion is O(1) per n-ary clause (lazy watcher
        drop); binary/ternary clauses are detached eagerly because their
        scan-only watch lists cannot detect death.  When enough of the
        arena is dead storage, one garbage-collection pass purges the
        watch lists and compacts the literal array.
        """
        arena = self.arena
        act = arena.act
        atier = arena.tier
        atouch = arena.touch
        astart = arena.start
        asize = arena.size
        alits = arena.lits
        assigns_lit = self.assigns_lit
        reason = self.reason
        cutoff = self._last_reduce_conflicts
        core = [c for c in self.learnts_core if asize[c] >= 0]
        tier2: List[int] = []
        local: List[int] = []
        for cref in self.learnts_tier2:
            if asize[cref] < 0:
                continue
            if atouch[cref] < cutoff:
                atier[cref] = 2  # stale: demote
                local.append(cref)
            else:
                tier2.append(cref)
        for cref in self.learnts_local:
            if asize[cref] < 0:
                continue
            local.append(cref)
        local.sort(key=lambda c: act[c])
        evict_until = len(local) // 2
        kept: List[int] = []
        for i, cref in enumerate(local):
            base = astart[cref]
            sz = asize[cref]
            first = alits[base]
            locked = reason[first >> 1] == cref and assigns_lit[first] > 0
            if not locked and sz <= 3:
                # Binary/ternary propagations store packed-literal reasons,
                # not crefs, so the test above cannot see a locked small
                # clause.  Deleting one anyway would poison the proof log:
                # the solver keeps resolving through the packed reason while
                # the checker honours the deletion, so a later learnt built
                # on that implication is no longer RUP.  Match the packed
                # literals instead.
                lits_c = alits[base : base + sz]
                for lit in lits_c:
                    if assigns_lit[lit] > 0:
                        r = reason[lit >> 1]
                        if r < NO_CLAUSE and sorted(
                            _packed_reason_lits(r)
                        ) == sorted(x for x in lits_c if x != lit):
                            locked = True
                            break
            if i >= evict_until or locked:
                kept.append(cref)
                continue
            if self.proof is not None:
                self.proof.append(("d", tuple(alits[base : base + asize[cref]])))
            if asize[cref] <= 3:
                self._detach_small(cref)
            arena.free(cref)
            self.stats.removed_clauses += 1
        self.learnts_core = core
        self.learnts_tier2 = tier2
        self.learnts_local = kept
        self._last_reduce_conflicts = self.stats.conflicts
        if arena.needs_gc():
            self._garbage_collect()

    def _garbage_collect(self) -> None:
        """Purge dead watchers, compact the arena, recycle dead crefs."""
        if self._kern is not None:
            self._k_sync()
            self._k_lib.k_purge_dead(self._kern)
        else:
            asize = self.arena.size
            for ws in self.watches:
                j = 0
                for i in range(0, len(ws), 2):
                    cref = ws[i]
                    if asize[cref] >= 0:
                        ws[j] = cref
                        ws[j + 1] = ws[i + 1]
                        j += 2
                del ws[j:]
        self.arena.compact()
        self.arena.recycle()

    def _pick_branch_lit(self) -> int:
        order = self.order
        if self._kern is not None:
            if self._k_nvars != self.n_vars:
                self._k_bind_vars()
            heap_n = self._k_heapn
            heap_n[0] = order.n
            lit = self._k_lib.k_pick_branch(self._kern, heap_n)
            order.n = heap_n[0]
            return int(lit)
        assigns_lit = self.assigns_lit
        while len(order):
            var = order.pop()
            if assigns_lit[var << 1] < 0:
                return 2 * var + (1 if self.polarity[var] else 0)
        return -1

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> SatResult:
        """Solve the current formula under ``assumptions``.

        Returns a :class:`SatResult` (``UNKNOWN`` when a budget was
        exhausted, the tracer cancelled or :attr:`interrupt` asked to
        stop).  On ``SAT`` the satisfying
        assignment is in :attr:`model`; on ``UNSAT`` under assumptions,
        :attr:`core` holds a subset of failed assumptions.  Raises
        ``ValueError`` on an assumption outside ``[0, 2 * n_vars)``.
        """
        assumptions = list(assumptions)
        self._check_literals(assumptions, "solve(assumptions=)")
        self.stats.solve_calls += 1
        self.model = []
        self.core = []
        tracer = self.tracer
        before = self.stats.snapshot() if tracer is not None else None
        started = time.monotonic()
        if not self.ok:
            return self._finish(SatResult.UNSAT, before, started)
        deadline = started + time_budget if time_budget else None
        conflict_limit = (
            self.stats.conflicts + conflict_budget if conflict_budget else None
        )
        if self._sanitizer is not None:
            # Solve entry is a level-0 safe point (assumptions not yet
            # established).
            self._sanitizer.at_safe_point("solve-entry")
        restart_num = 0
        restart_budget = luby(2.0, restart_num) * self.RESTART_BASE
        conflicts_this_restart = 0
        if self.max_learnts < len(self.clauses) / 3:
            self.max_learnts = len(self.clauses) / 3
        arena = self.arena

        status: Optional[bool] = None
        while status is None:
            confl = self._propagate()
            if confl != NO_CLAUSE:
                self.stats.conflicts += 1
                conflicts_this_restart += 1
                if not self.trail_lim:
                    self.ok = False
                    status = False
                    if self.proof is not None:
                        self.proof.append(("a", ()))
                    break
                learnt, bt_level, lbd = self._analyze(confl)
                if self.proof is not None:
                    self.proof.append(("a", tuple(learnt)))
                # Never undo the assumption prefix permanently: backtracking
                # below it is fine, the assumption loop re-establishes it.
                self._cancel_until(bt_level)
                if len(learnt) == 1:
                    self._unchecked_enqueue(learnt[0], NO_CLAUSE)
                else:
                    cref = arena.alloc(learnt, learnt=True, lbd=lbd)
                    self._register_learnt(cref, lbd)
                    self._attach(cref)
                    self._cla_bump(cref)
                    self._unchecked_enqueue(learnt[0], cref)
                self.stats.lbd_counts[lbd] = self.stats.lbd_counts.get(lbd, 0) + 1
                self.stats.learnt_literals += len(learnt)
                if self.share is not None:
                    self.share.offer(learnt, lbd)
                self.var_inc *= self.VAR_DECAY
                self.cla_inc *= self.CLA_DECAY
                continue

            # No conflict.
            if conflict_limit is not None and self.stats.conflicts >= conflict_limit:
                break
            if deadline is not None and time.monotonic() > deadline:
                break
            if conflicts_this_restart >= restart_budget:
                restart_num += 1
                self.stats.restarts += 1
                restart_budget = luby(2.0, restart_num) * self.RESTART_BASE
                conflicts_this_restart = 0
                self._cancel_until(0)
                if self.share is not None:
                    # Restart = level-0 safe point: flush exports, install
                    # foreign clauses.  An import can refute the formula.
                    self._share_exchange()
                    if not self.ok:
                        status = False
                        break
                if self._sanitizer is not None:
                    # The restart safe point: level 0, sharing exchanged —
                    # the state every invariant is specified against.
                    self._sanitizer.at_safe_point("restart")
                if self.tracer is not None:
                    # Restarts are the solver's safe points: surface progress
                    # and poll the cooperative-cancellation flag so a long
                    # solve can be aborted between restarts.
                    self.tracer.event(
                        "solver.restart",
                        restarts=self.stats.restarts,
                        conflicts=self.stats.conflicts,
                        learnts=self.num_learnts,
                    )
                    if self.tracer.cancelled:
                        break
                if self.interrupt is not None and self.interrupt():
                    break
                continue
            if (
                len(self.learnts_local) + len(self.learnts_tier2) - self.trail_size
                >= self.max_learnts
                and self.trail_lim
            ):
                self._reduce_db()
                self.max_learnts *= 1.1

            # Establish assumptions, then decide.
            next_lit = -1
            while len(self.trail_lim) < len(assumptions):
                p = assumptions[len(self.trail_lim)]
                val = self.value(p)
                if val == TRUE:
                    self._new_decision_level()  # dummy level
                elif val == FALSE:
                    self._analyze_final(p)
                    if self.proof is not None:
                        # Terminal step for assumption-conditioned UNSAT:
                        # the failed core propagates to a conflict against
                        # the current database (every reason clause is
                        # logged), so its negation clause is RUP here.  The
                        # checker accepts the log via ``assumptions=``.
                        self.proof.append(("a", tuple(lit ^ 1 for lit in self.core)))
                    status = False
                    break
                else:
                    next_lit = p
                    break
            if status is not None:
                break
            if next_lit == -1:
                next_lit = self._pick_branch_lit()
                if next_lit == -1:
                    status = True  # all variables assigned
                    break
                self.stats.decisions += 1
            self._new_decision_level()
            self._unchecked_enqueue(next_lit, NO_CLAUSE)

        if status is True:
            assigns_lit = self.assigns_lit
            self.model = [assigns_lit[v << 1] > 0 for v in range(self.n_vars)]
        self._cancel_until(0)
        if self._sanitizer is not None:
            self._sanitizer.at_safe_point("solve-exit")
        return self._finish(SatResult.from_bool(status), before, started)

    def _finish(
        self, result: SatResult, before: Optional[dict], started: float
    ) -> SatResult:
        """Emit the per-solve stats snapshot (when a tracer is attached)."""
        # Accumulate before the tracer snapshot so the emitted cumulative
        # includes this call and d_solve_wall_sec is this call's wall time.
        self.stats.solve_wall_sec += time.monotonic() - started
        if self.tracer is not None:
            after = self.stats.snapshot()
            attrs = {"result": result.value, "time": time.monotonic() - started}
            # Per-call deltas tell the optimization loop where each
            # iteration's effort went; cumulative values mirror as_dict().
            for key, value in after.items():
                attrs[key] = value
                if before is not None:
                    attrs["d_" + key] = value - before[key]
            attrs["kernel"] = self.kernel
            attrs["n_vars"] = self.n_vars
            attrs["n_clauses"] = len(self.clauses)
            attrs["n_learnts"] = self.num_learnts
            attrs["lbd_counts"] = {
                str(k): v for k, v in sorted(self.stats.lbd_counts.items())
            }
            self.tracer.event("solver.solve", **attrs)
        return result

    # ------------------------------------------------------------------
    # Search guidance
    # ------------------------------------------------------------------

    def warm_start(self, hints) -> None:
        """Seed the phase-saving polarities from a (partial) assignment.

        ``hints`` maps variable index -> bool (or is a sequence of bools).
        The next search will try those values first, which lets callers
        guide the solver with an application-level solution — e.g. reusing
        the previous optimization iteration's model, or a heuristic
        synthesizer's mapping (the paper's Sec. V future-work direction).
        Hints never affect soundness: they only flip decision polarities.
        """
        items = hints.items() if hasattr(hints, "items") else enumerate(hints)
        for var, value in items:
            if not 0 <= var < self.n_vars:
                raise ValueError(f"hint for unknown variable {var}")
            self.polarity[var] = not bool(value)

    def bump_variables(self, variables, amount: float = 1.0) -> None:
        """Raise VSIDS activity of ``variables`` so they are decided early.

        The application-specific variable-ordering hook from the paper's
        future-work list: branching first on, say, mapping variables of the
        busiest qubits measurably changes search behaviour.
        """
        for var in variables:
            if not 0 <= var < self.n_vars:
                raise ValueError(f"cannot bump unknown variable {var}")
            self.activity[var] += amount * self.var_inc
            if self.activity[var] > self.RESCALE_LIMIT:
                inv = 1.0 / self.RESCALE_LIMIT
                for i in range(self.n_vars):
                    self.activity[i] *= inv
                self.var_inc *= inv
            self.order.decrease(var)

    # ------------------------------------------------------------------
    # Clause sharing (cooperating portfolio workers)
    # ------------------------------------------------------------------

    def share_sync(self) -> None:
        """Exchange shared clauses now, if a share client is attached.

        Public safe-point hook for callers that sit between :meth:`solve`
        calls (the solver itself syncs at every restart); a no-op unless at
        decision level 0.
        """
        if self.share is not None and not self.trail_lim:
            self._share_exchange()

    def _share_exchange(self) -> None:
        share = self.share
        imported = share.take_imports()
        if imported:
            self.import_shared(imported)
        self.stats.exported_clauses = share.stats.exported

    def import_shared(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Install foreign learnt clauses at decision level 0.

        The caller asserts the clauses are logical consequences of this
        solver's formula (the share bus guarantees it by matching context
        keys).  Each clause is simplified against the level-0 assignment
        and then added as a learnt clause pinned at LBD 2, which
        :meth:`_reduce_db` never evicts.  Returns the solver's ``ok`` flag
        (an import may refute the formula outright).

        No-op under proof logging: imported clauses are not locally
        derivable, so they would poison the RUP certificate.
        """
        assert not self.trail_lim, "imports only at decision level 0"
        if self.proof is not None:
            return self.ok
        arena = self.arena
        n_vars = self.n_vars
        for lits in clauses:
            if not self.ok:
                break
            out: List[int] = []
            skip = False
            for lit in lits:
                if lit >> 1 >= n_vars:
                    skip = True  # foreign variable: context mismatch guard
                    break
                val = self.assigns_lit[lit]
                if val > 0:
                    skip = True  # satisfied at level 0
                    break
                if val == 0:
                    continue  # falsified at level 0; strip
                out.append(lit)
            if skip:
                continue
            self.stats.imported_clauses += 1
            if not out:
                self.ok = False
                break
            if len(out) == 1:
                self._unchecked_enqueue(out[0], NO_CLAUSE)
                self.ok = self._propagate() == NO_CLAUSE
                continue
            # Pinned at LBD 2: lands in the core tier, which reduction
            # never touches.
            cref = arena.alloc(out, learnt=True, lbd=2)
            self.learnts_core.append(cref)
            self._attach(cref)
        return self.ok

    # ------------------------------------------------------------------
    # Explicit simplification (repro.sat.inprocess)
    # ------------------------------------------------------------------

    def simplify(
        self,
        *,
        subsume: bool = True,
        probe: bool = True,
        vivify: bool = True,
        budget: int = 200_000,
    ) -> bool:
        """Run one bounded simplification pass between :meth:`solve` calls.

        Top-level cleaning, then failed-literal probing, subsumption and
        vivification as selected; ``budget`` caps the pass's propagation
        work.  Every derivation is an assumption-free consequence of the
        formula and is proof-logged add-before-delete, so incremental
        callers and RUP certificates stay sound.  :meth:`solve` never runs
        a pass on its own.  Returns the solver's ``ok`` flag
        (simplification can refute the formula outright).
        """
        if not self.ok:
            return False
        assert not self.trail_lim, "simplify() only at decision level 0"
        if self.inprocessor is None:
            from .inprocess import Inprocessor

            self.inprocessor = Inprocessor(self)
        self.inprocessor.run(
            subsume=subsume, probe=probe, vivify=vivify, budget=budget
        )
        self.stats.inprocessings += 1
        return self.ok

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------

    def model_value(self, lit: int) -> bool:
        """Truth value of ``lit`` in the most recent satisfying model."""
        if not self.model:
            raise RuntimeError("no model available; call solve() first")
        return self.model[lit >> 1] ^ bool(lit & 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def num_learnts(self) -> int:
        return (
            len(self.learnts_core)
            + len(self.learnts_tier2)
            + len(self.learnts_local)
        )

    @property
    def learnts(self) -> List[int]:
        """All learnt crefs across the three tiers (a fresh list).

        Read-only view kept for introspection compatibility; mutate the
        per-tier lists (or go through :meth:`_register_learnt`) instead.
        """
        return self.learnts_core + self.learnts_tier2 + self.learnts_local

    def _kernel_list(self, which: int, lit: int) -> List[int]:
        """Copy one C-side watch list out of the kernel (test/debug hook).

        ``which``: 0 = binary, 1 = ternary, 2 = n-ary ``(cref, blocker)``
        pairs.  Returns ``[]`` when no kernel is attached.
        """
        if self._kern is None:
            return []
        ffi = self._k_ffi
        lib = self._k_lib
        n = lib.k_copy_list(self._kern, which, lit, ffi.NULL, 0)
        if n == 0:
            return []
        buf = ffi.new("int32_t[]", n)
        lib.k_copy_list(self._kern, which, lit, buf, n)
        return list(ffi.unpack(buf, n))

    def check_watch_invariants(self) -> None:
        """Verify watcher/arena consistency (test hook; O(watchers))."""
        self.arena.check_invariants()
        arena = self.arena
        if self._kern is not None:
            # The scan-only binary/ternary lists exist twice (authoritative
            # Python + C mirror); they must match exactly, including order.
            for lit in range(2 * self.n_vars):
                if self._kernel_list(0, lit) != list(self.watches_bin[lit]):
                    raise AssertionError(
                        f"binary watch mirror out of sync at literal {lit}"
                    )
                if self._kernel_list(1, lit) != list(self.watches_ter[lit]):
                    raise AssertionError(
                        f"ternary watch mirror out of sync at literal {lit}"
                    )
            nary_lists: List[List[int]] = [
                self._kernel_list(2, lit) for lit in range(2 * self.n_vars)
            ]
        else:
            nary_lists = self.watches
        watched: dict = {}
        bin_watched: set = set()
        for lit, ws in enumerate(nary_lists):
            if len(ws) % 2:
                raise AssertionError(f"odd watcher list length at literal {lit}")
            for i in range(0, len(ws), 2):
                cref = ws[i]
                if cref < 0:
                    raise AssertionError(f"negative cref in n-ary watches at {lit}")
                if arena.is_dead(cref):
                    continue  # lazily-pending removal is legal
                watched.setdefault(cref, []).append(lit ^ 1)
        for lit, bws in enumerate(self.watches_bin):
            for other in bws:
                bin_watched.add((lit ^ 1, other))
        ter_watched: set = set()
        for lit, tws in enumerate(self.watches_ter):
            if len(tws) % 2:
                raise AssertionError(f"odd ternary watch list length at {lit}")
            for i in range(0, len(tws), 2):
                ter_watched.add((lit ^ 1, frozenset((tws[i], tws[i + 1]))))
        for cref in list(self.clauses) + list(self.learnts):
            if arena.is_dead(cref):
                continue
            lits = arena.literals(cref)
            if len(lits) == 2:
                a, b = lits
                if (a, b) not in bin_watched or (b, a) not in bin_watched:
                    raise AssertionError(
                        f"binary clause {cref} {lits} missing watcher pair"
                    )
                continue
            if len(lits) == 3:
                for x in lits:
                    rest = frozenset(l for l in lits if l != x)
                    if (x, rest) not in ter_watched:
                        raise AssertionError(
                            f"ternary clause {cref} {lits} missing entry on {x}"
                        )
                continue
            w = watched.get(cref, [])
            for want in lits[:2]:
                if want not in w:
                    raise AssertionError(
                        f"clause {cref} watched on {w}, expected {lits[:2]}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Solver(vars={self.n_vars}, clauses={len(self.clauses)}, "
            f"learnts={len(self.learnts)}, ok={self.ok})"
        )
