"""Independent checking of UNSAT proofs (RUP / DRAT-style).

When optimality matters — "the optimal depth is the minimal value that can
have a satisfiable assignment" (paper Sec. III-B) — the UNSAT answer at the
last bound is the load-bearing claim.  A solver bug that mislabels a
satisfiable bound as UNSAT would silently produce *sub-optimal* "optimal"
results.  Proof logging plus this checker closes that loop: every clause
the solver derives is validated by *reverse unit propagation* (RUP) against
the clauses available at that point, exactly as DRAT checkers validate
industrial SAT solvers.

The checker propagates with two watched literals per clause and resolves
deletions through a hash index keyed by the sorted literal tuple, the same
structure DRAT-trim uses; the quadratic full-scan implementation it replaced
is retained as :func:`check_unsat_proof_slow`, both as an oracle for
differential tests and as the baseline for the proof-checker benchmark.

Incremental, assumption-conditioned solves (``extend_horizon`` plus the
persistent StepVar activation assumptions) do not end in an empty clause:
the solver instead logs the failed-assumption core as a final RUP step, and
the caller passes the assumption literals to :func:`check_unsat_proof` via
``assumptions=``, which then demands that asserting them propagates to a
conflict under the fully-replayed clause database.

Usage::

    solver = Solver(proof_log=True)
    cnf.to_solver(solver)
    assert solver.solve() is SatResult.UNSAT
    assert check_unsat_proof(cnf, solver.proof)
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from .formula import CNF
from .kernel import kernel_handles, resolve_backend
from .solver import _addr
from .types import neg

ProofStep = Tuple[str, Sequence[int]]


class ProofError(ValueError):
    """Raised when a proof step fails its RUP check."""


# ---------------------------------------------------------------------------
# Reference implementation: naive full-scan unit propagation.
# ---------------------------------------------------------------------------


def _unit_propagate_conflict(clauses: List[List[int]], assumed: Sequence[int]) -> bool:
    """Return True iff unit propagation from ``assumed`` hits a conflict."""
    assignment: Dict[int, bool] = {}
    for lit in assumed:
        var, val = lit >> 1, not (lit & 1)
        if var in assignment and assignment[var] != val:
            return True
        assignment[var] = val
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unassigned: Optional[int] = None
            n_unassigned = 0
            satisfied = False
            for lit in clause:
                var = lit >> 1
                if var not in assignment:
                    unassigned = lit
                    n_unassigned += 1
                    if n_unassigned > 1:
                        break
                elif assignment[var] ^ bool(lit & 1):
                    satisfied = True
                    break
            if satisfied or n_unassigned > 1:
                continue
            if n_unassigned == 0:
                return True  # falsified clause
            assert unassigned is not None
            var, val = unassigned >> 1, not (unassigned & 1)
            if var in assignment:
                if assignment[var] != val:
                    return True
            else:
                assignment[var] = val
                changed = True
    return False


def is_rup(clauses: List[List[int]], candidate: Sequence[int]) -> bool:
    """Is ``candidate`` derivable by reverse unit propagation from ``clauses``?

    Negate every literal of the candidate, propagate; the candidate is RUP
    iff propagation refutes the negation.
    """
    return _unit_propagate_conflict(clauses, [neg(l) for l in candidate])


def check_unsat_proof_slow(
    cnf: CNF,
    proof: Sequence[ProofStep],
    strict_deletions: bool = False,
    assumptions: Sequence[int] = (),
) -> bool:
    """Reference checker: full-scan propagation, linear deletion lookup.

    O(|db|) per propagation pass and per deletion — kept as the trusted
    oracle for differential tests and as the benchmark baseline.  Semantics
    match :func:`check_unsat_proof`.
    """
    db: List[List[int]] = [sorted(set(c)) for c in cnf.clauses]
    for step_idx, (op, raw) in enumerate(proof):
        lits = list(raw)
        if op == "d":
            key = sorted(set(lits))
            for i, clause in enumerate(db):
                if clause == key:
                    db.pop(i)
                    break
            else:
                if strict_deletions:
                    raise ProofError(f"step {step_idx}: deleting absent clause {lits}")
            continue
        if op != "a":
            raise ProofError(f"step {step_idx}: unknown op {op!r}")
        if not is_rup(db, lits):
            raise ProofError(f"step {step_idx}: clause {lits} is not RUP")
        if not lits:
            return True
        db.append(sorted(set(lits)))
    if assumptions:
        return _unit_propagate_conflict(db, list(assumptions))
    return False


# ---------------------------------------------------------------------------
# Fast checker: two watched literals, hash-indexed deletion.
# ---------------------------------------------------------------------------


class RupChecker:
    """Incremental RUP checker over a mutable clause database.

    Clauses are stored once and watched on their first two literals; each
    RUP query assigns the negated candidate plus all current unit clauses,
    propagates along the watch lists, and undoes its trail afterwards.
    Watch positions persist between queries (any position is valid under
    the empty assignment), so repeated queries touch only the clauses that
    actually propagate — the property that makes DRAT-trim-style checking
    scale where a per-step database scan does not.

    Deletion is resolved through ``self.index``, a multiset mapping the
    sorted literal tuple to the live clause ids carrying it, so ``("d",
    lits)`` steps cost a dict lookup regardless of database size; a delete
    removes the most recently added live copy.

    Literals must be non-negative: a method given a negative literal raises
    :class:`ProofError` and changes nothing.  A literal past the current
    range grows the checker first, as a fresh variable.

    ``RupChecker(n_vars)`` picks its backend with
    :func:`repro.sat.kernel.resolve_backend`, the rule ``Solver(kernel=
    "auto")`` uses, and returns a :class:`NativeRupChecker` when that
    resolves to ``"native"``; ``kernel`` names the backend picked.  This
    class is the pure-Python backend: the fallback when the extension is
    not built, and the reference the compiled mirror is tested against.
    """

    kernel = "python"

    def __new__(cls, n_vars: int) -> "RupChecker":
        impl: Type[RupChecker] = cls
        if cls is RupChecker and resolve_backend() == "native":
            impl = NativeRupChecker
        return object.__new__(impl)

    def __init__(self, n_vars: int) -> None:
        self.n_vars = 0
        # clause id -> literal list, or None once deleted.
        self.clauses: List[Optional[List[int]]] = []
        # literal -> ids of clauses watching it (lazily pruned).
        self.watches: List[List[int]] = []
        # sorted literal tuple -> live clause ids with that key (multiset).
        self.index: Dict[Tuple[int, ...], List[int]] = {}
        # (clause id, literal) for unit clauses; dead ids skipped when seeding.
        self.units: List[Tuple[int, int]] = []
        self.has_empty = False
        # per-literal assignment: truth[lit] == 1 iff lit is currently true.
        self.truth = bytearray()
        self.propagations = 0
        self._grow(n_vars)

    def _grow(self, n_vars: int) -> None:
        if n_vars <= self.n_vars:
            return
        extend_by = 2 * (n_vars - self.n_vars)
        self.truth.extend(bytes(extend_by))
        for _ in range(extend_by):
            self.watches.append([])
        self.n_vars = n_vars

    def _reserve(self, lits: Sequence[int]) -> None:
        """Reject a negative literal; grow to cover the largest one."""
        if lits:
            low = min(lits)
            if low < 0:
                raise ProofError(f"negative literal {low}")
            self._grow((max(lits) >> 1) + 1)

    # -- database maintenance ------------------------------------------------

    def add_clause(self, lits: Sequence[int]) -> None:
        """Install a clause (duplicates removed; assumed already RUP-checked)."""
        key = tuple(sorted(set(lits)))
        if key:
            if key[0] < 0:
                raise ProofError(f"negative literal {key[0]}")
            self._grow((key[-1] >> 1) + 1)
        cid = len(self.clauses)
        clause = list(key)
        self.clauses.append(clause)
        self.index.setdefault(key, []).append(cid)
        if not clause:
            self.has_empty = True
        elif len(clause) == 1:
            self.units.append((cid, clause[0]))
        else:
            self.watches[clause[0]].append(cid)
            self.watches[clause[1]].append(cid)

    def add_clauses(self, clauses: Sequence[Sequence[int]]) -> None:
        """Install clauses in order, as one :meth:`add_clause` each.  On a
        negative literal the clauses before the offending one stay added."""
        for clause in clauses:
            self.add_clause(clause)

    def delete_clause(self, lits: Sequence[int]) -> bool:
        """Remove one instance of the clause; False if no live copy exists.

        The watch lists are pruned lazily: dead ids are dropped the next
        time propagation walks past them.
        """
        key = tuple(sorted(set(lits)))
        if key and key[0] < 0:
            raise ProofError(f"negative literal {key[0]}")
        ids = self.index.get(key)
        if not ids:
            return False
        cid = ids.pop()
        if not ids:
            del self.index[key]
        self.clauses[cid] = None
        return True

    # -- propagation ---------------------------------------------------------

    def propagate_conflict(self, assumed: Iterable[int]) -> bool:
        """Assert ``assumed``, seed unit clauses, propagate; True iff conflict.

        The assignment is fully undone before returning, so the checker can
        serve any number of queries.
        """
        lits = list(assumed)
        self._reserve(lits)
        return self._propagate(lits)

    def is_rup(self, candidate: Sequence[int]) -> bool:
        """Is ``candidate`` derivable by reverse unit propagation?"""
        self._reserve(candidate)
        return self._propagate([neg(l) for l in candidate])

    def _propagate(self, assumed: List[int]) -> bool:
        """:meth:`propagate_conflict` on literals already in range."""
        if self.has_empty:
            return True
        truth = self.truth
        clauses = self.clauses
        watches = self.watches
        trail: List[int] = []
        conflict = False

        def assert_lit(lit: int) -> bool:
            """Make ``lit`` true; False on conflict with the current trail."""
            if truth[lit]:
                return True
            if truth[lit ^ 1]:
                return False
            truth[lit] = 1
            trail.append(lit)
            return True

        for cid, lit in self.units:
            if clauses[cid] is None:
                continue
            if not assert_lit(lit):
                conflict = True
                break
        if not conflict:
            for lit in assumed:
                if not assert_lit(lit):
                    conflict = True
                    break

        head = 0
        while not conflict and head < len(trail):
            falsified = trail[head] ^ 1
            head += 1
            self.propagations += 1
            ws = watches[falsified]
            i = j = 0
            n = len(ws)
            while i < n:
                cid = ws[i]
                i += 1
                clause = clauses[cid]
                if clause is None:
                    continue  # lazily drop deleted clause's watcher
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                if truth[other]:
                    ws[j] = cid
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if not truth[lit ^ 1]:
                        clause[1], clause[k] = lit, falsified
                        watches[lit].append(cid)
                        break
                else:
                    ws[j] = cid
                    j += 1
                    if truth[other ^ 1]:
                        conflict = True
                        break
                    truth[other] = 1
                    trail.append(other)
            while i < n:  # conflict broke the scan: keep remaining watchers
                ws[j] = ws[i]
                j += 1
                i += 1
            del ws[j:]

        for lit in trail:
            truth[lit] = 0
        return conflict


def _c_lits(lits: Iterable[int]) -> Sequence[int]:
    """``lits`` as a list or tuple, the sequences cffi converts to an
    ``int32_t *`` argument."""
    return lits if isinstance(lits, (list, tuple)) else list(lits)


class NativeRupChecker(RupChecker):
    """:class:`RupChecker` on the compiled kernel (the ``rup_*`` entry
    points of ``kernel.c``).

    The clause store, watch lists and deletion index live in C, and each
    method is one kernel call; :meth:`add_clauses` loads a whole formula
    through one call over a flat ``array('i')``.  The C loop transcribes
    :meth:`RupChecker._propagate` statement for statement, so verdicts and
    ``propagations`` match the Python backend exactly.  The pure-Python
    state of the base class is never built.
    """

    kernel = "native"

    def __init__(self, n_vars: int) -> None:
        ffi, lib = kernel_handles()
        self._ffi = ffi
        self._lib = lib
        self._rup = ffi.gc(lib.rup_new(), lib.rup_free)
        self.propagations = 0
        lib.rup_grow(self._rup, n_vars)

    def add_clause(self, lits: Sequence[int]) -> None:
        lits = _c_lits(lits)
        if self._lib.rup_add(self._rup, lits, len(lits)) < 0:
            raise ProofError(f"negative literal {min(lits)}")

    def add_clauses(self, clauses: Sequence[Sequence[int]]) -> None:
        flat = array("i", chain.from_iterable(clauses))
        sizes = array("i", map(len, clauses))
        cast = self._ffi.cast
        added = self._lib.rup_add_many(
            self._rup,
            cast("const int32_t *", _addr(flat)),
            cast("const int32_t *", _addr(sizes)),
            len(sizes),
        )
        if added < len(sizes):
            raise ProofError(f"negative literal {min(clauses[added])}")

    def delete_clause(self, lits: Sequence[int]) -> bool:
        lits = _c_lits(lits)
        removed = self._lib.rup_delete(self._rup, lits, len(lits))
        if removed < 0:
            raise ProofError(f"negative literal {min(lits)}")
        return bool(removed)

    def propagate_conflict(self, assumed: Iterable[int]) -> bool:
        return self._query(assumed, 0)

    def is_rup(self, candidate: Sequence[int]) -> bool:
        return self._query(candidate, 1)

    def _query(self, assumed: Iterable[int], negate: int) -> bool:
        lits = _c_lits(assumed)
        # rup_conflict returns (propagations << 1) | conflict, or -1.
        out = self._lib.rup_conflict(self._rup, lits, len(lits), negate)
        if out < 0:
            raise ProofError(f"negative literal {min(lits)}")
        self.propagations += out >> 1
        return bool(out & 1)


def check_unsat_proof(
    cnf: CNF,
    proof: Sequence[ProofStep],
    strict_deletions: bool = False,
    assumptions: Sequence[int] = (),
    stats: Optional[Dict[str, int]] = None,
) -> bool:
    """Replay a proof log against the original formula.

    Each ``("a", lits)`` step must be RUP with respect to the formula plus
    all previously added (and not deleted) clauses; a ``("a", ())`` step —
    the empty clause — completes the refutation.  ``("d", lits)`` steps
    remove a clause from the active set (with ``strict_deletions`` the
    clause must exist; otherwise absent deletions are counted in
    ``stats["ignored_deletions"]`` and skipped).

    ``assumptions`` certifies an assumption-conditioned UNSAT (the verdict
    the incremental optimiser relies on): if the replay ends without an
    empty clause, the assumption literals are asserted and propagation must
    refute them for the proof to be accepted.

    Returns ``True`` if the refutation is validly derived.  Raises
    :class:`ProofError` on an invalid step, and on a negative literal
    anywhere (the message names the formula, the step or the assumptions);
    returns ``False`` if the proof ends without refuting the formula (or
    the assumptions).  A literal past ``cnf.n_vars`` is a fresh variable.
    The replay runs on :class:`RupChecker`'s backend (the compiled kernel
    when built, else pure Python); both give identical results.

    When ``stats`` is a dict it is filled with replay counters: ``steps``,
    ``additions``, ``deletions``, ``ignored_deletions`` and
    ``propagations``.
    """
    counters = {
        "steps": len(proof),
        "additions": 0,
        "deletions": 0,
        "ignored_deletions": 0,
        "propagations": 0,
    }
    if stats is not None:
        stats.update(counters)  # visible even when a step raises
        counters = stats
    checker = RupChecker(cnf.n_vars)
    try:
        checker.add_clauses(cnf.clauses)
    except ProofError as exc:
        raise ProofError(f"formula: {exc}") from None
    verified = False
    step_idx = -1  # -1 while the terminal assumption check runs
    try:
        for step_idx, (op, raw) in enumerate(proof):
            lits = list(raw)
            if op == "d":
                counters["deletions"] += 1
                if not checker.delete_clause(lits):
                    if strict_deletions:
                        raise ProofError(f"deleting absent clause {lits}")
                    counters["ignored_deletions"] += 1
                continue
            if op != "a":
                raise ProofError(f"unknown op {op!r}")
            counters["additions"] += 1
            if not checker.is_rup(lits):
                raise ProofError(f"clause {lits} is not RUP")
            if not lits:
                verified = True
                break
            checker.add_clause(lits)
        else:
            step_idx = -1
            if assumptions:
                # Terminal check for assumption-conditioned UNSAT: the
                # assumptions themselves must propagate to a conflict.
                verified = checker.propagate_conflict(assumptions)
    except ProofError as exc:
        where = f"step {step_idx}" if step_idx >= 0 else "assumptions"
        raise ProofError(f"{where}: {exc}") from None
    finally:
        counters["propagations"] = checker.propagations
    return verified


def proof_stats(proof: Sequence[ProofStep]) -> Dict[str, int]:
    """Summary counters for a proof log (no replay; see also the ``stats``
    parameter of :func:`check_unsat_proof` for replay-time counters such as
    ``ignored_deletions``)."""
    additions = sum(1 for op, _ in proof if op == "a")
    deletions = sum(1 for op, _ in proof if op == "d")
    literals = sum(len(lits) for op, lits in proof if op == "a")
    return {
        "steps": len(proof),
        "additions": additions,
        "deletions": deletions,
        "added_literals": literals,
    }
