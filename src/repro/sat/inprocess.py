"""Inprocessing: explicit solver-side simplification at level 0.

One-shot preprocessing (:mod:`repro.sat.preprocess`) only ever sees the
input formula; this engine simplifies a live :class:`repro.sat.solver.Solver`
database, learnt clauses and level-0 units included.  It runs only when a
caller asks for it through :meth:`Solver.simplify` — search itself is plain
CDCL, because on the layout-synthesis formulas the passes cost more wall
time than the conflicts they save (see docs/PERFORMANCE.md, section 7):

* **top-level cleaning** — clauses satisfied by a level-0 unit are
  deleted, falsified literals are stripped;
* **clause vivification** — assert the negation of a clause's literals
  one by one; a propagation conflict or an implied literal proves a
  strictly shorter clause (Piette/Hamadi/Sais 2008);
* **failed-literal probing** over the binary implication graph, with
  **hyper-binary resolution** (binary shortcuts for non-binary
  implication chains) and **equivalent-literal substitution** (Tarjan
  SCCs of the binary graph; every literal of a cycle is rewritten to one
  representative);
* **subsumption / self-subsuming resolution**, reusing the Bloom-style
  clause signatures from :func:`repro.sat.preprocess._signature`.

Safety contract — a pass runs only at decision level 0 with no
assumptions established, so everything it derives is an
assumption-free consequence of the formula:

* *incrementality*: strengthened clauses are logical consequences and no
  variable is ever removed, so ``extend_horizon``, assumption literals
  and clause sharing stay sound;
* *proofs*: every strengthening emits the new clause as a RUP addition
  **before** deleting the old one (the old clause participates in the new
  one's unit-propagation check), so the solver's DRAT-style log stays
  certifiable by :class:`repro.sat.proof.RupChecker`;
* *equivalences*: the defining binary clauses of an equivalence class are
  kept, so substituted variables remain constrained and models stay valid
  for external references;
* *watchers*: binary/ternary clauses are detached eagerly (their
  scan-only watch lists cannot drop dead clauses lazily); n-ary clauses
  use the arena's O(1) lazy deletion.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set

from .preprocess import _signature
from .solver import BIN_BASE, NO_CLAUSE, Solver


class Inprocessor:
    """Bounded inprocessing over a :class:`Solver`'s clause database.

    Constructed by the solver on its first :meth:`Solver.simplify` call;
    holds only cursors so successive passes rotate through different probe
    roots and vivification candidates.
    """

    #: Maximum hyper-binary resolvents added per pass.
    HBR_MAX = 64
    #: Maximum problem clauses vivified per pass (learnts are bounded by
    #: the propagation budget alone).
    VIVIFY_IRR_MAX = 50
    #: Minimum size for an irredundant clause to be worth vivifying.
    VIVIFY_IRR_MIN_SIZE = 4

    def __init__(self, solver: Solver) -> None:
        self.solver = solver
        self._probe_cursor = 0
        self._vivify_cursor = 0
        self._saved_phases: Sequence[int] = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(
        self,
        *,
        subsume: bool = True,
        probe: bool = True,
        vivify: bool = True,
        budget: int = 20_000,
    ) -> None:
        """One bounded pass.  Must be called at decision level 0.

        ``budget`` caps the propagation work of the probing and
        vivification phases (subsumption is capped by an equivalent
        number of set-inclusion tests).
        """
        s = self.solver
        if not s.ok:
            return
        self._begin()
        self._clean_top_level()
        if s.ok and probe:
            self._probe(budget // 4)
        if s.ok and subsume:
            self._subsume(4 * budget)
        if s.ok and vivify:
            self._vivify(budget)
        self._finish()

    # ------------------------------------------------------------------
    # Pass scaffolding
    # ------------------------------------------------------------------

    def _begin(self) -> None:
        s = self.solver
        assert not s.trail_lim, "inprocessing requires decision level 0"
        # Level-0 reasons are never dereferenced by conflict analysis
        # (level > 0 guards), but they are *compared* against crefs by the
        # reduction's locked check.  Clearing them lets this pass free any
        # clause without leaving a dangling reason behind.
        reason = s.reason
        trail = s.trail
        for i in range(s.trail_size):
            reason[trail[i] >> 1] = NO_CLAUSE
        # Probing and vivification propagate and backtrack; without this
        # snapshot the cancellations would overwrite the saved phases of
        # every variable they touch and derail the subsequent search.
        # A slice copy keeps the container type (list or, under the native
        # kernel, array('b')) so _finish can slice-assign it back.
        self._saved_phases = s.polarity[:]

    def _finish(self) -> None:
        s = self.solver
        arena = s.arena
        asize = arena.size
        alearnt = arena.learnt
        s.clauses = [c for c in s.clauses if asize[c] >= 0]
        # Subsumption may promote a learnt subsumer to irredundant
        # (learnt flag cleared, cref moved into ``clauses``), so the tier
        # lists also filter on the flag.
        s.learnts_core = [c for c in s.learnts_core if asize[c] >= 0 and alearnt[c]]
        s.learnts_tier2 = [c for c in s.learnts_tier2 if asize[c] >= 0 and alearnt[c]]
        s.learnts_local = [c for c in s.learnts_local if asize[c] >= 0 and alearnt[c]]
        reason = s.reason
        trail = s.trail
        for i in range(s.trail_size):
            reason[trail[i] >> 1] = NO_CLAUSE
        # Restore the search's saved phases (see _begin).
        if len(self._saved_phases) == len(s.polarity):
            s.polarity[:] = self._saved_phases
        self._saved_phases = []
        if arena.needs_gc():
            s._garbage_collect()

    def _live_crefs(self) -> List[int]:
        s = self.solver
        asize = s.arena.size
        out = [c for c in s.clauses if asize[c] >= 0]
        for tier in (s.learnts_core, s.learnts_tier2, s.learnts_local):
            out.extend(c for c in tier if asize[c] >= 0)
        return out

    # ------------------------------------------------------------------
    # Shared primitives
    # ------------------------------------------------------------------

    def _delete(self, cref: int) -> None:
        """Delete a clause with a proof line and eager small-clause detach."""
        s = self.solver
        arena = s.arena
        if s.proof is not None:
            s.proof.append(("d", tuple(arena.literals(cref))))
        if arena.size[cref] <= 3:
            s._detach_small(cref)
        arena.free(cref)

    def _enqueue_unit(self, lit: int) -> None:
        """Assert a derived unit at level 0 (its add line is already logged)."""
        s = self.solver
        val = s.assigns_lit[lit]
        if val > 0:
            return
        if val == 0:
            # The unit contradicts an established level-0 assignment: the
            # empty clause follows by propagation over the logged units.
            s.ok = False
            if s.proof is not None:
                s.proof.append(("a", ()))
            return
        s._unchecked_enqueue(lit, NO_CLAUSE)
        if s._propagate() != NO_CLAUSE:
            s.ok = False
            if s.proof is not None:
                s.proof.append(("a", ()))

    def _replace(self, cref: int, new_lits: List[int]) -> Optional[int]:
        """Swap ``cref`` for a strictly stronger clause, proof-safely.

        Emits the RUP addition *before* the deletion so the old clause can
        justify the new one.  Returns the new cref, or ``None`` when the
        replacement collapsed to a unit / the empty clause.
        """
        s = self.solver
        arena = s.arena
        old = arena.literals(cref)
        learnt = bool(arena.learnt[cref])
        old_lbd = arena.lbd[cref]
        old_act = arena.act[cref]
        old_touch = arena.touch[cref]
        if s.proof is not None:
            s.proof.append(("a", tuple(new_lits)))
            s.proof.append(("d", tuple(old)))
        if arena.size[cref] <= 3:
            s._detach_small(cref)
        arena.free(cref)
        if not new_lits:
            s.ok = False  # the add line above was the empty clause
            return None
        if len(new_lits) == 1:
            self._enqueue_unit(new_lits[0])
            return None
        ncref = arena.alloc(new_lits, learnt=learnt, lbd=min(old_lbd, len(new_lits)))
        s._attach(ncref)
        if learnt:
            s._register_learnt(ncref, arena.lbd[ncref])
            arena.touch[ncref] = old_touch
        else:
            s.clauses.append(ncref)
        arena.act[ncref] = old_act
        return ncref

    # ------------------------------------------------------------------
    # Phase: top-level cleaning
    # ------------------------------------------------------------------

    def _clean_top_level(self) -> None:
        """Delete satisfied clauses, strip falsified literals (level 0)."""
        s = self.solver
        arena = s.arena
        astart = arena.start
        asize = arena.size
        alits = arena.lits
        assigns = s.assigns_lit
        proof = s.proof
        if proof is not None:
            # Deleting a clause satisfied at level 0 can delete the *reason*
            # of a root literal.  The solver keeps the literal on its trail,
            # but a checker honouring the deletion loses the derivation —
            # and learnt clauses omit root-falsified literals, so their RUP
            # checks silently depend on it.  Log every root unit (once, in
            # trail order, so each is RUP against the still-intact formula)
            # before any satisfied clause goes away.
            for idx in range(s._proof_root_logged, s.trail_size):
                proof.append(("a", (s.trail[idx],)))
            s._proof_root_logged = s.trail_size
        for cref in self._live_crefs():
            base = astart[cref]
            lits = alits[base : base + asize[cref]]
            satisfied = False
            n_false = 0
            for lit in lits:
                v = assigns[lit]
                if v > 0:
                    satisfied = True
                    break
                if v == 0:
                    n_false += 1
            if satisfied:
                self._delete(cref)
                continue
            if n_false:
                new = [lit for lit in lits if assigns[lit] < 0]
                s.stats.strengthened_clauses += 1
                self._replace(cref, new)
                if not s.ok:
                    return

    # ------------------------------------------------------------------
    # Phase: probing (equivalences, failed literals, hyper-binaries)
    # ------------------------------------------------------------------

    def _binary_sccs(self) -> List[List[int]]:
        """SCCs (size >= 2) of the binary implication graph, iteratively.

        Nodes are unassigned literals; ``watches_bin[p]`` lists exactly
        the literals implied by ``p`` through binary clauses.
        """
        s = self.solver
        wbin = s.watches_bin
        assigns = s.assigns_lit
        n = 2 * s.n_vars
        index = [0] * n
        low = [0] * n
        on_stack = bytearray(n)
        stack: List[int] = []
        sccs: List[List[int]] = []
        counter = 1
        for root in range(n):
            if index[root] or assigns[root] >= 0:
                continue
            work = [(root, 0)]
            while work:
                v, pi = work.pop()
                if pi == 0:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = 1
                descended = False
                adj = wbin[v]
                while pi < len(adj):
                    w = adj[pi]
                    pi += 1
                    if assigns[w] >= 0:
                        continue
                    if index[w] == 0:
                        work.append((v, pi))
                        work.append((w, 0))
                        descended = True
                        break
                    if on_stack[w] and index[w] < low[v]:
                        low[v] = index[w]
                if descended:
                    continue
                if low[v] == index[v]:
                    scc: List[int] = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        scc.append(w)
                        if w == v:
                            break
                    if len(scc) > 1:
                        sccs.append(scc)
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
        return sccs

    def _equivalences(self) -> Dict[int, int]:
        """Equivalent-literal map (lit -> representative); may refute."""
        s = self.solver
        sub: Dict[int, int] = {}
        for scc in self._binary_sccs():
            members = set(scc)
            rep = min(scc)
            if (rep ^ 1) in members:
                # l and ¬l in one cycle: both polarities are failed
                # literals; two RUP units then the empty clause.
                if s.proof is not None:
                    s.proof.append(("a", (rep ^ 1,)))
                self._enqueue_unit(rep ^ 1)
                if s.ok:
                    if s.proof is not None:
                        s.proof.append(("a", (rep,)))
                    self._enqueue_unit(rep)
                return {}
            for lit in scc:
                if lit != rep:
                    sub[lit] = rep
            if not (rep & 1):
                # Count each variable merge once (the dual SCC, whose
                # representative is rep^1, describes the same merges).
                s.stats.equivalent_literals += len(scc) - 1
        return sub

    def _apply_substitution(self, sub: Dict[int, int]) -> None:
        """Rewrite n-ary clauses onto SCC representatives.

        Binary clauses are left alone: they define the equivalences, keep
        substituted variables constrained (models stay valid), and make
        every rewritten clause RUP.
        """
        s = self.solver
        arena = s.arena
        asize = arena.size
        for cref in self._live_crefs():
            if asize[cref] < 3:
                continue
            lits = arena.literals(cref)
            mapped = [sub.get(lit, lit) for lit in lits]
            if mapped == lits:
                continue
            out: Set[int] = set(mapped)
            if any((lit ^ 1) in out for lit in out):
                # Tautology under the equivalence: implied by the kept
                # binary clauses, so the original is redundant.
                self._delete(cref)
                continue
            self._replace(cref, sorted(out))
            if not s.ok:
                return

    def _probe(self, budget: int) -> None:
        s = self.solver
        sub = self._equivalences()
        if not s.ok:
            return
        if sub:
            self._apply_substitution(sub)
            if not s.ok:
                return
        # Failed-literal probing on the roots of the binary implication
        # graph (in-degree 0, out-degree > 0): every implied literal is
        # revisited for free below its root.
        wbin = s.watches_bin
        assigns = s.assigns_lit
        n = 2 * s.n_vars
        indeg = [0] * n
        for p in range(n):
            if assigns[p] >= 0:
                continue
            for q in wbin[p]:
                indeg[q] += 1
        roots = [p for p in range(n) if wbin[p] and not indeg[p] and assigns[p] < 0]
        if not roots:
            return
        start = self._probe_cursor % len(roots)
        props_before = s.stats.propagations
        hbr_added = 0
        probed = 0
        reason = s.reason
        trail = s.trail
        for off in range(len(roots)):
            if s.stats.propagations - props_before > budget:
                break
            p = roots[(start + off) % len(roots)]
            probed += 1
            if assigns[p] >= 0:
                continue  # fixed by an earlier probe
            s._new_decision_level()
            s._unchecked_enqueue(p, NO_CLAUSE)
            confl = s._propagate()
            if confl != NO_CLAUSE:
                s._cancel_until(0)
                s.stats.failed_literals += 1
                if s.proof is not None:
                    # RUP: asserting p propagates to the conflict just seen.
                    s.proof.append(("a", (p ^ 1,)))
                self._enqueue_unit(p ^ 1)
                if not s.ok:
                    return
                continue
            if hbr_added < self.HBR_MAX:
                # Hyper-binary resolution: p implied q through a non-binary
                # chain; the shortcut (¬p ∨ q) is RUP by that same chain.
                base = s.trail_lim[0]
                for idx in range(base + 1, s.trail_size):
                    q = trail[idx]
                    r = reason[q >> 1]
                    if r < NO_CLAUSE and not ((BIN_BASE - r) & 1):
                        continue  # already implied by a binary clause
                    if q in wbin[p]:
                        continue  # direct edge exists
                    if s.proof is not None:
                        s.proof.append(("a", (p ^ 1, q)))
                    cref = s.arena.alloc([p ^ 1, q], learnt=True, lbd=2)
                    s._attach(cref)
                    s.learnts_core.append(cref)
                    s.stats.hyper_binaries += 1
                    hbr_added += 1
                    if hbr_added >= self.HBR_MAX:
                        break
            s._cancel_until(0)
        self._probe_cursor += probed

    # ------------------------------------------------------------------
    # Phase: subsumption / self-subsuming resolution
    # ------------------------------------------------------------------

    def _subsume(self, ticks: int) -> None:
        s = self.solver
        arena = s.arena
        alearnt = arena.learnt
        crefs = self._live_crefs()
        sets: List[Set[int]] = []
        sigs: List[int] = []
        occ: Dict[int, List[int]] = defaultdict(list)
        for idx, cref in enumerate(crefs):
            cset = set(arena.literals(cref))
            sets.append(cset)
            sigs.append(_signature(cset))
            for lit in cset:
                occ[lit].append(idx)
        alive = [True] * len(crefs)
        spent = 0

        # Forward subsumption, smallest subsumers first.
        order = sorted(range(len(crefs)), key=lambda i: len(sets[i]))
        for idx in order:
            if spent > ticks:
                break
            if not alive[idx]:
                continue
            cset = sets[idx]
            sig = sigs[idx]
            size = len(cset)
            rarest = min(cset, key=lambda lit: len(occ[lit]))
            for other in occ[rarest]:
                if other == idx or not alive[other]:
                    continue
                spent += 1
                if sig & ~sigs[other]:
                    continue
                if len(sets[other]) >= size and cset <= sets[other]:
                    if alearnt[crefs[idx]] and not alearnt[crefs[other]]:
                        # A learnt clause subsumes an irredundant one:
                        # promote the subsumer so the formula keeps an
                        # irredundant witness (membership fixed in _finish).
                        alearnt[crefs[idx]] = 0
                        s.clauses.append(crefs[idx])
                    self._delete(crefs[other])
                    alive[other] = False
                    s.stats.subsumed_clauses += 1

        # Self-subsuming resolution: C ∨ l strengthened by D ∨ ¬l, D ⊆ C.
        for idx in range(len(crefs)):
            if spent > ticks:
                break
            if not alive[idx]:
                continue
            strengthened = True
            while strengthened and spent <= ticks and s.ok:
                strengthened = False
                for lit in list(sets[idx]):
                    allowed = sigs[idx] | (1 << ((lit ^ 1) & 63))
                    for other in occ[lit ^ 1]:
                        if not alive[other] or other == idx:
                            continue
                        spent += 1
                        if sigs[other] & ~allowed:
                            continue
                        oset = sets[other]
                        if (lit ^ 1) not in oset:
                            continue  # stale occurrence entry
                        rest = oset - {lit ^ 1}
                        if rest and rest <= (sets[idx] - {lit}):
                            new_set = sets[idx] - {lit}
                            ncref = self._replace(crefs[idx], sorted(new_set))
                            s.stats.strengthened_clauses += 1
                            sets[idx] = new_set
                            sigs[idx] = _signature(new_set)
                            if ncref is None:
                                alive[idx] = False
                            else:
                                crefs[idx] = ncref
                            strengthened = True
                            break
                    if strengthened or not s.ok:
                        break
                if not alive[idx]:
                    break
            if not s.ok:
                return

    # ------------------------------------------------------------------
    # Phase: vivification
    # ------------------------------------------------------------------

    def _vivify_one(self, cref: int) -> None:
        s = self.solver
        arena = s.arena
        assigns = s.assigns_lit
        if arena.size[cref] < 0:
            return
        lits = arena.literals(cref)
        for lit in lits:
            if assigns[lit] > 0:
                return  # satisfied at level 0; cleaning will delete it
        learnt = bool(arena.learnt[cref])
        old_lbd = arena.lbd[cref]
        # Reallocation must not erase the clause's learned usefulness
        # signals: activity drives both eviction order and vivification
        # candidate order, so zeroing it here would wipe exactly the
        # hottest clauses every pass.
        old_act = arena.act[cref]
        old_tier = arena.tier[cref]
        old_touch = arena.touch[cref]
        # Free first so the clause can neither satisfy nor propagate
        # against itself while its own negation is being asserted.
        if arena.size[cref] <= 3:
            s._detach_small(cref)
        arena.free(cref)
        new: List[int] = []
        s._new_decision_level()
        for lit in lits:
            v = assigns[lit]
            if v > 0:
                # ¬(prefix) implies lit: the clause truncates here.
                new.append(lit)
                break
            if v == 0:
                continue  # ¬(prefix) implies ¬lit: drop the literal
            new.append(lit)
            s._unchecked_enqueue(lit ^ 1, NO_CLAUSE)
            if s._propagate() != NO_CLAUSE:
                break  # ¬(prefix) is contradictory: the prefix is a clause
        s._cancel_until(0)
        if len(new) < len(lits):
            s.stats.vivified_clauses += 1
            s.stats.vivified_literals += len(lits) - len(new)
            proof = s.proof
            if proof is not None:
                # Addition first: the original clause (deleted second)
                # closes the new clause's unit-propagation check.
                proof.append(("a", tuple(new)))
                proof.append(("d", tuple(lits)))
            if not new:
                s.ok = False  # the add line was the empty clause
                return
            if len(new) == 1:
                self._enqueue_unit(new[0])
                return
            ncref = arena.alloc(new, learnt=learnt, lbd=min(old_lbd, len(new)))
            s._attach(ncref)
            if learnt:
                s._register_learnt(ncref, arena.lbd[ncref])
                arena.touch[ncref] = old_touch
            else:
                s.clauses.append(ncref)
            arena.act[ncref] = old_act
        else:
            # No gain: reinstall verbatim, no proof traffic.
            ncref = arena.alloc(lits, learnt=learnt, lbd=old_lbd)
            s._attach(ncref)
            if learnt:
                s._register_learnt(ncref, old_lbd)
                arena.tier[ncref] = old_tier
                arena.touch[ncref] = old_touch
            else:
                s.clauses.append(ncref)
            arena.act[ncref] = old_act

    def _vivify(self, budget: int) -> None:
        s = self.solver
        arena = s.arena
        asize = arena.size
        act = arena.act
        # Most active mid/low-value learnts first: they are both the most
        # frequently revisited and the most likely to carry dead literals.
        learnt_cands = [
            c
            for c in s.learnts_tier2 + s.learnts_local
            if asize[c] >= 3
        ]
        learnt_cands.sort(key=lambda c: -act[c])
        # Long irredundant clauses rotate under a persistent cursor so
        # successive passes cover the whole formula.
        irr_cands: List[int] = []
        n_clauses = len(s.clauses)
        if n_clauses:
            start = self._vivify_cursor % n_clauses
            scanned = 0
            while scanned < n_clauses and len(irr_cands) < self.VIVIFY_IRR_MAX:
                cref = s.clauses[(start + scanned) % n_clauses]
                scanned += 1
                if asize[cref] >= self.VIVIFY_IRR_MIN_SIZE:
                    irr_cands.append(cref)
            self._vivify_cursor = start + scanned
        props_before = s.stats.propagations
        for cref in learnt_cands + irr_cands:
            if s.stats.propagations - props_before > budget:
                break
            self._vivify_one(cref)
            if not s.ok:
                return
