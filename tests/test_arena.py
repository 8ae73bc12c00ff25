"""Tests for the flat clause-arena CDCL core and incremental horizon growth.

Covers the PR-2 acceptance points: the arena solver agrees with the naive
reference on random CNF (models verified, UNSAT cross-checked), the
watcher/arena invariants hold after ``_reduce_db``-driven deletion and
compaction, and learnt clauses / solver stats survive
:meth:`LayoutEncoder.extend_horizon` with the same verdicts and bounds as a
from-scratch rebuild.
"""

import random

import pytest

from repro.arch import grid, linear
from repro.circuit import QuantumCircuit
from repro.core import SynthesisConfig
from repro.core.encoder import LayoutEncoder
from repro.core.optimizer import IterativeSynthesizer
from repro.sat import CNF, SatResult, Solver, brute_force_solve, mk_lit
from repro.sat.arena import ClauseArena
from repro.sat.kernel import native_available
from repro.workloads.queko import queko_circuit

requires_native = pytest.mark.skipif(
    not native_available(),
    reason="compiled kernel not built (python -m repro.sat.kernel.build)",
)


def random_cnf(rng, n_vars, n_clauses, max_width=4):
    cnf = CNF()
    cnf.new_vars(n_vars)
    for _ in range(n_clauses):
        width = rng.randint(1, max_width)
        vs = rng.sample(range(n_vars), min(width, n_vars))
        cnf.add_clause([mk_lit(v, rng.random() < 0.5) for v in vs])
    return cnf


def check_model(cnf, model):
    for clause in cnf.clauses:
        assert any(model[l >> 1] ^ bool(l & 1) for l in clause), (
            f"model violates clause {clause}"
        )


class TestArena:
    def test_alloc_free_compact_recycle(self):
        arena = ClauseArena()
        crefs = [arena.alloc([2 * i, 2 * i + 3]) for i in range(10)]
        for c in crefs[::2]:
            arena.free(c)
        assert arena.n_live == 5
        arena.check_invariants()
        arena.compact()
        arena.check_invariants()
        # Freed crefs become reusable only after an explicit recycle.
        fresh = arena.alloc([0, 2, 4])
        assert fresh not in crefs
        arena.recycle()
        reused = arena.alloc([1, 3])
        assert reused in crefs
        arena.check_invariants()

    def test_literals_stable_across_compaction(self):
        arena = ClauseArena()
        keep = arena.alloc([4, 7, 9])
        victim = arena.alloc([10, 13])
        tail = arena.alloc([1, 5, 8, 11])
        arena.free(victim)
        arena.compact()
        assert arena.literals(keep) == [4, 7, 9]
        assert arena.literals(tail) == [1, 5, 8, 11]


class TestDifferentialSolver:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_cnf_agrees_with_brute_force(self, seed):
        rng = random.Random(1000 + seed)
        cnf = random_cnf(rng, n_vars=9, n_clauses=38)
        expected = brute_force_solve(cnf)
        solver = Solver()
        solver.new_vars(cnf.n_vars)
        solver.add_clauses(cnf.clauses)
        verdict = solver.solve()
        if expected is None:
            assert verdict is SatResult.UNSAT
        else:
            assert verdict is SatResult.SAT
            check_model(cnf, solver.model)

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_assumptions_agree(self, seed):
        """Same formula, shifting assumptions: every verdict cross-checked."""
        rng = random.Random(77 + seed)
        cnf = random_cnf(rng, n_vars=8, n_clauses=26)
        solver = Solver()
        solver.new_vars(cnf.n_vars)
        solver.add_clauses(cnf.clauses)
        for _ in range(6):
            assumed = [
                mk_lit(v, rng.random() < 0.5)
                for v in rng.sample(range(cnf.n_vars), 2)
            ]
            verdict = solver.solve(assumptions=assumed)
            conjoined = CNF()
            conjoined.new_vars(cnf.n_vars)
            conjoined.add_clauses(cnf.clauses)
            conjoined.add_clauses([[l] for l in assumed])
            expected = brute_force_solve(conjoined)
            if verdict is SatResult.SAT:
                assert expected is not None
                check_model(conjoined, solver.model)
            else:
                assert verdict is SatResult.UNSAT
                assert expected is None


def _hard_solver(seed, n_vars=60, ratio=4.3):
    rng = random.Random(seed)
    solver = Solver()
    solver.new_vars(n_vars)
    for _ in range(int(ratio * n_vars)):
        vs = rng.sample(range(n_vars), 3)
        solver.add_clause([mk_lit(v, rng.random() < 0.5) for v in vs])
    return solver


class TestWatchInvariants:
    def test_invariants_hold_after_reduce_db(self):
        solver = _hard_solver(5)
        solver.solve(conflict_budget=3000)
        # Force learnt-clause deletion plus arena compaction, then check
        # every watcher/arena invariant (including the binary and ternary
        # watch schemes).
        if solver.trail_lim:
            solver._cancel_until(1)
        if not solver.trail_lim:
            solver._new_decision_level()
        solver._reduce_db()
        solver.check_watch_invariants()
        solver._cancel_until(0)
        solver._garbage_collect()
        solver.check_watch_invariants()
        # The solver still works after deletion + compaction.
        assert solver.solve(conflict_budget=50000) in (
            SatResult.SAT,
            SatResult.UNSAT,
        )

    def test_invariants_hold_mid_search(self):
        solver = _hard_solver(11)
        for budget in (200, 500, 1000):
            solver.solve(conflict_budget=budget)
            solver.check_watch_invariants()


def _three_gate_circuit():
    qc = QuantumCircuit(3)
    qc.cx(0, 1)
    qc.cx(1, 2)
    qc.cx(0, 2)
    return qc


class TestExtendHorizon:
    def test_extension_matches_rebuild_verdicts(self):
        cfg = SynthesisConfig(swap_duration=1)
        qc = _three_gate_circuit()
        ext = LayoutEncoder(qc, linear(3), horizon=3, config=cfg)
        ext.encode()
        assert ext.solve(assumptions=[ext.depth_guard(3)]) is SatResult.UNSAT
        assert ext.extend_horizon(6)
        for bound in (3, 4, 5, 6):
            rebuilt = LayoutEncoder(qc, linear(3), horizon=6, config=cfg)
            rebuilt.encode()
            v_ext = ext.solve(assumptions=[ext.depth_guard(bound)])
            v_reb = rebuilt.solve(assumptions=[rebuilt.depth_guard(bound)])
            assert v_ext is v_reb, f"bound {bound}: {v_ext} != {v_reb}"

    def test_extension_preserves_learnt_clauses_and_stats(self):
        cfg = SynthesisConfig(swap_duration=1)
        enc = LayoutEncoder(_three_gate_circuit(), linear(3), horizon=3, config=cfg)
        enc.encode()
        assert enc.solve(assumptions=[enc.depth_guard(3)]) is SatResult.UNSAT
        solver = enc.ctx.sink
        learnts_before = solver.num_learnts
        conflicts_before = solver.stats.conflicts
        assert conflicts_before > 0
        assert enc.extend_horizon(6)
        # Same solver object, learnt clauses and counters intact.
        assert enc.ctx.sink is solver
        assert solver.num_learnts >= learnts_before
        assert solver.stats.conflicts == conflicts_before
        assert enc.solve(assumptions=[enc.depth_guard(5)]) is SatResult.SAT
        init, times, swaps = enc.extract()
        assert len(times) == 3
        assert sorted(init) == [0, 1, 2]

    def test_extension_noop_and_refusal(self):
        cfg = SynthesisConfig(swap_duration=1)
        enc = LayoutEncoder(_three_gate_circuit(), linear(3), horizon=4, config=cfg)
        assert enc.extend_horizon(3) is True  # no-op: not larger
        assert enc.horizon == 4
        enc.encode()
        enc.init_swap_counter(max_bound=4)
        # A built SWAP cardinality layer pins swap_lits: must refuse.
        assert enc.extend_horizon(8) is False

    def test_optimizer_reaches_same_depth_with_extension(self):
        """End to end: relax-phase growth via extension vs forced rebuild."""
        inst = queko_circuit(grid(2, 3), depth=4, n_gates=12, seed=5)
        dev = linear(6)

        def run(force_rebuild):
            cfg = SynthesisConfig(swap_duration=1, tub_ratio=1.0)
            synth = IterativeSynthesizer(inst.circuit, dev, config=cfg)
            if force_rebuild:
                original = LayoutEncoder.extend_horizon
                LayoutEncoder.extend_horizon = lambda self, h: False
                try:
                    return synth.optimize_depth()
                finally:
                    LayoutEncoder.extend_horizon = original
            return synth.optimize_depth()

        extended = run(force_rebuild=False)
        rebuilt = run(force_rebuild=True)
        assert extended.depth == rebuilt.depth


@requires_native
class TestKernelDifferential:
    """Randomized python-vs-native differential harness (PR 7).

    The compiled kernel claims *byte-for-byte* equivalence with the
    interpreter loops — not just the same verdicts, but the same search:
    identical trails, identical learnt clauses in identical order,
    identical stats counters, and identical (RUP-checkable) proof logs.
    Anything weaker would make ``kernel="auto"`` a semantic change.
    """

    @staticmethod
    def _pair(build, **solver_kw):
        """The same formula loaded into a python and a native solver."""
        pair = []
        for kernel in ("python", "native"):
            solver = Solver(kernel=kernel, **solver_kw)
            build(solver)
            pair.append(solver)
        return pair

    @staticmethod
    def _search_state(solver):
        """Everything the search produced, normalized across backends.

        The native backend stores per-variable state in typed ``array``
        buffers (ints), the python backend in plain lists (ints/bools);
        ``list()``/``bool()`` normalization makes them comparable without
        hiding a real divergence.  Wall-clock stats are stripped: two
        byte-identical searches still spend different seconds.
        """
        from repro.sat.solver import SolverStats

        stats = {
            k: v
            for k, v in solver.stats.snapshot().items()
            if k not in SolverStats.WALL_CLOCK
        }
        return {
            "trail": list(solver.trail[: solver.trail_size]),
            "assigns": [
                int(a) for a in solver.assigns_lit[: 2 * solver.n_vars]
            ],
            "learnts": [tuple(solver.arena.literals(c)) for c in solver.learnts],
            "stats": stats,
            "lbd_counts": dict(solver.stats.lbd_counts),
        }

    @pytest.mark.parametrize("seed", range(8))
    def test_random_cnf_search_identical(self, seed):
        rng = random.Random(4000 + seed)
        cnf = random_cnf(rng, n_vars=30, n_clauses=125, max_width=5)

        def build(solver):
            solver.new_vars(cnf.n_vars)
            solver.add_clauses(cnf.clauses)

        py, nat = self._pair(build)
        v_py = py.solve(conflict_budget=5000)
        v_nat = nat.solve(conflict_budget=5000)
        assert v_py is v_nat
        if v_py is SatResult.SAT:
            assert [bool(x) for x in py.model] == [bool(x) for x in nat.model]
            check_model(cnf, py.model)
        assert self._search_state(py) == self._search_state(nat)
        py.check_watch_invariants()
        nat.check_watch_invariants()

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_assumptions_identical(self, seed):
        rng = random.Random(8800 + seed)
        cnf = random_cnf(rng, n_vars=14, n_clauses=52)

        def build(solver):
            solver.new_vars(cnf.n_vars)
            solver.add_clauses(cnf.clauses)

        py, nat = self._pair(build)
        for _ in range(5):
            assumed = [
                mk_lit(v, rng.random() < 0.5)
                for v in rng.sample(range(cnf.n_vars), 3)
            ]
            assert py.solve(assumptions=assumed) is nat.solve(assumptions=assumed)
            assert self._search_state(py)["stats"] == (
                self._search_state(nat)["stats"]
            )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_unsat_proofs_identical_and_rup_checkable(self, seed):
        from repro.sat.proof import check_unsat_proof

        rng = random.Random(31 + seed)
        cnf = random_cnf(rng, n_vars=12, n_clauses=90, max_width=3)

        def build(solver):
            solver.new_vars(cnf.n_vars)
            solver.add_clauses(cnf.clauses)

        py, nat = self._pair(build, proof_log=True)
        if py.solve() is not SatResult.UNSAT:
            pytest.skip("draw was satisfiable; not a refutation workload")
        assert nat.solve() is SatResult.UNSAT
        assert py.proof == nat.proof
        assert check_unsat_proof(cnf, py.proof)
        assert check_unsat_proof(cnf, nat.proof)

    def test_hard_instance_mid_search_identical(self):
        """Budget-sliced solving: state compared at every pause point."""

        def build(solver):
            rng = random.Random(17)
            solver.new_vars(50)
            for _ in range(215):
                vs = rng.sample(range(50), 3)
                solver.add_clause([mk_lit(v, rng.random() < 0.5) for v in vs])

        py, nat = self._pair(build)
        for budget in (150, 400, 900):
            v_py = py.solve(conflict_budget=budget)
            v_nat = nat.solve(conflict_budget=budget)
            assert v_py is v_nat
            assert self._search_state(py) == self._search_state(nat)
            py.check_watch_invariants()
            nat.check_watch_invariants()
