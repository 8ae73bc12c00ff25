"""Unit and property-based tests for the CDCL SAT solver."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import (
    brute_force_solve,
    CNF,
    count_models,
    luby,
    mk_lit,
    neg,
    SatResult,
    Solver,
)
from repro.sat.kernel import native_available

KERNELS = [
    "python",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(),
            reason="compiled kernel not built (python -m repro.sat.kernel.build)",
        ),
    ),
]


def lit(v, sign=False):
    return mk_lit(v, negative=sign)


class TestBasics:
    def test_empty_formula_is_sat(self):
        solver = Solver()
        assert solver.solve() is SatResult.SAT
        assert solver.model == []

    def test_single_unit_clause(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([lit(a)])
        assert solver.solve() is SatResult.SAT
        assert solver.model[a] is True

    def test_negative_unit_clause(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([lit(a, True)])
        assert solver.solve() is SatResult.SAT
        assert solver.model[a] is False

    def test_contradictory_units_unsat(self):
        solver = Solver()
        a = solver.new_var()
        assert solver.add_clause([lit(a)])
        assert not solver.add_clause([lit(a, True)])
        assert solver.solve() is SatResult.UNSAT

    def test_empty_clause_unsat(self):
        solver = Solver()
        solver.new_var()
        assert not solver.add_clause([])
        assert solver.solve() is SatResult.UNSAT

    def test_tautology_dropped(self):
        solver = Solver()
        a = solver.new_var()
        assert solver.add_clause([lit(a), lit(a, True)])
        assert solver.num_clauses == 0
        assert solver.solve() is SatResult.SAT

    def test_duplicate_literals_merged(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([lit(a), lit(a), lit(b)])
        assert solver.solve() is SatResult.SAT

    def test_two_var_implication_chain(self):
        solver = Solver()
        vs = solver.new_vars(5)
        solver.add_clause([lit(vs[0])])
        for u, v in zip(vs, vs[1:]):
            solver.add_clause([lit(u, True), lit(v)])  # u -> v
        assert solver.solve() is SatResult.SAT
        assert all(solver.model[v] for v in vs)

    def test_pigeonhole_3_into_2_unsat(self):
        # 3 pigeons, 2 holes: classic small UNSAT instance requiring search.
        solver = Solver()
        x = [[solver.new_var() for _ in range(2)] for _ in range(3)]
        for p in range(3):
            solver.add_clause([lit(x[p][0]), lit(x[p][1])])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    solver.add_clause([lit(x[p1][h], True), lit(x[p2][h], True)])
        assert solver.solve() is SatResult.UNSAT

    def test_pigeonhole_5_into_4_unsat(self):
        solver = Solver()
        n_holes, n_pigeons = 4, 5
        x = [[solver.new_var() for _ in range(n_holes)] for _ in range(n_pigeons)]
        for p in range(n_pigeons):
            solver.add_clause([lit(x[p][h]) for h in range(n_holes)])
        for h in range(n_holes):
            for p1 in range(n_pigeons):
                for p2 in range(p1 + 1, n_pigeons):
                    solver.add_clause([lit(x[p1][h], True), lit(x[p2][h], True)])
        assert solver.solve() is SatResult.UNSAT
        assert solver.stats.conflicts > 0

    def test_model_value_helper(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([lit(a)])
        solver.solve()
        assert solver.model_value(lit(a)) is True
        assert solver.model_value(lit(a, True)) is False

    def test_model_value_without_model_raises(self):
        solver = Solver()
        solver.new_var()
        with pytest.raises(RuntimeError):
            solver.model_value(0)


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([lit(a), lit(b)])
        assert solver.solve(assumptions=[lit(a, True)]) is SatResult.SAT
        assert solver.model[a] is False
        assert solver.model[b] is True

    def test_conflicting_assumptions_unsat_with_core(self):
        solver = Solver()
        a = solver.new_var()
        assert solver.solve(assumptions=[lit(a), lit(a, True)]) is SatResult.UNSAT
        assert lit(a, True) in solver.core or lit(a) in solver.core

    def test_assumption_against_formula(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([lit(a, True), lit(b)])  # a -> b
        solver.add_clause([lit(b, True)])  # not b
        assert solver.solve(assumptions=[lit(a)]) is SatResult.UNSAT
        assert lit(a) in solver.core

    def test_solver_reusable_after_assumption_unsat(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([lit(a), lit(b)])
        assert solver.solve(assumptions=[lit(a, True), lit(b, True)]) is SatResult.UNSAT
        assert solver.solve() is SatResult.SAT
        assert solver.solve(assumptions=[lit(b, True)]) is SatResult.SAT
        assert solver.model[a] is True

    def test_incremental_bound_tightening_pattern(self):
        # The usage pattern of the optimization loops: selector-gated clauses.
        solver = Solver()
        xs = solver.new_vars(4)
        sel1, sel2 = solver.new_var(), solver.new_var()
        solver.add_clause([lit(x) for x in xs])
        # Under sel1: at most xs[0] allowed true among first two (toy bound).
        solver.add_clause([lit(sel1, True), lit(xs[0], True), lit(xs[1], True)])
        # Under sel2: forbid xs[2] and xs[3].
        solver.add_clause([lit(sel2, True), lit(xs[2], True)])
        solver.add_clause([lit(sel2, True), lit(xs[3], True)])
        assert solver.solve(assumptions=[lit(sel1)]) is SatResult.SAT
        assert solver.solve(assumptions=[lit(sel1), lit(sel2)]) is SatResult.SAT
        m = solver.model
        assert not (m[xs[0]] and m[xs[1]])
        assert not m[xs[2]] and not m[xs[3]]

    def test_true_assumption_noop(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([lit(a)])
        assert solver.solve(assumptions=[lit(a)]) is SatResult.SAT


class TestBudgets:
    def test_conflict_budget_returns_none(self):
        solver = Solver()
        n_holes, n_pigeons = 7, 8  # hard enough to exceed 10 conflicts
        x = [[solver.new_var() for _ in range(n_holes)] for _ in range(n_pigeons)]
        for p in range(n_pigeons):
            solver.add_clause([lit(x[p][h]) for h in range(n_holes)])
        for h in range(n_holes):
            for p1 in range(n_pigeons):
                for p2 in range(p1 + 1, n_pigeons):
                    solver.add_clause([lit(x[p1][h], True), lit(x[p2][h], True)])
        assert solver.solve(conflict_budget=5) is SatResult.UNKNOWN

    def test_budget_exhaustion_keeps_solver_usable(self):
        solver = Solver()
        n_holes, n_pigeons = 6, 7
        x = [[solver.new_var() for _ in range(n_holes)] for _ in range(n_pigeons)]
        for p in range(n_pigeons):
            solver.add_clause([lit(x[p][h]) for h in range(n_holes)])
        for h in range(n_holes):
            for p1 in range(n_pigeons):
                for p2 in range(p1 + 1, n_pigeons):
                    solver.add_clause([lit(x[p1][h], True), lit(x[p2][h], True)])
        assert solver.solve(conflict_budget=3) is SatResult.UNKNOWN
        assert solver.solve() is SatResult.UNSAT  # finish the job afterwards

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_interrupt_ends_solve_at_first_restart(self, kernel):
        solver = Solver(kernel=kernel)
        n_holes, n_pigeons = 6, 7  # far more conflicts than one restart
        x = [[solver.new_var() for _ in range(n_holes)] for _ in range(n_pigeons)]
        for p in range(n_pigeons):
            solver.add_clause([lit(x[p][h]) for h in range(n_holes)])
        for h in range(n_holes):
            for p1 in range(n_pigeons):
                for p2 in range(p1 + 1, n_pigeons):
                    solver.add_clause([lit(x[p1][h], True), lit(x[p2][h], True)])
        polls = []
        solver.interrupt = lambda: polls.append(solver.stats.conflicts) or True
        assert solver.solve() is SatResult.UNKNOWN
        # Polled once, at the first restart, and the solve ended right there.
        assert polls == [solver.stats.conflicts]
        assert Solver.RESTART_BASE <= polls[0] < 2 * Solver.RESTART_BASE
        solver.interrupt = lambda: False
        assert solver.solve() is SatResult.UNSAT  # a false poll never stops it


class TestLuby:
    def test_luby_prefix(self):
        assert [luby(2, i) for i in range(10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2]


def random_cnf(rng, n_vars, n_clauses, max_width=3):
    cnf = CNF()
    cnf.new_vars(n_vars)
    for _ in range(n_clauses):
        width = rng.randint(1, max_width)
        vs = rng.sample(range(n_vars), min(width, n_vars))
        cnf.add_clause([mk_lit(v, rng.random() < 0.5) for v in vs])
    return cnf


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_3cnf_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        n_vars = rng.randint(3, 9)
        n_clauses = rng.randint(1, 4 * n_vars)
        cnf = random_cnf(rng, n_vars, n_clauses)
        expected = brute_force_solve(cnf)
        solver = Solver()
        cnf.to_solver(solver)
        result = solver.solve()
        if expected is None:
            assert result is SatResult.UNSAT
        else:
            assert result is SatResult.SAT
            assert cnf.evaluate(solver.model[: cnf.n_vars])

    @pytest.mark.parametrize("seed", range(20))
    def test_random_cnf_under_assumptions(self, seed):
        rng = random.Random(1000 + seed)
        n_vars = rng.randint(3, 8)
        cnf = random_cnf(rng, n_vars, rng.randint(1, 3 * n_vars))
        assumed = rng.sample(range(n_vars), rng.randint(1, n_vars))
        assumptions = [mk_lit(v, rng.random() < 0.5) for v in assumed]
        constrained = CNF()
        constrained.new_vars(cnf.n_vars)
        constrained.add_clauses(cnf.clauses)
        for a in assumptions:
            constrained.add_clause([a])
        expected = brute_force_solve(constrained)
        solver = Solver()
        cnf.to_solver(solver)
        result = solver.solve(assumptions=assumptions)
        if expected is None:
            assert result is SatResult.UNSAT
        else:
            assert result is SatResult.SAT
            assert constrained.evaluate(solver.model[: cnf.n_vars])


@st.composite
def cnf_strategy(draw):
    n_vars = draw(st.integers(min_value=1, max_value=8))
    n_clauses = draw(st.integers(min_value=0, max_value=24))
    clauses = []
    for _ in range(n_clauses):
        width = draw(st.integers(min_value=1, max_value=4))
        clause = [
            mk_lit(draw(st.integers(0, n_vars - 1)), draw(st.booleans()))
            for _ in range(width)
        ]
        clauses.append(clause)
    cnf = CNF()
    cnf.new_vars(n_vars)
    cnf.add_clauses(clauses)
    return cnf


class TestHypothesis:
    @settings(max_examples=150, deadline=None)
    @given(cnf_strategy())
    def test_cdcl_matches_brute_force(self, cnf):
        expected_sat = brute_force_solve(cnf) is not None
        solver = Solver()
        cnf.to_solver(solver)
        result = solver.solve()
        assert result == expected_sat
        if result:
            assert cnf.evaluate(solver.model[: cnf.n_vars])

    @settings(max_examples=60, deadline=None)
    @given(cnf_strategy(), st.randoms())
    def test_incremental_sequence_consistent(self, cnf, rng):
        """Solving repeatedly with growing assumption sets stays consistent
        with one-shot solving of the conjoined formula."""
        solver = Solver()
        cnf.to_solver(solver)
        assumptions = []
        for _ in range(3):
            var = rng.randrange(cnf.n_vars)
            assumptions.append(mk_lit(var, rng.random() < 0.5))
            conjoined = CNF()
            conjoined.new_vars(cnf.n_vars)
            conjoined.add_clauses(cnf.clauses)
            for a in assumptions:
                conjoined.add_clause([a])
            expected = brute_force_solve(conjoined) is not None
            assert solver.solve(assumptions=assumptions) == expected

    @settings(max_examples=60, deadline=None)
    @given(cnf_strategy())
    def test_unsat_core_is_subset_of_assumptions(self, cnf):
        solver = Solver()
        cnf.to_solver(solver)
        assumptions = [mk_lit(v, v % 2 == 0) for v in range(cnf.n_vars)]
        result = solver.solve(assumptions=assumptions)
        if result is SatResult.UNSAT and solver.core:
            assert set(solver.core).issubset(set(assumptions))


class TestClauseDatabase:
    def test_learnt_clauses_accumulate_and_reduce(self):
        rng = random.Random(7)
        solver = Solver()
        n = 40
        solver.new_vars(n)
        for _ in range(170):
            vs = rng.sample(range(n), 3)
            solver.add_clause([mk_lit(v, rng.random() < 0.5) for v in vs])
        solver.max_learnts = 10  # force reductions
        solver.solve()
        assert solver.stats.solve_calls == 1

    def test_stats_exposed(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([lit(a)])
        solver.solve()
        d = solver.stats.as_dict()
        assert d["solve_calls"] == 1
        assert "conflicts" in d


class TestLiteralRange:
    """Literals outside ``[0, 2 * n_vars)`` raise ``ValueError`` up front.

    Regression: signed DIMACS integers passed as literals used to index the
    per-literal buffers from the end under the python kernel (a wrong
    ``sat``, or an ``IndexError`` inside conflict analysis) and out of
    bounds under the native kernel (a segfault before ``solve``).
    """

    @staticmethod
    def _signed_clauses(seed):
        rng = random.Random(seed)
        return [
            [rng.choice((-1, 1)) * rng.randint(1, 20) for _ in range(3)]
            for _ in range(80)
        ]

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", range(3))
    def test_signed_int_clauses_raise(self, kernel, seed):
        solver = Solver(kernel=kernel)
        solver.new_vars(20)
        with pytest.raises(ValueError, match=r"add_clause: literal -?\d+ out of range"):
            for clause in self._signed_clauses(seed):
                solver.add_clause(clause)
        # The rejected clause landed nothing: the solver stays consistent.
        solver.check_watch_invariants()
        assert solver.solve() in (SatResult.SAT, SatResult.UNSAT)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_bulk_load_rejects_before_landing(self, kernel):
        solver = Solver(kernel=kernel)
        solver.new_vars(20)
        clauses = self._signed_clauses(0)
        flat = [lit for clause in clauses for lit in clause]
        with pytest.raises(ValueError, match="add_clauses_bulk: literal"):
            solver.add_clauses_bulk(flat, [3] * len(clauses))
        assert solver.num_clauses == 0
        with pytest.raises(ValueError, match="literal 40 out of range"):
            solver.add_clauses_bulk([0, 2, 40], [3])
        solver.begin_bulk()
        solver.add_clause([1, -4])
        with pytest.raises(ValueError, match="literal -4"):
            solver.end_bulk()
        assert solver.num_clauses == 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_assumptions_out_of_range_raise(self, kernel):
        solver = Solver(kernel=kernel)
        solver.new_vars(20)
        solver.add_clause([lit(0), lit(1)])
        for bad in (-1, 40, 41):
            with pytest.raises(ValueError, match=f"assumptions=\\): literal {bad} "):
                solver.solve(assumptions=[lit(2), bad])
        assert solver.solve(assumptions=[lit(0, True)]) is SatResult.SAT
        assert solver.stats.solve_calls == 1
