"""Tests for explicit inprocessing (``Solver.simplify`` / repro.sat.inprocess).

Search is plain CDCL: the inprocessing engine runs only when a caller asks
for a pass through :meth:`Solver.simplify`.  Covers:

* differential equivalence — interleaving explicit passes with budgeted
  ``solve()`` calls never changes a verdict, a model's validity or a
  synthesis optimum, on random 3-SAT and QUEKO workloads;
* freeze-set invariants — no pass removes a variable, so every variable
  stays usable as an assumption literal, across ``extend_horizon`` too;
* proof integrity — refutations with pass deletions interleaved still
  certify via :func:`check_unsat_proof`, and so does the swap-optimal
  certified synthesis that pins ``_reduce_db``'s locked-reason handling;
* configuration — encoder-built solvers never run a pass, and the pass
  counters are exposed.
"""

from __future__ import annotations

import random

import pytest

from repro.arch import grid, linear
from repro.core import SynthesisConfig
from repro.core.encoder import LayoutEncoder
from repro.core.optimizer import IterativeSynthesizer
from repro.core.result import SynthesisResult
from repro.core.validator import validate_result
from repro.sat import (
    CNF,
    SatResult,
    Solver,
    check_unsat_proof,
    mk_lit,
)
from repro.sat.snapshot import TemplateStore
from repro.workloads.qaoa import qaoa_circuit
from repro.workloads.queko import queko_circuit


def _random_3sat(n_vars: int, n_clauses: int, seed: int) -> CNF:
    rng = random.Random(seed)
    cnf = CNF()
    cnf.new_vars(n_vars)
    for _ in range(n_clauses):
        vs = rng.sample(range(n_vars), 3)
        cnf.add_clause([mk_lit(v, rng.random() < 0.5) for v in vs])
    return cnf


def _solver_for(cnf: CNF, **kwargs) -> Solver:
    s = Solver(**kwargs)
    cnf.to_solver(s)
    return s


def _solve_with_passes(s: Solver, budget: int = 30) -> SatResult:
    """Alternate explicit passes with budgeted searches until a verdict.

    The short budget puts a pass between every few dozen conflicts, so even
    small instances run many passes over a database full of learnts.
    """
    while True:
        s.simplify()
        verdict = s.solve(conflict_budget=budget)
        if verdict is not SatResult.UNKNOWN:
            return verdict


def _queko(seed: int):
    return queko_circuit(grid(2, 3), depth=4, n_gates=12, seed=seed)


def _proven_depth(circuit, device, cfg) -> int:
    """The plain-CDCL optimizer's proven optimal depth."""
    result = IterativeSynthesizer(circuit, device, cfg).optimize_depth()
    assert result.optimal
    return result.depth


class TestDifferential:
    """Explicit passes must never change a verdict or break a model."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_3sat_verdicts_agree(self, seed):
        cnf = _random_3sat(60, 255, seed)
        plain = _solver_for(cnf)
        fancy = _solver_for(cnf)
        v1 = plain.solve()
        v2 = _solve_with_passes(fancy)
        assert v1 is v2
        assert fancy.stats.inprocessings > 0
        if v2 is SatResult.SAT:
            model = fancy.model
            for clause in cnf.clauses:
                assert any(model[l >> 1] ^ bool(l & 1) for l in clause)

    @pytest.mark.parametrize("seed", (3, 5))
    def test_queko_depths_agree_across_modes(self, seed):
        """The depth ladder with a pass before every query (one mode)
        agrees bound for bound with the plain optimizer's optimum (the
        other)."""
        inst = _queko(seed)
        cfg = SynthesisConfig(swap_duration=1, tub_ratio=1.0)
        optimum = _proven_depth(inst.circuit, linear(6), cfg)
        enc = LayoutEncoder(inst.circuit, linear(6), optimum, config=cfg)
        enc.encode()
        for bound in range(1, optimum + 1):
            assert enc.ctx.sink.simplify()
            verdict = enc.solve(assumptions=[enc.depth_guard(bound)])
            expect = SatResult.SAT if bound == optimum else SatResult.UNSAT
            assert verdict is expect, (bound, optimum)
        assert enc.ctx.sink.stats.inprocessings == optimum


class TestFreezeSet:
    """No pass removes a variable: every variable stays frozen."""

    def test_frozen_vars_stay_usable_as_assumptions(self):
        cnf = _random_3sat(40, 150, seed=11)
        s = _solver_for(cnf)
        assert s.simplify()
        baseline = _solver_for(cnf)
        for var in range(0, 40, 7):
            for sign in (False, True):
                s.simplify()
                got = s.solve(assumptions=[mk_lit(var, sign)])
                want = baseline.solve(assumptions=[mk_lit(var, sign)])
                assert got is want, (var, sign)

    def test_extend_horizon_after_simplify_stays_sound(self):
        """The synthesis pipeline's incremental discipline under passes.

        Passes run on the encoder's live solver before an UNSAT bound,
        around ``extend_horizon`` (which keeps referencing the shared
        variable prefix and the activation guards) and before the
        optimal bound; the model found afterwards must validate.
        """
        inst = _queko(3)
        device = linear(6)
        cfg = SynthesisConfig(swap_duration=1, tub_ratio=1.0)
        optimum = _proven_depth(inst.circuit, device, cfg)
        enc = LayoutEncoder(inst.circuit, device, optimum - 1, config=cfg)
        enc.encode()
        solver = enc.ctx.sink
        assert solver.simplify()
        guard = enc.depth_guard(optimum - 1)
        assert enc.solve(assumptions=[guard]) is SatResult.UNSAT
        assert solver.simplify()
        assert enc.extend_horizon(optimum + 2)
        assert solver.simplify()
        assert enc.solve(assumptions=[enc.depth_guard(optimum)]) is SatResult.SAT
        initial, times, swaps = enc.extract()
        validate_result(
            SynthesisResult(inst.circuit, device, initial, times, swaps, 1)
        )


class TestProofIntegrity:
    """Refutations with pass deletions interleaved must still certify."""

    def _pigeonhole(self, n_pigeons: int, n_holes: int) -> CNF:
        cnf = CNF()
        x = [
            [cnf.new_var() for _ in range(n_holes)] for _ in range(n_pigeons)
        ]
        for p in range(n_pigeons):
            cnf.add_clause([mk_lit(x[p][h]) for h in range(n_holes)])
        for h in range(n_holes):
            for p1 in range(n_pigeons):
                for p2 in range(p1 + 1, n_pigeons):
                    cnf.add_clause(
                        [mk_lit(x[p1][h], True), mk_lit(x[p2][h], True)]
                    )
        return cnf

    def test_pigeonhole_proof_certifies_with_inprocessing(self):
        cnf = self._pigeonhole(6, 5)
        s = _solver_for(cnf, proof_log=True)
        assert _solve_with_passes(s, budget=100) is SatResult.UNSAT
        assert s.stats.inprocessings > 0
        assert check_unsat_proof(cnf, s.proof)

    def test_explicit_vivify_deletions_certify(self):
        cnf = _random_3sat(30, 220, seed=2)  # over-constrained: UNSAT-ish
        s = _solver_for(cnf, proof_log=True)
        verdict = s.solve(conflict_budget=50)
        if verdict is not SatResult.UNSAT:
            # Interleave explicit passes (vivify + probe + subsume emit
            # add-before-delete proof lines) with more search.
            for _ in range(40):
                assert s.simplify() or True
                verdict = s.solve(conflict_budget=200)
                if verdict is not SatResult.UNKNOWN:
                    break
        assert verdict is SatResult.UNSAT
        assert check_unsat_proof(cnf, s.proof)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_unsat_proofs_certify(self, seed):
        cnf = _random_3sat(25, 200, seed=seed)
        s = _solver_for(cnf, proof_log=True)
        if _solve_with_passes(s) is SatResult.UNSAT:
            assert check_unsat_proof(cnf, s.proof)

    def test_swap_optimal_synthesis_certifies_end_to_end(self):
        """Regression: certify a swap-optimal run under the default config.

        This workload's refutations interleave thousands of reduce-db
        evictions with the proof, and it caught a deletion-ordering bug
        the small instances above never hit: evicting a ternary learnt
        that was a packed reason on the trail.  That surfaces here as a
        learnt rejected by the checker thousands of steps later.
        """
        qc = qaoa_circuit(6, seed=1)
        cfg = SynthesisConfig(swap_duration=1, time_budget=120, certify=True)
        synth = IterativeSynthesizer(qc, grid(2, 3), cfg)
        result = synth.optimize_swaps()
        assert result.optimal
        assert result.certificate is not None
        assert result.certificate.complete, result.certificate.summary()
        assert result.solver_stats["removed_clauses"] > 0


class TestConfig:
    def test_encoder_built_solvers_run_plain_cdcl(self):
        """Encoding, extension, search and template restore run no pass."""
        inst = queko_circuit(grid(2, 3), depth=3, n_gates=6, seed=0)
        cfg = SynthesisConfig(
            swap_duration=1, tub_ratio=1.0, template_store=TemplateStore()
        )
        for _run in ("encode", "template hit"):
            synth = IterativeSynthesizer(inst.circuit, linear(6), cfg)
            result = synth.optimize_depth()
            assert result.solver_stats["inprocessings"] == 0
            assert synth.encoder.ctx.sink.inprocessor is None
        assert cfg.template_store.hits >= 1

    def test_stats_counters_exposed(self):
        s = _solver_for(_random_3sat(50, 210, seed=4))
        s.simplify()
        s.solve()
        snap = s.stats.snapshot()
        for key in (
            "inprocessings",
            "vivified_clauses",
            "subsumed_clauses",
            "strengthened_clauses",
            "failed_literals",
            "hyper_binaries",
            "equivalent_literals",
        ):
            assert key in snap
        assert "eliminated_vars" not in snap
        assert snap["inprocessings"] == 1
