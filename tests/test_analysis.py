"""Tests for the static verification layer (repro.analysis)."""

import pytest

from repro.analysis import (
    certify_bound,
    check_records,
    lint_cnf,
    lint_encoder,
    mirror_encoder,
    RefutationRecord,
)
from repro.arch import linear
from repro.circuit import QuantumCircuit
from repro.core import LayoutEncoder, SynthesisConfig
from repro.encodings.cardinality import IncrementalCounter
from repro.sat import CNF, SatResult, Solver, mk_lit, neg
from repro.sat.kernel import native_available
from repro.smt import SMTContext, cnf_context


requires_native = pytest.mark.skipif(
    not native_available(),
    reason="compiled kernel not built (python -m repro.sat.kernel.build)",
)


def triangle():
    qc = QuantumCircuit(3)
    qc.cx(0, 1)
    qc.cx(1, 2)
    qc.cx(0, 2)
    return qc


def make_encoder(ctx=None, horizon=5, swap_duration=1):
    return LayoutEncoder(
        triangle(),
        linear(3),
        horizon,
        config=SynthesisConfig(swap_duration=swap_duration),
        ctx=ctx if ctx is not None else cnf_context(),
    )


class TestLintCnf:
    def test_clean_formula_is_ok(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([mk_lit(a), mk_lit(b)])
        cnf.add_clause([mk_lit(a, True), mk_lit(b, True)])
        report = lint_cnf(cnf)
        assert report.ok
        assert report.diagnostics == []
        assert report.n_vars == 2 and report.n_clauses == 2

    def test_empty_clause_is_error(self):
        cnf = CNF()
        cnf.new_var()
        cnf.add_clause([])
        report = lint_cnf(cnf)
        assert not report.ok
        assert any(d.code == "empty-clause" for d in report.errors)

    def test_tautology_and_duplicates_warn(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([mk_lit(a), mk_lit(a, True)])
        cnf.add_clause([mk_lit(a), mk_lit(b)])
        cnf.add_clause([mk_lit(b), mk_lit(a)])
        cnf.add_clause([mk_lit(a), mk_lit(a), mk_lit(b, True)])
        report = lint_cnf(cnf)
        assert report.ok  # warnings only
        codes = {d.code for d in report.diagnostics}
        assert {"tautology", "duplicate-clause", "duplicate-literal"} <= codes

    def test_unused_variable_warns(self):
        cnf = CNF()
        a = cnf.new_var()
        cnf.new_var()  # never mentioned
        cnf.add_clause([mk_lit(a)])
        report = lint_cnf(cnf)
        unused = [d for d in report.warnings if d.code == "unused-var"]
        assert len(unused) == 1 and unused[0].var == 1

    def test_flood_of_one_code_is_capped(self):
        cnf = CNF()
        a = cnf.new_var()
        for _ in range(30):
            cnf.add_clause([mk_lit(a)])
        report = lint_cnf(cnf)
        dups = [d for d in report.diagnostics if d.code == "duplicate-clause"]
        assert len(dups) == 11  # 10 findings + 1 suppression summary
        assert "suppressed" in dups[-1].message


class TestLintGroups:
    def test_missing_amo_pair_detected(self):
        cnf = CNF()
        lits = [mk_lit(cnf.new_var()) for _ in range(3)]
        cnf.add_clause([neg(lits[0]), neg(lits[1])])
        cnf.add_clause([neg(lits[0]), neg(lits[2])])
        # pair (1, 2) deliberately missing
        cnf.add_clause(list(lits))  # keep vars used
        report = lint_cnf(cnf, groups=[{"kind": "amo", "label": "g", "lits": lits}])
        errs = [d for d in report.errors if d.code == "amo-missing-pair"]
        assert len(errs) == 1 and errs[0].group == "g"

    def test_missing_guarded_alo_detected(self):
        cnf = CNF()
        guard = mk_lit(cnf.new_var())
        lits = [mk_lit(cnf.new_var()) for _ in range(2)]
        cnf.add_clause([guard] + lits)  # wrong polarity on the guard
        report = lint_cnf(
            cnf,
            groups=[{"kind": "alo", "label": "g", "lits": lits, "guard": guard}],
        )
        assert any(d.code == "alo-missing" for d in report.errors)

    def test_exactly_one_checks_both_directions(self):
        cnf = CNF()
        lits = [mk_lit(cnf.new_var()) for _ in range(2)]
        cnf.add_clause(list(lits))
        cnf.add_clause([neg(lits[0]), neg(lits[1])])
        group = {"kind": "exactly_one", "label": "pi", "lits": lits}
        assert lint_cnf(cnf, groups=[group]).ok

    def test_intact_ladder_passes_and_broken_ladder_fails(self):
        cnf = CNF()
        lits = [mk_lit(cnf.new_var()) for _ in range(4)]
        counter = IncrementalCounter(cnf, lits, max_bound=2)
        group = {
            "kind": "ladder",
            "label": "swap_counter",
            "inputs": counter.lits,
            "rows": counter.registers,
        }
        assert lint_cnf(cnf, groups=[group]).ok
        # Drop one carry clause: the linter must notice.
        victim = tuple(sorted([neg(counter.registers[0][0]), counter.registers[1][0]]))
        cnf.clauses = [
            c for c in cnf.clauses if tuple(sorted(c)) != victim
        ]
        report = lint_cnf(cnf, groups=[group])
        assert any(d.code == "ladder-broken" for d in report.errors)

    def test_share_prefix_leak_detected(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        start = cnf.num_clauses
        cnf.add_clause([mk_lit(a), mk_lit(b)])  # entirely inside the prefix
        group = {
            "kind": "private",
            "label": "depth_guard[3]",
            "clause_range": (start, cnf.num_clauses),
        }
        report = lint_cnf(cnf, groups=[group], share_prefix=2)
        assert any(d.code == "share-prefix-leak" for d in report.errors)
        # A literal beyond the prefix in the clause makes it sound.
        cnf2 = CNF()
        cnf2.new_vars(3)
        start = cnf2.num_clauses
        cnf2.add_clause([mk_lit(0), mk_lit(2, True)])
        group["clause_range"] = (start, cnf2.num_clauses)
        assert lint_cnf(cnf2, groups=[group], share_prefix=2).ok


class TestLintEncoder:
    def test_encoder_output_is_clean(self):
        report = lint_encoder(
            triangle(),
            linear(3),
            5,
            config=SynthesisConfig(swap_duration=1),
            depth_bound=4,
            swap_bound=3,
        )
        assert report.ok, report.summary()
        assert not report.errors

    def test_transition_based_encoder_is_clean(self):
        report = lint_encoder(
            triangle(),
            linear(3),
            3,
            config=SynthesisConfig(swap_duration=1),
            transition_based=True,
            depth_bound=2,
        )
        assert report.ok, report.summary()

    def test_constraint_groups_cover_gates_and_qubits(self):
        enc = LayoutEncoder(
            triangle(),
            linear(3),
            5,
            config=SynthesisConfig(swap_duration=1, encoding="onehot"),
            ctx=cnf_context(),
        )
        enc.encode()
        groups = enc.constraint_groups()
        kinds = {}
        for g in groups:
            kinds[g["kind"]] = kinds.get(g["kind"], 0) + 1
        assert kinds.get("amo", 0) == 3  # one per gate (StepVar selectors)
        assert kinds.get("alo", 0) == 3
        assert kinds.get("exactly_one", 0) == 3 * 5  # one per qubit x step

    def test_onehot_encoder_output_is_clean(self):
        report = lint_encoder(
            triangle(),
            linear(3),
            5,
            config=SynthesisConfig(swap_duration=1, encoding="onehot"),
            depth_bound=4,
        )
        assert report.ok, report.summary()


class TestMirror:
    def test_mirror_reproduces_variable_numbering(self):
        solver = Solver(proof_log=True)
        enc = make_encoder(ctx=SMTContext(sink=solver))
        enc.encode()
        enc.depth_guard(3)
        enc.extend_horizon(7)
        enc.depth_guard(5)
        enc.init_swap_counter(max_bound=3)
        enc.swap_guard(2)
        mirror = mirror_encoder(enc)
        assert mirror.ctx.n_vars == enc.ctx.n_vars
        assert mirror._depth_guards == enc._depth_guards

    @staticmethod
    def live_unsat_record():
        """A live proof-logged UNSAT at depth bound 3 and its record."""
        solver = Solver(proof_log=True)
        enc = make_encoder(ctx=SMTContext(sink=solver))
        enc.encode()
        guard = enc.depth_guard(3)  # depth 4 is optimal: bound 3 is UNSAT
        assumptions = tuple(enc.ctx.persistent_assumptions) + (guard,)
        assert enc.ctx.solve(assumptions=[guard]) is SatResult.UNSAT
        record = RefutationRecord(
            encoder=enc,
            phase="depth",
            depth_bound=3,
            swap_bound=None,
            assumptions=assumptions,
            proof_len=len(solver.proof),
        )
        return solver, record

    def test_check_records_certifies_live_unsat(self):
        _, record = self.live_unsat_record()
        (cert,) = check_records([record])
        assert cert.checked, cert.reason
        assert cert.phase == "depth" and cert.depth_bound == 3

    @pytest.mark.parametrize(
        "backend", ["python", pytest.param("native", marks=requires_native)]
    )
    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda lits, n_vars: lits[1:], id="literal-dropped"),
            # Still RUP if the sign is ignored: a checker that aliases the
            # negative index accepts it and fails 34 steps later instead.
            pytest.param(
                lambda lits, n_vars: lits + (~lits[0],), id="negative-literal-added"
            ),
            pytest.param(
                lambda lits, n_vars: (2 * n_vars + (lits[0] & 1),) + lits[1:],
                id="literal-moved-past-n_vars",
            ),
        ],
    )
    def test_corrupt_live_proof_is_incomplete(self, monkeypatch, backend, corrupt):
        """A corrupted lemma yields an unchecked certificate whose reason
        names that step: no crash, no pass, no failure surfacing later."""
        monkeypatch.setenv("REPRO_KERNEL", backend)
        solver, record = self.live_unsat_record()
        idx = next(i for i, (op, lits) in enumerate(solver.proof) if op == "a" and lits)
        op, lits = solver.proof[idx]
        solver.proof[idx] = (op, corrupt(lits, solver.n_vars))
        (cert,) = check_records([record])
        assert not cert.checked
        assert cert.reason.startswith(f"step {idx}: "), cert.reason

    def test_check_records_survives_later_extension(self):
        """A record captured before extend_horizon still certifies: the
        mirror holds the final formula, a superset of the verdict-time DB."""
        solver = Solver(proof_log=True)
        enc = make_encoder(ctx=SMTContext(sink=solver))
        enc.encode()
        guard = enc.depth_guard(3)
        assumptions = tuple(enc.ctx.persistent_assumptions) + (guard,)
        assert enc.ctx.solve(assumptions=[guard]) is SatResult.UNSAT
        proof_len = len(solver.proof)
        enc.extend_horizon(8)  # grows the formula after the verdict
        assert enc.ctx.solve(assumptions=[enc.depth_guard(6)]) is SatResult.SAT
        record = RefutationRecord(
            encoder=enc,
            phase="depth",
            depth_bound=3,
            swap_bound=None,
            assumptions=assumptions,
            proof_len=proof_len,
        )
        (cert,) = check_records([record])
        assert cert.checked, cert.reason

    def test_record_without_proof_log_is_unchecked(self):
        enc = make_encoder(ctx=SMTContext(sink=Solver()))
        enc.encode()
        record = RefutationRecord(
            encoder=enc,
            phase="depth",
            depth_bound=3,
            swap_bound=None,
            assumptions=(),
            proof_len=0,
        )
        (cert,) = check_records([record])
        assert not cert.checked
        assert "proof log" in cert.reason


class TestCertifyBound:
    def test_depth_bound_certified_post_hoc(self):
        cert = certify_bound(
            triangle(),
            linear(3),
            5,
            depth_bound=3,
            config=SynthesisConfig(swap_duration=1),
        )
        assert cert.checked, cert.reason
        assert cert.phase == "depth"
        assert cert.proof_steps > 0

    def test_swap_bound_certified_post_hoc(self):
        cert = certify_bound(
            triangle(),
            linear(3),
            5,
            depth_bound=5,
            swap_bound=0,
            swap_counter_max=2,
            config=SynthesisConfig(swap_duration=1),
        )
        assert cert.checked, cert.reason
        assert cert.phase == "swap"

    def test_feasible_bound_reports_not_unsat(self):
        cert = certify_bound(
            triangle(),
            linear(3),
            5,
            depth_bound=4,  # feasible: re-solve returns SAT
            config=SynthesisConfig(swap_duration=1),
        )
        assert not cert.checked
        assert "not UNSAT" in cert.reason
