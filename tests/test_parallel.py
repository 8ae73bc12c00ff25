"""ParallelDescent: cooperating bound-splitting portfolio.

The acceptance property is agreement: whatever the worker count, the
cooperating portfolio must report the same optimum (with the same
optimality flag) as the sequential Sec. III-B loops — bound splitting and
clause sharing are allowed to change *how fast* the answer arrives, never
*which* answer arrives.
"""

import pytest

from repro.arch import devices
from repro.circuit import QuantumCircuit
from repro.core import (
    OLSQ2,
    ParallelDescent,
    PortfolioEntry,
    SynthesisConfig,
    SynthesisTimeout,
    validate_result,
)


def chain_circuit():
    qc = QuantumCircuit(4)
    qc.cx(0, 1)
    qc.cx(1, 2)
    qc.cx(2, 3)
    qc.cx(0, 2)
    qc.cx(1, 3)
    return qc


def entry(name="w", **kwargs):
    kwargs.setdefault("time_budget", 60.0)
    return PortfolioEntry(name, SynthesisConfig(**kwargs))


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ParallelDescent(entries=[])

    def test_rejects_mixed_transition_models(self):
        cfg = SynthesisConfig()
        with pytest.raises(ValueError, match="transition model"):
            ParallelDescent(
                entries=[
                    PortfolioEntry("a", cfg, transition_based=False),
                    PortfolioEntry("b", cfg, transition_based=True),
                ]
            )

    def test_rejects_bad_objective(self):
        with pytest.raises(ValueError, match="objective"):
            ParallelDescent(entries=[entry()]).synthesize(
                chain_circuit(), devices.ibm_qx2(), objective="fidelity"
            )

    def test_cycles_entries_to_n_workers(self):
        pd = ParallelDescent(entries=[entry("a"), entry("b")], n_workers=3)
        assert [e.name for e in pd.entries] == ["a", "b", "a"]


class TestDepthAgreement:
    @pytest.mark.timeout(180)
    def test_single_worker_matches_sequential_optimum(self):
        qc, dev = chain_circuit(), devices.ibm_qx2()
        seq = OLSQ2(SynthesisConfig(time_budget=60.0)).synthesize(
            qc, dev, objective="depth"
        )
        par = ParallelDescent(
            entries=[entry()], time_budget=60.0, slice_budget=0.3
        ).synthesize(qc, dev, objective="depth")
        assert seq.optimal and par.optimal
        assert par.depth == seq.depth
        validate_result(par, strict_dependencies=True)

    @pytest.mark.timeout(180)
    def test_two_cooperating_workers_match_sequential_optimum(self):
        qc, dev = chain_circuit(), devices.ibm_qx2()
        seq = OLSQ2(SynthesisConfig(time_budget=60.0)).synthesize(
            qc, dev, objective="depth"
        )
        par = ParallelDescent(
            n_workers=2, time_budget=60.0, slice_budget=0.3
        ).synthesize(qc, dev, objective="depth")
        assert par.optimal
        assert par.depth == seq.depth
        validate_result(par, strict_dependencies=True)
        stats = par.solver_stats["parallel"]
        assert stats["workers"] == 2
        assert stats["share"] is True
        # The cooperative channels must actually have been live.
        assert "clauses_exported" in stats and "clauses_imported" in stats
        assert set(stats["per_worker"]) == {"bv#0", "bv+euf#1"}

    @pytest.mark.timeout(180)
    def test_share_can_be_disabled(self):
        qc, dev = chain_circuit(), devices.ibm_qx2()
        par = ParallelDescent(
            n_workers=2, time_budget=60.0, slice_budget=0.3, share=False
        ).synthesize(qc, dev, objective="depth")
        stats = par.solver_stats["parallel"]
        assert stats["share"] is False
        assert stats["clauses_imported"] == 0


class TestSwapAgreement:
    @pytest.mark.timeout(240)
    def test_swap_objective_matches_sequential(self):
        qc, dev = chain_circuit(), devices.ibm_qx2()
        seq = OLSQ2(SynthesisConfig(time_budget=60.0)).synthesize(
            qc, dev, objective="swap"
        )
        par = ParallelDescent(
            n_workers=2, time_budget=60.0, slice_budget=0.3
        ).synthesize(qc, dev, objective="swap")
        assert par.objective == "swap"
        assert par.swap_count == seq.swap_count
        assert par.optimal == seq.optimal
        assert par.pareto_points  # the 2-D search recorded its rounds
        validate_result(par, strict_dependencies=True)


class TestFailureModes:
    @pytest.mark.timeout(60)
    def test_timeout_raises_synthesis_timeout(self):
        qc, dev = chain_circuit(), devices.ibm_qx2()
        pd = ParallelDescent(
            entries=[entry(time_budget=0.0)], time_budget=0.0, slice_budget=0.2
        )
        with pytest.raises(SynthesisTimeout):
            pd.synthesize(qc, dev, objective="depth")


class TestTemplates:
    """Coordinator pre-encode: workers restore snapshots, not re-encode."""

    @pytest.mark.timeout(180)
    def test_cooperating_workers_hit_shared_template(self):
        qc, dev = chain_circuit(), devices.ibm_qx2()
        seq = OLSQ2(SynthesisConfig(time_budget=60.0)).synthesize(
            qc, dev, objective="depth"
        )
        # Identical entry configs: both workers share one template key
        # (the default portfolio diversifies `encoding`, which correctly
        # splits the keys), so the coordinator pre-encodes once and each
        # worker's first encoder comes from the snapshot.
        par = ParallelDescent(
            entries=[entry("a"), entry("b")],
            time_budget=60.0,
            slice_budget=0.3,
        ).synthesize(qc, dev, objective="depth")
        assert par.optimal and par.depth == seq.depth
        stats = par.solver_stats["parallel"]
        assert stats["template_hits"] == 2

    @pytest.mark.timeout(180)
    def test_templates_off_still_agrees(self):
        qc, dev = chain_circuit(), devices.ibm_qx2()
        par = ParallelDescent(
            entries=[
                entry("a", templates="off"),
                entry("b", templates="off"),
            ],
            time_budget=60.0,
            slice_budget=0.3,
        ).synthesize(qc, dev, objective="depth")
        assert par.optimal
        assert par.solver_stats["parallel"]["template_hits"] == 0


class TestWorkerCommands:
    """A command reaching a busy worker supersedes its probe at once."""

    @pytest.mark.timeout(60)
    def test_queued_stop_ends_busy_probe_at_first_restart(self):
        import queue
        import time

        from repro.arch import grid, linear
        from repro.core.parallel import _descent_worker
        from repro.sat import Solver
        from repro.workloads import queko_circuit

        # Depth 6 is one below this instance's optimum on line-6; a fresh
        # solver needs about 1,500 conflicts to refute it.
        circuit = queko_circuit(grid(2, 3), depth=5, n_gates=15, seed=1).circuit
        config = SynthesisConfig(swap_duration=1, tub_ratio=1.0, time_budget=60.0)
        cmd_q, res_q = queue.Queue(), queue.Queue()
        cmd_q.put(("probe", "depth", 6, None, None))
        cmd_q.put(("stop",))
        # A slice budget far beyond the probe's cost: only the queued stop
        # can end it early.
        _descent_worker(
            0, "w", config, False, circuit, linear(6), None, None, None,
            cmd_q, res_q, None, 60.0, time.monotonic() + 60.0,
        )
        messages = []
        while not res_q.empty():
            messages.append(res_q.get())
        assert [m[0] for m in messages] == ["ready", "verdict"]
        stopped = messages[-1]
        assert stopped[2] == "stopped"
        assert stopped[8]["conflicts"] < 2 * Solver.RESTART_BASE


class TestProbeOrder:
    def test_quantiles_first_then_the_rest_from_the_top(self):
        from repro.core.parallel import _probe_order

        assert _probe_order(1, 9, 2) == [9, 5, 8, 7, 6, 4, 3, 2, 1]
        assert _probe_order(0, 3, 1) == [3, 2, 1, 0]

    def test_narrow_interval_gives_each_worker_its_own_bound(self):
        from repro.core.parallel import _probe_order

        # Both quantiles of [1, 2] are 2; the second worker must not be
        # left to whichever bound is free when it happens to ask.
        assert _probe_order(1, 2, 2) == [2, 1]
        assert _probe_order(3, 3, 2) == [3]
