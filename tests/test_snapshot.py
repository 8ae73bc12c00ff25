"""Encode-once machinery: bulk clause loading, snapshots, template reuse.

The PR-10 acceptance points, tested differentially:

* loading a formula through the bulk path (``add_clauses_bulk`` at the
  solver level, ``encode_bulk`` at the encoder level) leaves the solver
  in *byte-identical* state to per-clause loading, under both kernels;
* a solver restored from :func:`repro.sat.snapshot.snapshot_solver` is
  byte-identical to a freshly encoded one — across every (source,
  target) kernel pair — and searches identically afterwards;
* :func:`repro.core.templates.template_key` separates exactly the inputs
  that change the encoded formula (property-tested with hypothesis);
* a template hit skips Python encoding: the optimizer restores + replays
  instead of rebuilding clauses, and produces the same proven optimum.

State comparison reuses ``snapshot_solver`` itself: the blob *is* the
complete observable state (arena, watches, trail, heap, counters), so two
solvers are byte-identical iff their snapshots decode equal (wall-clock
stats excepted — identical searches still spend different seconds).
Truncated, corrupted and stale blobs are refused before any solver is
built.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.arch import grid, linear
from repro.circuit import QuantumCircuit
from repro.core import SynthesisConfig
from repro.core.encoder import LayoutEncoder
from repro.core.optimizer import IterativeSynthesizer
from repro.core.templates import encode_config_slice, template_key
from repro.sat import SatResult, Solver, mk_lit
from repro.sat.kernel import native_available
from repro.sat import snapshot as snapshot_mod
from repro.sat.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotCorrupt,
    SnapshotUnsupported,
    TemplateStore,
    read_snapshot,
    restore_solver,
    snapshot_solver,
)
from repro.smt.context import SMTContext
from repro.workloads.queko import queko_circuit

requires_native = pytest.mark.skipif(
    not native_available(),
    reason="compiled kernel not built (python -m repro.sat.kernel.build)",
)

KERNELS = ["python"] + (["native"] if native_available() else [])
KERNEL_PAIRS = [(a, b) for a in KERNELS for b in KERNELS]


def _state(solver):
    """Complete observable solver state, wall-clock stats stripped."""
    from repro.sat.solver import SolverStats

    state = read_snapshot(snapshot_solver(solver))
    for name in SolverStats.WALL_CLOCK:
        state["stats"].pop(name, None)
    return state


def random_clauses(rng, n_vars, n_clauses, max_width=4, with_units=False):
    out = []
    for _ in range(n_clauses):
        width = rng.randint(1 if with_units else 2, max_width)
        vs = rng.sample(range(n_vars), min(width, n_vars))
        out.append([mk_lit(v, rng.random() < 0.5) for v in vs])
    return out


def queko_encoder(kernel="python", encode_bulk="on", horizon=5, solver=None):
    """A LayoutEncoder over a small QUEKO instance, encoded into ``solver``."""
    device = linear(5)
    inst = queko_circuit(device, depth=3, n_gates=8, seed=7)
    circuit = inst.circuit if hasattr(inst, "circuit") else inst
    config = SynthesisConfig(
        swap_duration=1, kernel=kernel, encode_bulk=encode_bulk
    )
    if solver is None:
        solver = Solver(kernel=kernel)
    enc = LayoutEncoder(
        circuit, device, horizon, config=config, ctx=SMTContext(sink=solver)
    )
    enc.encode()
    return enc


class TestBulkLoading:
    """add_clauses_bulk / encode_bulk are byte-identical to per-clause."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", range(3))
    def test_solver_bulk_matches_per_clause(self, kernel, seed):
        rng = random.Random(900 + seed)
        clauses = random_clauses(rng, 25, 120, with_units=True)

        per = Solver(kernel=kernel)
        per.new_vars(25)
        for c in clauses:
            per.add_clause(c)

        bulk = Solver(kernel=kernel)
        bulk.new_vars(25)
        flat, sizes = [], []
        for c in clauses:
            flat.extend(c)
            sizes.append(len(c))
        bulk.add_clauses_bulk(flat, sizes)

        assert _state(per) == _state(bulk)
        per.check_watch_invariants()
        bulk.check_watch_invariants()
        assert per.solve(conflict_budget=2000) is bulk.solve(
            conflict_budget=2000
        )
        assert _state(per) == _state(bulk)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_staging_interleaved_with_units(self, kernel):
        """Units force a mid-batch flush; the result must still match."""
        rng = random.Random(41)
        clauses = random_clauses(rng, 12, 40)
        plain = Solver(kernel=kernel)
        plain.new_vars(12)
        staged = Solver(kernel=kernel)
        staged.new_vars(12)
        staged.begin_bulk()
        for i, c in enumerate(clauses):
            plain.add_clause(c)
            staged.add_clause(c)
            if i == 20:
                unit = [mk_lit(0, False)]
                plain.add_clause(unit)
                staged.add_clause(unit)
        staged.end_bulk()
        assert _state(plain) == _state(staged)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_encoder_bulk_matches_off(self, kernel):
        on = queko_encoder(kernel=kernel, encode_bulk="on")
        off = queko_encoder(kernel=kernel, encode_bulk="off")
        assert _state(on.ctx.sink) == _state(off.ctx.sink)
        # Same after incremental horizon growth and a solve.
        on.extend_horizon(7)
        off.extend_horizon(7)
        assert _state(on.ctx.sink) == _state(off.ctx.sink)
        r_on = on.ctx.sink.solve(conflict_budget=5000)
        r_off = off.ctx.sink.solve(conflict_budget=5000)
        assert r_on is r_off
        assert _state(on.ctx.sink) == _state(off.ctx.sink)


class TestSnapshotRestore:
    """restore_solver(snapshot_solver(s)) is byte-identical to s."""

    @pytest.mark.parametrize("src,dst", KERNEL_PAIRS)
    def test_restore_matches_fresh_encode(self, src, dst):
        fresh = queko_encoder(kernel=src)
        blob = snapshot_solver(fresh.ctx.sink)
        clone = restore_solver(blob, kernel=dst)
        clone.check_watch_invariants()
        assert _state(clone) == _state(fresh.ctx.sink)

    @pytest.mark.parametrize("src,dst", KERNEL_PAIRS)
    def test_restored_solver_searches_identically(self, src, dst):
        fresh = queko_encoder(kernel=src)
        blob = snapshot_solver(fresh.ctx.sink)
        clone = restore_solver(blob, kernel=dst)
        original = fresh.ctx.sink
        assumptions = list(fresh.ctx.persistent_assumptions)
        v1 = original.solve(assumptions=assumptions, conflict_budget=20000)
        v2 = clone.solve(assumptions=assumptions, conflict_budget=20000)
        assert v1 is v2
        assert _state(original) == _state(clone)
        if v1 is SatResult.SAT:
            assert [bool(x) for x in original.model] == [
                bool(x) for x in clone.model
            ]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_snapshot_survives_mid_search_state(self, kernel):
        """Snapshot after a budget-limited solve (learnts, trail, phases)."""
        rng = random.Random(77)
        clauses = random_clauses(rng, 40, 170, max_width=3)
        s = Solver(kernel=kernel)
        s.new_vars(40)
        for c in clauses:
            s.add_clause(c)
        s.solve(conflict_budget=150)  # pauses mid-search at level 0
        blob = snapshot_solver(s)
        clone = restore_solver(blob, kernel=kernel)
        assert _state(clone) == _state(s)
        assert s.solve(conflict_budget=5000) is clone.solve(
            conflict_budget=5000
        )
        assert _state(clone) == _state(s)

    def test_refuses_proof_logging(self):
        s = Solver(proof_log=True)
        s.new_vars(2)
        s.add_clause([mk_lit(0, False), mk_lit(1, False)])
        with pytest.raises(SnapshotUnsupported, match="proof"):
            snapshot_solver(s)

    def test_refuses_bulk_staging_and_replay(self):
        s = Solver()
        s.new_vars(2)
        s.begin_bulk()
        with pytest.raises(SnapshotUnsupported, match="bulk"):
            snapshot_solver(s)
        s.end_bulk()
        s.begin_replay()
        with pytest.raises(SnapshotUnsupported, match="replay"):
            snapshot_solver(s)
        s.end_replay()
        snapshot_solver(s)  # clean solver snapshots fine

    def test_rejects_foreign_format(self):
        blob = pickle.dumps({"format": 999})
        with pytest.raises(SnapshotUnsupported, match="format"):
            restore_solver(blob)


class TestSnapshotFrame:
    """Damaged or stale bytes fail with a named error, before any Solver."""

    @pytest.fixture
    def blob(self, monkeypatch):
        enc = queko_encoder()
        data = snapshot_solver(enc.ctx.sink)

        def no_solver(*_args, **_kwargs):
            raise AssertionError("restore built a Solver from bad bytes")

        # Anything past the frame check would construct a Solver first.
        monkeypatch.setattr(snapshot_mod, "Solver", no_solver)
        return data

    def test_rejects_truncated_blob(self, blob):
        assert blob.startswith(SNAPSHOT_MAGIC)
        for cut in (len(blob) - 1, len(blob) // 2, 20, 6):
            with pytest.raises(SnapshotCorrupt, match="truncated"):
                restore_solver(blob[:cut])

    def test_rejects_byte_flipped_blob(self, blob):
        for pos in (len(blob) - 1, len(blob) // 2, 40):
            flipped = bytearray(blob)
            flipped[pos] ^= 0x20
            with pytest.raises(SnapshotCorrupt, match="crc32"):
                restore_solver(bytes(flipped))

    def test_rejects_format_1_blob(self, blob):
        # Format 1 was the state dict pickled bare, format key inside.
        state = read_snapshot(blob)
        state["format"] = 1
        with pytest.raises(SnapshotUnsupported, match="format-1"):
            restore_solver(pickle.dumps(state))
        # A frame stamped with another format number is refused by number.
        stale = bytearray(blob)
        stale[4:6] = (1).to_bytes(2, "little")
        with pytest.raises(SnapshotUnsupported, match="format 1 != 2") as info:
            restore_solver(bytes(stale))
        assert not isinstance(info.value, SnapshotCorrupt)


class TestTemplateStore:
    def test_hit_miss_counters_and_len(self):
        store = TemplateStore(max_entries=4)
        assert store.get("k") is None
        store.put("k", b"blob")
        assert store.get("k") == b"blob"
        assert store.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert len(store) == 1

    def test_lru_eviction_prefers_recently_used(self):
        store = TemplateStore(max_entries=2)
        store.put("a", b"1")
        store.put("b", b"2")
        assert store.get("a") == b"1"  # touch: "b" is now oldest
        store.put("c", b"3")
        assert store.get("b") is None
        assert store.get("a") == b"1"
        assert store.get("c") == b"3"

    def test_put_overwrites_in_place(self):
        store = TemplateStore(max_entries=2)
        store.put("a", b"1")
        store.put("a", b"2")
        assert len(store) == 1
        assert store.get("a") == b"2"

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TemplateStore(max_entries=0)


def _circuit_from_gates(n_qubits, gate_qubits):
    qc = QuantumCircuit(n_qubits)
    for qubits in gate_qubits:
        if len(qubits) == 1:
            qc.h(qubits[0])
        else:
            qc.cx(qubits[0], qubits[1])
    return qc


class TestTemplateKey:
    """template_key pins exactly the encode-relevant inputs."""

    def test_hypothesis_key_is_pure_and_label_sensitive(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def gate_lists(draw):
            n = draw(st.integers(min_value=2, max_value=4))
            m = draw(st.integers(min_value=1, max_value=6))
            gates = []
            for _ in range(m):
                if draw(st.booleans()):
                    gates.append((draw(st.integers(0, n - 1)),))
                else:
                    a = draw(st.integers(0, n - 1))
                    b = draw(st.integers(0, n - 1).filter(lambda x: x != a))
                    gates.append((a, b))
            return n, gates

        @given(gate_lists(), st.integers(min_value=1, max_value=6))
        @settings(max_examples=40, deadline=None)
        def check(spec, horizon):
            n, gates = spec
            config = SynthesisConfig(swap_duration=1)
            device = linear(n)
            qc1 = _circuit_from_gates(n, gates)
            qc2 = _circuit_from_gates(n, gates)
            k1 = template_key(qc1, device, horizon, config)
            k2 = template_key(qc2, device, horizon, config)
            # Pure: equal inputs give equal, hashable, pickleable keys.
            assert k1 == k2 and hash(k1) == hash(k2)
            assert pickle.loads(pickle.dumps(k1)) == k1
            # Horizon is part of the key.
            assert template_key(qc1, device, horizon + 1, config) != k1
            # Gate labels are part of the key (label-invariance is the
            # service's job, upstream of the template store).
            if any(len(g) == 2 for g in gates):
                swapped = [
                    tuple(reversed(g)) if len(g) == 2 else g for g in gates
                ]
                if swapped != gates:
                    qc3 = _circuit_from_gates(n, swapped)
                    assert template_key(qc3, device, horizon, config) != k1

        check()

    def test_encode_slice_separates_formula_shaping_knobs(self):
        base = SynthesisConfig(swap_duration=1)
        assert encode_config_slice(base) == encode_config_slice(
            base.replace(kernel="python", encode_bulk="off", templates="off")
        )
        assert encode_config_slice(base) != encode_config_slice(
            base.replace(swap_duration=3)
        )
        assert encode_config_slice(base) != encode_config_slice(
            base.replace(injectivity="channeling")
        )

    def test_device_and_mapping_in_key(self):
        qc = _circuit_from_gates(3, [(0, 1), (1, 2)])
        config = SynthesisConfig(swap_duration=1)
        k_line = template_key(qc, linear(3), 3, config)
        k_grid = template_key(qc, grid(1, 3), 3, config)
        assert isinstance(k_line, tuple)
        k_pin = template_key(
            qc, linear(3), 3, config, initial_mapping=[0, 1, 2]
        )
        assert k_pin != k_line
        assert k_line == template_key(qc, linear(3), 3, config)
        assert (k_line == k_grid) == (
            tuple(linear(3).edges) == tuple(grid(1, 3).edges)
        )


class TestOptimizerTemplates:
    """A template hit skips Python encoding and proves the same optimum."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.timeout(120)
    def test_second_run_hits_template_same_result(self, kernel):
        device = linear(5)
        inst = queko_circuit(device, depth=3, n_gates=8, seed=7)
        circuit = inst.circuit if hasattr(inst, "circuit") else inst
        store = TemplateStore()
        config = SynthesisConfig(
            swap_duration=1,
            time_budget=60.0,
            kernel=kernel,
            template_store=store,
        )

        first = IterativeSynthesizer(
            circuit, device, config=config
        ).optimize_depth()
        assert store.stats()["entries"] >= 1
        second = IterativeSynthesizer(
            circuit, device, config=config
        ).optimize_depth()
        assert second.depth == first.depth
        assert second.optimal == first.optimal
        events = second.solver_stats.get("templates")
        assert events is not None and events["hits"] >= 1
        # Identical search: the restored clone walked the same conflicts.
        assert (
            second.solver_stats["conflicts"]
            == first.solver_stats["conflicts"]
        )

    def test_templates_off_never_touches_store(self):
        device = linear(4)
        inst = queko_circuit(device, depth=2, n_gates=4, seed=3)
        circuit = inst.circuit if hasattr(inst, "circuit") else inst
        store = TemplateStore()
        config = SynthesisConfig(
            swap_duration=1,
            time_budget=60.0,
            templates="off",
            template_store=store,
        )
        IterativeSynthesizer(circuit, device, config=config).optimize_depth()
        assert store.stats() == {"entries": 0, "hits": 0, "misses": 0}
