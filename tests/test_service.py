"""The synthesis service: canonicalization, cache, pool, async server.

The property at the heart of the service is label-invariance: a qubit
relabeling must not change the canonical fingerprint, and a cached result
translated back through a request's relabeling must validate against that
request's own circuit.  Both are tested property-style over random
circuits and random permutations, then end-to-end through the server
(inline mode, so the tests are deterministic and fork-free).
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro import QuantumCircuit, SynthesisConfig, SynthesisResult, synthesize
from repro.arch.devices import grid, linear
from repro.circuit import (
    Gate,
    canonical_circuit,
    canonical_relabeling,
    circuit_fingerprint,
)
from repro.core import available_backends, resolve_backend, validate_result
from repro.service import (
    ClauseBank,
    CompileRequest,
    CompileResponse,
    ResultCache,
    SynthesisService,
)

FAST = dict(swap_duration=1, time_budget=60.0)


def fast_config(**kwargs) -> SynthesisConfig:
    merged = dict(FAST)
    merged.update(kwargs)
    return SynthesisConfig(**merged)


def random_circuit(rng: random.Random, n: int, m: int) -> QuantumCircuit:
    qc = QuantumCircuit(n)
    for _ in range(m):
        if rng.random() < 0.25:
            qc.h(rng.randrange(n))
        else:
            a, b = rng.sample(range(n), 2)
            qc.cx(a, b)
    return qc


def relabeled(circuit: QuantumCircuit, perm) -> QuantumCircuit:
    out = QuantumCircuit(circuit.n_qubits, name=circuit.name)
    for g in circuit.gates:
        out.append(Gate(g.name, tuple(perm[q] for q in g.qubits), g.params))
    return out


def run(coro):
    return asyncio.run(coro)


# -- canonicalization ------------------------------------------------------


class TestCanonicalFingerprint:
    def test_random_relabelings_hash_identically(self):
        rng = random.Random(11)
        for _ in range(30):
            qc = random_circuit(rng, 5, 10)
            fp = circuit_fingerprint(qc)
            for _ in range(5):
                perm = list(range(5))
                rng.shuffle(perm)
                assert circuit_fingerprint(relabeled(qc, perm)) == fp

    def test_structurally_different_circuits_do_not_collide(self):
        # ~0 collisions: every distinct canonical form gets a distinct hash.
        rng = random.Random(13)
        seen = {}
        for _ in range(200):
            qc = random_circuit(rng, 5, 8)
            canon, _perm = canonical_circuit(qc)
            structure = tuple((g.name, g.qubits, g.params) for g in canon.gates)
            fp = circuit_fingerprint(qc)
            if fp in seen:
                assert seen[fp] == structure, "sha256 collision?!"
            seen[fp] = structure

    def test_fingerprint_sensitive_to_structure(self):
        a = QuantumCircuit(3)
        a.cx(0, 1)
        a.cx(1, 2)
        b = QuantumCircuit(3)
        b.cx(0, 1)
        b.cx(0, 2)  # same shape, different connectivity
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_fingerprint_includes_qubit_count(self):
        a = QuantumCircuit(2)
        a.cx(0, 1)
        b = QuantumCircuit(3)
        b.cx(0, 1)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_name_is_metadata_not_structure(self):
        a = QuantumCircuit(2, name="alpha")
        a.cx(0, 1)
        b = QuantumCircuit(2, name="beta")
        b.cx(0, 1)
        assert circuit_fingerprint(a) == circuit_fingerprint(b)

    def test_relabeling_is_first_appearance_order(self):
        qc = QuantumCircuit(4)
        qc.cx(2, 0)
        qc.h(3)
        perm = canonical_relabeling(qc)
        # 2 appears first, then 0, then 3; untouched 1 goes last.
        assert perm == [1, 3, 0, 2]

    def test_canonical_circuit_translation_contract(self):
        rng = random.Random(17)
        qc = random_circuit(rng, 4, 8)
        canon, perm = canonical_circuit(qc)
        for g, cg in zip(qc.gates, canon.gates):
            assert cg.qubits == tuple(perm[q] for q in g.qubits)


# -- wire formats ----------------------------------------------------------


class TestWireFormats:
    def test_config_roundtrip_through_json(self):
        cfg = fast_config(certify=True, encode_bulk="off")
        data = json.loads(json.dumps(cfg.to_dict()))
        assert SynthesisConfig.from_dict(data) == cfg

    def test_config_drops_process_local_hooks(self):
        cfg = SynthesisConfig(progress_callback=lambda r: True)
        assert "progress_callback" not in cfg.to_dict()
        assert "tracer" not in cfg.to_dict()

    def test_config_from_dict_rejects_hooks_and_typos(self):
        with pytest.raises(ValueError, match="process-local"):
            SynthesisConfig.from_dict({"tracer": None})
        with pytest.raises(ValueError, match="unknown SynthesisConfig"):
            SynthesisConfig.from_dict({"swap_durration": 1})

    def test_result_roundtrip_through_json(self):
        qc = random_circuit(random.Random(5), 4, 6)
        result = synthesize(qc, linear(5), config=fast_config())
        data = json.loads(json.dumps(result.to_dict()))
        rebuilt = SynthesisResult.from_dict(data)
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.depth == result.depth
        assert rebuilt.swap_count == result.swap_count
        validate_result(rebuilt)

    def test_request_roundtrip_and_rejection(self):
        req = CompileRequest(
            qasm="OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];",
            device="line-3",
            budget=5.0,
            config=fast_config().to_dict(),
        )
        data = json.loads(json.dumps(req.to_dict()))
        assert CompileRequest.from_dict(data) == req
        with pytest.raises(ValueError, match="unknown CompileRequest"):
            CompileRequest.from_dict({**data, "qsam": "typo"})

    def test_response_roundtrip_and_invariants(self):
        resp = CompileResponse(request_id="r1", status="error", error="boom")
        assert CompileResponse.from_dict(resp.to_dict()) == resp
        with pytest.raises(ValueError, match="must carry a result"):
            CompileResponse(request_id="r2", status="ok")


# -- registry --------------------------------------------------------------


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        for expected in ("olsq2", "tb-olsq2", "olsq", "tb-olsq", "sabre", "satmap"):
            assert expected in names

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValueError, match="valid choices"):
            resolve_backend("quantum-annealer")

    def test_synthesize_entrypoint(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 1)
        qc.cx(1, 2)
        qc.cx(0, 2)
        result = synthesize(
            qc, linear(4), backend="tb-olsq2", objective="swap", config=fast_config()
        )
        validate_result(result)
        assert result.objective == "swap"

    def test_synthesize_respects_initial_mapping(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        result = synthesize(
            qc, linear(3), initial_mapping=[2, 1], config=fast_config()
        )
        assert result.initial_mapping == [2, 1]


# -- cache and bank --------------------------------------------------------


class TestResultCache:
    def test_lru_eviction_and_stats(self):
        cache = ResultCache(capacity=2)
        cache.put(("a",), {"v": 1})
        cache.put(("b",), {"v": 2})
        assert cache.get(("a",)) == {"v": 1}  # refreshes 'a'
        cache.put(("c",), {"v": 3})  # evicts 'b'
        assert cache.get(("b",)) is None
        assert cache.get(("c",)) == {"v": 3}
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["evictions"] == 1 and stats["size"] == 2


class TestClauseBank:
    def test_deposit_serve_and_scope_isolation(self):
        bank = ClauseBank(max_clauses=100)
        bank.deposit(("fp1", "dev"), "key", [((1, 2), 2), ((3, 4), 2)])
        assert bank.batches(("fp2", "dev")) == []  # other formula: nothing
        [(key, clauses)] = bank.batches(("fp1", "dev"))
        assert key == "key" and len(clauses) == 2

    def test_bounded_eviction(self):
        bank = ClauseBank(max_clauses=3)
        bank.deposit(("fp", "d"), "k1", [((1,), 1), ((2,), 1)])
        bank.deposit(("fp", "d"), "k2", [((3,), 1), ((4,), 1)])
        assert bank.stats()["clauses"] <= 3 + 1  # evicts whole oldest entry
        assert bank.evicted >= 2


# -- the async server ------------------------------------------------------


class TestSynthesisService:
    @pytest.mark.timeout(120)
    def test_batch_of_relabeled_copies_costs_one_dispatch(self):
        """The acceptance criterion: k isomorphic requests, 1 solve,
        k-1 cache hits, every mapping valid in its own labeling."""
        rng = random.Random(23)
        base = random_circuit(rng, 4, 7)
        circuits = [base]
        for _ in range(3):
            perm = list(range(4))
            rng.shuffle(perm)
            circuits.append(relabeled(base, perm))
        requests = [
            CompileRequest.from_circuit(
                qc, "line-4", budget=60.0, config=fast_config().to_dict()
            )
            for qc in circuits
        ]

        async def go():
            async with SynthesisService(n_workers=0) as service:
                responses = await service.submit_batch(requests)
                return responses, service.stats()

        responses, stats = run(go())
        k = len(requests)
        assert stats["solver_dispatches"] == 1
        assert stats["cache_hits"] == k - 1
        assert sum(1 for r in responses if r.cache_hit) == k - 1
        for response, circuit in zip(responses, circuits):
            assert response.ok, response.error
            result = response.synthesis_result()
            # The mapping must be valid for THIS request's labeling: the
            # independent validator replays gates through it.
            assert result.circuit.to_dict()["gates"] == circuit.to_dict()["gates"]
            validate_result(result)
        # All four solved the same structure: identical cost metrics.
        depths = {r.synthesis_result().depth for r in responses}
        swaps = {r.synthesis_result().swap_count for r in responses}
        assert len(depths) == 1 and len(swaps) == 1

    @pytest.mark.timeout(120)
    def test_sequential_resubmission_hits_cache(self):
        qc = random_circuit(random.Random(29), 4, 6)
        req = CompileRequest.from_circuit(
            qc, "line-4", config=fast_config().to_dict()
        )

        async def go():
            async with SynthesisService(n_workers=0) as service:
                first = await service.submit(req)
                second = await service.submit(req)
                return first, second, service.stats()

        first, second, stats = run(go())
        assert not first.cache_hit and second.cache_hit
        assert stats["solver_dispatches"] == 1
        assert first.result == second.result

    @pytest.mark.timeout(120)
    def test_different_objectives_do_not_share_cache_entries(self):
        qc = random_circuit(random.Random(31), 4, 6)
        cfg = fast_config().to_dict()

        async def go():
            async with SynthesisService(n_workers=0) as service:
                a = await service.submit(
                    CompileRequest.from_circuit(qc, "line-4", objective="depth", config=cfg)
                )
                b = await service.submit(
                    CompileRequest.from_circuit(qc, "line-4", objective="swap", config=cfg)
                )
                return a, b, service.stats()

        a, b, stats = run(go())
        assert a.ok and b.ok
        assert stats["solver_dispatches"] == 2
        assert stats["cache_hits"] == 0

    @pytest.mark.timeout(60)
    def test_bad_requests_return_error_responses(self):
        async def go():
            async with SynthesisService(n_workers=0) as service:
                bad_device = await service.submit(
                    CompileRequest(
                        qasm="OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];",
                        device="no-such-device",
                    )
                )
                bad_qasm = await service.submit(
                    CompileRequest(qasm="garbage", device="line-3")
                )
                return bad_device, bad_qasm, service.stats()

        bad_device, bad_qasm, stats = run(go())
        assert not bad_device.ok and "unknown device" in bad_device.error
        assert not bad_qasm.ok
        assert stats["errors"] == 2
        assert stats["solver_dispatches"] == 0  # rejected before admission

    @pytest.mark.timeout(120)
    def test_zero_budget_request_reports_timeout_error(self):
        qc = random_circuit(random.Random(37), 4, 6)
        req = CompileRequest.from_circuit(
            qc, "line-4", budget=0.0, config=fast_config().to_dict()
        )

        async def go():
            async with SynthesisService(n_workers=0) as service:
                return await service.submit(req), service.stats()

        response, stats = run(go())
        # No time at all: no solution exists yet, so this surfaces as a
        # SynthesisTimeout error response (not a partial result).
        assert not response.ok
        assert "Timeout" in response.error or "Cancelled" in response.error

    @pytest.mark.timeout(120)
    def test_initial_mapping_is_translated_through_relabeling(self):
        qc = QuantumCircuit(3)
        qc.cx(2, 1)
        qc.cx(1, 0)
        pin = [2, 1, 0]  # request-space: qubit q starts on physical pin[q]
        req = CompileRequest.from_circuit(
            qc, "line-3", initial_mapping=pin, config=fast_config().to_dict()
        )

        async def go():
            async with SynthesisService(n_workers=0) as service:
                return await service.submit(req)

        response = run(go())
        assert response.ok, response.error
        result = response.synthesis_result()
        assert result.initial_mapping == pin
        validate_result(result)

    @pytest.mark.timeout(120)
    def test_warm_bank_serves_clauses_across_objectives(self):
        """Same circuit, different objective: different cache key but the
        same base formula, so the second solve replays banked clauses."""
        rng = random.Random(41)
        qc = random_circuit(rng, 5, 10)
        cfg = fast_config().to_dict()

        async def go():
            async with SynthesisService(n_workers=0) as service:
                await service.submit(
                    CompileRequest.from_circuit(qc, "line-5", objective="depth", config=cfg)
                )
                await service.submit(
                    CompileRequest.from_circuit(qc, "line-5", objective="swap", config=cfg)
                )
                return service.stats()

        stats = run(go())
        assert stats["pool"]["bank"]["deposited"] > 0
        assert stats["pool"]["bank_clauses_served"] > 0

    @pytest.mark.timeout(180)
    def test_process_pool_mode_end_to_end(self):
        """One real worker process: same contract as inline mode."""
        rng = random.Random(43)
        base = random_circuit(rng, 4, 6)
        perm = [3, 0, 2, 1]
        requests = [
            CompileRequest.from_circuit(
                base, "line-4", budget=60.0, config=fast_config().to_dict()
            ),
            CompileRequest.from_circuit(
                relabeled(base, perm),
                "line-4",
                budget=60.0,
                config=fast_config().to_dict(),
            ),
        ]

        async def go():
            async with SynthesisService(n_workers=1) as service:
                responses = await service.submit_batch(requests)
                return responses, service.stats()

        responses, stats = run(go())
        assert stats["solver_dispatches"] == 1
        assert stats["cache_hits"] == 1
        for response in responses:
            assert response.ok, response.error
            validate_result(response.synthesis_result())


# -- CLI surface -----------------------------------------------------------


class TestServeCli:
    @pytest.mark.timeout(120)
    def test_request_then_serve(self, tmp_path, capsys):
        from repro.cli import main

        qasm = tmp_path / "c.qasm"
        qc = QuantumCircuit(3)
        qc.cx(0, 1)
        qc.cx(1, 2)
        qasm.write_text(qc.to_qasm())
        req_path = tmp_path / "req.json"
        assert (
            main(
                [
                    "request",
                    str(qasm),
                    "--device",
                    "line-3",
                    "--swap-duration",
                    "1",
                    "--time-budget",
                    "60",
                    "--output",
                    str(req_path),
                ]
            )
            == 0
        )
        request = json.loads(req_path.read_text())
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([request, request]))
        out_path = tmp_path / "resp.json"
        assert (
            main(
                [
                    "serve",
                    str(batch),
                    "--workers",
                    "0",
                    "--output",
                    str(out_path),
                    "--stats",
                ]
            )
            == 0
        )
        responses = [
            CompileResponse.from_dict(d) for d in json.loads(out_path.read_text())
        ]
        assert len(responses) == 2
        assert all(r.ok for r in responses)
        assert sum(1 for r in responses if r.cache_hit) == 1
        for r in responses:
            validate_result(r.synthesis_result())


class TestTemplateReuse:
    """A template hit dispatches zero Python encode work (PR 10)."""

    @pytest.mark.timeout(120)
    def test_same_shape_different_objective_hits_template(self):
        qc = random_circuit(random.Random(53), 4, 6)
        cfg = fast_config().to_dict()

        async def go():
            async with SynthesisService(n_workers=0) as service:
                a = await service.submit(
                    CompileRequest.from_circuit(
                        qc, "line-4", objective="depth", config=cfg
                    )
                )
                b = await service.submit(
                    CompileRequest.from_circuit(
                        qc, "line-4", objective="swap", config=cfg
                    )
                )
                return a, b, service.stats()

        a, b, stats = run(go())
        assert a.ok and b.ok
        # Different objectives: two real dispatches, no result-cache hit —
        # but one encode.  The second solve restored the first's
        # post-encode snapshot instead of rebuilding clauses.
        assert stats["solver_dispatches"] == 2
        assert stats["cache_hits"] == 0
        assert stats["pool"]["template_hits"] == 1
        assert stats["pool"]["templates"]["entries"] >= 1
        assert a.solver_stats["templates"] == {
            "hits": 0,
            "misses": 1,
            "stored": 1,
        }
        assert b.solver_stats["templates"]["hits"] >= 1
        assert b.solver_stats["templates"]["stored"] == 0
        # The wall split proves it: the template hit's encode share is a
        # replay, not a rebuild.
        assert b.solver_stats["encode_wall_sec"] < a.solver_stats["encode_wall_sec"]

    @pytest.mark.timeout(120)
    def test_templates_off_config_skips_store(self):
        qc = random_circuit(random.Random(59), 4, 6)
        cfg = fast_config(templates="off").to_dict()

        async def go():
            async with SynthesisService(n_workers=0) as service:
                a = await service.submit(
                    CompileRequest.from_circuit(
                        qc, "line-4", objective="depth", config=cfg
                    )
                )
                b = await service.submit(
                    CompileRequest.from_circuit(
                        qc, "line-4", objective="swap", config=cfg
                    )
                )
                return a, b, service.stats()

        a, b, stats = run(go())
        assert a.ok and b.ok
        assert stats["pool"]["template_hits"] == 0
        assert stats["pool"]["templates"]["entries"] == 0
