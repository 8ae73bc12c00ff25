#!/usr/bin/env python3
"""Regenerate ``expected.json``: the proven optimum of every pool instance.

    python3 benchmarks/suite/make_expected.py

Each entry is solved on the unrelabeled circuit with both solver kernels
(``python`` and ``native``) and, for pools driven through
``ParallelDescent``, with that driver too.  An entry is written only when
all of them prove the same optimum and it passes independent checks:

* depth objective: longest dependency chain <= depth <= SABRE depth, and
  depth == chain whenever a swap-free mapping exists;
* SWAP objective: ``min_swaps_lower_bound`` and the analytic bound are
  <= swaps, and swaps == 0 exactly when
  ``core.reference.exists_swap_free_mapping`` finds a mapping;
* large-device entries equal the optimum QUEKO built in.

The file covers every run seed: a run only relabels program qubits, which
leaves every optimum unchanged.  Needs the compiled kernel (any run of
``run.py`` builds it).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

SUITE = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE.parents[1] / "src"))

from workloads import (  # noqa: E402
    LINE,
    WORKLOADS,
    Instance,
    make_config,
    oracle_instances,
    parallel_descent,
)


def solve(workload, inst: Instance, kernel: str):
    from repro.arch.devices import by_name
    from repro.core import OLSQ2

    cfg = make_config(workload).replace(kernel=kernel, certify=False)
    synthesizer = (
        parallel_descent(cfg)
        if workload.kind == "parallel" and kernel == "native"
        else OLSQ2(cfg)
    )
    return synthesizer.synthesize(
        inst.circuit(), by_name(inst.device), objective=inst.objective
    )


def checks(inst: Instance, value: int) -> List[str]:
    """Independent sanity checks of a proven optimum; returns the failures."""
    from repro.arch.devices import by_name
    from repro.baselines.sabre import SABRE
    from repro.circuit.dag import longest_chain_length
    from repro.core import (
        analytic_swap_lower_bound,
        exists_swap_free_mapping,
        min_swaps_lower_bound,
    )

    circuit, device = inst.circuit(), by_name(inst.device)
    swap_free = exists_swap_free_mapping(circuit, device) is not None
    bad = []
    if inst.objective == "depth":
        chain = longest_chain_length(circuit)
        sabre = SABRE(swap_duration=1, seed=0).synthesize(circuit, device).depth
        if not chain <= value <= sabre:
            bad.append(f"depth {value} outside [chain {chain}, sabre {sabre}]")
        if swap_free and value != chain:
            bad.append(f"swap-free mapping exists but depth {value} != chain {chain}")
        if inst.device != LINE and value != inst.depth:
            # Large-device sources embed in their target, so the QUEKO
            # optimum of the source graph is the optimum there too.
            bad.append(f"depth {value} != QUEKO optimum {inst.depth}")
    else:
        lower = max(min_swaps_lower_bound(circuit, device),
                    analytic_swap_lower_bound(circuit, device))
        if value < lower:
            bad.append(f"swaps {value} below lower bound {lower}")
        if (value == 0) != swap_free:
            bad.append(f"swaps {value} but swap-free mapping exists={swap_free}")
    return bad


def main() -> int:
    expected: Dict[str, Dict[str, int]] = {}
    failures = 0
    for workload in WORKLOADS.values():
        for inst in oracle_instances(workload):
            if inst.key in expected:
                continue
            values = {}
            for kernel in ("python", "native"):
                result = solve(workload, inst, kernel)
                values[kernel] = (
                    result.depth if inst.objective == "depth" else result.swap_count,
                    result.optimal,
                )
            distinct = set(values.values())
            value, proven = distinct.pop() if len(distinct) == 1 else (None, False)
            if value is None or not proven:
                problems = [f"solvers disagree or unproven: {values}"]
            else:
                problems = checks(inst, value)
            if problems:
                failures += 1
                print(f"FAIL {inst.key}: {'; '.join(problems)}", flush=True)
                continue
            expected[inst.key] = {inst.objective: value}
            print(f"{inst.key} {inst.objective}={value}", flush=True)
    out = SUITE / "expected.json"
    out.write_text(json.dumps(dict(sorted(expected.items())), indent=1) + "\n")
    print(f"wrote {len(expected)} entries to {out}; {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
