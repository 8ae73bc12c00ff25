"""Template keys for encoded-state reuse (see :mod:`repro.sat.snapshot`).

A *template* is a post-encode solver snapshot.  It can seed any synthesis
run whose encode would have produced the same formula, so the key must pin
exactly the inputs the encoder reads while building clauses — and nothing
more, or equal shapes stop sharing:

* the circuit's gate structure **verbatim** (gate order and qubit indices;
  the variable numbering follows them).  Label-invariant reuse happens one
  layer up: the service canonicalizes circuits before dispatch, so
  relabeled requests already collapse onto one canonical circuit;
* the device's edge list **in order** (``sigma`` columns follow it);
* the horizon, the transition-based flag and any pinned initial mapping;
* the encode-relevant config slice: variable ``encoding``, ``injectivity``
  method and ``swap_duration``.

Deliberately excluded: ``kernel`` (snapshots restore across backends),
``encode_bulk`` (byte-identical by construction), ``cardinality`` and the
bound/budget knobs (they only shape post-encode work), ``warm_start``
(phase seeding is re-applied after restore) and ``sanitize`` (a checker,
not state).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..arch.coupling import CouplingGraph
from ..circuit.circuit import QuantumCircuit
from .config import SynthesisConfig


def encode_config_slice(config: SynthesisConfig) -> Tuple:
    """The config fields that shape the encoded formula, as a tuple."""
    return (
        config.encoding,
        config.injectivity,
        config.swap_duration,
    )


def template_key(
    circuit: QuantumCircuit,
    device: CouplingGraph,
    horizon: int,
    config: SynthesisConfig,
    transition_based: bool = False,
    initial_mapping: Optional[List[int]] = None,
) -> Tuple:
    """A hashable key equal iff two encodes produce the same formula."""
    return (
        circuit.n_qubits,
        tuple(tuple(g.qubits) for g in circuit.gates),
        device.n_qubits,
        tuple(device.edges),
        horizon,
        bool(transition_based),
        tuple(initial_mapping) if initial_mapping is not None else None,
        encode_config_slice(config),
    )
