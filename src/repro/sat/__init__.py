"""From-scratch SAT substrate: CDCL solver, CNF container, DIMACS I/O.

This package replaces the Z3 SAT engine used by the original OLSQ2 paper
(see DESIGN.md, substitution table).
"""

from .formula import CNF
from .inprocess import Inprocessor
from .preprocess import (
    ModelReconstructor,
    Unsatisfiable,
    preprocess,
    preprocess_stats,
)
from .proof import (
    ProofError,
    RupChecker,
    check_unsat_proof,
    check_unsat_proof_slow,
    is_rup,
    proof_stats,
)
from .reference import brute_force_solve, count_models
from .result import SatResult
from .sharing import (
    ShareClient,
    ShareEndpoint,
    ShareRelay,
    SharedClauseRing,
    ShmShareEndpoint,
    clause_signature,
    key_hash,
)
from .snapshot import (
    SnapshotCorrupt,
    SnapshotUnsupported,
    TemplateStore,
    restore_solver,
    snapshot_solver,
)
from .solver import Clause, Solver, SolverStats, luby
from .types import (
    FALSE,
    TRUE,
    UNDEF,
    dimacs_to_lit,
    lit_sign,
    lit_to_dimacs,
    lit_var,
    mk_lit,
    neg,
)

__all__ = [
    "CNF",
    "Clause",
    "Inprocessor",
    "ModelReconstructor",
    "Unsatisfiable",
    "preprocess",
    "preprocess_stats",
    "ProofError",
    "RupChecker",
    "check_unsat_proof",
    "check_unsat_proof_slow",
    "is_rup",
    "proof_stats",
    "SatResult",
    "ShareClient",
    "ShareEndpoint",
    "ShareRelay",
    "SharedClauseRing",
    "ShmShareEndpoint",
    "clause_signature",
    "key_hash",
    "SnapshotCorrupt",
    "SnapshotUnsupported",
    "TemplateStore",
    "restore_solver",
    "snapshot_solver",
    "Solver",
    "SolverStats",
    "luby",
    "brute_force_solve",
    "count_models",
    "TRUE",
    "FALSE",
    "UNDEF",
    "mk_lit",
    "neg",
    "lit_var",
    "lit_sign",
    "lit_to_dimacs",
    "dimacs_to_lit",
]
