"""Encoded-state snapshots: serialize a post-encode solver, restore clones.

Pure-Python encoding dominates synthesis wall time now that propagation
runs in the compiled kernel (see PERFORMANCE.md).  Workers and repeated
requests over the *same* instance shape used to pay that cost once each;
a snapshot pays it once total:

* :func:`snapshot_solver` serializes a solver sitting at a level-0 safe
  point — the formula (arena buffers), all per-variable search state,
  watch lists (including the kernel-owned n-ary lists), the VSIDS heap,
  and counters — into opaque bytes.
* :func:`restore_solver` builds a fresh :class:`~repro.sat.solver.Solver`
  (any backend) whose observable state is byte-for-byte identical to the
  snapshot source: same trail, same watch order, same heap layout, same
  stats (wall-clock slots excepted — a clone did not spend the source's
  seconds).  Tests in ``tests/test_snapshot.py`` enforce this
  differentially against a freshly encoded solver under both kernels.
* :class:`TemplateStore` is the keyed cache the synthesizers and the
  service consult (``config.template_store``) so a known instance shape
  skips Python encoding entirely.

Everything is stored as plain Python scalars/lists, so a snapshot taken
from a native-kernel solver restores into a pure-Python one and vice
versa.  Snapshots refuse proof-logging solvers (the proof list is an
append-only derivation history that must start at the clause additions;
cloning mid-history would forge it) and anything not at decision level 0.

The bytes are a framed pickle: :data:`SNAPSHOT_MAGIC`, the format number,
the payload length and a ``zlib.crc32`` of the payload, then the payload.
:func:`read_snapshot` checks the frame before unpickling, so truncated,
corrupted or stale bytes raise a named error before any solver is built.
"""

from __future__ import annotations

import pickle
import struct
import threading
import zlib
from typing import Any, Dict, Optional

from .solver import Solver, SolverStats

#: Bump when the blob layout changes; restore rejects other versions.
SNAPSHOT_FORMAT = 2

#: First bytes of every framed snapshot.
SNAPSHOT_MAGIC = b"RSNP"

#: Frame header: magic, format, payload length, crc32 of the payload.
_HEADER = struct.Struct("<4sHQI")


class SnapshotUnsupported(RuntimeError):
    """The solver's current state cannot be snapshot, or the bytes are not
    a snapshot this version can restore (see message)."""


class SnapshotCorrupt(SnapshotUnsupported):
    """The bytes carry a snapshot frame but fail its length or checksum."""


def _nary_lists(solver: Solver) -> list:
    """The n-ary watch lists as plain lists, whichever side owns them."""
    if solver._kern is not None:
        return [solver._kernel_list(2, lit) for lit in range(2 * solver.n_vars)]
    return [list(w) for w in solver.watches]


def snapshot_solver(solver: Solver) -> bytes:
    """Serialize ``solver``'s complete search state to bytes.

    The solver must be at decision level 0 with no staged bulk clauses and
    no active replay, and must not be proof logging.  The snapshot is a
    value copy: taking it does not perturb the solver.
    """
    if solver.proof is not None:
        raise SnapshotUnsupported(
            "cannot snapshot a proof-logging solver: the proof is an "
            "append-only derivation history anchored at the original "
            "clause additions"
        )
    if solver.trail_lim:
        raise SnapshotUnsupported("snapshot only at decision level 0")
    if solver._bulk_staged is not None:
        raise SnapshotUnsupported("cannot snapshot inside bulk staging")
    if solver._replay_cursor is not None:
        raise SnapshotUnsupported("cannot snapshot during encode replay")
    arena = solver.arena
    inproc = solver.inprocessor
    state: Dict[str, Any] = {
        "n_vars": solver.n_vars,
        # -- formula storage -------------------------------------------
        "arena": {
            "lits": list(arena.lits),
            "start": list(arena.start),
            "size": list(arena.size),
            "learnt": list(arena.learnt),
            "lbd": list(arena.lbd),
            "spos": list(arena.spos),
            "act": list(arena.act),
            "tier": list(arena.tier),
            "touch": list(arena.touch),
            "wasted": arena.wasted,
            "n_live": arena.n_live,
            "pending_free": list(arena._pending_free),
            "free": list(arena._free),
        },
        "clauses": list(solver.clauses),
        "learnts_core": list(solver.learnts_core),
        "learnts_tier2": list(solver.learnts_tier2),
        "learnts_local": list(solver.learnts_local),
        # -- watches (bin/ter are Python-authoritative; n-ary live on
        #    whichever side owns them in this backend) -------------------
        "watches_bin": [list(w) for w in solver.watches_bin],
        "watches_ter": [list(w) for w in solver.watches_ter],
        "watches_nary": _nary_lists(solver),
        # -- per-variable search state ----------------------------------
        "assigns_lit": list(solver.assigns_lit),
        "level": list(solver.level),
        "reason": list(solver.reason),
        "polarity": list(solver.polarity),
        "activity": list(solver.activity),
        "seen": list(solver.seen),
        "trail": list(solver.trail),
        "trail_size": solver.trail_size,
        "qhead": solver.qhead,
        "heap": list(solver.order.heap),
        "heap_indices": list(solver.order.indices),
        "heap_n": solver.order.n,
        # -- scalars ------------------------------------------------------
        "var_inc": solver.var_inc,
        "cla_inc": solver.cla_inc,
        "ok": solver.ok,
        "max_learnts": solver.max_learnts,
        "model": list(solver.model),
        "core": list(solver.core),
        "last_reduce_conflicts": solver._last_reduce_conflicts,
        # Cursors of the explicit simplify() engine, if it ever ran.
        "inproc_cursors": (
            (inproc._probe_cursor, inproc._vivify_cursor)
            if inproc is not None
            else None
        ),
        # -- stats (lbd_counts included; wall clocks are zeroed on
        #    restore — a clone did not spend the source's seconds) --------
        "stats": {
            name: getattr(solver.stats, name)
            for name in SolverStats.__slots__
            if name != "kernel"
        },
    }
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_FORMAT, len(payload), zlib.crc32(payload)
    )
    return header + payload


def read_snapshot(blob: bytes) -> Dict[str, Any]:
    """Check a snapshot's frame and return its unpickled state dict.

    Raises :class:`SnapshotUnsupported` for bytes that are not a
    current-format snapshot (no magic — format-1 snapshots were bare
    pickles — or another format number), and :class:`SnapshotCorrupt`
    for a frame whose payload is truncated or fails its checksum.
    """
    if blob[:4] != SNAPSHOT_MAGIC:
        raise SnapshotUnsupported(
            f"not a format-{SNAPSHOT_FORMAT} solver snapshot: missing the "
            f"{SNAPSHOT_MAGIC!r} header (format-1 snapshots were unframed)"
        )
    if len(blob) < _HEADER.size:
        raise SnapshotCorrupt(
            f"snapshot header truncated to {len(blob)} of {_HEADER.size} bytes"
        )
    _magic, fmt, length, crc = _HEADER.unpack_from(blob)
    if fmt != SNAPSHOT_FORMAT:
        raise SnapshotUnsupported(f"snapshot format {fmt} != {SNAPSHOT_FORMAT}")
    payload = memoryview(blob)[_HEADER.size :]
    if len(payload) != length:
        raise SnapshotCorrupt(
            f"snapshot payload is {len(payload)} bytes, header says {length} "
            "(truncated or padded)"
        )
    if zlib.crc32(payload) != crc:
        raise SnapshotCorrupt("snapshot payload fails its crc32 checksum")
    state: Dict[str, Any] = pickle.loads(payload)
    return state


def restore_solver(
    blob: bytes,
    kernel: Optional[str] = None,
    sanitize: Optional[str] = None,
) -> Solver:
    """Build a fresh solver from :func:`snapshot_solver` bytes.

    ``kernel`` picks the backend of the clone (default "auto"); a snapshot
    taken under either backend restores into either.  The clone starts
    with no tracer, no share client, and zeroed wall-clock stats; callers
    re-attach what they need.  All kernel binding generations start stale
    (``_k_nvars``/``_k_aver`` are fresh-constructed at -1) and are synced
    exactly once, after every buffer has reached its final address.
    """
    state = read_snapshot(blob)
    s = Solver(kernel=kernel, sanitize=sanitize)
    n_vars = state["n_vars"]
    s.n_vars = n_vars

    # Formula storage.  Buffers are extended in place (never replaced):
    # the VSIDS heap holds a reference to ``s.activity`` and the typed
    # containers must be the ones the kernel will bind.
    arena = s.arena
    a = state["arena"]
    arena.lits.extend(a["lits"])
    arena.start.extend(a["start"])
    arena.size.extend(a["size"])
    arena.learnt.extend(a["learnt"])
    arena.lbd.extend(a["lbd"])
    arena.spos.extend(a["spos"])
    arena.act.extend(a["act"])
    arena.tier.extend(a["tier"])
    arena.touch.extend(a["touch"])
    arena.wasted = a["wasted"]
    arena.n_live = a["n_live"]
    arena._pending_free.extend(a["pending_free"])
    arena._free.extend(a["free"])
    arena.version += 1

    s.clauses.extend(state["clauses"])
    s.learnts_core.extend(state["learnts_core"])
    s.learnts_tier2.extend(state["learnts_tier2"])
    s.learnts_local.extend(state["learnts_local"])

    # Per-variable search state.
    s.assigns_lit.extend(state["assigns_lit"])
    s.level.extend(state["level"])
    s.reason.extend(state["reason"])
    s.polarity.extend(state["polarity"])
    s.activity.extend(state["activity"])
    s.seen.extend(state["seen"])
    s.trail.extend(state["trail"])
    s.trail_size = state["trail_size"]
    s.qhead = state["qhead"]
    s.order.heap.extend(state["heap"])
    s.order.indices.extend(state["heap_indices"])
    s.order.n = state["heap_n"]

    # Watch lists.  bin/ter Python mirrors are authoritative in both
    # backends; the n-ary lists go to whichever side owns them here.
    s.watches_bin = [list(w) for w in state["watches_bin"]]
    s.watches_ter = [list(w) for w in state["watches_ter"]]
    if s._kern is not None:
        s.watches = [[] for _ in range(2 * n_vars)]
    else:
        s.watches = [list(w) for w in state["watches_nary"]]

    # Scalars and bookkeeping.
    s.var_inc = state["var_inc"]
    s.cla_inc = state["cla_inc"]
    s.ok = state["ok"]
    s.max_learnts = state["max_learnts"]
    s.model = list(state["model"])
    s.core = list(state["core"])
    s._last_reduce_conflicts = state["last_reduce_conflicts"]
    if state["inproc_cursors"] is not None:
        from .inprocess import Inprocessor

        inproc = s.inprocessor = Inprocessor(s)
        inproc._probe_cursor, inproc._vivify_cursor = state["inproc_cursors"]

    stats = state["stats"]
    for name, value in stats.items():
        if name == "lbd_counts":
            s.stats.lbd_counts = dict(value)
        elif name in SolverStats.WALL_CLOCK:
            setattr(s.stats, name, 0.0)
        else:
            setattr(s.stats, name, value)
    s.stats.kernel = s.kernel

    if s._kern is not None:
        # Every buffer is at its final address now: bind the kernel views
        # once (both generation markers were constructed stale), then load
        # the C-side watch lists verbatim.
        s._k_sync()
        ffi, lib = s._k_ffi, s._k_lib
        for which, lists in (
            (0, state["watches_bin"]),
            (1, state["watches_ter"]),
            (2, state["watches_nary"]),
        ):
            for lit, data in enumerate(lists):
                if data:
                    lib.k_load_list(
                        s._kern, which, lit, ffi.new("int32_t[]", data), len(data)
                    )
    return s


class TemplateStore:
    """Keyed cache of encoded-state snapshots (``config.template_store``).

    Maps an opaque hashable key — see ``repro.core.templates.template_key``
    — to snapshot bytes.  Bounded LRU; thread-safe (the service event loop
    and worker dispatch touch one store concurrently).  ``hits``/``misses``
    count :meth:`get` outcomes so benches and the service can prove a
    template hit dispatched zero encode work.
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("template store needs at least one entry")
        self.max_entries = max_entries
        self._entries: Dict[Any, bytes] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Any) -> Optional[bytes]:
        with self._lock:
            blob = self._entries.get(key)
            if blob is None:
                self.misses += 1
                return None
            # LRU touch: move to the back of the insertion order.
            del self._entries[key]
            self._entries[key] = blob
            self.hits += 1
            return blob

    def put(self, key: Any, blob: bytes) -> None:
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            elif len(self._entries) >= self.max_entries:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
            self._entries[key] = blob

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }
