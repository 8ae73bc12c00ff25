"""Rendering of telemetry traces for the benchmark harness.

:func:`trace_summary` turns any trace source (a
:class:`~repro.telemetry.MemorySink`, a JSONL path, or an iterable of
records) into the same aligned ASCII table format the experiment drivers
use, so a run's per-phase timing breakdown can sit next to its result
tables in a report::

    phase        | count | total (s) | self (s) | mean (s) | share
    -------------+-------+-----------+----------+----------+------
    optimize     |     1 |    1.9312 |   0.0021 |   1.9312 |  0.1%
    solve        |     9 |    1.8452 |   1.8441 |   0.2145 | 95.5%
    ...
    encode wall 0.0712s (3.7%) vs solve wall 1.8452s (96.3%)

The footer splits total wall time between formula *construction* (the
``encode``/``extend`` spans, which wrap the per-family sub-spans) and
*search* (the ``solve`` spans) — the headline ratio the encode-once work
(bulk loading, snapshots, templates) moves.
"""

from __future__ import annotations

from typing import Optional

from ..telemetry import summary_rows
from ..telemetry.events import SpanEnd
from ..telemetry.summary import coerce_records
from .tables import format_table

#: Span names whose *total* time counts as formula construction.  They
#: wrap the per-family ``encode.*`` sub-spans, so using their outer
#: durations avoids double counting.
ENCODE_SPANS = frozenset({"encode", "extend"})

#: Span names whose total time counts as SAT search.
SOLVE_SPANS = frozenset({"solve"})


def encode_solve_split(trace) -> Optional[str]:
    """One-line encode-vs-solve wall-time split, or None when the trace
    has neither kind of span."""
    records = coerce_records(trace)
    encode = sum(
        r.duration
        for r in records
        if isinstance(r, SpanEnd) and r.name in ENCODE_SPANS
    )
    solve = sum(
        r.duration
        for r in records
        if isinstance(r, SpanEnd) and r.name in SOLVE_SPANS
    )
    total = encode + solve
    if total <= 0.0:
        return None
    return (
        f"encode wall {encode:.4f}s ({100.0 * encode / total:.1f}%) vs "
        f"solve wall {solve:.4f}s ({100.0 * solve / total:.1f}%)"
    )


def trace_summary(trace, title: Optional[str] = "per-phase breakdown") -> str:
    """Render a per-phase timing table for ``trace``.

    ``trace`` is anything :func:`repro.telemetry.summary_rows` accepts: a
    ``MemorySink``, a path to a JSONL trace file, an open stream, or an
    iterable of trace records/dicts.  Returns the formatted table (empty
    string when the trace holds no completed spans), with an
    encode-vs-solve wall split appended when the trace contains either.
    """
    records = coerce_records(trace)
    headers, rows = summary_rows(records)
    if not rows:
        return ""
    table = format_table(headers, rows, title=title)
    split = encode_solve_split(records)
    if split is not None:
        table = f"{table}\n{split}"
    return table
