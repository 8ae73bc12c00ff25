"""Optional compiled kernel for :class:`repro.sat.Solver` and
:class:`repro.sat.proof.RupChecker`.

Three hot loops — the solver's unit propagation and first-UIP conflict
analysis, and the proof checker's reverse-unit-propagation replay — exist
in two equivalent implementations: the pure Python ones in
``repro/sat/solver.py`` and ``repro/sat/proof.py`` (always available) and
C mirrors in ``kernel.c`` compiled via cffi (``python -m
repro.sat.kernel.build``).  The solver mirror is byte-for-byte (same
trail, learnts and proof log); the checker mirror gives the same verdicts,
failing steps and ``propagations`` counts.

Backend selection (:func:`resolve_backend`):

- ``"python"`` — pure-Python loops over plain lists (the fastest layout for
  CPython; typed buffers would box every subscript).
- ``"native"`` — typed ``array`` buffers shared zero-copy with the compiled
  kernel (raw addresses bound once, rebound on growth).  Raises if the
  extension is unavailable, naming the fallback.
- ``"auto"`` (default) — ``native`` when importable, else ``python``.  The
  ``REPRO_KERNEL`` environment variable overrides ``auto`` (used by CI to
  force each backend through the full test suite).
"""

from __future__ import annotations

import os
from typing import Any, Optional, Tuple

BACKENDS: Tuple[str, ...] = ("auto", "python", "native")

_native_mod: Optional[Any] = None
_native_error: Optional[str] = None
_probed = False
_handles: Optional[Tuple[Any, Any]] = None


def load_native() -> Optional[Any]:
    """Import and cache the compiled extension; ``None`` if unavailable."""
    global _native_mod, _native_error, _probed
    if not _probed:
        _probed = True
        try:
            # The submodule is *generated* by `python -m repro.sat.kernel.
            # build`; a source checkout has no _native until built, so the
            # static view of this package legitimately lacks the attribute
            # and only this narrow code is suppressed.
            from . import _native  # type: ignore[attr-defined]

            _native_mod = _native
        except ImportError as exc:
            _native_error = str(exc)
    return _native_mod


def kernel_handles() -> Tuple[Any, Any]:
    """The compiled extension's ``(ffi, lib)`` pair, cached at module level.

    Every ``Solver(kernel="native")`` construction needs the pair; resolving
    it through the module attributes on each construction re-walks the cffi
    module wrapper, which shows up when parallel probes and pool workers
    build solvers by the hundred.  Raises :class:`RuntimeError` when the
    extension is not importable.
    """
    global _handles
    if _handles is None:
        mod = load_native()
        if mod is None:
            raise RuntimeError(
                f"compiled kernel unavailable ({native_error()}); build it "
                "with `python -m repro.sat.kernel.build`"
            )
        _handles = (mod.ffi, mod.lib)
    return _handles


def native_available() -> bool:
    return load_native() is not None


def native_error() -> Optional[str]:
    """The import error that made the native kernel unavailable, if any."""
    load_native()
    return _native_error


def resolve_backend(kernel: Optional[str] = None) -> str:
    """Resolve a kernel choice to a concrete backend (``python``/``native``).

    ``None`` and ``"auto"`` consult the ``REPRO_KERNEL`` environment
    variable, then pick ``native`` when the extension imports.  An explicit
    ``"python"``/``"native"`` always wins over the environment.
    """
    choice = kernel if kernel is not None else "auto"
    if choice == "auto":
        choice = os.environ.get("REPRO_KERNEL", "auto")
    if choice not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {choice!r}: expected one of {BACKENDS}"
        )
    if choice == "auto":
        return "native" if native_available() else "python"
    if choice == "native" and not native_available():
        raise RuntimeError(
            "kernel='native' requested but the compiled kernel is not "
            f"importable ({native_error()}); build it with "
            "`python -m repro.sat.kernel.build` or use kernel='auto' to "
            "fall back to the pure-Python kernel"
        )
    return choice
