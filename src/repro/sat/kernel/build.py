"""cffi build glue for the native kernel: the solver's propagation and
conflict-analysis loops, and the RUP proof checker's replay loop.

Build with::

    PYTHONPATH=src python -m repro.sat.kernel.build

which compiles ``kernel.c`` into the extension module
``repro.sat.kernel._native`` next to this file.  The build needs only a C
compiler and the ``cffi`` package; nothing is downloaded.  If either is
missing the solver and the proof checker silently run on their pure-Python
loops (``kernel="auto"``) or raise a clear error (``kernel="native"``).

``-ffp-contract=off`` is load-bearing: the kernel re-implements the VSIDS
activity arithmetic and must produce bit-identical doubles to CPython, which
never fuses multiply-adds.  Without it, a contracted FMA could flip a heap
comparison and silently diverge the two backends' decision order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

# The C declarations shared between the compiled module and its callers.
# Keep in sync with kernel.c (checked at compile time by cffi).
CDEF = """
typedef struct kernel kernel_t;

kernel_t *k_new(void);
void k_free(kernel_t *k);
void k_ensure_lits(kernel_t *k, int32_t n_lits);

void k_bind_vars(kernel_t *k, uintptr_t assigns, uintptr_t polarity,
                 uintptr_t seen, uintptr_t level, uintptr_t reason,
                 uintptr_t trail, uintptr_t activity, uintptr_t heap,
                 uintptr_t heap_idx, int32_t n_vars);
void k_bind_arena(kernel_t *k, uintptr_t lits, uintptr_t start, uintptr_t size,
                  uintptr_t spos, uintptr_t learnt, uintptr_t act,
                  uintptr_t touch);

void k_attach_bin(kernel_t *k, int32_t l0, int32_t l1);
void k_detach_bin(kernel_t *k, int32_t l0, int32_t l1);
void k_attach_ter(kernel_t *k, int32_t l0, int32_t l1, int32_t l2);
void k_detach_ter(kernel_t *k, int32_t l0, int32_t l1, int32_t l2);
void k_attach_nary(kernel_t *k, int32_t cref, int32_t l0, int32_t l1);
void k_load_clauses(kernel_t *k, int32_t cref0, int32_t n);
int32_t k_normalize_clauses(kernel_t *k, const int32_t *flat,
                            const int32_t *sizes, int32_t n,
                            int32_t *out_flat, int32_t *out_sizes,
                            int32_t *io);
void k_load_list(kernel_t *k, int32_t which, int32_t lit, const int32_t *data,
                 int32_t n);
void k_purge_dead(kernel_t *k);
int32_t k_copy_list(kernel_t *k, int32_t which, int32_t lit, int32_t *out,
                    int32_t cap);

int32_t k_cancel_until(kernel_t *k, int32_t heap_n, int32_t trail_size,
                       int32_t bound);
int32_t k_pick_branch(kernel_t *k, int32_t *heap_n_io);

int64_t k_propagate(kernel_t *k, int32_t trail_size, int32_t qhead,
                    int32_t dlevel, int64_t *out);

void k_analyze(kernel_t *k, int64_t confl, const int32_t *confl_lits,
               int32_t confl_n, int32_t n_vars, int32_t n_slots,
               int32_t trail_size, int32_t cur_level, int32_t nconf,
               double var_inc, double cla_inc, int32_t *out_learnt,
               int64_t *out_ints, double *out_dbl);

typedef struct rup rup_t;

rup_t *rup_new(void);
void rup_free(rup_t *r);
void rup_grow(rup_t *r, int32_t n_vars);
int32_t rup_add(rup_t *r, const int32_t *lits, int32_t n);
int32_t rup_add_many(rup_t *r, const int32_t *flat, const int32_t *sizes,
                     int32_t n);
int32_t rup_delete(rup_t *r, const int32_t *lits, int32_t n);
int64_t rup_conflict(rup_t *r, const int32_t *assumed, int32_t n,
                     int32_t negate);
"""

EXTRA_COMPILE_ARGS = ["-O2", "-ffp-contract=off", "-fno-fast-math"]


def ffibuilder() -> Any:
    import cffi

    source = (Path(__file__).resolve().parent / "kernel.c").read_text()
    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    ffi.set_source(
        "repro.sat.kernel._native",
        source,
        extra_compile_args=EXTRA_COMPILE_ARGS,
    )
    return ffi


def build(verbose: bool = False) -> str:
    """Compile the extension in place (under the ``src`` tree). Returns the
    path of the built module."""
    # __file__ = <root>/repro/sat/kernel/build.py -> tmpdir must be <root>
    # so cffi lays the module out along its dotted package path.
    root = Path(__file__).resolve().parents[3]
    out = ffibuilder().compile(tmpdir=str(root), verbose=verbose)
    return str(out)


if __name__ == "__main__":
    import sys

    print(build(verbose="-v" in sys.argv[1:]))
