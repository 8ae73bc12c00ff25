/* Native kernel for repro.sat.Solver (propagation/analysis) and
 * repro.sat.proof.RupChecker (RUP proof replay).
 *
 * This file is compiled by cffi (see build.py) into the extension module
 * ``repro.sat.kernel._native``.  It is a *mirror*, not a fork: every loop
 * below transcribes the corresponding pure-Python code statement for
 * statement.  The k_* entry points mirror ``repro/sat/solver.py`` — same
 * watcher visit order, same swap-remove semantics, same circular
 * new-watch search, same first-UIP resolution, bumping, rescaling and
 * minimisation order, and the same IEEE-754 double operations in the same
 * sequence (the build passes -ffp-contract=off so no multiply-add fusion
 * can perturb VSIDS activities).  The differential tests in
 * tests/test_arena.py hold the two implementations to byte-identical
 * trails, learnt clauses and proofs.  The rup_* entry points at the end of
 * the file mirror ``RupChecker`` in ``repro/sat/proof.py``; tests/
 * test_proof.py holds them to the same verdicts, failing steps and
 * propagation counts.
 *
 * Ownership split with the Python side:
 *
 * - per-variable state (assignments, levels, reasons, trail, seen flags,
 *   VSIDS activities and heap) and the clause arena live in Python-owned
 *   typed buffers (array('b'/'B'/'i'/'q'/'d')); their raw addresses are
 *   bound into the kernel (k_bind_vars / k_bind_arena) and rebound by the
 *   Python side whenever CPython may have realloc'd one on growth;
 * - the three watch schemes (binary / ternary / n-ary) live in C-owned
 *   per-literal vectors, because the propagation loop both scans and
 *   rewrites them; Python mirrors every attach/detach through the k_*
 *   entry points and can read them back via k_copy_list (invariants,
 *   differential tests).
 *
 * Conventions (identical to the Python module):
 *   literal l = 2*var + sign;  truth values TRUE=1 FALSE=0 UNDEF=-1;
 *   NO_CLAUSE = -1;  BIN_BASE = -2; a reason r < NO_CLAUSE packs the
 *   other literal(s) of a binary/ternary clause as k = BIN_BASE - r
 *   (even k: binary, other = k >> 1; odd k: ternary, others = k >> 33
 *   and (k >> 1) & 0xFFFFFFFF).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NO_CLAUSE (-1)
#define BIN_BASE (-2LL)
#define RESCALE_LIMIT 1e100

typedef struct {
    int32_t *data;
    int32_t len;
    int32_t cap;
} vec_t;

struct kernel {
    /* Per-literal watch lists, indexed by literal. */
    vec_t *bin;  /* flat: the other literal of each binary clause */
    vec_t *ter;  /* flat (a, b) pairs of each ternary clause */
    vec_t *nary; /* flat (cref, blocker) pairs */
    int32_t n_lits;
    /* Conflict-analysis scratch. */
    int32_t *to_clear;
    int32_t *lvl_stamp;
    int32_t stamp;
    int32_t n_vars_cap;
    /* Bound views of the Python-owned buffers (k_bind_vars /
     * k_bind_arena).  The Python side rebinds whenever a buffer may have
     * been reallocated (any new_var; any arena version bump), so between
     * binds these pointers are stable and the hot entry points take no
     * buffer arguments at all. */
    int8_t *assigns;
    int8_t *polarity;
    uint8_t *seen;
    int32_t *level;
    int32_t *trail;
    int32_t *heap;
    int32_t *heap_idx;
    int64_t *reason;
    double *activity;
    int32_t *alits;
    int32_t *astart;
    int32_t *asize;
    int32_t *aspos;
    int32_t *alearnt;
    int32_t *atouch;
    double *aact;
};
typedef struct kernel kernel_t;

/* -- vectors ----------------------------------------------------------- */

static void vec_reserve(vec_t *v, int32_t need) {
    if (v->cap >= need)
        return;
    int32_t cap = v->cap ? v->cap : 4;
    while (cap < need)
        cap *= 2;
    v->data = (int32_t *)realloc(v->data, (size_t)cap * sizeof(int32_t));
    v->cap = cap;
}

static void vec_push(vec_t *v, int32_t x) {
    vec_reserve(v, v->len + 1);
    v->data[v->len++] = x;
}

static void vec_push2(vec_t *v, int32_t x, int32_t y) {
    vec_reserve(v, v->len + 2);
    v->data[v->len] = x;
    v->data[v->len + 1] = y;
    v->len += 2;
}

/* -- kernel lifecycle --------------------------------------------------- */

kernel_t *k_new(void) {
    kernel_t *k = (kernel_t *)calloc(1, sizeof(kernel_t));
    return k;
}

void k_free(kernel_t *k) {
    if (!k)
        return;
    for (int32_t i = 0; i < k->n_lits; i++) {
        free(k->bin[i].data);
        free(k->ter[i].data);
        free(k->nary[i].data);
    }
    free(k->bin);
    free(k->ter);
    free(k->nary);
    free(k->to_clear);
    free(k->lvl_stamp);
    free(k);
}

void k_ensure_lits(kernel_t *k, int32_t n_lits) {
    if (k->n_lits >= n_lits)
        return;
    int32_t cap = k->n_lits ? k->n_lits : 16;
    while (cap < n_lits)
        cap *= 2;
    k->bin = (vec_t *)realloc(k->bin, (size_t)cap * sizeof(vec_t));
    k->ter = (vec_t *)realloc(k->ter, (size_t)cap * sizeof(vec_t));
    k->nary = (vec_t *)realloc(k->nary, (size_t)cap * sizeof(vec_t));
    memset(k->bin + k->n_lits, 0, (size_t)(cap - k->n_lits) * sizeof(vec_t));
    memset(k->ter + k->n_lits, 0, (size_t)(cap - k->n_lits) * sizeof(vec_t));
    memset(k->nary + k->n_lits, 0, (size_t)(cap - k->n_lits) * sizeof(vec_t));
    k->n_lits = cap;
}

static void k_ensure_vars(kernel_t *k, int32_t n_vars) {
    if (k->n_vars_cap >= n_vars + 1)
        return;
    int32_t cap = k->n_vars_cap ? k->n_vars_cap : 16;
    while (cap < n_vars + 1)
        cap *= 2;
    k->to_clear = (int32_t *)realloc(k->to_clear, (size_t)cap * sizeof(int32_t));
    k->lvl_stamp = (int32_t *)realloc(k->lvl_stamp, (size_t)cap * sizeof(int32_t));
    memset(k->lvl_stamp + k->n_vars_cap, 0,
           (size_t)(cap - k->n_vars_cap) * sizeof(int32_t));
    k->n_vars_cap = cap;
}

/* -- buffer binding ------------------------------------------------------ */

/* Addresses come in as integers (``array.buffer_info()[0]`` on the Python
 * side) rather than cffi-wrapped pointers: taking a raw address never
 * exports the array's buffer, so Python remains free to grow the arrays.
 * Correctness contract: the caller rebinds before the next kernel call
 * whenever a bound buffer may have moved (tracked by ``n_vars`` for the
 * per-variable buffers and an arena version counter for the arena). */
void k_bind_vars(kernel_t *k, uintptr_t assigns, uintptr_t polarity,
                 uintptr_t seen, uintptr_t level, uintptr_t reason,
                 uintptr_t trail, uintptr_t activity, uintptr_t heap,
                 uintptr_t heap_idx, int32_t n_vars) {
    k->assigns = (int8_t *)assigns;
    k->polarity = (int8_t *)polarity;
    k->seen = (uint8_t *)seen;
    k->level = (int32_t *)level;
    k->reason = (int64_t *)reason;
    k->trail = (int32_t *)trail;
    k->activity = (double *)activity;
    k->heap = (int32_t *)heap;
    k->heap_idx = (int32_t *)heap_idx;
    k_ensure_lits(k, 2 * n_vars);
    k_ensure_vars(k, n_vars);
}

void k_bind_arena(kernel_t *k, uintptr_t lits, uintptr_t start, uintptr_t size,
                  uintptr_t spos, uintptr_t learnt, uintptr_t act,
                  uintptr_t touch) {
    k->alits = (int32_t *)lits;
    k->astart = (int32_t *)start;
    k->asize = (int32_t *)size;
    k->aspos = (int32_t *)spos;
    k->alearnt = (int32_t *)learnt;
    k->aact = (double *)act;
    k->atouch = (int32_t *)touch;
}

/* -- watch maintenance (mirrors Solver._attach / _detach_small) --------- */

void k_attach_bin(kernel_t *k, int32_t l0, int32_t l1) {
    int32_t hi = (l0 > l1 ? l0 : l1) + 1;
    k_ensure_lits(k, hi);
    vec_push(&k->bin[l0 ^ 1], l1);
    vec_push(&k->bin[l1 ^ 1], l0);
}

/* Mirror of ``list.remove``: drop the first occurrence, preserving order. */
static void vec_remove_first(vec_t *v, int32_t x) {
    for (int32_t i = 0; i < v->len; i++) {
        if (v->data[i] == x) {
            memmove(v->data + i, v->data + i + 1,
                    (size_t)(v->len - i - 1) * sizeof(int32_t));
            v->len--;
            return;
        }
    }
}

void k_detach_bin(kernel_t *k, int32_t l0, int32_t l1) {
    if ((l0 ^ 1) < k->n_lits)
        vec_remove_first(&k->bin[l0 ^ 1], l1);
    if ((l1 ^ 1) < k->n_lits)
        vec_remove_first(&k->bin[l1 ^ 1], l0);
}

void k_attach_ter(kernel_t *k, int32_t l0, int32_t l1, int32_t l2) {
    int32_t hi = l0 > l1 ? l0 : l1;
    if (l2 > hi)
        hi = l2;
    k_ensure_lits(k, hi + 1);
    vec_push2(&k->ter[l0 ^ 1], l1, l2);
    vec_push2(&k->ter[l1 ^ 1], l0, l2);
    vec_push2(&k->ter[l2 ^ 1], l0, l1);
}

/* Mirror of Solver._detach_small's ternary branch: find the (y, z) pair in
 * either order, swap the final pair into its slot, truncate. */
static void ter_remove_pair(vec_t *v, int32_t y, int32_t z) {
    for (int32_t i = 0; i < v->len; i += 2) {
        int32_t p = v->data[i], q = v->data[i + 1];
        if ((p == y && q == z) || (p == z && q == y)) {
            v->data[i] = v->data[v->len - 2];
            v->data[i + 1] = v->data[v->len - 1];
            v->len -= 2;
            return;
        }
    }
}

void k_detach_ter(kernel_t *k, int32_t l0, int32_t l1, int32_t l2) {
    if ((l0 ^ 1) < k->n_lits)
        ter_remove_pair(&k->ter[l0 ^ 1], l1, l2);
    if ((l1 ^ 1) < k->n_lits)
        ter_remove_pair(&k->ter[l1 ^ 1], l0, l2);
    if ((l2 ^ 1) < k->n_lits)
        ter_remove_pair(&k->ter[l2 ^ 1], l0, l1);
}

void k_attach_nary(kernel_t *k, int32_t cref, int32_t l0, int32_t l1) {
    int32_t hi = (l0 > l1 ? l0 : l1) + 1;
    k_ensure_lits(k, hi);
    vec_push2(&k->nary[l0 ^ 1], cref, l1);
    vec_push2(&k->nary[l1 ^ 1], cref, l0);
}

/* Mirror of Solver._garbage_collect's watch purge: order-preserving
 * compaction dropping watchers of dead clauses (size < 0). */
void k_purge_dead(kernel_t *k) {
    const int32_t *asize = k->asize;
    for (int32_t lit = 0; lit < k->n_lits; lit++) {
        vec_t *ws = &k->nary[lit];
        int32_t j = 0;
        for (int32_t i = 0; i < ws->len; i += 2) {
            int32_t cref = ws->data[i];
            if (asize[cref] >= 0) {
                ws->data[j] = cref;
                ws->data[j + 1] = ws->data[i + 1];
                j += 2;
            }
        }
        ws->len = j;
    }
}

/* Bulk attach for clauses already loaded into the arena buffers
 * (ClauseArena.alloc_bulk): walk crefs [cref0, cref0 + n) and mirror what a
 * loop of k_attach_bin / k_attach_ter / k_attach_nary calls would have done,
 * in the same order, without one FFI round trip per clause.  The caller must
 * have rebound the arena (the bulk alloc bumps its version) before calling. */
void k_load_clauses(kernel_t *k, int32_t cref0, int32_t n) {
    const int32_t *alits = k->alits;
    const int32_t *astart = k->astart;
    const int32_t *asize = k->asize;
    for (int32_t c = cref0; c < cref0 + n; c++) {
        int32_t base = astart[c];
        int32_t sz = asize[c];
        int32_t l0 = alits[base];
        int32_t l1 = alits[base + 1];
        if (sz == 2) {
            k_attach_bin(k, l0, l1);
        } else if (sz == 3) {
            k_attach_ter(k, l0, l1, alits[base + 2]);
        } else {
            k_attach_nary(k, c, l0, l1);
        }
    }
}

/* Encode-time clause normalization (Solver.add_clauses_bulk, native path):
 * sort / dedup / tautology drop / level-0 strip against the bound assigns
 * view, exactly mirroring the Python add_clause loop.  Consumes raw clauses
 * io[0]..n-1 whose literals start at flat[io[1]]; surviving clauses with
 * >= 2 literals are appended, sorted, to out_flat / out_sizes (write
 * cursors io[2] / io[3], caller-sized: out_flat as large as flat, out_sizes
 * as large as sizes).  Stops at the first unit or empty survivor so the
 * caller can land the staged prefix and propagate at the exact point the
 * per-clause path would have.  Returns 0 when every clause was consumed,
 * 1 when a unit survived (written to io[4]), 2 on an empty clause (UNSAT).
 * io is committed on every return, so the caller just re-calls to resume. */
int32_t k_normalize_clauses(kernel_t *k, const int32_t *flat,
                            const int32_t *sizes, int32_t n,
                            int32_t *out_flat, int32_t *out_sizes,
                            int32_t *io) {
    const int8_t *assigns = k->assigns;
    int32_t idx = io[0];
    int32_t pos = io[1];
    int32_t oflat = io[2];
    int32_t osz = io[3];
    while (idx < n) {
        int32_t sz = sizes[idx];
        int32_t *s = out_flat + oflat; /* scratch: normalize in place */
        for (int32_t i = 0; i < sz; i++)
            s[i] = flat[pos + i];
        /* insertion sort: encoding clauses are short (2-3 dominate) */
        for (int32_t i = 1; i < sz; i++) {
            int32_t key = s[i];
            int32_t j = i - 1;
            while (j >= 0 && s[j] > key) {
                s[j + 1] = s[j];
                j--;
            }
            s[j + 1] = key;
        }
        idx++;
        pos += sz;
        /* Complement literals differ only in the low bit, so after the
         * sort any duplicate or tautology pair sits adjacent among the
         * kept literals — prev alone carries the whole seen-set. */
        int32_t m = 0;
        int32_t prev = -2;
        int32_t drop = 0;
        for (int32_t i = 0; i < sz; i++) {
            int32_t lit = s[i];
            if (lit == prev)
                continue; /* duplicate */
            if (lit == (prev ^ 1) && prev >= 0) {
                drop = 1; /* tautology */
                break;
            }
            int8_t v = assigns[lit];
            if (v > 0) {
                drop = 1; /* satisfied at level 0 */
                break;
            }
            if (v == 0)
                continue; /* falsified at level 0: strip */
            s[m++] = lit;
            prev = lit;
        }
        if (drop)
            continue;
        if (m >= 2) {
            oflat += m;
            out_sizes[osz++] = m;
            continue;
        }
        io[0] = idx;
        io[1] = pos;
        io[2] = oflat;
        io[3] = osz;
        if (m == 1) {
            io[4] = s[0];
            return 1;
        }
        return 2; /* empty clause */
    }
    io[0] = idx;
    io[1] = pos;
    io[2] = oflat;
    io[3] = osz;
    return 0;
}

/* Restore one per-literal watch list verbatim (snapshot restore): replaces
 * the list's contents with exactly ``data[0..n)``, in order.  The inverse of
 * k_copy_list. */
void k_load_list(kernel_t *k, int32_t which, int32_t lit, const int32_t *data,
                 int32_t n) {
    k_ensure_lits(k, lit + 1);
    vec_t *v = which == 0 ? &k->bin[lit] : which == 1 ? &k->ter[lit] : &k->nary[lit];
    vec_reserve(v, n);
    if (n)
        memcpy(v->data, data, (size_t)n * sizeof(int32_t));
    v->len = n;
}

/* Read-back for invariants and differential tests.
 * which: 0 = binary, 1 = ternary, 2 = n-ary.  Returns the list length;
 * copies min(len, cap) entries into out. */
int32_t k_copy_list(kernel_t *k, int32_t which, int32_t lit, int32_t *out,
                    int32_t cap) {
    if (lit >= k->n_lits)
        return 0;
    vec_t *v = which == 0 ? &k->bin[lit] : which == 1 ? &k->ter[lit] : &k->nary[lit];
    int32_t n = v->len < cap ? v->len : cap;
    for (int32_t i = 0; i < n; i++)
        out[i] = v->data[i];
    return v->len;
}

/* -- unit propagation (mirrors Solver._propagate) ------------------------ */

int64_t k_propagate(kernel_t *k, int32_t trail_size, int32_t qhead,
                    int32_t dlevel, int64_t *out) {
    int8_t *assigns = k->assigns;
    int32_t *level = k->level;
    int64_t *reason = k->reason;
    int32_t *trail = k->trail;
    int32_t *alits = k->alits;
    int32_t *astart = k->astart;
    int32_t *asize = k->asize;
    int32_t *aspos = k->aspos;
    int64_t confl = NO_CLAUSE;
    int32_t confl_n = 0;
    int32_t c0 = 0, c1 = 0, c2 = 0;
    while (qhead < trail_size) {
        int32_t p = trail[qhead];
        qhead++;
        int32_t false_lit = p ^ 1;
        int64_t breason = BIN_BASE - ((int64_t)false_lit << 1);
        /* Binary clauses first: one flat list of implied literals. */
        vec_t *wb = &k->bin[p];
        int32_t *bd = wb->data;
        int32_t blen = wb->len;
        for (int32_t bi = 0; bi < blen; bi++) {
            int32_t other = bd[bi];
            int8_t vo = assigns[other];
            if (vo < 0) {
                assigns[other] = 1;
                assigns[other ^ 1] = 0;
                int32_t var = other >> 1;
                level[var] = dlevel;
                reason[var] = breason;
                trail[trail_size] = other;
                trail_size++;
            } else if (vo == 0) { /* other is FALSE -> conflict */
                confl = BIN_BASE;
                c0 = other;
                c1 = false_lit;
                confl_n = 2;
                break;
            }
        }
        if (confl != NO_CLAUSE)
            break;
        /* Ternary clauses: scan the (a, b) pairs. */
        vec_t *wt = &k->ter[p];
        if (wt->len) {
            int64_t tbase = ((int64_t)false_lit << 33) | 1;
            int32_t *td = wt->data;
            int32_t tlen = wt->len;
            for (int32_t ti = 0; ti < tlen; ti += 2) {
                int32_t a = td[ti];
                int8_t va = assigns[a];
                if (va > 0)
                    continue;
                int32_t b = td[ti + 1];
                int8_t vb = assigns[b];
                if (vb > 0)
                    continue;
                if (va < 0) {
                    if (vb < 0)
                        continue; /* two unassigned: not unit yet */
                    assigns[a] = 1;
                    assigns[a ^ 1] = 0;
                    int32_t var = a >> 1;
                    level[var] = dlevel;
                    reason[var] = BIN_BASE - (tbase | ((int64_t)b << 1));
                    trail[trail_size] = a;
                    trail_size++;
                } else if (vb < 0) {
                    assigns[b] = 1;
                    assigns[b ^ 1] = 0;
                    int32_t var = b >> 1;
                    level[var] = dlevel;
                    reason[var] = BIN_BASE - (tbase | ((int64_t)a << 1));
                    trail[trail_size] = b;
                    trail_size++;
                } else { /* all three false -> conflict */
                    confl = BIN_BASE;
                    c0 = false_lit;
                    c1 = a;
                    c2 = b;
                    confl_n = 3;
                    break;
                }
            }
            if (confl != NO_CLAUSE)
                break;
        }
        vec_t *ws = &k->nary[p];
        int32_t n = ws->len;
        if (!n)
            continue;
        int32_t *wd = ws->data;
        /* Fast read-only scan: as long as blockers are true the list
         * needs no rewriting at all. */
        int32_t i = 0;
        while (i < n && assigns[wd[i + 1]] > 0)
            i += 2;
        if (i == n)
            continue;
        /* Swap-remove scan (identical bookkeeping to the Python loop). */
        while (i < n) {
            int32_t blocker = wd[i + 1];
            if (assigns[blocker] > 0) {
                i += 2;
                continue;
            }
            int32_t cref = wd[i];
            int32_t sz = asize[cref];
            if (sz < 0) { /* dead clause: drop its watcher lazily */
                n -= 2;
                wd[i] = wd[n];
                wd[i + 1] = wd[n + 1];
                continue;
            }
            int32_t base = astart[cref];
            int32_t first = alits[base];
            if (first == false_lit) {
                first = alits[base + 1];
                alits[base] = first;
                alits[base + 1] = false_lit;
            }
            int8_t v0 = assigns[first];
            if (first != blocker && v0 > 0) {
                wd[i + 1] = first; /* better blocker for future scans */
                i += 2;
                continue;
            }
            /* Circular new-watch search with positional memory. */
            int32_t sp = aspos[cref];
            int found = 0;
            int32_t kk = 0, lk = 0;
            for (kk = base + sp; kk < base + sz; kk++) {
                lk = alits[kk];
                if (assigns[lk] != 0) {
                    found = 1;
                    break;
                }
            }
            if (!found) {
                for (kk = base + 2; kk < base + sp; kk++) {
                    lk = alits[kk];
                    if (assigns[lk] != 0) {
                        found = 1;
                        break;
                    }
                }
            }
            if (found) {
                alits[base + 1] = lk;
                alits[kk] = false_lit;
                aspos[cref] = kk - base;
                /* lk is not FALSE, so lk^1 != p: this push can never
                 * realloc the list we are currently scanning. */
                vec_push2(&k->nary[lk ^ 1], cref, first);
                n -= 2;
                wd[i] = wd[n];
                wd[i + 1] = wd[n + 1];
                continue;
            }
            /* Clause is unit or conflicting. */
            wd[i + 1] = first;
            if (v0 == 0) { /* first is FALSE -> conflict */
                confl = cref;
                break;
            }
            i += 2;
            assigns[first] = 1;
            assigns[first ^ 1] = 0;
            int32_t var = first >> 1;
            level[var] = dlevel;
            reason[var] = cref;
            trail[trail_size] = first;
            trail_size++;
        }
        if (n != ws->len)
            ws->len = n;
        if (confl != NO_CLAUSE)
            break;
    }
    out[0] = qhead;
    out[1] = trail_size;
    out[2] = confl_n;
    out[3] = c0;
    out[4] = c1;
    out[5] = c2;
    return confl;
}

/* -- first-UIP conflict analysis (mirrors Solver._analyze) --------------- */

/* Mirror of _VarOrderHeap._percolate_up. */
static void percolate_up(int32_t *heap, int32_t *indices,
                         const double *activity, int32_t i) {
    int32_t x = heap[i];
    double ax = activity[x];
    while (i > 0) {
        int32_t p = (i - 1) >> 1;
        int32_t hp = heap[p];
        if (ax > activity[hp]) {
            heap[i] = hp;
            indices[hp] = i;
            i = p;
        } else {
            break;
        }
    }
    heap[i] = x;
    indices[x] = i;
}

/* Mirror of _VarOrderHeap._percolate_down (n = live heap size). */
static void percolate_down(int32_t *heap, int32_t *indices,
                           const double *activity, int32_t i, int32_t n) {
    int32_t x = heap[i];
    double ax = activity[x];
    for (;;) {
        int32_t left = 2 * i + 1;
        if (left >= n)
            break;
        int32_t right = left + 1;
        int32_t child =
            (right < n && activity[heap[right]] > activity[heap[left]])
                ? right
                : left;
        int32_t hc = heap[child];
        if (activity[hc] > ax) {
            heap[i] = hc;
            indices[hc] = i;
            i = child;
        } else {
            break;
        }
    }
    heap[i] = x;
    indices[x] = i;
}

/* Mirror of Solver._cancel_until's per-literal undo loop: unassign down to
 * ``bound``, save phases, clear reasons, reinsert into the VSIDS heap.
 * Returns the new live heap size. */
int32_t k_cancel_until(kernel_t *k, int32_t heap_n, int32_t trail_size,
                       int32_t bound) {
    int8_t *assigns = k->assigns;
    int8_t *polarity = k->polarity;
    int64_t *reason = k->reason;
    const int32_t *trail = k->trail;
    int32_t *heap = k->heap;
    int32_t *indices = k->heap_idx;
    const double *activity = k->activity;
    for (int32_t idx = trail_size - 1; idx >= bound; idx--) {
        int32_t lit = trail[idx];
        int32_t var = lit >> 1;
        assigns[lit] = -1;
        assigns[lit ^ 1] = -1;
        polarity[var] = (int8_t)(lit & 1);
        reason[var] = NO_CLAUSE;
        if (indices[var] < 0) {
            indices[var] = heap_n;
            heap[heap_n] = var;
            heap_n++;
            percolate_up(heap, indices, activity, heap_n - 1);
        }
    }
    return heap_n;
}

/* Mirror of Solver._pick_branch_lit: pop the activity heap until an
 * unassigned variable surfaces; apply the saved phase.  Returns the
 * decision literal or -1; *heap_n_io is updated in place. */
int32_t k_pick_branch(kernel_t *k, int32_t *heap_n_io) {
    const int8_t *assigns = k->assigns;
    const int8_t *polarity = k->polarity;
    int32_t *heap = k->heap;
    int32_t *indices = k->heap_idx;
    const double *activity = k->activity;
    int32_t n = *heap_n_io;
    int32_t ret = -1;
    while (n > 0) {
        int32_t x = heap[0];
        n--;
        int32_t last = heap[n];
        indices[x] = -1;
        if (n) {
            heap[0] = last;
            indices[last] = 0;
            percolate_down(heap, indices, activity, 0, n);
        }
        if (assigns[x << 1] < 0) {
            ret = 2 * x + (polarity[x] ? 1 : 0);
            break;
        }
    }
    *heap_n_io = n;
    return ret;
}

void k_analyze(kernel_t *k, int64_t confl, const int32_t *confl_lits,
               int32_t confl_n, int32_t n_vars, int32_t n_slots,
               int32_t trail_size, int32_t cur_level, int32_t nconf,
               double var_inc, double cla_inc, int32_t *out_learnt,
               int64_t *out_ints, double *out_dbl) {
    uint8_t *seen = k->seen;
    int32_t *level = k->level;
    int32_t *trail = k->trail;
    int64_t *reason = k->reason;
    int32_t *alits = k->alits;
    int32_t *astart = k->astart;
    int32_t *asize = k->asize;
    int32_t *alearnt = k->alearnt;
    double *aact = k->aact;
    int32_t *atouch = k->atouch;
    double *activity = k->activity;
    int32_t *heap = k->heap;
    int32_t *heap_idx = k->heap_idx;
    k_ensure_vars(k, n_vars);
    int32_t learnt_len = 1; /* out_learnt[0] holds the asserting literal */
    out_learnt[0] = 0;
    int32_t tc_len = 0;
    int32_t counter = 0;
    int32_t p = -1;
    int32_t index = trail_size - 1;
    int64_t cref = confl;
    for (;;) {
        int32_t span_buf[3];
        const int32_t *span;
        int32_t span_len;
        if (cref < NO_CLAUSE) {
            /* Binary/ternary clause packed into the reference itself. */
            if (p >= 0) {
                int64_t kk = BIN_BASE - cref;
                if (kk & 1) {
                    span_buf[0] = (int32_t)(kk >> 33);
                    span_buf[1] = (int32_t)((kk >> 1) & 0xFFFFFFFFLL);
                    span_len = 2;
                } else {
                    span_buf[0] = (int32_t)(kk >> 1);
                    span_len = 1;
                }
                span = span_buf;
            } else {
                span = confl_lits;
                span_len = confl_n;
            }
        } else {
            int32_t c = (int32_t)cref;
            if (alearnt[c]) {
                /* Mirror of Solver._cla_bump. */
                aact[c] += cla_inc;
                if (aact[c] > RESCALE_LIMIT) {
                    double inv = 1.0 / RESCALE_LIMIT;
                    for (int32_t s = 0; s < n_slots; s++)
                        if (alearnt[s])
                            aact[s] *= inv;
                    cla_inc *= inv;
                }
                atouch[c] = nconf;
            }
            int32_t base = astart[c];
            /* Skip position 0 of reason clauses (the implied literal). */
            int32_t st = p >= 0 ? base + 1 : base;
            span = alits + st;
            span_len = base + asize[c] - st;
        }
        for (int32_t si = 0; si < span_len; si++) {
            int32_t q = span[si];
            int32_t var = q >> 1;
            if (!seen[var] && level[var] > 0) {
                seen[var] = 1;
                k->to_clear[tc_len++] = var;
                /* Mirror of Solver._var_bump. */
                activity[var] += var_inc;
                if (activity[var] > RESCALE_LIMIT) {
                    double inv = 1.0 / RESCALE_LIMIT;
                    for (int32_t i2 = 0; i2 < n_vars; i2++)
                        activity[i2] *= inv;
                    var_inc *= inv;
                }
                if (heap_idx[var] >= 0)
                    percolate_up(heap, heap_idx, activity, heap_idx[var]);
                if (level[var] >= cur_level)
                    counter++;
                else
                    out_learnt[learnt_len++] = q;
            }
        }
        while (!seen[trail[index] >> 1])
            index--;
        p = trail[index];
        cref = reason[p >> 1];
        index--;
        counter--;
        if (counter <= 0)
            break;
    }
    out_learnt[0] = p ^ 1;

    /* Conflict-clause minimisation: drop literals implied by the rest.
     * In-place compaction: the write cursor never passes the read cursor. */
    int32_t j = 1;
    for (int32_t i = 1; i < learnt_len; i++) {
        int32_t q = out_learnt[i];
        int64_t r = reason[q >> 1];
        if (r == NO_CLAUSE) {
            out_learnt[j++] = q;
            continue;
        }
        if (r < NO_CLAUSE) {
            int64_t kk = BIN_BASE - r;
            int32_t xs[2];
            int32_t xn;
            if (kk & 1) {
                xs[0] = (int32_t)(kk >> 33);
                xs[1] = (int32_t)((kk >> 1) & 0xFFFFFFFFLL);
                xn = 2;
            } else {
                xs[0] = (int32_t)(kk >> 1);
                xn = 1;
            }
            for (int32_t t = 0; t < xn; t++) {
                int32_t xv = xs[t] >> 1;
                if (!seen[xv] && level[xv] > 0) {
                    out_learnt[j++] = q;
                    break;
                }
            }
            continue;
        }
        int redundant = 1;
        int32_t c = (int32_t)r;
        int32_t base = astart[c];
        for (int32_t t = base; t < base + asize[c]; t++) {
            int32_t x = alits[t];
            if (x == (q ^ 1))
                continue;
            int32_t xv = x >> 1;
            if (!seen[xv] && level[xv] > 0) {
                redundant = 0;
                break;
            }
        }
        if (!redundant)
            out_learnt[j++] = q;
    }
    learnt_len = j;

    /* Compute backtrack level and LBD. */
    int32_t bt_level;
    if (learnt_len == 1) {
        bt_level = 0;
    } else {
        int32_t max_i = 1;
        for (int32_t i = 2; i < learnt_len; i++)
            if (level[out_learnt[i] >> 1] > level[out_learnt[max_i] >> 1])
                max_i = i;
        int32_t tmp = out_learnt[1];
        out_learnt[1] = out_learnt[max_i];
        out_learnt[max_i] = tmp;
        bt_level = level[out_learnt[1] >> 1];
    }
    if (k->stamp == INT32_MAX) {
        memset(k->lvl_stamp, 0, (size_t)k->n_vars_cap * sizeof(int32_t));
        k->stamp = 0;
    }
    k->stamp++;
    int32_t lbd = 0;
    for (int32_t i = 0; i < learnt_len; i++) {
        int32_t lv = level[out_learnt[i] >> 1];
        if (k->lvl_stamp[lv] != k->stamp) {
            k->lvl_stamp[lv] = k->stamp;
            lbd++;
        }
    }
    for (int32_t i = 0; i < tc_len; i++)
        seen[k->to_clear[i]] = 0;
    out_ints[0] = learnt_len;
    out_ints[1] = bt_level;
    out_ints[2] = lbd;
    out_dbl[0] = var_inc;
    out_dbl[1] = cla_inc;
}

/* -- RUP proof checker (mirrors repro.sat.proof.RupChecker) -------------- */

/* A second, independent mirror: RupChecker's two-watched-literal replay
 * transcribed statement for statement — same unit-seeding order, same
 * watch visit order, same watched-literal swap, same lazy drop of dead
 * watchers — so the two backends count identical ``propagations``.
 *
 * Clause c owns lits[start[c] .. start[c] + size[c]); size[c] < 0 once the
 * clause is deleted (Python's ``clauses[cid] = None``).  The deletion index
 * (Python's ``index`` dict of sorted literal tuples) is a chained hash
 * table: each live clause hangs off bucket[hash & mask] through next[],
 * most recently added first, so a delete finds "the most recently added
 * live copy" as the first match on its chain.  The watched-literal swaps
 * permute a clause's literals in place, so matching compares literal sets
 * (stamped in mark[]) rather than sequences.
 *
 * Literal range: every entry point rejects a negative literal (returns -1,
 * touching nothing) and grows the per-literal arrays to cover the largest
 * literal it is given before indexing with it. */

typedef struct rup rup_t;

struct rup {
    int32_t n_vars;
    int64_t lit_cap;  /* allocated per-literal slots (>= 2 * n_vars) */
    uint8_t *truth;   /* truth[lit] == 1 iff lit is currently true */
    vec_t *watches;   /* literal -> ids of clauses watching it */
    int32_t *mark;    /* literal -> stamp, for set comparison on delete */
    int32_t stamp;
    int32_t *trail;   /* lit_cap / 2 slots: each variable at most once */
    int32_t *lits;
    int64_t n_lits_used, lits_cap;
    int64_t *start;
    int32_t *size;
    int32_t *next;
    uint32_t *hash;
    int32_t n_clauses, clauses_cap;
    int32_t *buckets;
    int32_t n_buckets, n_live;
    vec_t units;      /* flat (clause id, literal) pairs */
    int32_t has_empty;
    int64_t propagations;
    int32_t *key;     /* scratch: the sorted, deduplicated clause */
    int32_t key_cap;
};

static void *grow_array(void *p, int64_t *cap, int64_t need, size_t elem) {
    if (*cap >= need)
        return p;
    int64_t c = *cap ? *cap : 16;
    while (c < need)
        c *= 2;
    p = realloc(p, (size_t)c * elem);
    *cap = c;
    return p;
}

rup_t *rup_new(void) {
    return (rup_t *)calloc(1, sizeof(rup_t));
}

void rup_free(rup_t *r) {
    if (!r)
        return;
    for (int64_t i = 0; i < r->lit_cap; i++)
        free(r->watches[i].data);
    free(r->truth);
    free(r->watches);
    free(r->mark);
    free(r->trail);
    free(r->lits);
    free(r->start);
    free(r->size);
    free(r->next);
    free(r->hash);
    free(r->buckets);
    free(r->units.data);
    free(r->key);
    free(r);
}

/* Mirror of RupChecker._grow. */
void rup_grow(rup_t *r, int32_t n_vars) {
    if (n_vars <= r->n_vars)
        return;
    int64_t need = 2 * (int64_t)n_vars;
    if (need > r->lit_cap) {
        int64_t cap = r->lit_cap ? r->lit_cap : 16;
        while (cap < need)
            cap *= 2;
        size_t old = (size_t)r->lit_cap, add = (size_t)cap - old;
        r->truth = (uint8_t *)realloc(r->truth, (size_t)cap);
        r->watches = (vec_t *)realloc(r->watches, (size_t)cap * sizeof(vec_t));
        r->mark = (int32_t *)realloc(r->mark, (size_t)cap * sizeof(int32_t));
        r->trail = (int32_t *)realloc(r->trail, (size_t)(cap / 2) * sizeof(int32_t));
        memset(r->truth + old, 0, add);
        memset(r->watches + old, 0, add * sizeof(vec_t));
        memset(r->mark + old, 0, add * sizeof(int32_t));
        r->lit_cap = cap;
    }
    r->n_vars = n_vars;
}

/* Copy lits[0..n) into the key scratch sorted and deduplicated (Python's
 * ``sorted(set(lits))``).  Returns the key length, or -1 if any literal is
 * negative; *hi receives the largest literal. */
static int32_t rup_make_key(rup_t *r, const int32_t *lits, int32_t n,
                            int32_t *hi) {
    int64_t cap = r->key_cap;
    r->key = (int32_t *)grow_array(r->key, &cap, n, sizeof(int32_t));
    r->key_cap = (int32_t)cap;
    int32_t *s = r->key;
    int32_t m = 0;
    for (int32_t i = 0; i < n; i++) {
        int32_t x = lits[i];
        if (x < 0)
            return -1;
        int32_t j = m - 1;
        while (j >= 0 && s[j] > x)
            j--;
        if (j >= 0 && s[j] == x)
            continue; /* duplicate */
        memmove(s + j + 2, s + j + 1, (size_t)(m - j - 1) * sizeof(int32_t));
        s[j + 1] = x;
        m++;
    }
    *hi = m ? s[m - 1] : -1;
    return m;
}

static uint32_t rup_hash(const int32_t *s, int32_t m) {
    uint64_t h = 0x9E3779B97F4A7C15ULL ^ (uint64_t)m;
    for (int32_t i = 0; i < m; i++) {
        h ^= (uint32_t)s[i];
        h *= 0xBF58476D1CE4E5B9ULL;
        h ^= h >> 31;
    }
    return (uint32_t)(h ^ (h >> 32));
}

/* Rebuild the chains over a doubled bucket array.  Walking clause ids in
 * ascending order and prepending keeps each chain newest-first. */
static void rup_rehash(rup_t *r) {
    int32_t nb = r->n_buckets ? 2 * r->n_buckets : 64;
    free(r->buckets);
    r->buckets = (int32_t *)malloc((size_t)nb * sizeof(int32_t));
    for (int32_t b = 0; b < nb; b++)
        r->buckets[b] = -1;
    r->n_buckets = nb;
    for (int32_t c = 0; c < r->n_clauses; c++) {
        if (r->size[c] < 0)
            continue;
        int32_t b = (int32_t)(r->hash[c] & (uint32_t)(nb - 1));
        r->next[c] = r->buckets[b];
        r->buckets[b] = c;
    }
}

/* Mirror of RupChecker.add_clause.  Returns 0, or -1 on a negative literal
 * (nothing is added). */
int32_t rup_add(rup_t *r, const int32_t *lits, int32_t n) {
    int32_t hi;
    int32_t m = rup_make_key(r, lits, n, &hi);
    if (m < 0)
        return -1;
    const int32_t *key = r->key;
    if (m)
        rup_grow(r, (hi >> 1) + 1);
    int32_t cid = r->n_clauses;
    if (cid == r->clauses_cap) {
        int32_t cap = cid ? 2 * cid : 64;
        r->start = (int64_t *)realloc(r->start, (size_t)cap * sizeof(int64_t));
        r->size = (int32_t *)realloc(r->size, (size_t)cap * sizeof(int32_t));
        r->next = (int32_t *)realloc(r->next, (size_t)cap * sizeof(int32_t));
        r->hash = (uint32_t *)realloc(r->hash, (size_t)cap * sizeof(uint32_t));
        r->clauses_cap = cap;
    }
    r->lits = (int32_t *)grow_array(r->lits, &r->lits_cap, r->n_lits_used + m,
                                    sizeof(int32_t));
    int64_t base = r->n_lits_used;
    memcpy(r->lits + base, key, (size_t)m * sizeof(int32_t));
    r->n_lits_used += m;
    r->start[cid] = base;
    r->size[cid] = m;
    r->hash[cid] = rup_hash(key, m);
    r->n_clauses = cid + 1;
    r->n_live++;
    if (r->n_live > r->n_buckets) {
        rup_rehash(r); /* links cid along with every other live clause */
    } else {
        int32_t b = (int32_t)(r->hash[cid] & (uint32_t)(r->n_buckets - 1));
        r->next[cid] = r->buckets[b];
        r->buckets[b] = cid;
    }
    if (m == 0) {
        r->has_empty = 1;
    } else if (m == 1) {
        vec_push2(&r->units, cid, key[0]);
    } else {
        vec_push(&r->watches[key[0]], cid);
        vec_push(&r->watches[key[1]], cid);
    }
    return 0;
}

/* Add n clauses laid out flat (clause i has sizes[i] literals).  Returns
 * the number added: fewer than n means clause [return value] has a
 * negative literal and it and everything after it were not added. */
int32_t rup_add_many(rup_t *r, const int32_t *flat, const int32_t *sizes,
                     int32_t n) {
    int64_t pos = 0;
    for (int32_t i = 0; i < n; i++) {
        if (rup_add(r, flat + pos, sizes[i]) < 0)
            return i;
        pos += sizes[i];
    }
    return n;
}

/* Mirror of RupChecker.delete_clause.  Returns 1 when a live copy was
 * removed, 0 when none exists, -1 on a negative literal. */
int32_t rup_delete(rup_t *r, const int32_t *lits, int32_t n) {
    int32_t hi;
    int32_t m = rup_make_key(r, lits, n, &hi);
    if (m < 0)
        return -1;
    if (hi >= 2 * (int64_t)r->n_vars || !r->n_buckets)
        return 0; /* no live clause mentions a literal past the range */
    const int32_t *key = r->key;
    uint32_t h = rup_hash(key, m);
    if (r->stamp == INT32_MAX) {
        memset(r->mark, 0, (size_t)r->lit_cap * sizeof(int32_t));
        r->stamp = 0;
    }
    int32_t st = ++r->stamp;
    for (int32_t i = 0; i < m; i++)
        r->mark[key[i]] = st;
    int32_t b = (int32_t)(h & (uint32_t)(r->n_buckets - 1));
    int32_t prev = -1;
    for (int32_t c = r->buckets[b]; c >= 0; prev = c, c = r->next[c]) {
        if (r->hash[c] != h || r->size[c] != m)
            continue;
        const int32_t *cl = r->lits + r->start[c];
        int32_t same = 1;
        for (int32_t i = 0; i < m; i++) {
            if (r->mark[cl[i]] != st) {
                same = 0;
                break;
            }
        }
        if (!same)
            continue;
        if (prev < 0)
            r->buckets[b] = r->next[c];
        else
            r->next[prev] = r->next[c];
        r->size[c] = -1;
        r->n_live--;
        return 1;
    }
    return 0;
}

/* Mirror of RupChecker.propagate_conflict (negate = 0) and is_rup
 * (negate = 1: assert the complement of each literal).  Returns -1 on a
 * negative literal, else (propagations << 1) | conflict, where
 * propagations counts this call's work (also added to the running total). */
int64_t rup_conflict(rup_t *r, const int32_t *assumed, int32_t n,
                     int32_t negate) {
    int32_t hi = -1;
    for (int32_t i = 0; i < n; i++) {
        if (assumed[i] < 0)
            return -1;
        if (assumed[i] > hi)
            hi = assumed[i];
    }
    if (n)
        rup_grow(r, (hi >> 1) + 1);
    if (r->has_empty)
        return 1;
    uint8_t *truth = r->truth;
    int32_t *trail = r->trail;
    const int64_t *start = r->start;
    const int32_t *size = r->size;
    int32_t tlen = 0;
    int32_t conflict = 0;
    const int32_t *ud = r->units.data;
    for (int32_t u = 0; u < r->units.len; u += 2) {
        if (size[ud[u]] < 0)
            continue;
        int32_t lit = ud[u + 1];
        if (truth[lit])
            continue;
        if (truth[lit ^ 1]) {
            conflict = 1;
            break;
        }
        truth[lit] = 1;
        trail[tlen++] = lit;
    }
    if (!conflict) {
        for (int32_t a = 0; a < n; a++) {
            int32_t lit = assumed[a] ^ (negate ? 1 : 0);
            if (truth[lit])
                continue;
            if (truth[lit ^ 1]) {
                conflict = 1;
                break;
            }
            truth[lit] = 1;
            trail[tlen++] = lit;
        }
    }
    int64_t props = 0;
    int32_t head = 0;
    while (!conflict && head < tlen) {
        int32_t falsified = trail[head] ^ 1;
        head++;
        props++;
        vec_t *ws = &r->watches[falsified];
        int32_t *wd = ws->data;
        int32_t nw = ws->len;
        int32_t i = 0, j = 0;
        while (i < nw) {
            int32_t cid = wd[i++];
            int32_t sz = size[cid];
            if (sz < 0)
                continue; /* lazily drop deleted clause's watcher */
            int32_t *cl = r->lits + start[cid];
            if (cl[0] == falsified) {
                cl[0] = cl[1];
                cl[1] = falsified;
            }
            int32_t other = cl[0];
            if (truth[other]) {
                wd[j++] = cid;
                continue;
            }
            int32_t k;
            for (k = 2; k < sz; k++) {
                int32_t lit = cl[k];
                if (!truth[lit ^ 1]) {
                    cl[1] = lit;
                    cl[k] = falsified;
                    /* lit is not false, so lit != falsified: this push
                     * never reallocs the list being scanned. */
                    vec_push(&r->watches[lit], cid);
                    break;
                }
            }
            if (k == sz) {
                wd[j++] = cid;
                if (truth[other ^ 1]) {
                    conflict = 1;
                    break;
                }
                truth[other] = 1;
                trail[tlen++] = other;
            }
        }
        while (i < nw) /* conflict broke the scan: keep remaining watchers */
            wd[j++] = wd[i++];
        ws->len = j;
    }
    for (int32_t t = 0; t < tlen; t++)
        truth[trail[t]] = 0;
    r->propagations += props;
    return (props << 1) | conflict;
}
