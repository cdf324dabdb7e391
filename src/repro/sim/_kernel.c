/* Native MSI/MESI coherence kernel (block-invalidate mode).
 *
 * A line-for-line port of the hot loop of repro/sim/coherence.py
 * (`CoherenceSim._access_block` and its helpers) operating directly on
 * the columnar event arrays of repro/sim/events.py.  The Python class
 * remains the reference semantics; this kernel must stay bit-identical
 * to it (enforced by tests/test_kernel.py and the CI kernel-smoke job).
 *
 * Scope: both write-invalidate protocols the machine models name — the
 * paper's MSI and, with `mesi` set, MESI (a read miss with no other
 * valid holder installs E; a write hit on E becomes M silently; a
 * remote read miss demotes E to S without a writeback).  The word-
 * granularity invalidation variant (Dubois et al.) always runs on the
 * Python core — it is a section-6 comparison point, not a hot path.
 *
 * State mapping (Python -> C):
 *   Cache.sets (insertion-ordered dicts, first = LRU)
 *       -> per-set ways with a monotone stamp; eviction takes the
 *          minimum stamp.  Every dict pop+re-add (touch / set_state /
 *          insert) becomes a stamp bump, so the orders coincide.
 *   sharers / ever ((proc, block) sets)
 *       -> 64-bit masks per block entry, bit = proc + 1 (pid -1 is the
 *          serial parent), so procs must lie in [-1, 62].
 *   lost[(proc, block)] -> map keyed (block << 6) | (proc + 1)
 *   write_log[block][word] -> map keyed by global word index
 *   fs_pair_by_block[block][(by, proc)]
 *       -> map keyed (block << 13) | ((by + 2) << 6) | (proc + 1)
 *
 * The packed keys bound block numbers to < 2^50; the ctypes wrapper
 * (repro/sim/kernel.py) checks every chunk and falls back to Python
 * when a trace exceeds the envelope.
 *
 * The kernel is streaming by construction: sim_run() may be called any
 * number of times with consecutive event chunks; all protocol state
 * (caches, directory, write log, loss records) carries over.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define K_INVALID 0
#define K_SHARED 1
#define K_MODIFIED 2
#define K_EXCLUSIVE 3 /* MESI only; same value as sim/cache.py */

#define KIND_COLD 0
#define KIND_REPLACE 1
#define KIND_TRUE 2
#define KIND_FALSE 3

#define CAUSE_EVICT 0
#define CAUSE_INVAL 1
#define NO_PROC (-2)

#define MAX_PROCS 64 /* rows are pid + 1, so pids span [-1, 62] */
#define MAX_BLOCK ((int64_t)1 << 50)

/* ---------------------------------------------------------------- */
/* Open-addressing hash map: int64 key, four int64 payload words.    */
/* ---------------------------------------------------------------- */

typedef struct {
    int64_t key;
    int64_t v0, v1, v2, v3;
} Slot;

typedef struct {
    Slot *slots;
    uint64_t mask;
    int64_t n;
    int64_t cap;
} Map;

/* Packed keys are non-negative, so INT64_MIN can never collide. */
static const int64_t EMPTY_KEY = INT64_MIN;

static int map_init(Map *m, int64_t cap)
{
    m->cap = cap;
    m->mask = (uint64_t)cap - 1;
    m->n = 0;
    m->slots = (Slot *)malloc(sizeof(Slot) * (size_t)cap);
    if (!m->slots)
        return -1;
    for (int64_t i = 0; i < cap; i++)
        m->slots[i].key = EMPTY_KEY;
    return 0;
}

static inline uint64_t hash_key(int64_t key)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 29);
}

static Slot *map_find(Map *m, int64_t key)
{
    uint64_t i = hash_key(key) & m->mask;
    for (;;) {
        Slot *s = &m->slots[i];
        if (s->key == key)
            return s;
        if (s->key == EMPTY_KEY)
            return NULL;
        i = (i + 1) & m->mask;
    }
}

static int map_grow(Map *m)
{
    Slot *old = m->slots;
    int64_t ocap = m->cap;
    Map bigger;
    if (map_init(&bigger, ocap * 2))
        return -1;
    for (int64_t i = 0; i < ocap; i++) {
        if (old[i].key == EMPTY_KEY)
            continue;
        uint64_t j = hash_key(old[i].key) & bigger.mask;
        while (bigger.slots[j].key != EMPTY_KEY)
            j = (j + 1) & bigger.mask;
        bigger.slots[j] = old[i];
        bigger.n++;
    }
    free(old);
    *m = bigger;
    return 0;
}

/* Find-or-insert (payload zeroed on insert); NULL on OOM. */
static Slot *map_upsert(Map *m, int64_t key)
{
    if (m->n * 10 >= m->cap * 7 && map_grow(m))
        return NULL;
    uint64_t i = hash_key(key) & m->mask;
    for (;;) {
        Slot *s = &m->slots[i];
        if (s->key == key)
            return s;
        if (s->key == EMPTY_KEY) {
            s->key = key;
            s->v0 = s->v1 = s->v2 = s->v3 = 0;
            m->n++;
            return s;
        }
        i = (i + 1) & m->mask;
    }
}

static void map_free(Map *m)
{
    free(m->slots);
    m->slots = NULL;
}

/* ---------------------------------------------------------------- */
/* One processor's set-associative LRU cache.                        */
/* ---------------------------------------------------------------- */

typedef struct {
    int64_t *blockv;  /* -1 = empty way */
    uint8_t *statev;
    uint64_t *stampv; /* monotone per-cache use counter */
    uint64_t counter;
} PCache;

typedef struct {
    int64_t n_sets;
    int64_t assoc;
    PCache *caches[MAX_PROCS];
    int64_t counts[MAX_PROCS][4]; /* row pid+1: cold/replace/true/false */
    int32_t pids[MAX_PROCS];      /* first-touch order */
    int32_t npids;
    int64_t refs;
    int64_t time_;
    int64_t invalidations;
    int64_t writebacks;
    int64_t upgrades;
    int mesi; /* 1: MESI (Exclusive state), 0: MSI */
    Map blocks; /* block -> v0 sharers, v1 ever, v2 miss, v3 fs */
    Map lost;   /* (block,proc) -> v0 cause, v1 time, v2 by */
    Map wlog;   /* word -> v0 writer, v1 time */
    Map pairs;  /* (block,by,proc) -> v0 count */
    int oom;
} Sim;

static inline int64_t lost_key(int64_t block, int64_t proc)
{
    return (block << 6) | (proc + 1);
}

static inline int64_t pair_key(int64_t block, int64_t by, int64_t proc)
{
    return (block << 13) | ((by + 2) << 6) | (proc + 1);
}

static PCache *get_cache(Sim *s, int64_t proc)
{
    PCache *c = s->caches[proc + 1];
    if (c)
        return c;
    c = (PCache *)calloc(1, sizeof(PCache));
    if (!c)
        return NULL;
    size_t nway = (size_t)(s->n_sets * s->assoc);
    c->blockv = (int64_t *)malloc(nway * sizeof(int64_t));
    c->statev = (uint8_t *)calloc(nway, 1);
    c->stampv = (uint64_t *)calloc(nway, sizeof(uint64_t));
    if (!c->blockv || !c->statev || !c->stampv) {
        free(c->blockv);
        free(c->statev);
        free(c->stampv);
        free(c);
        return NULL;
    }
    for (size_t i = 0; i < nway; i++)
        c->blockv[i] = -1;
    s->caches[proc + 1] = c;
    s->pids[s->npids++] = (int32_t)proc;
    return c;
}

static inline int64_t set_base(const Sim *s, int64_t block)
{
    return (int64_t)((uint64_t)block % (uint64_t)s->n_sets) * s->assoc;
}

static inline int64_t cache_find(const Sim *s, const PCache *c, int64_t block)
{
    int64_t base = set_base(s, block);
    for (int64_t w = 0; w < s->assoc; w++)
        if (c->blockv[base + w] == block)
            return base + w;
    return -1;
}

/* Remove `block`; returns its previous state (K_INVALID if absent). */
static inline int cache_invalidate(const Sim *s, PCache *c, int64_t block)
{
    int64_t i = cache_find(s, c, block);
    if (i < 0)
        return K_INVALID;
    int st = c->statev[i];
    c->blockv[i] = -1;
    c->statev[i] = K_INVALID;
    return st;
}

/* Insert `block` as MRU.  Returns 1 and fills victim when an eviction
 * was needed (mirrors Cache.insert). */
static int cache_insert(const Sim *s, PCache *c, int64_t block, int state,
                        int64_t *vblock, int *vstate)
{
    int64_t base = set_base(s, block);
    int64_t found = -1, freeway = -1, oldest = -1;
    uint64_t min_stamp = UINT64_MAX;
    for (int64_t w = 0; w < s->assoc; w++) {
        int64_t b = c->blockv[base + w];
        if (b == block) {
            found = base + w;
            break;
        }
        if (b == -1) {
            if (freeway < 0)
                freeway = base + w;
        } else if (c->stampv[base + w] < min_stamp) {
            min_stamp = c->stampv[base + w];
            oldest = base + w;
        }
    }
    if (found >= 0) {
        c->statev[found] = (uint8_t)state;
        c->stampv[found] = ++c->counter;
        return 0;
    }
    int evicted = 0;
    int64_t way = freeway;
    if (way < 0) { /* full set: evict the LRU way */
        way = oldest;
        *vblock = c->blockv[way];
        *vstate = c->statev[way];
        evicted = 1;
    }
    c->blockv[way] = block;
    c->statev[way] = (uint8_t)state;
    c->stampv[way] = ++c->counter;
    return evicted;
}

/* ---------------------------------------------------------------- */
/* Protocol core (mirrors CoherenceSim, block-invalidate mode).      */
/* ---------------------------------------------------------------- */

static int classify(Sim *s, int64_t proc, int64_t block, int64_t w_lo,
                    int64_t w_hi)
{
    Slot *bv = map_find(&s->blocks, block);
    uint64_t bit = 1ULL << (proc + 1);
    if (!bv || !((uint64_t)bv->v1 & bit))
        return KIND_COLD;
    Slot *L = map_find(&s->lost, lost_key(block, proc));
    int64_t cause = L ? L->v0 : CAUSE_EVICT;
    int64_t t_lost = L ? L->v1 : 0;
    if (cause == CAUSE_EVICT)
        return KIND_REPLACE;
    for (int64_t w = w_lo; w < w_hi; w++) {
        Slot *e = map_find(&s->wlog, w);
        /* >= : the write that caused the invalidation is logged at
         * exactly t_lost and is true communication. */
        if (e && e->v1 >= t_lost && e->v0 != proc)
            return KIND_TRUE;
    }
    return KIND_FALSE;
}

static void invalidate_others(Sim *s, int64_t proc, int64_t block)
{
    Slot *bv = map_find(&s->blocks, block);
    if (!bv)
        return;
    uint64_t others = (uint64_t)bv->v0 & ~(1ULL << (proc + 1));
    while (others) {
        int b = __builtin_ctzll(others);
        others &= others - 1;
        PCache *oc = s->caches[b];
        if (!oc)
            continue; /* mirrors `if oc is None: continue` (no discard) */
        int st = cache_invalidate(s, oc, block);
        if (st != K_INVALID) {
            s->invalidations++;
            if (st == K_MODIFIED)
                s->writebacks++;
            Slot *L = map_upsert(&s->lost, lost_key(block, (int64_t)b - 1));
            if (!L) {
                s->oom = 1;
                return;
            }
            L->v0 = CAUSE_INVAL;
            L->v1 = s->time_;
            L->v2 = proc;
        }
        bv->v0 &= ~(1ULL << b);
    }
}

static void do_miss(Sim *s, PCache *c, int64_t proc, int64_t block,
                    int64_t w_lo, int64_t w_hi, int is_write)
{
    int kind = classify(s, proc, block, w_lo, w_hi);
    s->counts[proc + 1][kind]++;
    int64_t by = NO_PROC;
    if (kind == KIND_FALSE) {
        /* FALSE implies an invalidation loss record exists. */
        Slot *L = map_find(&s->lost, lost_key(block, proc));
        by = L->v2;
    }
    Slot *bv = map_upsert(&s->blocks, block);
    if (!bv) {
        s->oom = 1;
        return;
    }
    if (kind == KIND_FALSE) {
        bv->v3++;
        Slot *p = map_upsert(&s->pairs, pair_key(block, by, proc));
        if (!p) {
            s->oom = 1;
            return;
        }
        p->v0++;
        bv = map_find(&s->blocks, block); /* pairs grow cannot move it,
                                             but stay defensive */
    }
    bv->v2++;
    bv->v1 |= (int64_t)(1ULL << (proc + 1));
    int new_state;
    if (is_write) {
        invalidate_others(s, proc, block);
        if (s->oom)
            return;
        new_state = K_MODIFIED;
    } else {
        /* demote a remote MODIFIED copy to SHARED (writeback); under
         * MESI a remote EXCLUSIVE copy also demotes, but clean */
        int others_valid = 0;
        uint64_t holders = (uint64_t)bv->v0;
        while (holders) {
            int b = __builtin_ctzll(holders);
            holders &= holders - 1;
            PCache *oc = s->caches[b];
            if (!oc)
                continue;
            int64_t i = cache_find(s, oc, block);
            if (i < 0)
                continue;
            others_valid = 1;
            int st = oc->statev[i];
            if (st == K_MODIFIED || st == K_EXCLUSIVE) {
                oc->statev[i] = K_SHARED;
                oc->stampv[i] = ++oc->counter; /* set_state re-inserts MRU */
                if (st == K_MODIFIED)
                    s->writebacks++;
            }
        }
        /* MESI: a read miss with no other valid holder installs E */
        new_state = s->mesi && !others_valid ? K_EXCLUSIVE : K_SHARED;
    }
    int64_t vblock = 0;
    int vstate = 0;
    int evicted = cache_insert(s, c, block, new_state, &vblock, &vstate);
    bv->v0 |= (int64_t)(1ULL << (proc + 1));
    if (evicted) {
        if (vstate == K_MODIFIED)
            s->writebacks++;
        Slot *L = map_upsert(&s->lost, lost_key(vblock, proc));
        if (!L) {
            s->oom = 1;
            return;
        }
        L->v0 = CAUSE_EVICT;
        L->v1 = s->time_;
        L->v2 = NO_PROC;
        Slot *vb = map_find(&s->blocks, vblock);
        if (vb)
            vb->v0 &= ~(int64_t)(1ULL << (proc + 1));
    }
}

/* ---------------------------------------------------------------- */
/* Public API (ctypes)                                               */
/* ---------------------------------------------------------------- */

Sim *sim_new(int64_t n_sets, int64_t assoc, int mesi)
{
    Sim *s = (Sim *)calloc(1, sizeof(Sim));
    if (!s)
        return NULL;
    s->n_sets = n_sets;
    s->assoc = assoc;
    s->mesi = mesi;
    if (map_init(&s->blocks, 1024) || map_init(&s->lost, 1024) ||
        map_init(&s->wlog, 4096) || map_init(&s->pairs, 256)) {
        map_free(&s->blocks);
        map_free(&s->lost);
        map_free(&s->wlog);
        map_free(&s->pairs);
        free(s);
        return NULL;
    }
    return s;
}

void sim_free(Sim *s)
{
    if (!s)
        return;
    for (int i = 0; i < MAX_PROCS; i++) {
        PCache *c = s->caches[i];
        if (c) {
            free(c->blockv);
            free(c->statev);
            free(c->stampv);
            free(c);
        }
    }
    map_free(&s->blocks);
    map_free(&s->lost);
    map_free(&s->wlog);
    map_free(&s->pairs);
    free(s);
}

/* Consume one event chunk; carries all state over to the next call.
 * Returns 0 on success, -1 on OOM, -2 on a proc outside [-1, 62],
 * -3 on a block outside [0, 2^50). */
int sim_run(Sim *s, int64_t n, const int64_t *proc, const int64_t *block,
            const int64_t *w_lo, const int64_t *w_hi,
            const uint8_t *is_write, const int64_t *rep)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t p = proc[i];
        int64_t b = block[i];
        if (p < -1 || p > MAX_PROCS - 2)
            return -2;
        if (b < 0 || b >= MAX_BLOCK)
            return -3;
        int64_t r = rep[i];
        int wr = is_write[i];
        s->refs += r;
        s->time_ += r;
        PCache *c = get_cache(s, p);
        if (!c)
            return -1;
        int64_t idx = cache_find(s, c, b);
        if (idx < 0) {
            do_miss(s, c, p, b, w_lo[i], w_hi[i], wr);
        } else {
            c->stampv[idx] = ++c->counter; /* touch: MRU */
            if (wr && c->statev[idx] != K_MODIFIED) {
                /* S upgrades with an invalidation broadcast; E (MESI)
                 * has no other holder, so it becomes M silently */
                if (c->statev[idx] == K_SHARED) {
                    invalidate_others(s, p, b);
                    s->upgrades++;
                }
                c->statev[idx] = K_MODIFIED;
                c->stampv[idx] = ++c->counter;
            }
        }
        if (wr) {
            for (int64_t w = w_lo[i]; w < w_hi[i]; w++) {
                Slot *e = map_upsert(&s->wlog, w);
                if (!e)
                    return -1;
                e->v0 = p;
                e->v1 = s->time_;
            }
        }
        if (s->oom)
            return -1;
    }
    return 0;
}

/* out: refs, time, invalidations, writebacks, upgrades, npids,
 *      nblocks, npairs */
void sim_stats(const Sim *s, int64_t *out)
{
    out[0] = s->refs;
    out[1] = s->time_;
    out[2] = s->invalidations;
    out[3] = s->writebacks;
    out[4] = s->upgrades;
    out[5] = s->npids;
    out[6] = s->blocks.n;
    out[7] = s->pairs.n;
}

/* counts: MAX_PROCS x 4 row-major (row = pid + 1); pids: first-touch
 * order, npids entries. */
void sim_counts(const Sim *s, int64_t *counts, int32_t *pids)
{
    memcpy(counts, s->counts, sizeof(s->counts));
    memcpy(pids, s->pids, sizeof(int32_t) * (size_t)s->npids);
}

/* blocks/miss/fs: one entry per blocks-table slot (nblocks entries). */
void sim_export_blocks(const Sim *s, int64_t *blocks, int64_t *miss,
                       int64_t *fs)
{
    int64_t j = 0;
    for (int64_t i = 0; i < s->blocks.cap; i++) {
        const Slot *sl = &s->blocks.slots[i];
        if (sl->key == EMPTY_KEY)
            continue;
        blocks[j] = sl->key;
        miss[j] = sl->v2;
        fs[j] = sl->v3;
        j++;
    }
}

/* block/by/proc/count: one entry per pairs-table slot. */
void sim_export_pairs(const Sim *s, int64_t *block, int32_t *by,
                      int32_t *proc, int64_t *count)
{
    int64_t j = 0;
    for (int64_t i = 0; i < s->pairs.cap; i++) {
        const Slot *sl = &s->pairs.slots[i];
        if (sl->key == EMPTY_KEY)
            continue;
        block[j] = sl->key >> 13;
        by[j] = (int32_t)(((sl->key >> 6) & 0x7F) - 2);
        proc[j] = (int32_t)((sl->key & 0x3F) - 1);
        count[j] = sl->v0;
        j++;
    }
}
