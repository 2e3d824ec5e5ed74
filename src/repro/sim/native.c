/*
 * The flat machine of repro.sim.vector, in C.
 *
 * This is a line-for-line port of ``_FlatMachine`` plus the
 * ``VectorEngine`` interleave loop for the organizations the F3 sweep
 * evaluates: sparse and stash (set-associative, LRU), ideal / in_llc (the
 * bare block map), cuckoo (d-ary, random-walk displacement) and SCD (a
 * fully associative line pool).  Sharer sets are full bit vectors of
 * ceil(cores / 64) words; for the full-bit-vector format and SCD's exact
 * sets the believed sharer set and the representation coincide, so one
 * mask per entry carries both.
 *
 * The decision order inside every function mirrors the Python one (LRU
 * touches, counter increments and message sends happen at the same
 * points), so the per-core clocks, every counter and the
 * effective-tracking samples are bit-identical to the interpreter.  The
 * Python wrapper (repro/sim/native.py) builds this file on first use,
 * loads it with ctypes and folds the counter block into the same flat
 * statistics dict the vector engine produces.
 *
 * Protocol violations the Python engine raises as ProtocolError abort the
 * run here with return code 1 and the same message in ``error``.
 */

#include <inttypes.h>
#include <setjmp.h>
#include <stdarg.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#ifndef REPRO_NATIVE_HASH
#define REPRO_NATIVE_HASH "unversioned"
#endif

/* Message classes, in repro.noc.traffic.MessageClass order. */
enum {
    MC_REQUEST, MC_DATA_RESPONSE, MC_CONTROL_RESPONSE, MC_FORWARD,
    MC_INVALIDATION, MC_INV_ACK, MC_WRITEBACK, MC_WB_ACK,
    MC_EVICTION_NOTICE, MC_DISCOVERY_PROBE, MC_DISCOVERY_REPLY, MC_MEMORY,
    MC_COUNT
};

/* MesiState values. */
enum { ST_SHARED = 1, ST_EXCLUSIVE = 2, ST_MODIFIED = 3, ST_OWNED = 4 };

/* Directory organizations. */
enum { DK_IDEAL, DK_SETASSOC, DK_CUCKOO, DK_SCD };

/* The counter block, in repro.sim.vector.FLAT_COUNTERS order. */
enum {
    C_L1_MISSES, C_UPGRADES, C_COVERAGE, C_LLC_HITS, C_LLC_MISSES,
    C_FORWARDS, C_FORWARD_NACKS, C_SELF_REGRANTS, C_OWNED_TRANSITIONS,
    C_UPGRADE_REQUESTS, C_L1_WRITEBACKS, C_SILENT_CLEAN, C_CLEAN_NOTICES,
    C_WRITE_INVAL_MSGS, C_DIR_EV_INVAL_MSGS, C_DIR_INDUCED,
    C_DIR_EV_PRIVATE, C_DIR_EV_SHARED, C_LLC_EVICTIONS, C_STASH_EVICTIONS,
    C_EMPTY_DEALLOCS, C_HIDER_UPGRADES, C_LLC_BACK_INVALS, C_OWNED_DROPPED,
    C_LLC_FILLS, C_LLC_REMOVALS, C_LLC_WB_ABSORBED, C_STASH_SET,
    C_STASH_CLEARED,
    C_DIR_HITS, C_DIR_MISSES, C_DIR_ALLOCS, C_DIR_DEALLOCS, C_DIR_EVICTIONS,
    C_DIR_EV_ACT_INVAL, C_DIR_EV_ACT_STASH, C_DIR_FORCED, C_DIR_RELOCATIONS,
    C_MEM_READS, C_MEM_WRITES,
    C_DISC_BROADCASTS, C_DISC_PROBES, C_DISC_FALSE, C_DISC_SUCCESS,
    C_COUNT
};

/* Return codes of repro_native_run. */
enum { RC_OK = 0, RC_PROTOCOL = 1, RC_NOMEM = 2, RC_ARGUMENT = 3 };

#define EMPTY UINT64_MAX

/* Mirrors repro.sim.native._Config (ctypes); every field is 8 bytes. */
typedef struct {
    int64_t num_cores, moesi;
    int64_t t_l1, t_dir, t_llc, t_mem, fixed;
    int64_t l1_sets, l1_ways, llc_sets, llc_ways;
    int64_t dir_kind, dir_entries, dir_ways;
    int64_t stash_capable, excl_only, clean_notice;
    int64_t scd_pointers, scd_leaf_size, cuckoo_max_path;
    int64_t packshift, sample_interval, trace_cores, noc_stride;
    const int64_t *hops, *lats, *flits, *action, *grant;
    int64_t action_len;
    const uint32_t *mt_state; /* 624 words + index, from getstate() */
    const uint64_t *const *streams;
    const int64_t *lengths;
    /* outputs */
    int64_t *counters, *noc, *l1_fills, *l1_removals, *clocks, *samples;
    int64_t samples_cap, samples_len, writes;
    char *error;
    int64_t error_len;
} repro_config;

/* -- MT19937 (CPython's random.Random core) ------------------------------ */

typedef struct {
    uint32_t mt[624];
    int mti;
} mt_t;

static uint32_t mt_next(mt_t *r)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (r->mti >= 624) {
        int kk;
        for (kk = 0; kk < 624 - 397; kk++) {
            y = (r->mt[kk] & 0x80000000U) | (r->mt[kk + 1] & 0x7fffffffU);
            r->mt[kk] = r->mt[kk + 397] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < 623; kk++) {
            y = (r->mt[kk] & 0x80000000U) | (r->mt[kk + 1] & 0x7fffffffU);
            r->mt[kk] = r->mt[kk + (397 - 624)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (r->mt[623] & 0x80000000U) | (r->mt[0] & 0x7fffffffU);
        r->mt[623] = r->mt[396] ^ (y >> 1) ^ mag01[y & 0x1U];
        r->mti = 0;
    }
    y = r->mt[r->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.Random.getrandbits(k) for 1 <= k <= 32. */
static inline uint32_t getrandbits(mt_t *r, int k)
{
    return mt_next(r) >> (32 - k);
}

static void mt_load(mt_t *r, const uint32_t *state)
{
    memcpy(r->mt, state, sizeof(r->mt));
    r->mti = (int)state[624];
}

/* -- open-addressing u64 -> i64 map (linear probing, backward-shift) ----- */

typedef struct {
    uint64_t *keys;
    int64_t *vals;
    uint64_t mask;
    int64_t count;
    int shift;
} map_t;

typedef struct machine M;
static void fail_nomem(M *m);

static inline uint64_t map_slot(const map_t *h, uint64_t key)
{
    return (key * 0x9E3779B97F4A7C15ULL) >> h->shift;
}

static inline int64_t map_get(const map_t *h, uint64_t key)
{
    uint64_t i;
    if (h->keys == NULL)
        return -1;
    i = map_slot(h, key);
    for (;;) {
        uint64_t k = h->keys[i];
        if (k == key)
            return h->vals[i];
        if (k == EMPTY)
            return -1;
        i = (i + 1) & h->mask;
    }
}

static void map_init(M *m, map_t *h, int bits)
{
    uint64_t cap = 1ULL << bits, i;
    h->keys = malloc(cap * sizeof(uint64_t));
    h->vals = malloc(cap * sizeof(int64_t));
    if (h->keys == NULL || h->vals == NULL) {
        free(h->keys);
        free(h->vals);
        h->keys = NULL;
        h->vals = NULL;
        fail_nomem(m);
    }
    for (i = 0; i < cap; i++)
        h->keys[i] = EMPTY;
    h->mask = cap - 1;
    h->shift = 64 - bits;
    h->count = 0;
}

static void map_free(map_t *h)
{
    free(h->keys);
    free(h->vals);
    h->keys = NULL;
    h->vals = NULL;
}

static void map_put(M *m, map_t *h, uint64_t key, int64_t val);

static void map_grow(M *m, map_t *h)
{
    map_t old = *h;
    uint64_t i;
    map_init(m, h, 64 - old.shift + 1);
    for (i = 0; i <= old.mask; i++)
        if (old.keys[i] != EMPTY)
            map_put(m, h, old.keys[i], old.vals[i]);
    map_free(&old);
}

static void map_put(M *m, map_t *h, uint64_t key, int64_t val)
{
    uint64_t i;
    if (h->keys == NULL)
        map_init(m, h, 4);
    else if ((uint64_t)(h->count + 1) * 2 > h->mask + 1)
        map_grow(m, h);
    i = map_slot(h, key);
    for (;;) {
        uint64_t k = h->keys[i];
        if (k == key) {
            h->vals[i] = val;
            return;
        }
        if (k == EMPTY) {
            h->keys[i] = key;
            h->vals[i] = val;
            h->count++;
            return;
        }
        i = (i + 1) & h->mask;
    }
}

/* Removes ``key``; returns 1 when it was present. */
static int map_del(map_t *h, uint64_t key)
{
    uint64_t i, j;
    if (h->keys == NULL)
        return 0;
    i = map_slot(h, key);
    for (;;) {
        uint64_t k = h->keys[i];
        if (k == key)
            break;
        if (k == EMPTY)
            return 0;
        i = (i + 1) & h->mask;
    }
    j = i;
    for (;;) {
        uint64_t home;
        j = (j + 1) & h->mask;
        if (h->keys[j] == EMPTY)
            break;
        home = map_slot(h, h->keys[j]);
        /* Move keys[j] into the hole unless its home lies in (i, j]. */
        if ((j > i && (home <= i || home > j)) ||
            (j < i && home <= i && home > j)) {
            h->keys[i] = h->keys[j];
            h->vals[i] = h->vals[j];
            i = j;
        }
    }
    h->keys[i] = EMPTY;
    h->count--;
    return 1;
}

/* -- the machine ---------------------------------------------------------- */

/* Directory entry; its sharer mask lives in ``emask`` (W words). */
typedef struct {
    uint64_t blk;
    int32_t owner; /* -1: no owner */
    int32_t pos;   /* flat slot (set-associative / cuckoo), else -1 */
    int32_t lines; /* SCD: lines charged */
    int32_t prev, next; /* SCD LRU order; ``next`` also links the free list */
} entry_t;

struct machine {
    jmp_buf jb;
    int rc;
    char *error;
    int64_t error_len;

    int n, W;
    uint64_t bank_mask;
    int moesi;
    int64_t t_l1, t_dir, t_llc, t_mem;
    const int64_t *hops, *lats, *flits;
    int64_t stride;
    int64_t nm[MC_COUNT], nh[MC_COUNT], nf[MC_COUNT];
    int64_t c[C_COUNT];
    uint64_t tick;
    int64_t vclock;
    int grant[2];

    /* L1s: per core, sets x ways slots. */
    int l1_ways, l1_sets;
    uint64_t l1_mask;
    int64_t l1_slots;
    uint64_t *l1_blk, *l1_lu;
    int64_t *l1_ver;
    uint8_t *l1_state, *l1_dirty;
    int32_t *l1_occ;
    int64_t *l1_fills, *l1_removals;
    map_t *cov; /* per core: blocks a directory eviction destroyed */

    /* LLC. */
    int llc_ways;
    uint64_t llc_mask;
    uint64_t *llc_blk, *llc_lu;
    int64_t *llc_ver;
    uint8_t *llc_dirty, *llc_stash;
    int32_t *llc_occ;
    map_t memver;
    int64_t stash_bits;

    /* Directory. */
    int kind, stash_capable, excl_only, clean_notice;
    map_t dmap; /* block -> entry index */
    entry_t *ent;
    uint64_t *emask;
    int32_t ent_cap, ent_free;
    int64_t dir_occ_total;
    int dways;
    uint64_t dir_mask;
    int32_t *dslot;    /* set-associative / cuckoo slots -> entry, -1 free */
    uint64_t *dir_lu;  /* set-associative LRU stamps */
    int32_t *dir_occ;  /* set-associative per-set occupancy */
    /* cuckoo */
    int cd, crand_bits, cmax_path;
    int64_t cspw, cfree;
    int64_t *ccand;
    mt_t rng;
    /* SCD */
    int64_t scd_capacity, scd_lines;
    int scd_pointers, scd_leaf;
    int32_t lru_head, lru_tail;

    /* The interleave. */
    struct heap_item *heap;
    int64_t *cursors;
};

static void fail_nomem(M *m)
{
    m->rc = RC_NOMEM;
    snprintf(m->error, (size_t)m->error_len, "native kernel out of memory");
    longjmp(m->jb, 1);
}

static void fail(M *m, const char *fmt, ...)
{
    va_list ap;
    m->rc = RC_PROTOCOL;
    va_start(ap, fmt);
    vsnprintf(m->error, (size_t)m->error_len, fmt, ap);
    va_end(ap);
    longjmp(m->jb, 1);
}

static void *xcalloc(M *m, size_t count, size_t size)
{
    void *p = calloc(count ? count : 1, size);
    if (p == NULL)
        fail_nomem(m);
    return p;
}

/* -- NoC ------------------------------------------------------------------ */

static inline int64_t send(M *m, int src, int dst, int ci)
{
    int64_t at = (int64_t)src * m->stride + dst;
    int64_t h = m->hops[at];
    m->nm[ci] += 1;
    m->nh[ci] += h;
    m->nf[ci] += h * m->flits[ci];
    return m->lats[at];
}

/* -- sharer masks --------------------------------------------------------- */

#define EMASK(m, e) ((m)->emask + (int64_t)(e) * (m)->W)

static inline int mask_popcount(const M *m, const uint64_t *mk)
{
    int w, total = 0;
    for (w = 0; w < m->W; w++)
        total += __builtin_popcountll(mk[w]);
    return total;
}

static inline int mask_empty(const M *m, const uint64_t *mk)
{
    int w;
    for (w = 0; w < m->W; w++)
        if (mk[w])
            return 0;
    return 1;
}

/* Any bit set in [lo, hi)? */
static int mask_range_any(const uint64_t *mk, int lo, int hi)
{
    while (lo < hi) {
        int w = lo >> 6, b = lo & 63, take = 64 - b;
        uint64_t bits;
        if (take > hi - lo)
            take = hi - lo;
        bits = mk[w] >> b;
        if (take < 64)
            bits &= (1ULL << take) - 1;
        if (bits)
            return 1;
        lo += take;
    }
    return 0;
}

/* _FlatScd.recount: 1 line, or 1 root plus one per touched leaf group
 * once the sharers exceed the pointer budget. */
static void scd_recount(M *m, int32_t e)
{
    const uint64_t *mk = EMASK(m, e);
    int32_t lines = 1;
    if (mask_popcount(m, mk) > m->scd_pointers) {
        int lo;
        for (lo = 0; lo < m->W * 64; lo += m->scd_leaf) {
            int hi = lo + m->scd_leaf;
            if (hi > m->W * 64)
                hi = m->W * 64;
            if (mask_range_any(mk, lo, hi))
                lines++;
        }
    }
    m->scd_lines += lines - m->ent[e].lines;
    m->ent[e].lines = lines;
}

static inline void add_sharer(M *m, int32_t e, int core)
{
    EMASK(m, e)[core >> 6] |= 1ULL << (core & 63);
    if (m->kind == DK_SCD)
        scd_recount(m, e);
}

static inline void remove_sharer(M *m, int32_t e, int core)
{
    EMASK(m, e)[core >> 6] &= ~(1ULL << (core & 63));
    if (m->kind == DK_SCD)
        scd_recount(m, e);
}

/* _remove_core: drop ``core`` from the set and from ownership. */
static inline void remove_core(M *m, int32_t e, int core)
{
    remove_sharer(m, e, core);
    if (m->ent[e].owner == core)
        m->ent[e].owner = -1;
}

static inline void grant_exclusive(M *m, int32_t e, int core)
{
    memset(EMASK(m, e), 0, sizeof(uint64_t) * (size_t)m->W);
    add_sharer(m, e, core);
    m->ent[e].owner = core;
}

/* -- directory entries and the block map ---------------------------------- */

static int32_t new_entry(M *m, uint64_t blk, int32_t pos)
{
    int32_t e;
    entry_t *en;
    if (m->ent_free < 0) {
        int32_t cap = m->ent_cap ? m->ent_cap * 2 : 64, i;
        entry_t *ent = realloc(m->ent, sizeof(entry_t) * (size_t)cap);
        uint64_t *emask;
        if (ent == NULL)
            fail_nomem(m);
        m->ent = ent;
        emask = realloc(m->emask, sizeof(uint64_t) * (size_t)cap * (size_t)m->W);
        if (emask == NULL)
            fail_nomem(m);
        m->emask = emask;
        for (i = cap - 1; i >= m->ent_cap; i--) {
            m->ent[i].next = m->ent_free;
            m->ent_free = i;
        }
        m->ent_cap = cap;
    }
    e = m->ent_free;
    en = &m->ent[e];
    m->ent_free = en->next;
    en->blk = blk;
    en->owner = -1;
    en->pos = pos;
    en->lines = 0;
    en->prev = en->next = -1;
    memset(EMASK(m, e), 0, sizeof(uint64_t) * (size_t)m->W);
    return e;
}

static inline void free_entry(M *m, int32_t e)
{
    m->ent[e].next = m->ent_free;
    m->ent_free = e;
}

static void lru_unlink(M *m, int32_t e)
{
    entry_t *en = &m->ent[e];
    if (en->prev >= 0)
        m->ent[en->prev].next = en->next;
    else
        m->lru_head = en->next;
    if (en->next >= 0)
        m->ent[en->next].prev = en->prev;
    else
        m->lru_tail = en->prev;
    en->prev = en->next = -1;
}

static void lru_append(M *m, int32_t e)
{
    entry_t *en = &m->ent[e];
    en->prev = m->lru_tail;
    en->next = -1;
    if (m->lru_tail >= 0)
        m->ent[m->lru_tail].next = e;
    else
        m->lru_head = e;
    m->lru_tail = e;
}

/* ``dmap[blk] = e`` (SCD: at the MRU end). */
static inline void dmap_insert(M *m, uint64_t blk, int32_t e)
{
    map_put(m, &m->dmap, blk, e);
    if (m->kind == DK_SCD)
        lru_append(m, e);
}

/* ``del dmap[blk]`` for the tracked entry ``e``. */
static inline void dmap_remove(M *m, int32_t e)
{
    map_del(&m->dmap, m->ent[e].blk);
    if (m->kind == DK_SCD)
        lru_unlink(m, e);
}

/* The directory lookup's replacement touch on a hit. */
static inline void dir_touch(M *m, int32_t e)
{
    if (m->kind == DK_SETASSOC) {
        m->dir_lu[m->ent[e].pos] = ++m->tick;
    } else if (m->kind == DK_SCD && m->lru_tail != e) {
        lru_unlink(m, e);
        lru_append(m, e);
    }
}

/* Deallocate the tracked entry ``e`` (_dir_deallocate). */
static void dir_deallocate(M *m, int32_t e)
{
    dmap_remove(m, e);
    m->c[C_DIR_DEALLOCS]++;
    m->dir_occ_total--;
    if (m->kind == DK_SETASSOC) {
        int32_t pos = m->ent[e].pos;
        m->dslot[pos] = -1;
        m->dir_occ[pos / m->dways]--;
    } else if (m->kind == DK_CUCKOO) {
        m->dslot[m->ent[e].pos] = -1;
        m->cfree++;
    } else if (m->kind == DK_SCD) {
        m->scd_lines -= m->ent[e].lines;
    }
    free_entry(m, e);
}

/* -- caches --------------------------------------------------------------- */

static inline int64_t l1_find(const M *m, int core, uint64_t blk)
{
    int64_t base = (int64_t)core * m->l1_slots + (int64_t)(blk & m->l1_mask) * m->l1_ways;
    int w;
    for (w = 0; w < m->l1_ways; w++)
        if (m->l1_blk[base + w] == blk)
            return base + w;
    return -1;
}

static inline void l1_remove(M *m, int core, int64_t pos)
{
    m->l1_blk[pos] = EMPTY;
    m->l1_occ[pos / m->l1_ways]--;
    m->l1_removals[core]++;
}

static inline int64_t llc_find(const M *m, uint64_t blk)
{
    int64_t base = (int64_t)(blk & m->llc_mask) * m->llc_ways;
    int w;
    for (w = 0; w < m->llc_ways; w++)
        if (m->llc_blk[base + w] == blk)
            return base + w;
    return -1;
}

static void llc_write_back(M *m, uint64_t blk, int64_t version)
{
    int64_t slot = llc_find(m, blk);
    if (slot < 0)
        fail(m, "writeback to LLC-absent block 0x%" PRIx64, blk);
    m->llc_dirty[slot] = 1;
    if (version > m->llc_ver[slot])
        m->llc_ver[slot] = version;
    m->c[C_LLC_WB_ABSORBED]++;
}

/* ``llcmap[blk][2]`` for a block the protocol requires to be resident. */
static int64_t llc_version(M *m, uint64_t blk)
{
    int64_t slot = llc_find(m, blk);
    if (slot < 0)
        fail(m, "directory-tracked block 0x%" PRIx64 " absent from the LLC", blk);
    return m->llc_ver[slot];
}

static inline int cov_take(M *m, int core, uint64_t blk)
{
    return m->cov[core].count ? map_del(&m->cov[core], blk) : 0;
}

/* -- home controller ------------------------------------------------------ */

/* Invalidate the victim entry's holders (_invalidate_victim_entry). */
static int64_t invalidate_victim_entry(M *m, int32_t victim, uint64_t vaddr, int home)
{
    int64_t worst = 0;
    int w;
    for (w = 0; w < m->W; w++) {
        uint64_t bits = EMASK(m, victim)[w];
        while (bits) {
            int target = w * 64 + __builtin_ctzll(bits);
            int64_t rt, pos;
            bits &= bits - 1;
            m->c[C_DIR_EV_INVAL_MSGS]++;
            rt = send(m, home, target, MC_INVALIDATION);
            rt += send(m, target, home, MC_INV_ACK);
            if (rt > worst)
                worst = rt;
            pos = l1_find(m, target, vaddr);
            if (pos >= 0) {
                int dirty = m->l1_dirty[pos];
                int64_t version = m->l1_ver[pos];
                l1_remove(m, target, pos);
                m->c[C_DIR_INDUCED]++;
                map_put(m, &m->cov[target], vaddr, 1);
                if (dirty) {
                    send(m, target, home, MC_WRITEBACK);
                    llc_write_back(m, vaddr, version);
                }
            }
        }
    }
    return worst;
}

static int64_t execute_eviction(M *m, int32_t victim, int stash_action, int home)
{
    uint64_t vaddr = m->ent[victim].blk;
    if (stash_action) {
        int64_t slot = llc_find(m, vaddr);
        if (slot < 0)
            fail(m, "stash bit for block 0x%" PRIx64 " not resident in the LLC", vaddr);
        if (!m->llc_stash[slot]) {
            m->llc_stash[slot] = 1;
            m->stash_bits++;
            m->c[C_STASH_SET]++;
        }
        m->c[C_STASH_EVICTIONS]++;
        return 0;
    }
    if (mask_popcount(m, EMASK(m, victim)) == 1)
        m->c[C_DIR_EV_PRIVATE]++;
    else
        m->c[C_DIR_EV_SHARED]++;
    return invalidate_victim_entry(m, victim, vaddr, home);
}

/* _FlatCuckoo.allocate: place a fresh entry, returning any victim (-1). */
static int32_t cuckoo_allocate(M *m, int32_t entry)
{
    int d = m->cd, step, way, offset;
    int64_t relocations = 0, *cand = m->ccand;
    int32_t homeless = entry;
    int last_way = -1;
    int scan = m->cfree > 0;
    for (step = 0; step <= m->cmax_path; step++) {
        uint64_t haddr = m->ent[homeless].blk;
        int pick = -1, fallback = -1;
        uint32_t r;
        int64_t pos;
        int32_t displaced;
        for (way = 0; way < d; way++) {
            uint64_t x = haddr + (uint64_t)(way + 1) * 0x9E3779B97F4A7C15ULL;
            x ^= x >> 33;
            x *= 0xFF51AFD7ED558CCDULL;
            x ^= x >> 33;
            x *= 0xC4CEB9FE1A85EC53ULL;
            x ^= x >> 33;
            cand[way] = (int64_t)way * m->cspw + (int64_t)(x % (uint64_t)m->cspw);
        }
        if (scan) {
            for (way = 0; way < d; way++) {
                if (m->dslot[cand[way]] < 0) {
                    m->dslot[cand[way]] = homeless;
                    m->ent[homeless].pos = (int32_t)cand[way];
                    if (homeless != entry)
                        relocations++;
                    m->c[C_DIR_RELOCATIONS] += relocations;
                    m->cfree--;
                    return -1;
                }
            }
        }
        /* All candidates full: displace a random way's occupant, never the
         * new entry, preferring not to refill the way just left. */
        r = getrandbits(&m->rng, m->crand_bits);
        while (r >= (uint32_t)d)
            r = getrandbits(&m->rng, m->crand_bits);
        for (offset = 0; offset < d; offset++) {
            way = (int)r + offset;
            if (way >= d)
                way -= d;
            if (m->dslot[cand[way]] == entry)
                continue;
            if (way == last_way) {
                fallback = way;
                continue;
            }
            pick = way;
            break;
        }
        if (pick < 0)
            pick = fallback;
        if (pick < 0)
            break; /* only the new entry's slot remains */
        pos = cand[pick];
        displaced = m->dslot[pos];
        m->dslot[pos] = homeless;
        m->ent[homeless].pos = (int32_t)pos;
        if (homeless != entry)
            relocations++;
        homeless = displaced;
        last_way = pick;
    }
    m->c[C_DIR_RELOCATIONS] += relocations;
    return homeless;
}

/* _dir_allocate: track ``blk`` (a fresh, empty entry) and return the latency
 * of any eviction it forced. */
static int64_t dir_allocate(M *m, uint64_t blk, int home)
{
    int32_t e, victim = -1;
    int stash_action = 0;
    int64_t latency;
    if (m->kind == DK_IDEAL) {
        e = new_entry(m, blk, -1);
        dmap_insert(m, blk, e);
        m->c[C_DIR_ALLOCS]++;
        m->dir_occ_total++;
        return 0;
    }
    if (m->kind == DK_CUCKOO || m->kind == DK_SCD) {
        if (m->kind == DK_CUCKOO) {
            e = new_entry(m, blk, -1);
            victim = cuckoo_allocate(m, e);
        } else {
            if (m->scd_lines + 1 > m->scd_capacity && m->dmap.count) {
                victim = m->lru_head;
                m->scd_lines -= m->ent[victim].lines;
            }
            m->scd_lines += 1;
            e = new_entry(m, blk, -1);
            m->ent[e].lines = 1;
        }
        m->c[C_DIR_ALLOCS]++;
        if (victim < 0) {
            dmap_insert(m, blk, e);
            m->dir_occ_total++;
            return 0;
        }
        dmap_remove(m, victim);
        dmap_insert(m, blk, e);
        m->c[C_DIR_EVICTIONS]++;
        m->c[C_DIR_EV_ACT_INVAL]++;
        latency = execute_eviction(m, victim, 0, home);
        free_entry(m, victim);
        return latency;
    }
    {
        int dways = m->dways;
        int64_t s = (int64_t)(blk & m->dir_mask), base = s * dways, vpos = -1, pos;
        if (m->dir_occ[s] == dways) {
            uint64_t best_lu = 0;
            if (m->stash_capable) {
                /* Prefer the LRU stash-eligible entry (ascending-way scan
                 * keeps the lowest-way tie preference). */
                for (pos = base; pos < base + dways; pos++) {
                    int32_t ev = m->dslot[pos];
                    if (mask_popcount(m, EMASK(m, ev)) == 1 &&
                        (!m->excl_only || m->ent[ev].owner >= 0)) {
                        if (vpos < 0 || m->dir_lu[pos] < best_lu) {
                            vpos = pos;
                            best_lu = m->dir_lu[pos];
                        }
                    }
                }
                if (vpos >= 0)
                    stash_action = 1;
                else
                    m->c[C_DIR_FORCED]++;
            }
            if (vpos < 0) {
                vpos = base;
                best_lu = m->dir_lu[base];
                for (pos = base + 1; pos < base + dways; pos++) {
                    if (m->dir_lu[pos] < best_lu) {
                        vpos = pos;
                        best_lu = m->dir_lu[pos];
                    }
                }
            }
            victim = m->dslot[vpos];
            dmap_remove(m, victim);
            m->c[C_DIR_EVICTIONS]++;
            if (stash_action)
                m->c[C_DIR_EV_ACT_STASH]++;
            else
                m->c[C_DIR_EV_ACT_INVAL]++;
        } else {
            vpos = base;
            while (m->dslot[vpos] >= 0)
                vpos++;
        }
        e = new_entry(m, blk, (int32_t)vpos);
        m->dslot[vpos] = e;
        dmap_insert(m, blk, e);
        m->dir_lu[vpos] = ++m->tick;
        m->c[C_DIR_ALLOCS]++;
        if (victim < 0) {
            m->dir_occ[s]++;
            m->dir_occ_total++;
            return 0;
        }
        latency = execute_eviction(m, victim, stash_action, home);
        free_entry(m, victim);
        return latency;
    }
}

/* Invalidate every holder but ``skip`` / ``also_skip`` (_invalidate_targets). */
static int64_t invalidate_targets(M *m, int32_t e, uint64_t blk, int home, int skip, int also_skip)
{
    int64_t worst = 0;
    int w;
    for (w = 0; w < m->W; w++) {
        uint64_t bits = EMASK(m, e)[w];
        while (bits) {
            int target = w * 64 + __builtin_ctzll(bits);
            int64_t rt, pos;
            bits &= bits - 1;
            if (target == skip || target == also_skip)
                continue;
            m->c[C_WRITE_INVAL_MSGS]++;
            rt = send(m, home, target, MC_INVALIDATION);
            rt += send(m, target, home, MC_INV_ACK);
            if (rt > worst)
                worst = rt;
            pos = l1_find(m, target, blk);
            if (pos >= 0) {
                int dirty = m->l1_dirty[pos];
                l1_remove(m, target, pos);
                if (dirty) {
                    if (!m->moesi)
                        fail(m, "dirty copy of 0x%" PRIx64 " at non-owner core %d", blk, target);
                    m->c[C_OWNED_DROPPED]++;
                }
            }
        }
    }
    return worst;
}

/* Broadcast discovery probe (_discover); ``demand``: 0 read, 1 write,
 * 2 evict.  Returns the hider (-1 if none); sets the dirty version and the
 * round-trip latency. */
static int discover(M *m, int home, uint64_t blk, int demand, int exclude,
                    int *has_dirty, int64_t *dirty_version, int64_t *worst_out)
{
    int64_t worst = 0, fanout = 0;
    int dst, hider = -1;
    for (dst = 0; dst < m->n; dst++) {
        int64_t rt;
        if (dst == exclude)
            continue;
        fanout++;
        rt = send(m, home, dst, MC_DISCOVERY_PROBE);
        rt += send(m, dst, home, MC_DISCOVERY_REPLY);
        if (rt > worst)
            worst = rt;
    }
    m->c[C_DISC_BROADCASTS]++;
    m->c[C_DISC_PROBES] += fanout;
    *has_dirty = 0;
    for (dst = 0; dst < m->n; dst++) {
        int64_t pos;
        int was_dirty;
        int64_t version;
        if (dst == exclude)
            continue;
        pos = l1_find(m, dst, blk);
        if (pos < 0)
            continue;
        if (hider >= 0)
            fail(m, "two hidden copies of block 0x%" PRIx64, blk);
        hider = dst;
        was_dirty = m->l1_dirty[pos];
        version = m->l1_ver[pos];
        if (demand == 0) {
            m->l1_state[pos] = ST_SHARED;
            m->l1_dirty[pos] = 0;
        } else {
            l1_remove(m, dst, pos);
        }
        if (was_dirty) {
            *has_dirty = 1;
            *dirty_version = version;
            send(m, dst, home, MC_WRITEBACK);
        }
    }
    if (hider < 0)
        m->c[C_DISC_FALSE]++;
    else
        m->c[C_DISC_SUCCESS]++;
    *worst_out = worst;
    return hider;
}

static void handle_llc_eviction(M *m, int64_t vslot, int home)
{
    uint64_t vblk = m->llc_blk[vslot];
    int64_t version = m->llc_ver[vslot];
    int dirty = m->llc_dirty[vslot];
    int32_t e = (int32_t)map_get(&m->dmap, vblk);
    m->c[C_LLC_EVICTIONS]++;
    if (e >= 0) {
        int w;
        for (w = 0; w < m->W; w++) {
            uint64_t bits = EMASK(m, e)[w];
            while (bits) {
                int target = w * 64 + __builtin_ctzll(bits);
                int64_t pos;
                bits &= bits - 1;
                send(m, home, target, MC_INVALIDATION);
                send(m, target, home, MC_INV_ACK);
                pos = l1_find(m, target, vblk);
                if (pos >= 0) {
                    int ldirty = m->l1_dirty[pos];
                    int64_t lver = m->l1_ver[pos];
                    l1_remove(m, target, pos);
                    m->c[C_LLC_BACK_INVALS]++;
                    if (ldirty) {
                        send(m, target, home, MC_WRITEBACK);
                        dirty = 1;
                        if (lver > version)
                            version = lver;
                    }
                }
            }
        }
        dir_deallocate(m, e);
    } else if (m->stash_capable && m->llc_stash[vslot]) {
        int has_dirty;
        int64_t dirty_version = 0, unused;
        int hider = discover(m, home, vblk, 2, -1, &has_dirty, &dirty_version, &unused);
        if (hider >= 0)
            m->c[C_LLC_BACK_INVALS]++;
        if (has_dirty) {
            dirty = 1;
            if (dirty_version > version)
                version = dirty_version;
        }
    }
    /* Remove the line. */
    m->llc_blk[vslot] = EMPTY;
    m->llc_occ[vslot / m->llc_ways]--;
    m->c[C_LLC_REMOVALS]++;
    if (m->llc_stash[vslot]) {
        m->stash_bits--;
        m->llc_stash[vslot] = 0;
    }
    if (dirty) {
        send(m, home, home, MC_MEMORY);
        m->c[C_MEM_WRITES]++;
        map_put(m, &m->memver, vblk, version);
    }
}

/* _llc_miss: fetch from memory, fill the LLC, allocate the directory entry.
 * Returns the latency; sets the granted state and the line's version. */
static int64_t llc_miss(M *m, int core, uint64_t blk, int w, int home, int64_t latency,
                        int *state, int64_t *version)
{
    int ways = m->llc_ways;
    int64_t s = (int64_t)(blk & m->llc_mask), base = s * ways, pos, slot;
    int64_t mv;
    int32_t e;
    m->c[C_LLC_MISSES]++;
    latency += m->t_llc;
    if (m->llc_occ[s] == ways) {
        int64_t vpos = base;
        uint64_t best = m->llc_lu[base];
        for (pos = base + 1; pos < base + ways; pos++) {
            if (m->llc_lu[pos] < best) {
                best = m->llc_lu[pos];
                vpos = pos;
            }
        }
        handle_llc_eviction(m, vpos, home);
    }
    /* Two uncharged MEMORY self-sends bracket the charged t_mem. */
    m->nm[MC_MEMORY] += 2;
    latency += m->t_mem;
    m->c[C_MEM_READS]++;
    slot = base;
    while (m->llc_blk[slot] != EMPTY)
        slot++;
    m->llc_lu[slot] = ++m->tick;
    m->llc_blk[slot] = blk;
    m->llc_occ[s]++;
    m->c[C_LLC_FILLS]++;
    m->llc_dirty[slot] = 0;
    m->llc_stash[slot] = 0;
    mv = map_get(&m->memver, blk);
    m->llc_ver[slot] = mv < 0 ? 0 : mv;
    latency += dir_allocate(m, blk, home);
    e = (int32_t)map_get(&m->dmap, blk);
    grant_exclusive(m, e, core);
    latency += send(m, home, core, MC_DATA_RESPONSE);
    *state = m->grant[w];
    *version = m->llc_ver[slot];
    return latency;
}

/* _serve_from_llc */
static inline int64_t serve_from_llc(M *m, int core, int home)
{
    m->c[C_LLC_HITS]++;
    return m->t_llc + send(m, home, core, MC_DATA_RESPONSE);
}

static int64_t discover_and_serve(M *m, int core, uint64_t blk, int w, int home,
                                  int64_t latency, int *state, int64_t *version)
{
    int has_dirty;
    int64_t dirty_version = 0, disc_latency, slot;
    int32_t e;
    int hider = discover(m, home, blk, w ? 1 : 0, core, &has_dirty, &dirty_version,
                         &disc_latency);
    latency += disc_latency;
    slot = llc_find(m, blk);
    if (slot < 0)
        fail(m, "directory-tracked block 0x%" PRIx64 " absent from the LLC", blk);
    if (m->llc_stash[slot]) {
        m->llc_stash[slot] = 0;
        m->stash_bits--;
        m->c[C_STASH_CLEARED]++;
    }
    if (has_dirty)
        llc_write_back(m, blk, dirty_version);
    latency += dir_allocate(m, blk, home);
    e = (int32_t)map_get(&m->dmap, blk);
    if (hider >= 0 && !w) {
        add_sharer(m, e, hider);
        add_sharer(m, e, core);
        latency += serve_from_llc(m, core, home);
        *state = ST_SHARED;
    } else {
        grant_exclusive(m, e, core);
        latency += serve_from_llc(m, core, home);
        *state = m->grant[w];
    }
    *version = m->llc_ver[slot];
    return latency;
}

/* _retire_holder: a clean copy leaves ``core``'s L1 with a notice. */
static void retire_holder(M *m, int core, uint64_t blk)
{
    int32_t e = (int32_t)map_get(&m->dmap, blk);
    if (e >= 0) {
        remove_core(m, e, core);
        if (mask_empty(m, EMASK(m, e))) {
            dir_deallocate(m, e);
            m->c[C_EMPTY_DEALLOCS]++;
        }
        return;
    }
    if (m->stash_capable) {
        int64_t slot = llc_find(m, blk);
        if (slot >= 0 && m->llc_stash[slot]) {
            m->llc_stash[slot] = 0;
            m->stash_bits--;
            m->c[C_STASH_CLEARED]++;
        }
    }
}

/* _upgrade: a write to a SHARED/OWNED line, serialized at the home. */
static int64_t upgrade(M *m, int core, uint64_t blk, int64_t lpos)
{
    int home = (int)(blk & m->bank_mask);
    int64_t latency;
    int32_t e;
    m->c[C_UPGRADES]++;
    latency = m->t_l1 + send(m, core, home, MC_REQUEST) + m->t_dir;
    m->c[C_UPGRADE_REQUESTS]++;
    e = (int32_t)map_get(&m->dmap, blk);
    if (e >= 0) {
        m->c[C_DIR_HITS]++;
        dir_touch(m, e);
        latency += invalidate_targets(m, e, blk, home, core, -1);
        grant_exclusive(m, e, core);
    } else {
        int64_t slot;
        m->c[C_DIR_MISSES]++;
        slot = llc_find(m, blk);
        if (!(m->stash_capable && slot >= 0 && m->llc_stash[slot]))
            fail(m, "upgrade for untracked, unstashed block 0x%" PRIx64, blk);
        m->c[C_HIDER_UPGRADES]++;
        m->llc_stash[slot] = 0;
        m->stash_bits--;
        m->c[C_STASH_CLEARED]++;
        latency += dir_allocate(m, blk, home);
        e = (int32_t)map_get(&m->dmap, blk);
        grant_exclusive(m, e, core);
    }
    latency += send(m, home, core, MC_CONTROL_RESPONSE);
    m->l1_state[lpos] = ST_MODIFIED;
    m->l1_dirty[lpos] = 1;
    m->l1_ver[lpos] = ++m->vclock;
    return latency;
}

/* _miss: the whole L1 miss path (victim put-back, home lookup, fill). */
static int64_t miss(M *m, int core, uint64_t blk, int w)
{
    int ways = m->l1_ways;
    int64_t s = (int64_t)(blk & m->l1_mask);
    int64_t occ_at = (int64_t)core * m->l1_sets + s;
    int64_t base = (int64_t)core * m->l1_slots + s * ways, pos;
    int home, state = 0;
    int64_t latency, version = 0;
    int32_t e;

    m->c[C_L1_MISSES]++;
    if (cov_take(m, core, blk))
        m->c[C_COVERAGE]++;
    if (m->l1_occ[occ_at] == ways) {
        int64_t vpos = base;
        uint64_t best = m->l1_lu[base], vblk;
        for (pos = base + 1; pos < base + ways; pos++) {
            if (m->l1_lu[pos] < best) {
                best = m->l1_lu[pos];
                vpos = pos;
            }
        }
        vblk = m->l1_blk[vpos];
        l1_remove(m, core, vpos);
        if (m->l1_dirty[vpos]) {
            /* Dirty victims write back; the ack is uncharged. */
            int vhome = (int)(vblk & m->bank_mask);
            int64_t wslot;
            int32_t ve;
            send(m, core, vhome, MC_WRITEBACK);
            send(m, vhome, core, MC_WB_ACK);
            wslot = llc_find(m, vblk);
            if (wslot < 0)
                fail(m, "writeback to LLC-absent block 0x%" PRIx64, vblk);
            m->llc_dirty[wslot] = 1;
            if (m->l1_ver[vpos] > m->llc_ver[wslot])
                m->llc_ver[wslot] = m->l1_ver[vpos];
            m->c[C_LLC_WB_ABSORBED]++;
            m->c[C_L1_WRITEBACKS]++;
            ve = (int32_t)map_get(&m->dmap, vblk);
            if (ve >= 0) {
                remove_core(m, ve, core);
                if (mask_empty(m, EMASK(m, ve))) {
                    dir_deallocate(m, ve);
                    m->c[C_EMPTY_DEALLOCS]++;
                }
            } else if (m->stash_capable && m->llc_stash[wslot]) {
                m->llc_stash[wslot] = 0;
                m->stash_bits--;
                m->c[C_STASH_CLEARED]++;
            }
        } else if (m->clean_notice) {
            int vhome = (int)(vblk & m->bank_mask);
            send(m, core, vhome, MC_EVICTION_NOTICE);
            m->c[C_CLEAN_NOTICES]++;
            retire_holder(m, core, vblk);
        } else {
            m->c[C_SILENT_CLEAN]++;
        }
    }
    home = (int)(blk & m->bank_mask);
    latency = m->t_l1 + send(m, core, home, MC_REQUEST) + m->t_dir;
    e = (int32_t)map_get(&m->dmap, blk);
    if (e >= 0) {
        int owner;
        m->c[C_DIR_HITS]++;
        dir_touch(m, e);
        owner = m->ent[e].owner;
        if (!w) {
            /* -- directory hit, read */
            if (owner >= 0 && owner != core) {
                int64_t opos;
                m->c[C_FORWARDS]++;
                latency += send(m, home, owner, MC_FORWARD);
                opos = l1_find(m, owner, blk);
                if (opos < 0) {
                    m->c[C_FORWARD_NACKS]++;
                    latency += send(m, owner, home, MC_CONTROL_RESPONSE);
                    remove_core(m, e, owner);
                    m->c[C_LLC_HITS]++;
                    latency += m->t_llc + send(m, home, core, MC_DATA_RESPONSE);
                    add_sharer(m, e, core);
                    state = ST_SHARED;
                    version = llc_version(m, blk);
                } else {
                    int was_dirty = m->l1_dirty[opos];
                    version = m->l1_ver[opos];
                    if (m->moesi && was_dirty) {
                        if (m->l1_state[opos] == ST_MODIFIED)
                            m->l1_state[opos] = ST_OWNED;
                        m->c[C_OWNED_TRANSITIONS]++;
                        latency += send(m, owner, core, MC_DATA_RESPONSE) + m->t_l1;
                        add_sharer(m, e, core);
                        state = ST_SHARED;
                    } else {
                        m->l1_state[opos] = ST_SHARED;
                        m->l1_dirty[opos] = 0;
                        if (was_dirty) {
                            send(m, owner, home, MC_WRITEBACK);
                            llc_write_back(m, blk, version);
                        }
                        latency += send(m, owner, core, MC_DATA_RESPONSE) + m->t_l1;
                        m->ent[e].owner = -1; /* demote owner */
                        add_sharer(m, e, core);
                        state = ST_SHARED;
                        if (!was_dirty)
                            version = llc_version(m, blk);
                    }
                }
            } else {
                if (owner == core)
                    m->c[C_SELF_REGRANTS]++;
                m->c[C_LLC_HITS]++;
                latency += m->t_llc + send(m, home, core, MC_DATA_RESPONSE);
                if (owner == core) {
                    grant_exclusive(m, e, core);
                    state = ST_EXCLUSIVE;
                } else {
                    add_sharer(m, e, core);
                    state = ST_SHARED;
                }
                version = llc_version(m, blk);
            }
        } else {
            /* -- directory hit, write */
            if (owner >= 0 && owner != core) {
                int64_t opos;
                if (m->moesi && mask_popcount(m, EMASK(m, e)) > 1)
                    latency += invalidate_targets(m, e, blk, home, core, owner);
                m->c[C_FORWARDS]++;
                latency += send(m, home, owner, MC_FORWARD);
                opos = l1_find(m, owner, blk);
                if (opos < 0) {
                    m->c[C_FORWARD_NACKS]++;
                    latency += send(m, owner, home, MC_CONTROL_RESPONSE);
                    remove_core(m, e, owner);
                    m->c[C_LLC_HITS]++;
                    latency += m->t_llc + send(m, home, core, MC_DATA_RESPONSE);
                    version = llc_version(m, blk);
                } else {
                    int odirty = m->l1_dirty[opos];
                    int64_t over = m->l1_ver[opos];
                    l1_remove(m, owner, opos);
                    version = odirty ? over : llc_version(m, blk);
                    latency += send(m, owner, core, MC_DATA_RESPONSE) + m->t_l1;
                }
                grant_exclusive(m, e, core);
                state = ST_MODIFIED;
            } else {
                if (owner == core)
                    m->c[C_SELF_REGRANTS]++;
                else
                    latency += invalidate_targets(m, e, blk, home, core, -1);
                m->c[C_LLC_HITS]++;
                latency += m->t_llc + send(m, home, core, MC_DATA_RESPONSE);
                grant_exclusive(m, e, core);
                state = ST_MODIFIED;
                version = llc_version(m, blk);
            }
        }
    } else {
        /* -- directory miss */
        int64_t lslot;
        m->c[C_DIR_MISSES]++;
        lslot = llc_find(m, blk);
        if (lslot >= 0) {
            /* Demand probe: touches the LLC LRU. */
            m->llc_lu[lslot] = ++m->tick;
            if (m->stash_capable && m->llc_stash[lslot]) {
                latency = discover_and_serve(m, core, blk, w, home, latency, &state, &version);
            } else {
                latency += dir_allocate(m, blk, home);
                e = (int32_t)map_get(&m->dmap, blk);
                grant_exclusive(m, e, core);
                m->c[C_LLC_HITS]++;
                latency += m->t_llc + send(m, home, core, MC_DATA_RESPONSE);
                state = m->grant[w];
                version = m->llc_ver[lslot];
            }
        } else {
            latency = llc_miss(m, core, blk, w, home, latency, &state, &version);
        }
    }
    /* L1 fill (a back-invalidation mid-miss can free a second way; the
     * lowest free way wins). */
    pos = base;
    while (m->l1_blk[pos] != EMPTY)
        pos++;
    m->l1_lu[pos] = ++m->tick;
    m->l1_blk[pos] = blk;
    m->l1_occ[occ_at]++;
    m->l1_fills[core]++;
    m->l1_state[pos] = (uint8_t)state;
    m->l1_dirty[pos] = state == ST_MODIFIED;
    m->l1_ver[pos] = w ? ++m->vclock : version;
    return latency;
}

/* -- set-up and teardown -------------------------------------------------- */

static void machine_free(M *m)
{
    int core;
    free(m->l1_blk);
    free(m->l1_lu);
    free(m->l1_ver);
    free(m->l1_state);
    free(m->l1_dirty);
    free(m->l1_occ);
    if (m->cov != NULL)
        for (core = 0; core < m->n; core++)
            map_free(&m->cov[core]);
    free(m->cov);
    free(m->llc_blk);
    free(m->llc_lu);
    free(m->llc_ver);
    free(m->llc_dirty);
    free(m->llc_stash);
    free(m->llc_occ);
    map_free(&m->memver);
    map_free(&m->dmap);
    free(m->ent);
    free(m->emask);
    free(m->dslot);
    free(m->dir_lu);
    free(m->dir_occ);
    free(m->ccand);
    free(m->heap);
    free(m->cursors);
}

static void machine_init(M *m, const repro_config *cfg)
{
    int64_t l1_total, llc_slots, i;
    m->n = (int)cfg->num_cores;
    m->W = (m->n + 63) / 64;
    m->bank_mask = (uint64_t)(cfg->num_cores - 1);
    m->moesi = (int)cfg->moesi;
    m->t_l1 = cfg->t_l1;
    m->t_dir = cfg->t_dir;
    m->t_llc = cfg->t_llc;
    m->t_mem = cfg->t_mem;
    m->hops = cfg->hops;
    m->lats = cfg->lats;
    m->flits = cfg->flits;
    m->stride = cfg->noc_stride;
    m->grant[0] = (int)cfg->grant[0];
    m->grant[1] = (int)cfg->grant[1];

    m->l1_ways = (int)cfg->l1_ways;
    m->l1_sets = (int)cfg->l1_sets;
    m->l1_mask = (uint64_t)(cfg->l1_sets - 1);
    m->l1_slots = cfg->l1_sets * cfg->l1_ways;
    l1_total = m->l1_slots * m->n;
    m->l1_blk = xcalloc(m, (size_t)l1_total, sizeof(uint64_t));
    for (i = 0; i < l1_total; i++)
        m->l1_blk[i] = EMPTY;
    m->l1_lu = xcalloc(m, (size_t)l1_total, sizeof(uint64_t));
    m->l1_ver = xcalloc(m, (size_t)l1_total, sizeof(int64_t));
    m->l1_state = xcalloc(m, (size_t)l1_total, 1);
    m->l1_dirty = xcalloc(m, (size_t)l1_total, 1);
    m->l1_occ = xcalloc(m, (size_t)(cfg->l1_sets * m->n), sizeof(int32_t));
    m->l1_fills = cfg->l1_fills;
    m->l1_removals = cfg->l1_removals;
    m->cov = xcalloc(m, (size_t)m->n, sizeof(map_t));

    m->llc_ways = (int)cfg->llc_ways;
    m->llc_mask = (uint64_t)(cfg->llc_sets - 1);
    llc_slots = cfg->llc_sets * cfg->llc_ways;
    m->llc_blk = xcalloc(m, (size_t)llc_slots, sizeof(uint64_t));
    for (i = 0; i < llc_slots; i++)
        m->llc_blk[i] = EMPTY;
    m->llc_lu = xcalloc(m, (size_t)llc_slots, sizeof(uint64_t));
    m->llc_ver = xcalloc(m, (size_t)llc_slots, sizeof(int64_t));
    m->llc_dirty = xcalloc(m, (size_t)llc_slots, 1);
    m->llc_stash = xcalloc(m, (size_t)llc_slots, 1);
    m->llc_occ = xcalloc(m, (size_t)cfg->llc_sets, sizeof(int32_t));

    m->kind = (int)cfg->dir_kind;
    m->stash_capable = (int)cfg->stash_capable;
    m->excl_only = (int)cfg->excl_only;
    m->clean_notice = (int)cfg->clean_notice;
    m->ent_free = -1;
    m->lru_head = m->lru_tail = -1;
    map_init(m, &m->dmap, 10);
    if (m->kind == DK_SETASSOC || m->kind == DK_CUCKOO) {
        m->dslot = xcalloc(m, (size_t)cfg->dir_entries, sizeof(int32_t));
        for (i = 0; i < cfg->dir_entries; i++)
            m->dslot[i] = -1;
    }
    if (m->kind == DK_SETASSOC) {
        int64_t dsets = cfg->dir_entries / cfg->dir_ways;
        m->dways = (int)cfg->dir_ways;
        m->dir_mask = (uint64_t)(dsets - 1);
        m->dir_lu = xcalloc(m, (size_t)cfg->dir_entries, sizeof(uint64_t));
        m->dir_occ = xcalloc(m, (size_t)dsets, sizeof(int32_t));
    } else if (m->kind == DK_CUCKOO) {
        int bits = 0;
        m->cd = (int)cfg->dir_ways;
        while ((1 << bits) <= m->cd)
            bits++; /* d.bit_length() */
        m->crand_bits = bits;
        m->cspw = cfg->dir_entries / cfg->dir_ways;
        m->cfree = cfg->dir_entries;
        m->cmax_path = (int)cfg->cuckoo_max_path;
        m->ccand = xcalloc(m, (size_t)m->cd, sizeof(int64_t));
        mt_load(&m->rng, cfg->mt_state);
    } else if (m->kind == DK_SCD) {
        m->scd_capacity = cfg->dir_entries;
        m->scd_pointers = (int)cfg->scd_pointers;
        m->scd_leaf = (int)cfg->scd_leaf_size;
    }
}

static int check_config(const repro_config *cfg)
{
    int64_t sets[3] = {cfg->l1_sets, cfg->llc_sets, 0};
    int i;
    if (cfg->num_cores < 1 || cfg->trace_cores < 1 || cfg->trace_cores > cfg->num_cores)
        return 0;
    if (cfg->noc_stride < cfg->num_cores || cfg->sample_interval < 1)
        return 0;
    if (cfg->l1_ways < 1 || cfg->llc_ways < 1 || cfg->action_len < 10)
        return 0;
    if (cfg->grant[0] < 0 || cfg->grant[0] > 4 || cfg->grant[1] < 0 || cfg->grant[1] > 4)
        return 0;
    if (cfg->dir_kind == DK_SETASSOC)
        sets[2] = cfg->dir_entries / (cfg->dir_ways ? cfg->dir_ways : 1);
    else
        sets[2] = 1;
    for (i = 0; i < 3; i++)
        if (sets[i] < 1 || (sets[i] & (sets[i] - 1)))
            return 0;
    if ((cfg->dir_kind == DK_SETASSOC || cfg->dir_kind == DK_CUCKOO) &&
        (cfg->dir_ways < 1 || cfg->dir_entries < cfg->dir_ways))
        return 0;
    if (cfg->dir_kind == DK_CUCKOO && cfg->dir_ways > 0x7fffffff)
        return 0;
    if (cfg->dir_kind == DK_SCD && cfg->scd_leaf_size < 1)
        return 0;
    return 1;
}

/* -- entry points --------------------------------------------------------- */

const char *repro_native_hash(void)
{
    return REPRO_NATIVE_HASH;
}

/* ``count`` draws of random.Random.getrandbits(k) from a getstate() word
 * block (624 state words + index), for the MT19937 parity test. */
int repro_mt_getrandbits(const uint32_t *state, int k, int64_t count, uint32_t *out)
{
    mt_t r;
    int64_t i;
    if (k < 1 || k > 32)
        return RC_ARGUMENT;
    mt_load(&r, state);
    if (r.mti < 0 || r.mti > 624)
        return RC_ARGUMENT;
    for (i = 0; i < count; i++)
        out[i] = getrandbits(&r, k);
    return RC_OK;
}

typedef struct heap_item {
    int64_t clock;
    int64_t core;
} heap_item;

static inline int heap_less(const heap_item *a, const heap_item *b)
{
    return a->clock < b->clock || (a->clock == b->clock && a->core < b->core);
}

static void heap_push(heap_item *h, int64_t *len, heap_item item)
{
    int64_t i = (*len)++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!heap_less(&item, &h[parent]))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = item;
}

static heap_item heap_pop(heap_item *h, int64_t *len)
{
    heap_item top = h[0], last = h[--(*len)];
    int64_t i = 0, n = *len;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_less(&h[child + 1], &h[child]))
            child++;
        if (!heap_less(&h[child], &last))
            break;
        h[i] = h[child];
        i = child;
    }
    if (n > 0)
        h[i] = last;
    return top;
}

/* The VectorEngine interleave: the core with the smallest (clock, core)
 * issues next, so ties go to the lower core. */
static void run_trace(M *m, repro_config *cfg)
{
    heap_item *heap;
    int64_t *cursors, heap_len = 0, processed = 0, writes = 0, nsamples = 0;
    int64_t ncores = cfg->trace_cores, core, fixed = cfg->fixed;
    int64_t hit_step = m->t_l1 + fixed, next_sample = cfg->sample_interval;
    int packshift = (int)cfg->packshift;
    const int64_t *act = cfg->action;

    heap = m->heap = xcalloc(m, (size_t)ncores, sizeof(heap_item));
    cursors = m->cursors = xcalloc(m, (size_t)ncores, sizeof(int64_t));
    for (core = 0; core < ncores; core++) {
        cfg->clocks[core] = 0;
        if (cfg->lengths[core] > 0) {
            heap_item item = {0, core};
            heap_push(heap, &heap_len, item);
        }
    }
    while (heap_len) {
        heap_item top = heap_pop(heap, &heap_len);
        int c = (int)top.core;
        int64_t clock = top.clock, cur = cursors[c], total = cfg->lengths[c];
        const uint64_t *ops = cfg->streams[c];
        for (;;) {
            uint64_t word = ops[cur++];
            uint64_t blk = word >> packshift;
            int w = (int)(word & 1);
            int64_t pos = l1_find(m, c, blk);
            if (pos >= 0) {
                int64_t a;
                m->l1_lu[pos] = ++m->tick;
                a = act[(m->l1_state[pos] << 1) | w];
                if (a == 1) {
                    clock += hit_step;
                } else if (a == 2) { /* silent write upgrade (E/M) */
                    m->l1_state[pos] = ST_MODIFIED;
                    m->l1_dirty[pos] = 1;
                    m->l1_ver[pos] = ++m->vclock;
                    clock += hit_step;
                } else if (a == 3) { /* home-serialized upgrade (S/O) */
                    clock += upgrade(m, c, blk, pos) + fixed;
                } else {
                    fail(m, "table dispatched resident line 0x%" PRIx64 " to action %" PRId64,
                         blk, a);
                }
            } else {
                clock += miss(m, c, blk, w) + fixed;
            }
            processed++;
            writes += w;
            if (processed == next_sample) {
                next_sample += cfg->sample_interval;
                if (nsamples < cfg->samples_cap)
                    cfg->samples[nsamples] = m->dir_occ_total + m->stash_bits;
                nsamples++;
            }
            if (cur == total)
                break;
            if (heap_len) {
                heap_item me = {clock, c};
                if (heap_less(&heap[0], &me)) {
                    heap_push(heap, &heap_len, me);
                    break;
                }
            }
        }
        cfg->clocks[c] = clock;
        cursors[c] = cur;
    }
    memcpy(cfg->counters, m->c, sizeof(m->c));
    memcpy(cfg->noc, m->nm, sizeof(m->nm));
    memcpy(cfg->noc + MC_COUNT, m->nh, sizeof(m->nh));
    memcpy(cfg->noc + 2 * MC_COUNT, m->nf, sizeof(m->nf));
    cfg->samples_len = nsamples;
    cfg->writes = writes;
}

/* Run the whole trace; 0 on success, else an RC_* code with the message in
 * ``cfg->error``. */
int repro_native_run(repro_config *cfg)
{
    M mach;

    memset(&mach, 0, sizeof(mach));
    mach.error = cfg->error;
    mach.error_len = cfg->error_len;
    if (cfg->error_len > 0)
        cfg->error[0] = '\0';
    if (!check_config(cfg)) {
        snprintf(cfg->error, (size_t)cfg->error_len, "native kernel: invalid configuration");
        return RC_ARGUMENT;
    }
    if (setjmp(mach.jb)) {
        machine_free(&mach);
        return mach.rc;
    }
    machine_init(&mach, cfg);
    run_trace(&mach, cfg);
    machine_free(&mach);
    return RC_OK;
}
