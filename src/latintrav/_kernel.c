/* Row-order depth-first search over transversals (or diagonals) with
 * delta-interval pruning.  Two entry points share the one search:
 *
 *   dfs           the compiled twin of engine._iter_cols plus the count and
 *                 node tallies of engine.count_and_cover: one search over
 *                 prepared candidates, a full enumeration split across
 *                 threads;
 *   search_cells  the compiled twin of engine._search_cells's per-cell loop:
 *                 _Prepared's filter for one required entry or one forbidden
 *                 cell, then a first-hit dfs, for each cell of a batch, the
 *                 cells strided across threads.
 *
 * It must stay behaviourally identical to the pure twin: rows ascending,
 * candidates in column order within a row, the same prune, and one node per
 * candidate index visited.  It gets there by another route (see walk): each
 * depth keeps, for every row still to fill, the mask of its columns whose
 * column and symbol are unused, so a row is walked by jumping straight to
 * its next free candidate; the node count grows by the index distance of
 * each jump (clamped to budget + 1 when a jump crosses the budget), and the
 * delta sum is kept mod n without a division, which needs |delta| < n.
 * Threads change no status and no node total for any budget, and no count
 * of an enumeration that finishes: those equal the one-thread walk's (see
 * split_walk).
 * Threads are created and joined inside each call; nothing outlives it.
 * _kernel.py builds and loads this file; the caller checks 1 <= n <=
 * MAX_ORDER, the cell indices, the buffer shapes and threads >= 1, and dfs
 * rejects candidates outside its layout.
 */
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_ORDER 62 /* used columns and symbols are bits of one uint64 */
#define BIG ((int64_t)1 << 62)
#define MAX_THREADS 256
#define TASKS_PER_THREAD 64          /* the split depth is the first with this many prefixes per thread */
#define STACK_SIZE ((size_t)1 << 20) /* a worker's largest frame is search_cells's, about 170 KB */
#define CHECK_EVERY ((int64_t)1 << 14) /* nodes between a task's additions to the node pool */

/* Python's a % n for n > 0, which is never negative. */
static inline int64_t pymod(int64_t a, int64_t n)
{
    int64_t r = a % n;
    return r < 0 ? r + n : r;
}

/* One search's candidates and the tables built from them, read-only once
 * built and shared by every thread of the search. */
struct tree {
    const int64_t *cand, *row_start;
    int64_t n, use_syms, sd_final, target;
    int64_t res_need[MAX_ORDER + 1], width[MAX_ORDER + 1];
    uint64_t root[MAX_ORDER];               /* row r's candidate columns */
    uint8_t at[MAX_ORDER * MAX_ORDER];      /* [r * n + col]: index within row r */
    uint64_t sym_col[MAX_ORDER * MAX_ORDER]; /* [sym * n + r]: its column bit in row r */
};

/* One walk's state; each thread keeps its own. */
struct walk {
    uint64_t avail[(MAX_ORDER + 1) * MAX_ORDER]; /* [d * n + r]: row r's free columns at depth d */
    uint64_t left[MAX_ORDER];
    int64_t idx[MAX_ORDER], dres[MAX_ORDER + 1], sol[MAX_ORDER];
    int64_t count, nodes, emitted;
};

/* A full enumeration split at one depth: the prefixes are tasks that the
 * workers take in order.  next, nodes and count are read and written
 * atomically; the rest is read-only while the workers run. */
struct split {
    const struct tree *t;
    const int64_t *pre; /* ntasks prefix records of n + 1 words */
    int64_t depth, ntasks, budget;
    int64_t next;  /* the next task to take */
    int64_t nodes; /* the node pool: the shallow walk's nodes plus those the tasks have added */
    int64_t count; /* the tasks' solutions */
};

/* Fills t; returns 1 to search, 0 when the target residue is unreachable
 * from the root and -2 when n or a candidate is out of range. */
static int64_t build_tree(struct tree *t, const int64_t *cand, const int64_t *row_start,
                          const int64_t *lo_suf, const int64_t *hi_suf, int64_t n,
                          int64_t use_syms, int64_t sd_final, int64_t prune)
{
    if (n < 1 || n > MAX_ORDER)
        return -2;
    t->cand = cand;
    t->row_start = row_start;
    t->n = n;
    t->use_syms = use_syms;
    t->sd_final = sd_final;
    t->target = n % 2 ? 0 : n / 2;
    if (use_syms)
        memset(t->sym_col, 0, (size_t)(n * n) * sizeof t->sym_col[0]);
    for (int64_t r = 0; r < n; r++) {
        int64_t prev = -1;
        t->root[r] = 0;
        for (int64_t i = row_start[r]; i < row_start[r + 1]; i++) {
            int64_t c = cand[3 * i], s = cand[3 * i + 1], d = cand[3 * i + 2];
            if (c <= prev || c >= n || d <= -n || d >= n || (use_syms && (s < 0 || s >= n)))
                return -2;
            prev = c;
            t->root[r] |= (uint64_t)1 << c;
            t->at[r * n + c] = (uint8_t)(i - row_start[r]);
            if (use_syms)
                t->sym_col[s * n + r] |= (uint64_t)1 << c;
        }
    }
    for (int64_t r = 0; r <= n; r++) {
        t->res_need[r] = pymod(t->target - lo_suf[r], n);
        t->width[r] = prune && hi_suf[r] - lo_suf[r] < n - 1 ? hi_suf[r] - lo_suf[r] : BIG;
    }
    return prune && lo_suf[0] + pymod(t->target - lo_suf[0], n) > hi_suf[0] ? 0 : 1;
}

/* Sets w at the root: depth 0 with every row's candidate columns free. */
static void start(const struct tree *t, struct walk *w)
{
    memcpy(w->avail, t->root, (size_t)t->n * sizeof w->avail[0]);
    w->dres[0] = 0;
}

/* A prefix record: the delta residue and the columns of rows 0..depth-1,
 * and the free columns of rows depth..n-1 at that depth.  Its length is
 * n + 1. */
static void load_prefix(const struct tree *t, struct walk *w, int64_t depth, const int64_t *rec)
{
    w->dres[depth] = rec[0];
    memcpy(w->sol, rec + 1, (size_t)depth * sizeof w->sol[0]);
    for (int64_t r = depth; r < t->n; r++)
        w->avail[depth * t->n + r] = (uint64_t)rec[1 + r];
}

/* Walks the subtree below the node w holds at depth top, stopping at budget
 * limit.  Returns 1 when at least one solution was found, 0 when the subtree
 * was exhausted without one, and -1 when the budget ran out (w->nodes is
 * then limit + 1).  A first-hit walk (enumerate_all = 0) that returns 1
 * leaves its solution's columns in w->sol.
 *
 * A node at depth stop < n is not entered: it is counted in w->emitted and,
 * when pre is not NULL, written as a prefix record to pre.  Pass stop = n to
 * walk the whole subtree.
 *
 * When s is not NULL, the walk is one of its tasks: it adds its nodes to
 * s's node pool every CHECK_EVERY nodes or so and when it ends, passing
 * limit or not, and stops with -1 once the pool is over s's budget.
 *
 * The walk.  Each row's candidate columns are one bit mask.  The
 * availability table holds, at depth d and for each row r >= d, the columns
 * of row r whose column and symbol are both unused by rows 0..d-1.  Choosing
 * column c and symbol s at depth d writes depth d + 1's entries for rows
 * d + 1..n-1 from depth d's, less bit c and, when symbols count, less the
 * column of s in each row (the symbol table, symbol-major, maps a symbol to
 * its column bit in every row, so the update reads contiguous words).
 * Entering a row is then one load, and candidates whose column or symbol is
 * used are never visited.  The lowest set bit of the entered mask is the next
 * candidate to try; because columns ascend within a row, that is also the
 * twin's next candidate in index order.
 *
 * Node accounting.  The twin counts one node per candidate index it visits,
 * used or not.  Jumping from index i to the candidate at index k adds
 * k + 1 - i nodes, and exhausting a row of len candidates adds len - i, so
 * the totals equal the twin's.  When a jump carries the count past the
 * budget, nodes is clamped to budget + 1, where the twin stops; the
 * candidates jumped over yield no solution, so count is the twin's too.
 *
 * The prune.  The twin drops a candidate when no value congruent to the
 * target lies in [lo, hi], the range of delta sums still reachable:
 * lo + pymod(target - lo, n) > hi.  Here the delta sum is kept mod n, with
 * one conditional correction per step (|delta| < n), and each depth's
 * pymod(target - lo_suf, n) and hi_suf - lo_suf are computed on entry, so
 * the test needs no division; depths whose width is n - 1 or more never
 * prune and are not tested.
 */
static int64_t walk(const struct tree *t, struct walk *w, int64_t top, int64_t stop,
                    int64_t limit, int64_t enumerate_all, int64_t *pre, struct split *s)
{
    const int64_t n = t->n;
    const int64_t *cand = t->cand, *row_start = t->row_start;
    int64_t depth = top, nodes = 0, count = 0, pooled = 0, status;
    int64_t check = s ? CHECK_EVERY : INT64_MAX;
    w->emitted = 0;
    w->left[top] = w->avail[top * n + top];
    w->idx[top] = 0;
    while (depth >= top) {
        if (depth == n) {
            if (!t->sd_final || w->dres[n] == t->target) {
                count++;
                if (!enumerate_all) {
                    status = 1;
                    goto done;
                }
            }
            depth--;
            continue;
        }
        if (depth == stop) {
            if (pre) {
                int64_t *rec = pre + w->emitted * (n + 1);
                rec[0] = w->dres[depth];
                memcpy(rec + 1, w->sol, (size_t)depth * sizeof rec[0]);
                for (int64_t r = depth; r < n; r++)
                    rec[1 + r] = (int64_t)w->avail[depth * n + r];
            }
            w->emitted++;
            depth--;
            continue;
        }
        const int64_t *row = cand + 3 * row_start[depth];
        const uint8_t *at_row = t->at + depth * n;
        uint64_t m = w->left[depth];
        int64_t i = w->idx[depth];
        int moved = 0;
        while (m) {
            int c = __builtin_ctzll(m);
            int64_t k = at_row[c];
            m &= m - 1;
            nodes += k + 1 - i;
            i = k + 1;
            if (nodes > limit)
                goto out_of_budget;
            int64_t nd = w->dres[depth] + row[3 * k + 2];
            if (nd < 0)
                nd += n;
            else if (nd >= n)
                nd -= n;
            int64_t miss = t->res_need[depth + 1] - nd;
            if (miss < 0)
                miss += n;
            if (miss > t->width[depth + 1])
                continue;
            w->left[depth] = m;
            w->idx[depth] = i;
            w->sol[depth] = c;
            w->dres[depth + 1] = nd;
            const uint64_t *from = w->avail + depth * n;
            uint64_t *to = w->avail + (depth + 1) * n;
            uint64_t bit = (uint64_t)1 << c;
            if (t->use_syms) {
                const uint64_t *sc = t->sym_col + row[3 * k + 1] * n;
                for (int64_t r = depth + 1; r < n; r++)
                    to[r] = from[r] & ~(bit | sc[r]);
            } else {
                for (int64_t r = depth + 1; r < n; r++)
                    to[r] = from[r] & ~bit;
            }
            depth++;
            if (depth < n) {
                w->left[depth] = to[depth];
                w->idx[depth] = 0;
            }
            moved = 1;
            break;
        }
        if (!moved) {
            nodes += row_start[depth + 1] - row_start[depth] - i;
            if (nodes > limit)
                goto out_of_budget;
            if (nodes >= check) {
                int64_t pool = __atomic_add_fetch(&s->nodes, nodes - pooled, __ATOMIC_RELAXED);
                pooled = nodes;
                if (pool > s->budget)
                    goto out_of_budget;
                check = nodes + CHECK_EVERY;
            }
            depth--;
        }
    }
    status = count > 0;
    goto done;
out_of_budget:
    status = -1;
done:
    if (s) /* the unclamped count: every node it adds is a distinct node of the tree */
        __atomic_add_fetch(&s->nodes, nodes - pooled, __ATOMIC_RELAXED);
    w->count = count;
    w->nodes = nodes > limit ? limit + 1 : nodes;
    return status;
}

/* Runs fn on `count` workers, worker i getting args + i * size; worker 0
 * runs on the calling thread, and a worker whose thread cannot be created
 * runs there too, after it.  Returns once every worker has finished. */
static void run_workers(void *(*fn)(void *), char *args, size_t size, int64_t count)
{
    pthread_t tid[MAX_THREADS];
    int started[MAX_THREADS] = {0};
    pthread_attr_t attr;
    int have_attr = pthread_attr_init(&attr) == 0;
    if (have_attr)
        pthread_attr_setstacksize(&attr, STACK_SIZE);
    for (int64_t i = 1; i < count; i++)
        started[i] = pthread_create(&tid[i], have_attr ? &attr : NULL, fn, args + i * size) == 0;
    fn(args);
    for (int64_t i = 1; i < count; i++) {
        if (started[i])
            pthread_join(tid[i], NULL);
        else
            fn(args + i * size);
    }
    if (have_attr)
        pthread_attr_destroy(&attr);
}

/* Takes tasks in order until none is left or the node pool is over the
 * budget.  A task's limit is the budget less the pool when it is taken: the
 * pool counts distinct nodes of the tree, none of them the task's, so a task
 * that passes that limit puts the pool over the budget. */
static void *split_worker(void *arg)
{
    struct split *s = arg;
    struct walk w;
    for (;;) {
        int64_t pool = __atomic_load_n(&s->nodes, __ATOMIC_RELAXED);
        int64_t i = __atomic_fetch_add(&s->next, 1, __ATOMIC_RELAXED);
        if (i >= s->ntasks || pool > s->budget)
            return NULL;
        load_prefix(s->t, &w, s->depth, s->pre + i * (s->t->n + 1));
        walk(s->t, &w, s->depth, s->t->n, s->budget - pool, 1, NULL, s);
        __atomic_add_fetch(&s->count, w.count, __ATOMIC_RELAXED);
    }
}

/* The full enumeration on `threads` threads, with the one-thread walk's
 * status and nodes in w for every budget, and its count when it finishes.
 *
 * The same walk first runs down to the split depth, the first depth with
 * TASKS_PER_THREAD prefixes per thread, read from the tree by walking to
 * depth 1, 2, ... in turn; a tree without such a depth, or whose shallow walk
 * runs out of budget, is walked on this thread alone.  The walk to the split
 * depth records each prefix, and its nodes start the node pool.  The tasks
 * add theirs, so the pool counts distinct nodes of the tree only, and it is
 * over the budget exactly when the tree has more nodes than the budget,
 * which is when the one-thread walk runs out.  Otherwise every task ran to
 * its end and the pool holds the tree's nodes.
 */
static int64_t split_walk(const struct tree *t, struct walk *w, int64_t limit, int64_t threads)
{
    const int64_t n = t->n, want = TASKS_PER_THREAD * threads;
    int64_t depth = 0, ntasks = 0;
    while (ntasks < want && ++depth < n) {
        start(t, w);
        if (walk(t, w, 0, depth, limit, 1, NULL, NULL) == -1 || w->emitted == 0)
            break;
        ntasks = w->emitted;
    }
    int64_t *pre = ntasks < want ? NULL : malloc((size_t)(ntasks * (n + 1)) * sizeof *pre);
    if (!pre) {
        start(t, w);
        return walk(t, w, 0, n, limit, 1, NULL, NULL);
    }
    start(t, w);
    walk(t, w, 0, depth, limit, 1, pre, NULL);
    struct split s = {.t = t, .pre = pre, .depth = depth, .ntasks = ntasks, .budget = limit,
                      .nodes = w->nodes};
    run_workers(split_worker, (char *)&s, 0, threads);
    free(pre);
    w->count = s.count;
    if (s.nodes > limit) {
        w->nodes = limit + 1;
        return -1;
    }
    w->nodes = s.nodes;
    return s.count > 0;
}

/* Returns 1 when at least one solution was found, 0 when the space was
 * exhausted empty, -1 when the node budget ran out (nodes is then
 * budget + 1, and count is valid only for a search that finished) and -2,
 * with zero totals, when n or a candidate is out of range.
 *
 * cand        (row_start[n], 3): col, sym, delta of each candidate, row after
 *             row, columns strictly ascending within a row, |delta| < n
 * row_start   (n + 1): row r's candidates are cand[row_start[r] .. row_start[r + 1])
 * lo_suf, hi_suf (n + 1): min and max delta sums of rows r..n-1
 * threads     threads of a full enumeration (enumerate_all = 1); a first-hit
 *             search runs on the calling thread
 * first_cols  (n): columns of the solution a first-hit search found, written
 *             only when it returns 1
 * totals      (2): count, nodes
 *
 * The target residue of the delta sum is n/2 for even n and 0 for odd n.
 */
int64_t dfs(const int64_t *cand, const int64_t *row_start,
            const int64_t *lo_suf, const int64_t *hi_suf,
            int64_t n, int64_t use_syms, int64_t sd_final, int64_t prune,
            int64_t budget, int64_t enumerate_all, int64_t threads,
            int64_t *first_cols, int64_t *totals)
{
    struct tree t;
    struct walk w; /* not zeroed: about 32 KB, and search_cells calls dfs once per cell */
    w.count = w.nodes = 0;
    int64_t limit = budget < 0 ? INT64_MAX : budget;
    int64_t status = build_tree(&t, cand, row_start, lo_suf, hi_suf, n, use_syms, sd_final, prune);
    if (status == 1) {
        if (threads > MAX_THREADS)
            threads = MAX_THREADS;
        if (enumerate_all && threads > 1) {
            status = split_walk(&t, &w, limit, threads);
        } else {
            start(&t, &w);
            status = walk(&t, &w, 0, n, limit, enumerate_all, NULL, NULL);
        }
        if (status == 1 && !enumerate_all)
            memcpy(first_cols, w.sol, (size_t)n * sizeof first_cols[0]);
    }
    totals[0] = w.count;
    totals[1] = w.nodes;
    return status;
}

/* The arguments of search_cells, shared by its workers. */
struct cells {
    const int64_t *base, *cells;
    int64_t n, k, avoid, budget, threads;
    int64_t *status, *nodes, *cols;
};

/* One worker of search_cells: cells first, first + threads, ... */
struct cells_part {
    const struct cells *c;
    int64_t first;
};

static void *cells_worker(void *arg)
{
    const struct cells_part *part = arg;
    const struct cells *a = part->c;
    const int64_t n = a->n, *base = a->base;
    int64_t cand[3 * MAX_ORDER * MAX_ORDER], row_start[MAX_ORDER + 1];
    int64_t lo_suf[MAX_ORDER + 1], hi_suf[MAX_ORDER + 1];
    for (int64_t j = part->first; j < a->k; j += a->threads) {
        int64_t fr = a->cells[2 * j], fc = a->cells[2 * j + 1];
        int64_t fs = base[3 * (fr * n + fc) + 1];
        int64_t len = 0, totals[2];
        int feasible = 1;
        row_start[0] = 0;
        for (int64_t r = 0; r < n && feasible; r++) {
            int64_t lo = BIG, hi = -BIG;
            for (int64_t c = 0; c < n; c++) {
                const int64_t *e = base + 3 * (r * n + c);
                int keep;
                if (a->avoid)
                    keep = r != fr || c != fc;
                else if (r == fr)
                    keep = c == fc;
                else
                    keep = c != fc && e[1] != fs;
                if (!keep)
                    continue;
                cand[3 * len] = e[0];
                cand[3 * len + 1] = e[1];
                cand[3 * len + 2] = e[2];
                len++;
                if (e[2] < lo)
                    lo = e[2];
                if (e[2] > hi)
                    hi = e[2];
            }
            row_start[r + 1] = len;
            feasible = len > row_start[r];
            lo_suf[r] = lo;
            hi_suf[r] = hi;
        }
        if (!feasible) {
            a->status[j] = 0;
            a->nodes[j] = 0;
            continue;
        }
        lo_suf[n] = 0;
        hi_suf[n] = 0;
        for (int64_t r = n - 1; r >= 0; r--) {
            lo_suf[r] += lo_suf[r + 1];
            hi_suf[r] += hi_suf[r + 1];
        }
        a->status[j] = dfs(cand, row_start, lo_suf, hi_suf, n, 1, 0, 1, a->budget, 0, 1,
                           a->cols + j * n, totals);
        a->nodes[j] = totals[1];
    }
    return NULL;
}

/* One first-hit transversal search through (avoid == 0) or avoiding
 * (avoid == 1) each of k cells, with delta-interval pruning, the cells
 * strided across `threads` threads, each with its own scratch.
 *
 * base        (n, n, 3): col, sym, delta of every cell, row after row
 * cells       (k, 2): row and column of each cell
 * status      (k): dfs's status for each cell, or 0 when the filter leaves a
 *             row without candidates (no search runs then)
 * nodes       (k): nodes each search visited
 * cols        (k, n): columns of each cell's first solution, written only
 *             where status is 1
 *
 * The filter is _Prepared's.  The required entry (fr, fc, fs) keeps only
 * (fr, fc) in row fr and drops column fc and symbol fs from every other row;
 * the forbidden cell (fr, fc) drops that cell alone.
 */
void search_cells(const int64_t *base, int64_t n, const int64_t *cells, int64_t k,
                  int64_t avoid, int64_t budget, int64_t threads, int64_t *status,
                  int64_t *nodes, int64_t *cols)
{
    struct cells_part parts[MAX_THREADS];
    if (threads > MAX_THREADS)
        threads = MAX_THREADS;
    if (threads > k)
        threads = k;
    struct cells a = {.base = base, .cells = cells, .n = n, .k = k, .avoid = avoid,
                      .budget = budget, .threads = threads, .status = status,
                      .nodes = nodes, .cols = cols};
    for (int64_t i = 0; i < threads; i++)
        parts[i] = (struct cells_part){.c = &a, .first = i};
    if (threads > 0)
        run_workers(cells_worker, (char *)parts, sizeof parts[0], threads);
}
