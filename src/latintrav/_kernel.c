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
 * Threads change no output: every count, node total, status and first
 * solution equals the one-thread walk's, for every budget (see split_walk).
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
#define CHECK_EVERY ((int64_t)1 << 14) /* nodes between a task's looks at its shared limit */

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
    int64_t idx[MAX_ORDER], dres[MAX_ORDER + 1], sol[MAX_ORDER], first[MAX_ORDER];
    int64_t count, nodes, emitted;
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

/* A prefix record: the shallow nodes when the prefix was reached, the delta
 * residue and the columns of rows 0..depth-1, and the free columns of rows
 * depth..n-1 at that depth.  Its length is n + 2. */
static void load_prefix(const struct tree *t, struct walk *w, int64_t depth, const int64_t *rec)
{
    w->dres[depth] = rec[1];
    memcpy(w->sol, rec + 2, (size_t)depth * sizeof w->sol[0]);
    for (int64_t r = depth; r < t->n; r++)
        w->avail[depth * t->n + r] = (uint64_t)rec[2 + r];
}

/* Walks the subtree below the node w holds at depth top, stopping at budget
 * limit.  Returns 1 when at least one solution was found, 0 when the subtree
 * was exhausted without one, and -1 when the budget ran out (w->count and
 * w->nodes are then valid for the explored part, w->nodes clamped to
 * limit + 1).  w->first holds the first solution when w->count > 0.
 *
 * A node at depth stop < n is not entered: it is counted in w->emitted and,
 * when pre is not NULL, written as a prefix record to pre, with the walk's
 * node count so far.  Pass stop = n to walk the whole subtree.
 *
 * When shared is not NULL, another thread may lower the limit there; the
 * walk looks every CHECK_EVERY nodes or so.  A lower limit it has not yet
 * passed becomes its limit, as if it had been passed in; one it has passed
 * stops the walk with -3 (w->count then counts solutions past that limit).
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
                    int64_t limit, int64_t enumerate_all, int64_t *pre, const int64_t *shared)
{
    const int64_t n = t->n;
    const int64_t *cand = t->cand, *row_start = t->row_start;
    int64_t depth = top, nodes = 0, count = 0, status;
    int64_t check = shared ? CHECK_EVERY : INT64_MAX;
    w->emitted = 0;
    w->left[top] = w->avail[top * n + top];
    w->idx[top] = 0;
    while (depth >= top) {
        if (depth == n) {
            if (!t->sd_final || w->dres[n] == t->target) {
                count++;
                if (count == 1)
                    memcpy(w->first, w->sol, (size_t)n * sizeof w->first[0]);
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
                int64_t *rec = pre + w->emitted * (n + 2);
                rec[0] = nodes;
                rec[1] = w->dres[depth];
                memcpy(rec + 2, w->sol, (size_t)depth * sizeof rec[0]);
                for (int64_t r = depth; r < n; r++)
                    rec[2 + r] = (int64_t)w->avail[depth * n + r];
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
                int64_t lower = __atomic_load_n(shared, __ATOMIC_RELAXED);
                if (nodes > lower) {
                    status = -3;
                    goto done;
                }
                limit = lower < limit ? lower : limit;
                check = nodes + CHECK_EVERY;
            }
            depth--;
        }
    }
    status = count > 0;
    goto done;
out_of_budget:
    nodes = limit + 1;
    status = -1;
done:
    w->count = count;
    w->nodes = nodes;
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

/* A full enumeration split at one depth: the prefixes are tasks that the
 * workers take in order.  Everything but the limits is read and written
 * under lock; each task's limit is written under lock and read by the
 * worker walking that task, atomically. */
struct split {
    const struct tree *t;
    const int64_t *pre; /* ntasks prefix records of n + 2 words */
    int64_t (*slot)[3]; /* status, count, nodes of each task; status -4 until it ends */
    int64_t *limit_of;  /* each task's limit, lowered while it runs */
    int64_t depth, ntasks, limit;
    pthread_mutex_t lock;
    int64_t next;       /* the next task to take */
    int64_t done_nodes; /* nodes of the ended tasks, all below next */
    int64_t front;      /* the first task not yet merged */
    int64_t before;     /* nodes of tasks 0..front-1, which all finished */
    int64_t count;      /* their solutions */
    int64_t cut;        /* no task past this one is needed */
    int64_t first_task; /* the first ended task with a solution, and that solution */
    int64_t first[MAX_ORDER];
};

/* Ends every task past c: the one-thread walk stops at or before task c. */
static void cut_after(struct split *s, int64_t c)
{
    if (c >= s->cut)
        return;
    s->cut = c;
    for (int64_t j = c + 1; j < s->next; j++)
        __atomic_store_n(&s->limit_of[j], -1, __ATOMIC_RELAXED);
}

/* Merges the tasks that ended in order from the front, as the one-thread
 * walk reaches them at the shallow nodes before the task plus the merged
 * tasks' nodes, until one is still running or the budget runs out before or
 * inside the front task; a running front task gets its exact limit, the
 * budget less the nodes the one-thread walk spends before it. */
static void advance(struct split *s)
{
    const int64_t rec_len = s->t->n + 2;
    for (; s->front < s->ntasks && s->front <= s->cut; s->front++) {
        int64_t f = s->front, reached = s->pre[f * rec_len] + s->before;
        if (reached > s->limit) {
            cut_after(s, f - 1);
            return;
        }
        if (s->slot[f][0] == -4) {
            int64_t *lim = &s->limit_of[f];
            if (s->limit - reached < *lim)
                __atomic_store_n(lim, s->limit - reached, __ATOMIC_RELAXED);
            return;
        }
        if (s->slot[f][0] < 0 || s->slot[f][2] > s->limit - reached) {
            cut_after(s, f);
            return;
        }
        s->before += s->slot[f][2];
        s->count += s->slot[f][1];
    }
}

/* Takes tasks in order until none is left or none can be needed.  The
 * ended tasks' nodes, all of tasks below the next, are a lower bound on what
 * the one-thread walk spends in tasks before the next one.  Task i starts
 * with the budget less the shallow nodes before it and less that bound, and
 * its limit falls to the exact remainder once every earlier task has ended.
 * Task i is not taken when the shallow nodes before it plus that bound
 * exceed the budget: the one-thread walk stops before it. */
static void *split_worker(void *arg)
{
    struct split *s = arg;
    const struct tree *t = s->t;
    const int64_t rec_len = t->n + 2;
    struct walk w;
    for (;;) {
        int64_t limit = 0;
        pthread_mutex_lock(&s->lock);
        int64_t i = s->next;
        int take = i < s->ntasks && i <= s->cut
                   && s->pre[i * rec_len] + s->done_nodes <= s->limit;
        if (take) {
            s->next++;
            limit = s->limit - s->pre[i * rec_len] - s->done_nodes;
            if (limit < s->limit_of[i])
                __atomic_store_n(&s->limit_of[i], limit, __ATOMIC_RELAXED);
            limit = s->limit_of[i];
        }
        pthread_mutex_unlock(&s->lock);
        if (!take)
            return NULL;
        load_prefix(t, &w, s->depth, s->pre + i * rec_len);
        int64_t status = walk(t, &w, s->depth, t->n, limit, 1, NULL, &s->limit_of[i]);
        pthread_mutex_lock(&s->lock);
        s->slot[i][0] = status;
        s->slot[i][1] = w.count;
        s->slot[i][2] = w.nodes;
        s->done_nodes += w.nodes;
        if (w.count && i < s->first_task) {
            s->first_task = i;
            memcpy(s->first, w.first, (size_t)t->n * sizeof s->first[0]);
        }
        advance(s);
        pthread_mutex_unlock(&s->lock);
    }
}

/* The full enumeration on `threads` threads, with the one-thread walk's
 * status and totals in w for every budget.
 *
 * The same walk first runs down to the split depth, the first depth with
 * TASKS_PER_THREAD prefixes per thread, read from the tree by walking to
 * depth 1, 2, ... in turn; a tree without such a depth, or whose shallow walk
 * runs out of budget, is walked on this thread alone.  The walk to the split
 * depth records each prefix and the shallow nodes so far (S_i for prefix i,
 * S_end at its end); the one-thread walk then reaches prefix i at
 * S_i + P_i nodes, where P_i sums the nodes of tasks 0..i-1, and ends at
 * S_end + P_ntasks.  Merging the tasks in order with those sums finds where
 * the budget runs out: in the shallow walk before task i (S_i + P_i over
 * the budget: nothing of task i is counted), inside task i or after the last
 * task.  A task that ran out at exactly the budget left when it starts is
 * the one-thread walk's; any other task the budget runs out in is walked
 * again, here, with exactly that budget.
 */
static int64_t split_walk(const struct tree *t, struct walk *w, int64_t limit, int64_t threads)
{
    const int64_t n = t->n, want = TASKS_PER_THREAD * threads, rec_len = n + 2;
    int64_t depth = 0, ntasks = 0;
    while (ntasks < want && ++depth < n) {
        start(t, w);
        if (walk(t, w, 0, depth, limit, 1, NULL, NULL) == -1 || w->emitted == 0)
            break;
        ntasks = w->emitted;
    }
    /* per task: its prefix record, its slot and its limit */
    int64_t *pre = ntasks < want ? NULL : malloc((size_t)(ntasks * (rec_len + 4)) * sizeof *pre);
    if (!pre) {
        start(t, w);
        return walk(t, w, 0, n, limit, 1, NULL, NULL);
    }
    int64_t(*slot)[3] = (int64_t(*)[3])(pre + ntasks * rec_len);
    int64_t *limit_of = pre + ntasks * (rec_len + 3);
    start(t, w);
    walk(t, w, 0, depth, limit, 1, pre, NULL);
    const int64_t shallow_end = w->nodes;
    for (int64_t i = 0; i < ntasks; i++) {
        slot[i][0] = -4;
        limit_of[i] = INT64_MAX;
    }

    struct split s = {.t = t, .pre = pre, .slot = slot, .limit_of = limit_of, .depth = depth,
                      .ntasks = ntasks, .limit = limit, .cut = ntasks, .first_task = ntasks};
    pthread_mutex_init(&s.lock, NULL);
    run_workers(split_worker, (char *)&s, 0, threads);
    pthread_mutex_destroy(&s.lock);

    /* the tasks ended; every one the one-thread walk finishes is merged */
    int64_t i = s.front, count = s.count, status;
    int64_t left = i < ntasks ? limit - pre[i * rec_len] - s.before : -1;
    if (left >= 0) { /* the budget runs out inside task i */
        if (slot[i][0] == -1 && slot[i][2] == left + 1) {
            count += slot[i][1]; /* this run stopped where the one-thread walk stops */
            if (s.first_task == i)
                memcpy(w->first, s.first, (size_t)n * sizeof w->first[0]);
        } else {
            load_prefix(t, w, depth, pre + i * rec_len);
            walk(t, w, depth, n, left, 1, NULL, NULL);
            count += w->count; /* w->first is this task's first solution, if any */
        }
    }
    if (s.first_task < i)
        memcpy(w->first, s.first, (size_t)n * sizeof w->first[0]);
    if (i == ntasks && shallow_end + s.before <= limit) {
        w->nodes = shallow_end + s.before;
        status = count > 0;
    } else {
        w->nodes = limit + 1;
        status = -1;
    }
    w->count = count;
    free(pre);
    return status;
}

/* Returns 1 when at least one solution was found, 0 when the space was
 * exhausted empty, -1 when the node budget ran out (the totals are valid for
 * the explored prefix) and -2, with zero totals, when n or a candidate is out
 * of range.
 *
 * cand        (row_start[n], 3): col, sym, delta of each candidate, row after
 *             row, columns strictly ascending within a row, |delta| < n
 * row_start   (n + 1): row r's candidates are cand[row_start[r] .. row_start[r + 1])
 * lo_suf, hi_suf (n + 1): min and max delta sums of rows r..n-1
 * threads     threads of a full enumeration (enumerate_all = 1); a first-hit
 *             search runs on the calling thread
 * first_cols  (n): columns of the first solution
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
        if (w.count)
            memcpy(first_cols, w.first, (size_t)n * sizeof first_cols[0]);
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
