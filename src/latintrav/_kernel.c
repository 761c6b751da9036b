/* Row-order depth-first search over transversals with delta-interval
 * pruning and, in first-hit searches, forward checking (a placement that
 * leaves a later row with no free column is dropped): the
 * compiled twin of engine._twin_run, which takes the same arrays and fills the
 * same output.  Every search prunes; the unpruned walk, the prune's reference,
 * exists only in the pure twin (engine._iter_cols).  The one entry point,
 * search, runs a batch of transversal searches over one square: it checks the
 * square's (n, n) int64 symbol and int8 delta arrays and builds its symbol
 * tables from them once (build_grid), every search of the batch reads those
 * tables and the caller's delta array, and each fills its own search tree from
 * its own candidate mask per row (mask_tree).  The kernel has no search mode: a
 * suitable-diagonal search is a transversal search over the column-index grid
 * (engine._Prepared passes sym[r][c] = c), whose symbol test is the column
 * test.  What a search keeps, say for one required entry or one forbidden
 * cell, is decided by the caller (engine._Prepared, engine._cell_rows); the
 * kernel only walks the masks.  A batch of one full
 * enumeration is split across threads (split_walk); in any other batch the
 * threads take searches from one shared counter, one thread per search.
 *
 * It must stay behaviourally identical to the pure twin: rows ascending,
 * candidates in column order within a row, the same prunes, and one node per
 * candidate index visited.  It gets there by another route (see walk): each
 * depth keeps, for every row still to fill, the mask of its columns whose
 * column and symbol are unused, so a row is walked by jumping straight to
 * its next free candidate.  Two accountings give the twin's node totals: a
 * first-hit search adds the index distance of each jump, and a full
 * enumeration, which walks every row it enters to the end, adds a row's
 * candidate count when it enters the row (either is clamped to budget + 1
 * when it crosses the budget).
 * Symbols and deltas are read by (row, column) from byte arrays, and the
 * delta sum is kept mod n without a division, which needs |delta| < n.
 * Threads change no status and no node total for any budget, and no count
 * of an enumeration that finishes: those equal the one-thread walk's (see
 * split_walk).
 * The threads besides the caller's are helpers parked between calls (see
 * run_workers): the first threaded call creates them and they live as long as
 * the process, a forked child starts its own, and a call that finds another
 * call using them runs on its own thread alone.  A call returns only once
 * every helper that joined it has finished, so no work outlives it.
 * _kernel.py builds and loads this file; the caller checks 1 <= n <=
 * MAX_ORDER and the buffer shapes and passes threads >= 1, and search rejects
 * a symbol, a delta or a row mask outside its layout.
 */
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_ORDER 62 /* used columns and symbols are bits of one uint64 */
#define BIG ((int64_t)1 << 62)
#define MAX_THREADS 256
#define TASKS_PER_THREAD 64          /* the split depth is the first with this many prefixes per thread */
#define STACK_SIZE ((size_t)1 << 20) /* a worker's largest frame is batch_worker's, about 40 KB */
#define CHECK_EVERY ((int64_t)1 << 14) /* nodes between a task's additions to the node pool */

/* Python's a % n for n > 0, which is never negative. */
static inline int64_t pymod(int64_t a, int64_t n)
{
    int64_t r = a % n;
    return r < 0 ? r + n : r;
}

/* A square's entries by (row, column), read-only once built and shared by
 * every search over it and every thread. */
struct grid {
    uint8_t sym[MAX_ORDER * MAX_ORDER];      /* [r * n + c]: the symbol */
    const int8_t *delta;                     /* [r * n + c]: the caller's delta, |delta| < n */
    uint64_t sym_col[MAX_ORDER * MAX_ORDER]; /* [sym * n + r]: its column bit in row r */
};

/* One search: the cells of a grid it keeps and the tables that follow from
 * them, read-only once built and shared by every thread of the search. */
struct tree {
    const struct grid *g;
    int64_t n, target;
    int64_t res_need[MAX_ORDER + 1], width[MAX_ORDER + 1];
    int64_t len[MAX_ORDER];            /* row r's candidate count */
    uint64_t root[MAX_ORDER];          /* row r's candidate columns */
    uint8_t at[MAX_ORDER * MAX_ORDER]; /* [r * n + col]: index within row r */
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
    const uint64_t *pre; /* ntasks prefix records of n - depth + 1 words (see walk_body) */
    int64_t depth, ntasks, budget;
    int64_t next;  /* the next task to take */
    int64_t nodes; /* the node pool: the shallow walk's nodes plus those the tasks have added */
    int64_t count; /* the tasks' solutions */
};

/* Fills g's symbol tables from the square's (n, n) int64 sym array and points
 * it at the (n, n) int8 delta array, which must outlive g; returns 0, or -2
 * when n or a cell is out of range: each symbol must lie in 0..n-1 and each
 * |delta| < n. */
static int64_t build_grid(struct grid *g, const int64_t *sym, const int8_t *delta, int64_t n)
{
    if (n < 1 || n > MAX_ORDER)
        return -2;
    g->delta = delta;
    memset(g->sym_col, 0, (size_t)(n * n) * sizeof g->sym_col[0]);
    for (int64_t r = 0; r < n; r++)
        for (int64_t c = 0; c < n; c++) {
            int64_t s = sym[r * n + c], d = delta[r * n + c];
            if (s < 0 || s >= n || d <= -n || d >= n)
                return -2;
            g->sym[r * n + c] = (uint8_t)s;
            g->sym_col[s * n + r] |= (uint64_t)1 << c;
        }
    return 0;
}

/* Sets t's rows to the candidate columns in rows, and fills its index table,
 * row lengths and residue tables from them and t's grid; returns 1 to search,
 * or 0 when a row has no candidates or the target residue is unreachable from
 * the root. */
static int64_t mask_tree(struct tree *t, const uint64_t *rows)
{
    const int8_t *delta = t->g->delta;
    const int64_t n = t->n;
    int64_t lo_suf[MAX_ORDER + 1], hi_suf[MAX_ORDER + 1];
    for (int64_t r = 0; r < n; r++) {
        uint64_t m = rows[r];
        t->root[r] = m;
        int64_t k = 0, lo = BIG, hi = -BIG;
        for (; m; m &= m - 1) {
            int c = __builtin_ctzll(m);
            int64_t d = delta[r * n + c];
            t->at[r * n + c] = (uint8_t)k++;
            if (d < lo)
                lo = d;
            if (d > hi)
                hi = d;
        }
        if (k == 0)
            return 0;
        t->len[r] = k;
        lo_suf[r] = lo;
        hi_suf[r] = hi;
    }
    lo_suf[n] = hi_suf[n] = 0;
    for (int64_t r = n - 1; r >= 0; r--) {
        lo_suf[r] += lo_suf[r + 1];
        hi_suf[r] += hi_suf[r + 1];
    }
    for (int64_t r = 0; r <= n; r++) {
        t->res_need[r] = pymod(t->target - lo_suf[r], n);
        t->width[r] = hi_suf[r] - lo_suf[r] < n - 1 ? hi_suf[r] - lo_suf[r] : BIG;
    }
    return lo_suf[0] + pymod(t->target - lo_suf[0], n) > hi_suf[0] ? 0 : 1;
}

/* Sets w at the root: depth 0 with every row's candidate columns free. */
static void start(const struct tree *t, struct walk *w)
{
    memcpy(w->avail, t->root, (size_t)t->n * sizeof w->avail[0]);
    w->dres[0] = 0;
}

/* Walks the subtree below the node w holds at depth top, stopping at budget
 * limit.  Returns 1 when at least one solution was found, 0 when the subtree
 * was exhausted without one, and -1 when the budget ran out (w->nodes is
 * then limit + 1).  A first-hit walk (enumerate_all = 0) that returns 1
 * leaves its solution's columns in w->sol.  It is compiled twice, with
 * enumerate_all a constant (walk_all, walk_first), so the enumeration's
 * loop carries none of the first-hit walk's tests.
 *
 * A node at depth stop < n is not entered: it is counted in w->emitted and,
 * when pre is not NULL, written to pre as a prefix record: the delta residue
 * at that depth, then the free columns of rows stop..n-1.  It keeps no
 * columns of the rows above, since only a full enumeration is split and it
 * reads no solution's columns.  Pass stop = n to walk the whole subtree;
 * top < stop always, so the walk first enters row top.
 *
 * When s is not NULL, the walk is one of its tasks: it adds its nodes to
 * s's node pool every CHECK_EVERY nodes or so and when it ends, passing
 * limit or not, and stops with -1 once the pool is over s's budget.
 *
 * The walk.  Each row's candidate columns are one bit mask.  The
 * availability table holds, at depth d and for each row r >= d, the columns
 * of row r whose column and symbol are both unused by rows 0..d-1.  Choosing
 * column c and symbol s at depth d writes depth d + 1's entries for rows
 * d + 1..n-1 from depth d's, less bit c and the column of s in each row (the
 * symbol table, symbol-major, maps a symbol to its column bit in every row,
 * so the update reads contiguous words; over the column-index grid of a
 * suitable-diagonal search that bit is c itself, so nothing more is dropped).
 * Entering a row is then one load, and candidates whose column or symbol is
 * used are never visited.  The lowest set bit of the entered mask is the next
 * candidate to try; because columns ascend within a row, that is also the
 * twin's next candidate in index order.
 *
 * Node accounting.  The twin counts one node per candidate index it visits,
 * used or not.  A first-hit walk, which stops at its first solution, counts
 * as it goes: jumping from index i to the candidate at index k adds
 * k + 1 - i nodes, and exhausting a row of len candidates adds len - i.  A
 * full enumeration leaves a row before its end only when the budget runs
 * out, so it adds a row's len nodes when it enters the row, the top row
 * included (a node at stop is a prefix, not an entry), and none while it
 * walks it.  A placement that leaves the next row, above stop, no free
 * column does not push it: that row is entered, walked and left at once,
 * for its len nodes.  Either way the totals equal the twin's.  When a step
 * carries the count past the budget, nodes is clamped to budget + 1, where
 * the twin stops.  In a first-hit walk the candidates jumped over yield no
 * solution, so count is the twin's too; a full enumeration passes the
 * budget at some entry exactly when the tree has more nodes than the
 * budget, which is when the twin runs out, and its count is then not read.
 *
 * The prune.  The twin drops a candidate when no value congruent to the
 * target lies in [lo, hi], the range of delta sums still reachable:
 * lo + pymod(target - lo, n) > hi.  Here the delta sum is kept mod n, with
 * one conditional correction per step (|delta| < n), and each depth's
 * pymod(target - lo_suf, n) and hi_suf - lo_suf are computed on entry, so
 * the test needs no division; depths whose width is n - 1 or more never
 * prune and are not tested.
 *
 * The leaf.  At depth n - 1, width[n] is 0 and res_need[n] the target, so
 * the prune places only a candidate that brings the delta sum to the target
 * residue (for n = 1 every residue is 0): every leaf counts, untested.
 *
 * The forward check, in a first-hit walk.  The update of
 * depth d + 1's availability rows also notes whether it left some row
 * empty, one compare per row and no branch (faster, measured, than stopping
 * at the first empty row); if it did, the candidate is dropped, since no
 * completion of it exists.  Its node was counted first, as for a
 * delta-pruned candidate, and the twin makes the same check at the same
 * point, so node totals stay equal.  It drops only subtrees without a
 * solution, so the first solution is the one the walk without it finds.  A
 * full enumeration does not check, so its tree and node totals stay those
 * of the delta prune alone.  It only steps over a next row left empty: it
 * updates that row first and, when no column is left in it, skips the other
 * rows' update and counts the row's nodes as the twin's walk through it does.
 */
static inline __attribute__((always_inline)) int64_t
walk_body(const struct tree *t, struct walk *w, int64_t top, int64_t stop, int64_t limit,
          const int enumerate_all, uint64_t *pre, struct split *s)
{
    const int64_t n = t->n;
    const int8_t *delta = t->g->delta;
    const uint8_t *sym = t->g->sym;
    int64_t depth = top, nodes = 0, count = 0, pooled = 0, status;
    int64_t check = s ? CHECK_EVERY : INT64_MAX;
    w->emitted = 0;
    w->left[top] = w->avail[top * n + top];
    w->idx[top] = 0;
    if (enumerate_all) {
        nodes = t->len[top];
        if (nodes > limit)
            goto out_of_budget;
    }
    while (depth >= top) {
        if (depth == n) { /* a solution: see "The leaf" above */
            count++;
            if (!enumerate_all) {
                status = 1;
                goto done;
            }
            depth--;
            continue;
        }
        if (depth == stop) {
            if (pre) {
                uint64_t *rec = pre + w->emitted * (n - depth + 1);
                rec[0] = (uint64_t)w->dres[depth];
                memcpy(rec + 1, w->avail + depth * n + depth, (size_t)(n - depth) * sizeof rec[0]);
            }
            w->emitted++;
            depth--;
            continue;
        }
        const int8_t *delta_row = delta + depth * n;
        const uint8_t *at_row = t->at + depth * n;
        uint64_t m = w->left[depth];
        int64_t i = w->idx[depth];
        int moved = 0;
        while (m) {
            int c = __builtin_ctzll(m);
            m &= m - 1;
            if (!enumerate_all) { /* see "Node accounting" above */
                int64_t k = at_row[c];
                nodes += k + 1 - i;
                i = k + 1;
                if (nodes > limit)
                    goto out_of_budget;
            }
            int64_t nd = w->dres[depth] + delta_row[c];
            if (nd < 0)
                nd += n;
            else if (nd >= n)
                nd -= n;
            int64_t miss = t->res_need[depth + 1] - nd;
            if (miss < 0)
                miss += n;
            if (miss > t->width[depth + 1])
                continue;
            const uint64_t *from = w->avail + depth * n;
            uint64_t *to = w->avail + (depth + 1) * n;
            uint64_t bit = (uint64_t)1 << c;
            const uint64_t *sc = t->g->sym_col + sym[depth * n + c] * n;
            if (!enumerate_all) { /* drop c when it leaves a later row no free column */
                int64_t empty = 0;
                for (int64_t r = depth + 1; r < n; r++) {
                    uint64_t row_free = from[r] & ~(bit | sc[r]);
                    to[r] = row_free;
                    empty |= row_free == 0;
                }
                if (empty)
                    continue;
            } else {
                int64_t r = depth + 1;
                if (r < stop) { /* a dead next row is entered, walked and left at once */
                    to[r] = from[r] & ~(bit | sc[r]);
                    if (to[r] == 0) {
                        nodes += t->len[r];
                        if (nodes > limit)
                            goto out_of_budget;
                        continue;
                    }
                    r++;
                }
                for (; r < n; r++)
                    to[r] = from[r] & ~(bit | sc[r]);
            }
            w->left[depth] = m;
            if (!enumerate_all) {
                w->idx[depth] = i;
                w->sol[depth] = c;
            }
            w->dres[depth + 1] = nd;
            depth++;
            if (depth < n) {
                w->left[depth] = to[depth];
                if (!enumerate_all)
                    w->idx[depth] = 0;
                else if (depth < stop) {
                    nodes += t->len[depth];
                    if (nodes > limit)
                        goto out_of_budget;
                }
            }
            moved = 1;
            break;
        }
        if (!moved) {
            if (!enumerate_all) {
                nodes += t->len[depth] - i;
                if (nodes > limit)
                    goto out_of_budget;
            } else if (nodes >= check) {
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

/* The walk of a full enumeration, with walk_body's stop, pre and s. */
static int64_t walk_all(const struct tree *t, struct walk *w, int64_t top, int64_t stop,
                        int64_t limit, uint64_t *pre, struct split *s)
{
    return walk_body(t, w, top, stop, limit, 1, pre, s);
}

/* The walk of a first-hit search from the root, forward-checked. */
static int64_t walk_first(const struct tree *t, struct walk *w, int64_t limit)
{
    return walk_body(t, w, 0, t->n, limit, 0, NULL, NULL);
}

/* The helpers: threads that wait between calls for a job, created by the
 * first call that wants them and kept for the life of the process.  A job
 * is fn(arg) with the number of helpers still to admit (want); busy counts
 * the helpers inside it.  One call at a time owns the pool (owner); lock
 * guards the rest. */
static struct {
    pthread_mutex_t owner, lock;
    pthread_cond_t wake, idle;
    void *(*fn)(void *);
    void *arg;
    int64_t helpers, want, busy;
} pool = {PTHREAD_MUTEX_INITIALIZER, PTHREAD_MUTEX_INITIALIZER, PTHREAD_COND_INITIALIZER,
          PTHREAD_COND_INITIALIZER, NULL, NULL, 0, 0, 0};
static pthread_once_t pool_once = PTHREAD_ONCE_INIT;

/* A forked child has none of its parent's helpers and may hold a copy of a
 * lock some other thread held: it starts with an empty pool. */
static void pool_reset(void)
{
    pthread_mutex_init(&pool.owner, NULL);
    pthread_mutex_init(&pool.lock, NULL);
    pthread_cond_init(&pool.wake, NULL);
    pthread_cond_init(&pool.idle, NULL);
    pool.helpers = pool.want = pool.busy = 0;
}

static void pool_register(void)
{
    pthread_atfork(NULL, NULL, pool_reset);
}

static void *helper(void *unused)
{
    (void)unused;
    pthread_mutex_lock(&pool.lock);
    for (;;) {
        while (pool.want == 0)
            pthread_cond_wait(&pool.wake, &pool.lock);
        pool.want--;
        pool.busy++;
        void *(*fn)(void *) = pool.fn;
        void *arg = pool.arg;
        pthread_mutex_unlock(&pool.lock);
        fn(arg);
        pthread_mutex_lock(&pool.lock);
        if (--pool.busy == 0)
            pthread_cond_signal(&pool.idle);
    }
    return NULL;
}

/* Runs fn(arg) on up to `count` workers, worker 0 on the calling thread, and
 * returns once every worker that entered has finished.  The other workers are
 * the pool's helpers, woken for this job; the pool grows to count - 1 helpers
 * first.  The workers take their work from one queue in arg, and worker 0
 * drains it, so a helper that cannot be created, is late, or belongs to
 * another caller's job (the pool is owned by one call at a time; any other
 * runs alone) leaves no work undone. */
static void run_workers(void *(*fn)(void *), void *arg, int64_t count)
{
    if (count <= 1 || pthread_mutex_trylock(&pool.owner) != 0) {
        fn(arg);
        return;
    }
    pthread_once(&pool_once, pool_register);
    pthread_mutex_lock(&pool.lock);
    if (pool.helpers < count - 1) {
        pthread_attr_t attr;
        if (pthread_attr_init(&attr) == 0) {
            pthread_attr_setstacksize(&attr, STACK_SIZE);
            pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
            for (pthread_t tid; pool.helpers < count - 1; pool.helpers++)
                if (pthread_create(&tid, &attr, helper, NULL) != 0)
                    break;
            pthread_attr_destroy(&attr);
        }
    }
    pool.fn = fn;
    pool.arg = arg;
    pool.want = pool.helpers < count - 1 ? pool.helpers : count - 1;
    pthread_cond_broadcast(&pool.wake);
    pthread_mutex_unlock(&pool.lock);
    fn(arg);
    pthread_mutex_lock(&pool.lock);
    pool.want = 0; /* closed: a helper not yet in stays out */
    while (pool.busy > 0)
        pthread_cond_wait(&pool.idle, &pool.lock);
    pthread_mutex_unlock(&pool.lock);
    pthread_mutex_unlock(&pool.owner);
}

/* Takes tasks in order until none is left or the node pool is over the
 * budget.  A task's limit is the budget less the pool when it is taken: the
 * pool counts distinct nodes of the tree, none of them the task's, so a task
 * that passes that limit puts the pool over the budget.  A task adds a row's
 * nodes when it enters the row, before it walks them, but they are nodes the
 * one-thread walk visits, so the pool still counts only distinct nodes. */
static void *split_worker(void *arg)
{
    struct split *s = arg;
    const int64_t n = s->t->n, depth = s->depth;
    struct walk w;
    for (;;) {
        int64_t pool = __atomic_load_n(&s->nodes, __ATOMIC_RELAXED);
        int64_t i = __atomic_fetch_add(&s->next, 1, __ATOMIC_RELAXED);
        if (i >= s->ntasks || pool > s->budget)
            return NULL;
        const uint64_t *rec = s->pre + i * (n - depth + 1);
        w.dres[depth] = (int64_t)rec[0];
        memcpy(w.avail + depth * n + depth, rec + 1, (size_t)(n - depth) * sizeof rec[0]);
        walk_all(s->t, &w, depth, n, s->budget - pool, NULL, s);
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
        if (walk_all(t, w, 0, depth, limit, NULL, NULL) == -1 || w->emitted == 0)
            break;
        ntasks = w->emitted;
    }
    uint64_t *pre = ntasks < want ? NULL : malloc((size_t)(ntasks * (n - depth + 1)) * sizeof *pre);
    if (!pre) {
        start(t, w);
        return walk_all(t, w, 0, n, limit, NULL, NULL);
    }
    start(t, w);
    walk_all(t, w, 0, depth, limit, pre, NULL);
    struct split s = {.t = t, .pre = pre, .depth = depth, .ntasks = ntasks, .budget = limit,
                      .nodes = w->nodes};
    run_workers(split_worker, &s, threads);
    free(pre);
    w->count = s.count;
    if (s.nodes > limit) {
        w->nodes = limit + 1;
        return -1;
    }
    w->nodes = s.nodes;
    return s.count > 0;
}

/* The arguments of search, shared by its workers, which take searches from
 * next in order until none is left.  next is read and written atomically;
 * the rest is read-only while the workers run. */
struct batch {
    const struct grid *g;
    const int64_t *rows;
    int64_t *out;
    int64_t n, k, limit, enumerate_all, threads;
    int64_t next; /* the next search to take */
};

static void *batch_worker(void *arg)
{
    struct batch *b = arg;
    const int64_t n = b->n;
    struct tree t = {.g = b->g, .n = n, .target = n % 2 ? 0 : n / 2};
    struct walk w; /* not zeroed: about 32 KB */
    for (int64_t j; (j = __atomic_fetch_add(&b->next, 1, __ATOMIC_RELAXED)) < b->k;) {
        int64_t *out = b->out + j * (n + 3);
        int64_t status = mask_tree(&t, (const uint64_t *)b->rows + j * n);
        w.count = w.nodes = 0;
        if (status == 1) {
            if (b->enumerate_all && b->k == 1 && b->threads > 1) {
                status = split_walk(&t, &w, b->limit, b->threads);
            } else {
                start(&t, &w);
                status = b->enumerate_all ? walk_all(&t, &w, 0, n, b->limit, NULL, NULL)
                                          : walk_first(&t, &w, b->limit);
            }
            if (status == 1 && !b->enumerate_all)
                memcpy(out + 3, w.sol, (size_t)n * sizeof out[0]);
        }
        out[0] = status;
        out[1] = w.count;
        out[2] = w.nodes;
    }
    return NULL;
}

/* k searches over one square, search j over the candidate masks
 * rows[j * n .. j * n + n - 1].  Returns 0, or -2 with nothing searched or
 * written when n, a symbol, a delta or a row mask is out of range.
 *
 * sym      (n, n) int64: the symbol of every cell, row after row, in 0..n-1
 * delta    (n, n) int8: the delta of every cell, row after row, |delta| < n
 *          (the square's cached delta table, read where it is during the call)
 * rows     (k, n): each search's candidate columns of row r as bits 0..n-1
 * threads  a batch of one full enumeration (enumerate_all = 1) is split
 *          across them; in any other batch min(threads, k) threads take the
 *          searches from one shared counter, each search on one thread
 * out      (k, n + 3): for each search its status, count and nodes, then the
 *          columns of the solution a first-hit search found, written only
 *          when its status is 1
 *
 * A search's status is 1 when it found at least one solution, 0 when the
 * space was exhausted empty (with no node when a row has no candidates) and
 * -1 when the node budget ran out (nodes is then budget + 1, and count is
 * valid only for a search that finished).  A solution has distinct columns and
 * symbols and a delta sum at the target residue, n/2 for even n and 0 for odd
 * n, which every transversal's is; over the column-index grid that makes it a
 * suitable diagonal.
 */
int64_t search(const int64_t *sym, const int8_t *delta, int64_t n, const int64_t *rows,
               int64_t k, int64_t budget, int64_t enumerate_all, int64_t threads, int64_t *out)
{
    struct grid g;
    if (build_grid(&g, sym, delta, n) != 0)
        return -2;
    for (int64_t i = 0; i < k * n; i++)
        if ((uint64_t)rows[i] >> n)
            return -2;
    if (threads > MAX_THREADS)
        threads = MAX_THREADS;
    struct batch b = {.g = &g, .rows = rows, .out = out, .n = n, .k = k,
                      .limit = budget < 0 ? INT64_MAX : budget,
                      .enumerate_all = enumerate_all, .threads = threads};
    run_workers(batch_worker, &b, threads < k ? threads : k);
    return 0;
}
