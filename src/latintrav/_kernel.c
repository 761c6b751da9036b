/* Row-order depth-first search over transversals (or diagonals) with
 * delta-interval pruning.  Two entry points share the one search:
 *
 *   dfs           the compiled twin of engine._iter_cols plus the count and
 *                 node tallies of engine.count_and_cover: one search over
 *                 prepared candidates;
 *   search_cells  the compiled twin of engine._search_cells's per-cell loop:
 *                 _Prepared's filter for one required entry or one forbidden
 *                 cell, then a first-hit dfs, for each cell of a batch.
 *
 * It must stay behaviourally identical to the pure twin: rows ascending,
 * candidates in column order within a row, the same prune, and one node per
 * candidate index visited.  It gets there by another route (see dfs): each
 * depth keeps, for every row still to fill, the mask of its columns whose
 * column and symbol are unused, so a row is walked by jumping straight to
 * its next free candidate; the node count grows by the index distance of
 * each jump (clamped to budget + 1 when a jump crosses the budget), and the
 * delta sum is kept mod n without a division, which needs |delta| < n.
 * _kernel.py builds and loads this file; the caller checks 1 <= n <=
 * MAX_ORDER, the cell indices and the buffer shapes, and dfs rejects
 * candidates outside its layout.
 */
#include <stdint.h>
#include <string.h>

#define MAX_ORDER 62 /* used columns and symbols are bits of one uint64 */
#define BIG ((int64_t)1 << 62)

/* Python's a % n for n > 0, which is never negative. */
static inline int64_t pymod(int64_t a, int64_t n)
{
    int64_t r = a % n;
    return r < 0 ? r + n : r;
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
 * first_cols  (n): columns of the first solution
 * totals      (2): count, nodes
 *
 * The target residue of the delta sum is n/2 for even n and 0 for odd n.
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
int64_t dfs(const int64_t *cand, const int64_t *row_start,
            const int64_t *lo_suf, const int64_t *hi_suf,
            int64_t n, int64_t use_syms, int64_t sd_final, int64_t prune,
            int64_t budget, int64_t enumerate_all, int64_t *first_cols, int64_t *totals)
{
    uint64_t avail[(MAX_ORDER + 1) * MAX_ORDER]; /* [d * n + r]: row r's free columns at depth d */
    uint8_t at[MAX_ORDER * MAX_ORDER];           /* [r * n + col]: index within row r */
    uint64_t sym_col[MAX_ORDER * MAX_ORDER];     /* [sym * n + r]: its column bit in row r */
    int64_t res_need[MAX_ORDER + 1], width[MAX_ORDER + 1];
    uint64_t left[MAX_ORDER];
    int64_t idx[MAX_ORDER], dres[MAX_ORDER + 1], sol[MAX_ORDER];
    int64_t depth = 0, nodes = 0, count = 0, status;
    int64_t limit = budget < 0 ? INT64_MAX : budget;

    if (n < 1 || n > MAX_ORDER) {
        status = -2;
        goto done;
    }
    if (use_syms)
        memset(sym_col, 0, (size_t)(n * n) * sizeof sym_col[0]);
    for (int64_t r = 0; r < n; r++) {
        int64_t prev = -1;
        avail[r] = 0;
        for (int64_t i = row_start[r]; i < row_start[r + 1]; i++) {
            int64_t c = cand[3 * i], s = cand[3 * i + 1], d = cand[3 * i + 2];
            if (c <= prev || c >= n || d <= -n || d >= n || (use_syms && (s < 0 || s >= n))) {
                status = -2;
                goto done;
            }
            prev = c;
            avail[r] |= (uint64_t)1 << c;
            at[r * n + c] = (uint8_t)(i - row_start[r]);
            if (use_syms)
                sym_col[s * n + r] |= (uint64_t)1 << c;
        }
    }
    int64_t target = n % 2 ? 0 : n / 2;
    for (int64_t r = 0; r <= n; r++) {
        res_need[r] = pymod(target - lo_suf[r], n);
        width[r] = prune && hi_suf[r] - lo_suf[r] < n - 1 ? hi_suf[r] - lo_suf[r] : BIG;
    }
    if (prune && lo_suf[0] + pymod(target - lo_suf[0], n) > hi_suf[0]) {
        status = 0; /* the target residue is unreachable from the root */
        goto done;
    }
    dres[0] = 0;
    idx[0] = 0;
    left[0] = avail[0];
    while (depth >= 0) {
        if (depth == n) {
            if (!sd_final || dres[n] == target) {
                count++;
                if (count == 1)
                    for (int64_t r = 0; r < n; r++)
                        first_cols[r] = sol[r];
                if (!enumerate_all) {
                    status = 1;
                    goto done;
                }
            }
            depth--;
            continue;
        }
        const int64_t *row = cand + 3 * row_start[depth];
        const uint8_t *at_row = at + depth * n;
        uint64_t m = left[depth];
        int64_t i = idx[depth];
        int moved = 0;
        while (m) {
            int c = __builtin_ctzll(m);
            int64_t k = at_row[c];
            m &= m - 1;
            nodes += k + 1 - i;
            i = k + 1;
            if (nodes > limit)
                goto out_of_budget;
            int64_t nd = dres[depth] + row[3 * k + 2];
            if (nd < 0)
                nd += n;
            else if (nd >= n)
                nd -= n;
            int64_t miss = res_need[depth + 1] - nd;
            if (miss < 0)
                miss += n;
            if (miss > width[depth + 1])
                continue;
            left[depth] = m;
            idx[depth] = i;
            sol[depth] = c;
            dres[depth + 1] = nd;
            const uint64_t *from = avail + depth * n;
            uint64_t *to = avail + (depth + 1) * n;
            uint64_t bit = (uint64_t)1 << c;
            if (use_syms) {
                const uint64_t *sc = sym_col + row[3 * k + 1] * n;
                for (int64_t r = depth + 1; r < n; r++)
                    to[r] = from[r] & ~(bit | sc[r]);
            } else {
                for (int64_t r = depth + 1; r < n; r++)
                    to[r] = from[r] & ~bit;
            }
            depth++;
            if (depth < n) {
                left[depth] = to[depth];
                idx[depth] = 0;
            }
            moved = 1;
            break;
        }
        if (!moved) {
            nodes += row_start[depth + 1] - row_start[depth] - i;
            if (nodes > limit)
                goto out_of_budget;
            depth--;
        }
    }
    status = count > 0;
    goto done;
out_of_budget:
    nodes = limit + 1;
    status = -1;
done:
    totals[0] = count;
    totals[1] = nodes;
    return status;
}

/* One first-hit transversal search through (avoid == 0) or avoiding
 * (avoid == 1) each of k cells, with delta-interval pruning.
 *
 * base        (n, n, 3): col, sym, delta of every cell, row after row
 * cells       (k, 2): row and column of each cell
 * cand, row_start, lo_suf, hi_suf: scratch of n * n * 3, n + 1, n + 1 and
 *             n + 1 values, laid out for dfs; rewritten for every cell
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
                  int64_t avoid, int64_t budget, int64_t *cand, int64_t *row_start,
                  int64_t *lo_suf, int64_t *hi_suf, int64_t *status, int64_t *nodes,
                  int64_t *cols)
{
    for (int64_t j = 0; j < k; j++) {
        int64_t fr = cells[2 * j], fc = cells[2 * j + 1];
        int64_t fs = base[3 * (fr * n + fc) + 1];
        int64_t len = 0, totals[2];
        int feasible = 1;
        row_start[0] = 0;
        for (int64_t r = 0; r < n && feasible; r++) {
            int64_t lo = BIG, hi = -BIG;
            for (int64_t c = 0; c < n; c++) {
                const int64_t *e = base + 3 * (r * n + c);
                int keep;
                if (avoid)
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
            status[j] = 0;
            nodes[j] = 0;
            continue;
        }
        lo_suf[n] = 0;
        hi_suf[n] = 0;
        for (int64_t r = n - 1; r >= 0; r--) {
            lo_suf[r] += lo_suf[r + 1];
            hi_suf[r] += hi_suf[r + 1];
        }
        status[j] = dfs(cand, row_start, lo_suf, hi_suf, n, 1, 0, 1, budget, 0,
                        cols + j * n, totals);
        nodes[j] = totals[1];
    }
}
