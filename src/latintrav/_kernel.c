/* Row-order depth-first search over transversals (or diagonals) with
 * delta-interval pruning.  Two entry points share the one search:
 *
 *   dfs           the compiled twin of engine._iter_cols plus the aggregation
 *                 of engine.count_and_cover: one search over prepared
 *                 candidates;
 *   search_cells  the compiled twin of engine._search_cells's per-cell loop:
 *                 _Prepared's filter for one required entry or one forbidden
 *                 cell, then a first-hit dfs, for each cell of a batch.
 *
 * It must stay behaviourally identical to the pure twin: rows ascending,
 * candidates in their given order within a row, the same prune, and one node
 * per candidate index visited.  _kernel.py builds and loads this file; the
 * caller checks 1 <= n <= MAX_ORDER, the cell indices and the buffer shapes.
 */
#include <stddef.h>
#include <stdint.h>

#define MAX_ORDER 62 /* used columns and symbols are bits of one int64 */
#define BIG ((int64_t)1 << 62)

/* Python's a % n for n > 0, which is never negative. */
static inline int64_t pymod(int64_t a, int64_t n)
{
    int64_t r = a % n;
    return r < 0 ? r + n : r;
}

/* Returns 1 when at least one solution was found, 0 when the space was
 * exhausted empty, -1 when the node budget ran out (the aggregates are valid
 * for the explored prefix) and -2 when n is out of range.
 *
 * cand        (row_start[n], 3): col, sym, delta of each candidate, row after row
 * row_start   (n + 1): row r's candidates are cand[row_start[r] .. row_start[r + 1])
 * lo_suf, hi_suf (n + 1): min and max delta sums of rows r..n-1
 * first_cols  (n): columns of the first solution
 * cover       (n, n), witness (n * n, n), witness_have (n * n): written only
 *             when want_cover, so they may be NULL otherwise
 * totals      (3): count, nodes, min_block
 */
int64_t dfs(const int64_t *cand, const int64_t *row_start,
            const int64_t *lo_suf, const int64_t *hi_suf,
            int64_t n, int64_t target, int64_t use_syms, int64_t sd_final,
            int64_t prune, int64_t budget, int64_t enumerate_all,
            int64_t block_m, int64_t want_cover,
            int64_t *first_cols, int64_t *cover, int64_t *witness,
            int64_t *witness_have, int64_t *totals)
{
    int64_t idx[MAX_ORDER + 1], ucols[MAX_ORDER + 1], usyms[MAX_ORDER + 1];
    int64_t dsum[MAX_ORDER + 1], sol[MAX_ORDER], x[9];
    int64_t depth = 0, nodes = 0, count = 0, min_block = BIG, status;

    if (n < 1 || n > MAX_ORDER)
        return -2;
    idx[0] = row_start[0];
    ucols[0] = 0;
    usyms[0] = 0;
    dsum[0] = 0;
    if (prune && lo_suf[0] + pymod(target - lo_suf[0], n) > hi_suf[0]) {
        status = 0; /* the target residue is unreachable from the root */
        goto done;
    }
    while (depth >= 0) {
        if (depth == n) {
            if (!sd_final || pymod(dsum[n], n) == target) {
                count++;
                if (count == 1)
                    for (int64_t r = 0; r < n; r++)
                        first_cols[r] = sol[r];
                if (!enumerate_all) {
                    status = 1;
                    goto done;
                }
                if (want_cover) {
                    for (int64_t r = 0; r < n; r++) {
                        int64_t cell = r * n + sol[r];
                        cover[cell]++;
                        if (!witness_have[cell]) {
                            witness_have[cell] = 1;
                            for (int64_t r2 = 0; r2 < n; r2++)
                                witness[cell * n + r2] = sol[r2];
                        }
                    }
                }
                if (block_m > 0) {
                    for (int t = 0; t < 9; t++)
                        x[t] = 0;
                    for (int64_t r = 0; r < n; r++)
                        x[(r / block_m) * 3 + sol[r] / block_m]++;
                    int64_t mn = x[0];
                    for (int t = 1; t < 9; t++)
                        if (x[t] < mn)
                            mn = x[t];
                    if (mn < min_block)
                        min_block = mn;
                }
            }
            depth--;
            continue;
        }
        int64_t i = idx[depth];
        int64_t end = row_start[depth + 1];
        int64_t uc = ucols[depth], us = usyms[depth], ds = dsum[depth];
        int moved = 0;
        while (i < end) {
            nodes++;
            if (budget >= 0 && nodes > budget) {
                status = -1;
                goto done;
            }
            int64_t c = cand[3 * i], s = cand[3 * i + 1], d = cand[3 * i + 2];
            i++;
            if ((uc >> c) & 1)
                continue;
            if (use_syms && ((us >> s) & 1))
                continue;
            int64_t nd = ds + d;
            if (prune) {
                int64_t lo = nd + lo_suf[depth + 1];
                int64_t hi = nd + hi_suf[depth + 1];
                if (lo + pymod(target - lo, n) > hi)
                    continue;
            }
            idx[depth] = i;
            sol[depth] = c;
            ucols[depth + 1] = uc | ((int64_t)1 << c);
            usyms[depth + 1] = use_syms ? us | ((int64_t)1 << s) : us;
            dsum[depth + 1] = nd;
            depth++;
            idx[depth] = row_start[depth];
            moved = 1;
            break;
        }
        if (!moved) {
            idx[depth] = i;
            depth--;
        }
    }
    status = count > 0;
done:
    totals[0] = count;
    totals[1] = nodes;
    totals[2] = min_block;
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
    int64_t target = n % 2 ? 0 : n / 2;
    for (int64_t j = 0; j < k; j++) {
        int64_t fr = cells[2 * j], fc = cells[2 * j + 1];
        int64_t fs = base[3 * (fr * n + fc) + 1];
        int64_t len = 0, totals[3];
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
        status[j] = dfs(cand, row_start, lo_suf, hi_suf, n, target, 1, 0, 1, budget, 0, 0, 0,
                        cols + j * n, NULL, NULL, NULL, totals);
        nodes[j] = totals[1];
    }
}
