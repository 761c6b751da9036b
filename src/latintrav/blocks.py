"""Block analysis of the order-3m square: hit counts, symmetries, hit theorem.

The square splits into nine m x m subsquares indexed (i, j) in {1,2,3}^2.
For a transversal, x[i][j] counts its cells inside block (i, j); the row and
column sums of x all equal m.  The claim checked here is that every
transversal hits all nine blocks at least once.  As in the paper's proof, two
constrained searches refute a transversal that misses block (2,2) or block
(1,1) entirely, and the two autotopisms tau and phi carry those two blocks
onto the other seven: an autotopism maps transversals to transversals, so a
transversal missing the image of an unavoidable block would map back to one
missing the block itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    Isotopism,
    LatinSquare,
    LatinSquareError,
    _isotopism_image,
    diagonal_cols,
)
from . import engine
from .families import build_family


class SumViolation(LatinSquareError):
    """Block hit counts whose row/column sums differ from m (caller error)."""


class NotAutotopism(LatinSquareError):
    """The isotopism does not fix the square it was checked against."""


# Images of blocks under the two standard isotopisms of build_L(m).
TAU_BLOCK_MAP = {(2, 2): (3, 3), (1, 2): (1, 3), (3, 1): (2, 1), (2, 3): (3, 2)}
PHI_BLOCK_MAP = {(1, 1): (2, 3), (2, 2): (1, 2), (3, 3): (3, 1)}


def block_of(entry_or_cell, m: int) -> tuple[int, int]:
    """1-based block index (i, j) of a cell: i = r//m + 1, j = c//m + 1."""
    if hasattr(entry_or_cell, "row"):
        r, c = entry_or_cell.row, entry_or_cell.col
    else:
        r, c = entry_or_cell[0], entry_or_cell[1]
    if not (0 <= r < 3 * m and 0 <= c < 3 * m):
        raise DomainError(f"cell ({r},{c}) outside an order-{3 * m} square")
    return (r // m + 1, c // m + 1)


def block_cells(i: int, j: int, m: int) -> tuple[tuple[int, int], ...]:
    """All m*m cells of block (i, j)."""
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise DomainError(f"block index ({i},{j}) outside 1..3")
    return tuple((r, c)
                 for r in range((i - 1) * m, i * m)
                 for c in range((j - 1) * m, j * m))


def block_hits(square: LatinSquare, transversal, m: int) -> tuple[tuple[int, ...], ...]:
    """3x3 matrix of the transversal's cell counts per block; sums must be m."""
    cols = diagonal_cols(transversal)
    if square.order != 3 * m or len(cols) != square.order:
        raise DomainError(f"expected a diagonal of an order-{3 * m} square")
    x = [[0] * 3 for _ in range(3)]
    for r, c in enumerate(cols):
        i, j = block_of((r, c), m)
        x[i - 1][j - 1] += 1
    for t in range(3):
        if sum(x[t]) != m or sum(x[i][t] for i in range(3)) != m:
            raise SumViolation(f"block sums {x} do not all equal m={m}")
    return tuple(tuple(row) for row in x)


def _swap_blocks(m: int, first: int, second: int) -> tuple[int, ...]:
    """Permutation of 0..3m-1 swapping thirds `first` and `second` pointwise."""
    perm = list(range(3 * m))
    for t in range(m):
        a, b = first * m + t, second * m + t
        perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def automorphism_tau(m: int) -> Isotopism:
    """(alpha, alpha, alpha) with alpha swapping the middle and last thirds."""
    if m < 3 or m % 2 == 0:
        raise DomainError(f"block square symmetries need odd m >= 3, got {m}")
    alpha = _swap_blocks(m, 1, 2)
    return Isotopism(alpha, alpha, alpha)


def autotopism_phi(m: int) -> Isotopism:
    """Rows swap thirds 1,2; columns swap thirds 1,3; symbols per the cycle list."""
    if m < 3 or m % 2 == 0:
        raise DomainError(f"block square symmetries need odd m >= 3, got {m}")
    alpha = _swap_blocks(m, 0, 1)
    beta = _swap_blocks(m, 0, 2)
    gamma = list(range(3 * m))
    gamma[0], gamma[2 * m - 1] = 2 * m - 1, 0
    for t in range(m - 1):
        gamma[m + t], gamma[2 * m + t] = 2 * m + t, m + t
    return Isotopism(alpha, beta, tuple(gamma))


def block_image_map(iso: Isotopism, m: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Where each block's cell set lands under (alpha, beta).

    Raises DomainError when some block's image straddles several blocks (the
    row or column permutation does not respect the banding).
    """
    def band_image(perm):
        bands = []
        for t in range(3):
            images = {perm[v] // m for v in range(t * m, (t + 1) * m)}
            if len(images) != 1:
                raise DomainError(f"third {t + 1} is not mapped onto a single third")
            bands.append(images.pop() + 1)
        return bands

    row_band = band_image(iso.alpha)
    col_band = band_image(iso.beta)
    return {(i, j): (row_band[i - 1], col_band[j - 1])
            for i in range(1, 4) for j in range(1, 4)}


def verify_block_maps(square: LatinSquare, iso: Isotopism, m: int,
                      expected: dict | None = None) -> bool:
    """Check iso fixes the square and realizes the expected block images.

    The image of every cell is compared with the square's own array; the
    image of a latin square under an isotopism is latin, so it is not
    validated again.  Raises BadPermutation when iso acts on another order
    and NotAutotopism when some cell differs.
    """
    if not np.array_equal(_isotopism_image(square, iso), square.to_array()):
        raise NotAutotopism("isotopism does not fix the square")
    image = block_image_map(iso, m)
    if expected is None:
        return True
    return all(image[src] == dst for src, dst in expected.items())


@dataclass(frozen=True)
class TheoremCheck:
    """Outcome of the block-hit verification for one m.

    ``min_block_hits`` is 0 when a refutation found a transversal that misses
    a block, 1 when every block is unavoidable and the first transversal hits
    some block exactly once, and None otherwise (also when a budget ran out).
    ``transversal_count`` is None when the enumeration that counts ran out of
    budget; ``passed`` rests on the refutations and the block closure alone.
    """

    m: int
    transversal_count: int | None
    min_block_hits: int | None
    passed: bool
    block22_ok: bool
    block11_ok: bool
    budget_exhausted: bool

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "transversalCount": self.transversal_count,
            "minBlockHits": self.min_block_hits,
            "pass": self.passed,
            "block22OK": self.block22_ok,
            "block11OK": self.block11_ok,
            "budgetExhausted": self.budget_exhausted,
        }


def _carried_blocks(square: LatinSquare, m: int, blocks) -> set[tuple[int, int]]:
    """The closure of ``blocks`` under the block images of tau and phi.

    Both are first checked to fix ``square`` (NotAutotopism otherwise), so
    every block in the closure is unavoidable when ``blocks`` are.
    """
    images = []
    for iso in (automorphism_tau(m), autotopism_phi(m)):
        verify_block_maps(square, iso, m)
        images.append(block_image_map(iso, m))
    reached = set(blocks)
    while True:
        grown = reached | {image[block] for image in images for block in reached}
        if grown == reached:
            return reached
        reached = grown


def verify_hit_theorem(m: int, node_budget: int | None = None) -> TheoremCheck:
    """Check that every transversal of build_L(m) hits all nine blocks.

    This is the paper's proof run by machine: forbidding every cell of block
    (2,2), or of block (1,1), leaves no transversal, and the closure of those
    two blocks under tau and phi is all nine.  A full enumeration adds the
    transversal count, and a first-hit search the first transversal, which
    shows that at least one transversal exists and, when it hits some block
    exactly once, that the least number of hits is 1.  ``node_budget`` caps
    each search.

    When only the enumeration runs out of budget, the theorem can still
    pass: the count is then None and ``budget_exhausted`` True.  The
    first-hit search visits a subset of the enumeration's nodes (a prefix of
    its walk, less the subtrees its forward check drops), so it finishes
    whenever the enumeration does.
    """
    square = build_family("L", m=m)
    try:
        count = engine.count_and_cover(square, node_budget=node_budget).count
    except engine.BudgetExceeded:
        count = None
    try:
        first = engine.find(square, node_budget=node_budget)
    except engine.BudgetExceeded:
        first = None
    exhausted = count is None
    exists = first is not None

    def block_is_unavoidable(i, j):
        """Whether no transversal misses block (i, j); None when the budget ran out."""
        try:
            return engine.find(square, forbidden_cells=block_cells(i, j, m),
                               node_budget=node_budget) is None
        except engine.BudgetExceeded:
            return None

    refuted = (block_is_unavoidable(2, 2), block_is_unavoidable(1, 1))
    exhausted = exhausted or None in refuted
    block22, block11 = (verdict is True for verdict in refuted)
    all_unavoidable = block22 and block11 \
        and len(_carried_blocks(square, m, [(2, 2), (1, 1)])) == 9
    passed = exists and all_unavoidable
    min_hits = None
    if False in refuted:
        min_hits = 0
    elif all_unavoidable and first is not None \
            and any(1 in row for row in block_hits(square, first, m)):
        min_hits = 1
    return TheoremCheck(
        m=m,
        transversal_count=count,
        min_block_hits=min_hits,
        passed=passed,
        block22_ok=block22,
        block11_ok=block11,
        budget_exhausted=exhausted,
    )
