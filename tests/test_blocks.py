import pytest

from latintrav import (
    BadPermutation,
    DomainError,
    Entry,
    Isotopism,
    apply_isotopism,
    witness_transversal,
)
from latintrav.blocks import (
    PHI_BLOCK_MAP,
    TAU_BLOCK_MAP,
    NotAutotopism,
    automorphism_tau,
    autotopism_phi,
    block_cells,
    block_hits,
    block_image_map,
    block_of,
    verify_block_maps,
    verify_hit_theorem,
)
from latintrav.delta import delta, delta_m
from latintrav.families import build_L


def test_block_of_examples():
    assert block_of((0, 1), 3) == (1, 1)
    assert block_of((8, 2), 3) == (3, 1)
    assert block_of((7, 12), 5) == (2, 3)
    with pytest.raises(DomainError):
        block_of((9, 0), 3)


@pytest.mark.parametrize("call, error", [
    (lambda: block_of((1.5, 2), 3), DomainError),
    (lambda: block_of(Entry(1, 2, 3), True), DomainError),
    (lambda: block_cells(1, 1, 2.0), DomainError),
    (lambda: block_cells(True, 1, 3), DomainError),
    (lambda: block_cells(1, 1, 0), DomainError),
    (lambda: block_cells(1, 1, -2), DomainError),
    (lambda: automorphism_tau(3.0), DomainError),
    (lambda: autotopism_phi(5.0), DomainError),
    (lambda: block_hits(build_L(3), witness_transversal("L", 9), 3.0), DomainError),
    (lambda: block_image_map(Isotopism.identity(6), 3), BadPermutation),
    (lambda: delta((0, 0, 1), 4.0), DomainError),
    (lambda: delta_m((0, 0, 1), 4.0), DomainError),
    (lambda: delta((0, 0, 1), 0), DomainError),
    (lambda: delta((0, 0, 1), -4), DomainError),
], ids=["block_of-float-cell", "block_of-bool-m", "block_cells-float-m", "block_cells-bool-i",
        "block_cells-m-0", "block_cells-m-negative", "tau-float-m", "phi-float-m",
        "block_hits-float-m", "block_image_map-order-6", "delta-float-n", "delta_m-float-m",
        "delta-n-0", "delta-n-negative"])
def test_block_and_delta_arguments_obey_integer_and_range_rules(call, error):
    """Every m, n and block index is an integer (never bool or float) of at least 1, every
    cell a pair or entry of integers, and a block map's isotopism acts on order 3m; a
    call that breaks a rule is a typed error, not a wrong value or a bare TypeError."""
    with pytest.raises(error):
        call()


def test_block_cells():
    cells = block_cells(2, 3, 3)
    assert len(cells) == 9
    assert (3, 6) in cells and (5, 8) in cells


def test_block_hits_witness_L9_all_ones():
    sq = build_L(3)
    x = block_hits(sq, witness_transversal("L", 9), 3)
    assert x == ((1, 1, 1), (1, 1, 1), (1, 1, 1))


def test_block_hits_row_col_sums(oracle):
    sq = build_L(3)
    for cols in oracle(sq.grid):
        x = block_hits(sq, cols, 3)
        assert all(sum(row) == 3 for row in x)
        assert all(sum(x[i][j] for i in range(3)) == 3 for j in range(3))
        assert min(min(row) for row in x) >= 1


@pytest.mark.parametrize("cols", [(0, 1, 2, 0, 1, 2, 0, 1, 2), (0,) * 9, tuple(range(8))],
                         ids=["first-block-column", "one-column", "too-short"])
def test_block_hits_rejects_a_non_permutation(cols):
    """Columns that are not a permutation are not a diagonal: BadPermutation, as in every
    other diagonal reader, never block sums of a non-diagonal."""
    with pytest.raises(BadPermutation, match="not a permutation"):
        block_hits(build_L(3), cols, 3)


def test_tau_phi_definitions_m3():
    tau = automorphism_tau(3)
    assert tau.alpha == tau.beta == tau.gamma
    assert tau.alpha == (0, 1, 2, 6, 7, 8, 3, 4, 5)
    phi = autotopism_phi(3)
    assert phi.alpha == (3, 4, 5, 0, 1, 2, 6, 7, 8)
    assert phi.beta == (6, 7, 8, 3, 4, 5, 0, 1, 2)
    assert phi.gamma[0] == 5   # symbol 0 swaps with 2m-1
    assert phi.gamma == (5, 1, 2, 6, 7, 0, 3, 4, 8)


@pytest.mark.parametrize("m", [3, 5, 7, 9, 21, 99])
def test_tau_phi_fix_the_square(m):
    sq = build_L(m)
    assert apply_isotopism(sq, automorphism_tau(m)) == sq
    assert apply_isotopism(sq, autotopism_phi(m)) == sq


@pytest.mark.long
def test_tau_phi_cap_sweep():
    for m in range(3, 200, 2):
        sq = build_L(m)
        assert verify_block_maps(sq, automorphism_tau(m), m, TAU_BLOCK_MAP)
        assert verify_block_maps(sq, autotopism_phi(m), m, PHI_BLOCK_MAP)


@pytest.mark.parametrize("m", [3, 5, 9])
def test_block_maps(m):
    sq = build_L(m)
    assert verify_block_maps(sq, automorphism_tau(m), m, TAU_BLOCK_MAP)
    assert verify_block_maps(sq, autotopism_phi(m), m, PHI_BLOCK_MAP)
    ident = Isotopism.identity(3 * m)
    image = block_image_map(ident, m)
    assert all(image[b] == b for b in image)


def test_verify_block_maps_rejects_non_autotopism():
    sq = build_L(3)
    shift = tuple((i + 1) % 9 for i in range(9))
    with pytest.raises(NotAutotopism):
        verify_block_maps(sq, Isotopism(shift, shift, shift), 3)


def test_verify_block_maps_compares_every_cell():
    """Swapping the last two rows, or columns, changes only those 18 cells of L9."""
    sq = build_L(3)
    ident = tuple(range(9))
    swap = (0, 1, 2, 3, 4, 5, 6, 8, 7)
    for iso in (Isotopism(swap, ident, ident), Isotopism(ident, swap, ident)):
        with pytest.raises(NotAutotopism):
            verify_block_maps(sq, iso, 3)


def test_verify_block_maps_rejects_an_isotopism_of_another_order():
    with pytest.raises(BadPermutation):
        verify_block_maps(build_L(3), automorphism_tau(5), 3)


def test_block_image_map_rejects_band_breaker():
    mixed = (0, 3, 1, 4, 2, 5, 6, 7, 8)
    with pytest.raises(DomainError):
        block_image_map(Isotopism(mixed, mixed, mixed), 3)


def test_hit_theorem_m3():
    check = verify_hit_theorem(3)
    assert check.passed
    assert check.min_block_hits == 1
    assert check.block22_ok and check.block11_ok
    assert not check.budget_exhausted
    assert check.transversal_count and check.transversal_count > 0


def test_hit_theorem_budget_marks_exhausted():
    check = verify_hit_theorem(3, node_budget=5)
    assert check.budget_exhausted
    assert not check.passed


@pytest.mark.parametrize("budget, block11", [(100, None), (9_000, True)])
def test_hit_theorem_budget_never_says_no(budget, block11):
    """At 100 nodes every search runs out (the first hit takes 1,557); at 9,000 the block
    (1,1) refutation finishes (8,772) and the block (2,2) one does not (13,020).  A search
    that ran out leaves its verdict, and so the theorem's, unknown (null), never false."""
    data = verify_hit_theorem(3, node_budget=budget).to_json_dict()
    assert data == {"m": 3, "transversalCount": None, "minBlockHits": None, "pass": None,
                    "block22OK": None, "block11OK": block11, "budgetExhausted": True}


def test_hit_theorem_passes_when_only_the_count_runs_out():
    """50,000 nodes: both refutations finish (13,020 and 8,772 nodes), the count does not
    (162,981)."""
    check = verify_hit_theorem(3, node_budget=50_000)
    assert check.passed and check.block22_ok and check.block11_ok
    assert check.transversal_count is None
    assert check.budget_exhausted


def test_hit_theorem_least_hits_survive_a_short_count():
    """The count runs out at 50,000 nodes; one first hit still gives the least hits."""
    check = verify_hit_theorem(3, node_budget=50_000)
    assert check.transversal_count is None
    assert check.min_block_hits == 1


@pytest.mark.long
def test_hit_theorem_m5(hit_theorem_m5):
    check, _ = hit_theorem_m5
    assert check.passed
    assert check.min_block_hits >= 1
    assert check.transversal_count == 6_262_440


def test_theorem_check_json_shape():
    data = verify_hit_theorem(3).to_json_dict()
    assert set(data) == {"m", "transversalCount", "minBlockHits", "pass",
                         "block22OK", "block11OK", "budgetExhausted"}


@pytest.mark.parametrize("m", [3, 5, 9])
def test_blocks_are_latin_subarrays(m):
    sq = build_L(m)
    for i in range(3):
        for j in range(3):
            rows = [sq.grid[r][j * m:(j + 1) * m] for r in range(i * m, (i + 1) * m)]
            assert all(len(set(row)) == m for row in rows)
            assert all(len({row[c] for row in rows}) == m for c in range(m))


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_symbol_classes_pin_block_residues(m):
    # grid-level fact behind the special-symbol pattern: every cell carrying a
    # non-special symbol s has (r+c) mod m determined by s; special symbols
    # only ever sit on residue 0 or m-1.
    sq = build_L(m)
    special = {0, 2 * m - 1, 3 * m - 1}
    for e in sq.entries():
        dm = (e.row + e.col) % m
        if e.sym in special:
            assert dm in (0, m - 1)
        elif e.sym < m:
            assert dm == e.sym
        elif e.sym < 2 * m - 1:
            assert dm == e.sym - m
        else:
            assert dm == e.sym - 2 * m


@pytest.mark.long
def test_L15_transversal_invariants_sampled():
    # every-transversal block coverage at m=5 is proved by two refutations and
    # the tau/phi block maps in verify_hit_theorem; here a lexicographic prefix
    # is run through the full per-transversal checks (the grid-level residue test above
    # covers the symbol pattern for all of them).
    import itertools

    from latintrav import iter_solutions, special_symbol_delta_check

    sq = build_L(5)
    for t in itertools.islice(iter_solutions(sq), 3000):
        x = block_hits(sq, t, 5)
        assert min(min(row) for row in x) >= 1
        assert special_symbol_delta_check(sq, t, 5)
