import copy
import gc
import hashlib
import pickle
import random
import tracemalloc
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from quandlehom import (
    Chain,
    HomologyGroup,
    Quandle,
    boundary_quandle,
    homology_group,
    is_null_homologous,
    matrix_of_boundary,
    quandle_basis,
)
from quandlehom import chains, homology, intlinalg
from quandlehom.chains import boundary_columns, coordinates
from quandlehom.errors import (
    DegenerateGeneratorError, DegreeError, NotACycleError, QuandleMismatchError,
    ResourceLimitError,
)
from quandlehom.intlinalg import _rank_and_torsion, _solve
from quandlehom.quandle import _generators

from conftest import (
    CROSS_CHECK_QUANDLES, S4_TABLE, admitted_boundary_degrees, assert_same_elimination, conjugate,
    eliminate, g_columns, trivial_table, tuple_columns,
)

# frozen from an independent Smith-normal-form computation (sympy) over
# the same boundary matrices, done before this module was written
EXPECTED_R3 = {1: (1, ()), 2: (0, ()), 3: (0, (3,))}

EXPECTED_INVENTORY = {
    "R1": {1: (1, ()), 2: (0, ()), 3: (0, ())},
    "T2": {1: (2, ()), 2: (2, ()), 3: (2, ())},
    "T3": {1: (3, ()), 2: (6, ()), 3: (12, ())},
    "R3": {1: (1, ()), 2: (0, ()), 3: (0, (3,))},
    "R4": {1: (2, ()), 2: (2, (2, 2)), 3: (2, (2, 2, 2, 2))},
    "S4": {1: (1, ()), 2: (0, (2,)), 3: (0, (2, 4))},
    # pinned later, when the inventory grew to every class of order <= 4;
    # test_against_independent_sympy_recomputation recomputes it
    "R3 + pt": {1: (2, ()), 2: (2, ()), 3: (2, (3,))},
}


def sympy_homology(q, degree):
    """Independent recomputation: sympy rank + Smith normal form."""
    dim = len(quandle_basis(q, degree))
    if degree == 1:
        rank_down = 0
    else:
        rank_down = Matrix(matrix_of_boundary(q, degree).to_rows()).rank()
    up = Matrix(matrix_of_boundary(q, degree + 1).to_rows())
    rank_up = up.rank()
    torsion = []
    if up.rows and up.cols:
        s = smith_normal_form(up)
        for i in range(min(s.rows, s.cols)):
            d = abs(int(s[i, i]))
            if d >= 2:
                torsion.append(d)
    return dim - rank_down - rank_up, tuple(sorted(torsion))


def orbit_count(q):
    """Orbits of the inner automorphism group: x and x*y share an orbit."""
    parent = list(range(q.order))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x in range(q.order):
        for y in range(q.order):
            parent[root(q.table[x][y])] = root(x)
    return len({root(x) for x in range(q.order)})


def inner_automorphism_order(q):
    """|Inn(X)|: the right translations x -> x*y closed under composition."""
    n = q.order
    gens = [tuple(q.table[x][y] for x in range(n)) for y in range(n)]
    group = {tuple(range(n))}
    frontier = set(group)
    while frontier:
        frontier = {tuple(s[g[x]] for x in range(n)) for g in frontier for s in gens} - group
        group |= frontier
    return len(group)


def generated(q, elements):
    """The subquandle that `elements` generate: closed under x * y."""
    closure = set(elements)
    while new := {q.act(a, b) for a in closure for b in closure} - closure:
        closure |= new
    return closure


def prime_factors(d):
    primes, p = [], 2
    while p * p <= d:
        if d % p == 0:
            primes.append(p)
            while d % p == 0:
                d //= p
        p += 1
    return primes + ([d] if d > 1 else [])


class TestHomologyGroupType:
    def test_validation(self):
        with pytest.raises(ValueError):
            HomologyGroup(-1, ())
        with pytest.raises(ValueError):
            HomologyGroup(0, (1,))
        with pytest.raises(ValueError):
            HomologyGroup(0, (4, 6))  # 4 does not divide 6

    def test_str_and_json(self):
        g = HomologyGroup(2, (2, 4))
        assert str(g) == "Z + Z + Z/2 + Z/4"
        assert str(HomologyGroup(0, ())) == "0"
        assert g.to_json_dict() == {"free_rank": 2, "torsion": [2, 4]}


class TestHomologyGroups:
    def test_r3_frozen_values(self, r3):
        for degree, (rank, torsion) in EXPECTED_R3.items():
            g = homology_group(r3, degree)
            assert (g.free_rank, g.torsion) == (rank, torsion), degree

    def test_inventory_frozen_values(self, inventory):
        by_name = dict(inventory)
        for name, expected in EXPECTED_INVENTORY.items():
            q = by_name[name]
            for degree, (rank, torsion) in expected.items():
                g = homology_group(q, degree)
                assert (g.free_rank, g.torsion) == (rank, torsion), (name, degree)

    def test_against_independent_sympy_recomputation(self, inventory):
        for name, q in inventory:
            for degree in (1, 2, 3):
                g = homology_group(q, degree)
                rank, torsion = sympy_homology(q, degree)
                assert g.free_rank == rank, (name, degree)
                assert tuple(sorted(g.torsion)) == torsion, (name, degree)

    def test_free_rank_oracle(self, inventory):
        # rank H^Q_n = k(k-1)^(n-1) for a quandle with k orbits
        # (Litherland-Nelson 2003, Etingof-Grana 2003)
        quandles = inventory + [(f"R{n}", Quandle.dihedral(n)) for n in (5, 6, 7)]
        assert [orbit_count(q) for _, q in quandles] == [
            1, 2, 3, 2, 1, 4, 3, 3, 2, 2, 2, 1,  # orders 1 to 4, as in the inventory
            1, 2, 1,  # R5, R6, R7
        ]
        for name, q in quandles:
            k = orbit_count(q)
            for degree in (1, 2, 3, 4) if q.order <= 5 else (1, 2, 3):
                g = homology_group(q, degree)
                assert g.free_rank == k * (k - 1) ** (degree - 1), (name, degree)

    def test_torsion_primes_divide_the_inner_automorphism_group_order(self, inventory):
        # Etingof-Grana ("On rack cohomology", 2003): for a finite rack X and
        # a field k whose characteristic does not divide |Inn(X)|, the rack
        # cohomology H^n_R(X; k) is fixed by the orbits.  Char 0 gives the
        # free rank, so by universal coefficients such a prime p divides no
        # invariant factor of H^R_n(X; Z); H^Q_n is a summand of H^R_n
        # (Litherland-Nelson 2003), so p divides none of H^Q_n either
        orders = {}
        for name, q in inventory:
            orders[name] = inner_automorphism_order(q)
            for degree in range(1, 6):
                for d in homology_group(q, degree).torsion:
                    assert all(orders[name] % p == 0 for p in prime_factors(d)), (name, degree, d)
        assert list(orders.values()) == [1, 1, 1, 2, 6, 1, 2, 2, 6, 3, 4, 12]

    def test_larger_dihedral_regression_values(self):
        # H_3(R_p) = Z/p and H_4(R5) = Z/5 (Mochizuki's 3-cocycle has order p)
        assert homology_group(Quandle.dihedral(5), 3) == HomologyGroup(0, (5,))
        assert homology_group(Quandle.dihedral(5), 4) == HomologyGroup(0, (5,))
        assert homology_group(Quandle.dihedral(7), 3) == HomologyGroup(0, (7,))

    def test_ladder_groups_are_pinned(self):
        # the benchmark ladder's groups that no other test here fixes
        assert homology_group(Quandle.dihedral(4), 4) == HomologyGroup(2, (2,) * 10)
        assert homology_group(Quandle.from_table(S4_TABLE), 4) == HomologyGroup(0, (2, 2, 4))
        assert homology_group(Quandle.dihedral(6), 3) == HomologyGroup(2, (3, 3))

    def test_degree_must_be_positive(self, r3):
        with pytest.raises(DegreeError):
            homology_group(r3, 0)

    def test_non_int_degree_rejected_cold_and_warm(self):
        # 2.0 == 2 and True == 1 hash alike, and the quandle's store is keyed
        # by the arguments alone: the check must come before any lookup
        q = Quandle.from_table([[x] * 7 for x in range(7)])  # no other test uses it
        for degree in (2.0, True):
            with pytest.raises(DegreeError):
                homology_group(q, degree)  # cold
        assert q._store == {}
        assert homology_group(q, 2) == HomologyGroup(42, ())
        assert homology_group(q, 1) == HomologyGroup(7, ())
        for degree in (2.0, True):
            with pytest.raises(DegreeError):
                homology_group(q, degree)  # warm

    def test_invariant_under_quandle_relabeling(self, r3):
        # x -> x + 1 mod 3 is an automorphism, so conjugation returns the
        # identical table; invariance there is exact by construction
        shift = [1, 2, 0]
        unshift = [2, 0, 1]
        assert conjugate(r3, shift, unshift) == r3

        # a transposition is not an automorphism of the order-4 dihedral
        # quandle: the table genuinely changes but homology must not
        r4 = Quandle.dihedral(4)
        swap = [1, 0, 2, 3]
        relabeled = conjugate(r4, swap, swap)
        assert relabeled != r4
        for degree in (1, 2, 3):
            assert homology_group(relabeled, degree) == homology_group(r4, degree)


class TestIsNullHomologous:
    def test_cbar1_is_not_null_homologous(self, r3, cbar1):
        assert is_null_homologous(cbar1, r3) is False

    def test_zero_chain_bounds(self, r3):
        assert is_null_homologous(Chain.zero(3), r3) is True

    def test_boundaries_of_all_degree4_generators_bound(self, r3):
        for gen in quandle_basis(r3, 4):
            cycle = boundary_quandle(Chain.generator(gen), r3)
            assert is_null_homologous(cycle, r3) is True, gen

    def test_boundaries_of_random_degree4_chains_bound(self, r3):
        rng = random.Random(31)
        basis4 = quandle_basis(r3, 4)
        for _ in range(25):
            d = Chain(4, [(rng.choice(basis4), rng.randint(-5, 5)) for _ in range(5)])
            cycle = boundary_quandle(d, r3)
            assert is_null_homologous(cycle, r3) is True

    def test_verdict_is_sign_invariant(self, r3, cbar1):
        assert is_null_homologous(cbar1, r3) == is_null_homologous(-cbar1, r3)
        boundary = boundary_quandle(Chain.generator((0, 1, 0, 2)), r3)
        assert is_null_homologous(boundary, r3) == is_null_homologous(-boundary, r3)

    def test_non_cycle_is_an_error_not_false(self, r3):
        with pytest.raises(NotACycleError):
            is_null_homologous(Chain.generator((2, 0, 2)), r3)

    def test_degenerate_generator_rejected(self, r3):
        with pytest.raises(DegenerateGeneratorError):
            is_null_homologous(Chain.generator((1, 1, 2)), r3)

    @pytest.mark.parametrize("check", [coordinates, is_null_homologous])
    def test_chain_over_a_larger_quandle_is_a_mismatch(self, r3, check):
        with pytest.raises(QuandleMismatchError) as exc:
            check(Chain.generator((0, 4, 0)), r3)
        assert isinstance(exc.value, ValueError)
        assert str(exc.value) == "tuple (0, 4, 0) out of range for quandle of order 3"

    def test_multiples_of_cbar1_detect_order_three_class(self, r3, cbar1):
        # the class generates Z/3, so exactly multiples of 3 bound
        assert is_null_homologous(2 * cbar1, r3) is False
        assert is_null_homologous(3 * cbar1, r3) is True
        assert is_null_homologous(6 * cbar1, r3) is True


class TestBoundaryMatrixEliminatedOnce:
    @pytest.fixture
    def eliminated(self, monkeypatch):
        """The shape of each matrix whose rows the builder makes for a kept
        reduction, recorded when the pivot pass runs on those rows."""
        built, shapes = [], []

        def rows(quandle, degree, paired):
            built.append(chains._cell_count(quandle, degree))
            return original_rows(quandle, degree, paired)

        def pivot_pass(rows, cols):
            shapes.append((len(rows), built.pop()))  # one pass per build
            return original_pass(rows, cols)

        original_rows, original_pass = homology._rows, intlinalg._pivot_pass
        monkeypatch.setattr(homology, "_rows", rows)
        monkeypatch.setattr(intlinalg, "_pivot_pass", pivot_pass)
        return shapes

    def test_r5_queries_reuse_the_elimination_of_d4(self, eliminated):
        # the three-term cycle generates H_3(R5) = Z/5, so adding c times it
        # to a boundary gives a cycle that bounds iff 5 divides c
        r5 = Quandle.dihedral(5)
        generator = Chain(3, [((0, 3, 0), -1), ((0, 3, 2), 1), ((1, 0, 1), 1)])
        rng = random.Random(53)
        basis4 = quandle_basis(r5, 4)
        queries = []
        for i in range(16):
            d = Chain(4, [(rng.choice(basis4), rng.randint(-3, 3)) for _ in range(4)])
            queries.append((boundary_quandle(d, r5) + (i % 5) * generator, i % 5 == 0))

        assert homology_group(r5, 3) == HomologyGroup(0, (5,))
        # d_2, d_3 and d_4
        assert eliminated == [(5, 20), (20, 80), (80, 320)]
        for z, bounds in queries:
            assert is_null_homologous(z, r5) is bounds
        assert len(eliminated) == 3


    def test_each_degree_up_eliminates_one_more_matrix(self, eliminated):
        r5 = Quandle.dihedral(5)
        assert homology_group(r5, 3) == HomologyGroup(0, (5,))
        assert len(eliminated) == 3  # d_2, d_3 and d_4
        assert homology_group(r5, 4) == HomologyGroup(0, (5,))
        assert len(eliminated) == 4

    def test_each_reduction_takes_its_smith_form_once(self, monkeypatch):
        shapes = []

        def counting(w, m, n):
            shapes.append((m, n))
            return original(w, m, n)

        original = intlinalg._smith
        monkeypatch.setattr(intlinalg, "_smith", counting)
        r5 = Quandle.dihedral(5)
        core = {n: homology._reduction(r5, n)[1].shape for n in (3, 4, 5)}
        assert homology_group(r5, 3) == HomologyGroup(0, (5,))
        assert shapes == [core[3], core[4]]
        # H_4 reads d_4's Smith form kept by H_3 and takes only d_5's
        assert homology_group(r5, 4) == HomologyGroup(0, (5,))
        assert shapes == [core[3], core[4], core[5]]
        assert homology_group(r5, 3) == homology_group(r5, 4) == HomologyGroup(0, (5,))
        assert len(shapes) == 3


# The complex is reduced as a whole: d_{n+1} is eliminated on its columns
# that end in a generating set G, without the rows that are pivot columns of
# d_n.  These check it against the full boundary matrices, all columns and
# rows kept.

NULL_TEST_QUANDLES = {
    "R3": Quandle.dihedral(3),
    "R4": Quandle.dihedral(4),
    "R5": Quandle.dihedral(5),
    "R6": Quandle.dihedral(6),
    "S4": Quandle.from_table(S4_TABLE),
    "T2": Quandle.from_table(trivial_table(2)),
    # G = {0, 1, 2}: every other quandle here has G = {0, 1} or is trivial
    "R3xT2": dict(CROSS_CHECK_QUANDLES)["R3xT2"],
    "transpositions of S4": dict(CROSS_CHECK_QUANDLES)["transpositions of S4"],
}
NULL_TEST_CASES = [(name, degree) for name in NULL_TEST_QUANDLES for degree in (2, 3)]


# the heavy reductions of the benchmark's homology ladder besides d_5(R5):
# (quandle, degree, steps, core shape, core rows, zero rows, the first four
# and the last core columns, and the sha256 of the core columns, of the core
# and of the (p, j, u) pivot sequence)
HEAVY_LADDER_REDUCTIONS = [
    ("R3", 6, 31, (1, 12), [42], [44], ([64, 66, 72, 75], 94), [
        "c9ba119c9ddd64fd2917603fa293fa599231925b568f92e989bec48cc95ee4e2",
        "a78d8eba0c64e060dad7f1ceb41bb7618554e9a5be38c97024e63a25a9e9cf1e",
        "e9f5def95a3954eef343de4d39d54c54e7481dff1545205d38c315aa8447b183",
    ]),
    ("R4", 5, 70, (16, 62), [21, 57, 66, 67, 72, 75, 78, 79, 87, 88, 90, 94, 97, 99, 102, 105],
     [], ([33, 51, 57, 60], 322), [
        "7719fa913ac411128293b506c2eaf8b889331ab911b9649caa8e8c346794231a",
        "e4ed86660119ac1b86610ca2ece8494137a988aeb8d93148e532e685f19fe8e5",
        "de12c5631d7f98cac2358dc56a17145c1db4713a1f67ec6a691b9fe75949b76b",
    ]),
    ("S4", 5, 78, (5, 65), [85, 87, 96, 99, 102], [], ([66, 153, 159, 160], 322), [
        "b52f9cea6e97030a706ba44e181647137e4abbefcca38749be5506f871b38693",
        "a47688d47eda45273221b8df8b1e56c28e7ea5ae292c9050bc369081ec0eb287",
        "bae8bb4de098ae27ecb0c80678b0ee729462283099720b3288bcb722d6a98348",
    ]),
    ("R6", 4, 122, (4, 16), [10, 41, 121, 146], [], ([505, 520, 555, 565], 741), [
        "c60d49682eabc2fdde9cb15a91435803b447510bec3651f66ecb40c81f51fbbc",
        "d9f7f5522eddc26cd4efed12d8a79c99bbc74f29177300ca67c12643e98b0866",
        "cf88a184478c21fa3a99bd1db93092f88af0fb4b9013f8513ab29dc9fdf78dcf",
    ]),
    ("R7", 4, 215, (1, 24), [180], [], ([900, 907, 913, 919], 1279), [
        "c10e88887325ebb1008b6b26975c43833d3e4a233e1edbf698d8faccc3bdff8f",
        "96e681fac0927eb3d3350f2b4203f3f1029d0217c424d42c2ad615ee3bcfa754",
        "15048922133c962a02ba164731de11ac06168ce11c7c9b794aef85adfb89e083",
    ]),
]


@lru_cache(maxsize=None)
def full_upper_boundary(name, degree):
    """The full d_{degree+1} and its elimination on every row and column,
    made once per case (solve_in_image would make it again on each call),
    and the primitive integer cycles of a rational kernel basis of d_degree
    that it does not bound."""
    q = NULL_TEST_QUANDLES[name]
    upper = boundary_columns(q, degree + 1)
    reduction = eliminate(upper)
    cycles = []
    for v in Matrix(matrix_of_boundary(q, degree).to_rows()).nullspace():
        scale = lcm(*(int(e.q) for e in v))
        w = [int(e * scale) for e in v]
        w = [e // gcd(*w) for e in w]
        if _solve(upper, reduction, w) is None:
            cycles.append(w)
    return upper, reduction, cycles


def unit_free(core):
    """No entry of the core is +-1.  On an arbitrary matrix, fill can bring a
    unit entry into a column that the one elimination pass has left behind;
    on a quandle boundary matrix it does not."""
    return all(abs(e) != 1 for row in core.to_rows() for e in row)


class TestReducedComplex:
    def test_rank_and_torsion_match_the_full_matrices(self, inventory):
        for name, q in inventory + CROSS_CHECK_QUANDLES:
            for degree in admitted_boundary_degrees(q):
                full = eliminate(boundary_columns(q, degree))
                kept = homology._reduction(q, degree)
                assert _rank_and_torsion(kept) == _rank_and_torsion(full), (name, degree)
                assert unit_free(full[1]) and unit_free(kept[1]), (name, degree)

    def test_generators_generate_the_quandle(self, inventory):
        for name, q in inventory + CROSS_CHECK_QUANDLES:
            assert generated(q, _generators(q)) == set(range(q.order)), name
        assert _generators(Quandle.from_table(trivial_table(4))) == {0, 1, 2, 3}
        assert _generators(Quandle.dihedral(7)) == {0, 1}
        assert _generators(dict(CROSS_CHECK_QUANDLES)["R3xT2"]) == {0, 1, 2}

    def test_wide_core_of_r11_keeps_one_row(self, monkeypatch):
        # d_4(R11), 1100 x 11000, is over the entry limit; eliminated on all
        # its columns it left a 3 x 6621 core for the dense Smith form
        monkeypatch.setattr(chains, "MAX_BOUNDARY_ENTRIES", 1100 * 11000)
        q = Quandle.dihedral(11)
        assert homology_group(q, 3) == HomologyGroup(0, (11,))
        assert homology._reduction(q, 4)[1].rows == 1
        assert unit_free(homology._reduction(q, 4)[1])

    @pytest.mark.parametrize("name,degree", NULL_TEST_CASES)
    def test_non_bounding_cycles_exist_where_homology_is_nontrivial(self, name, degree):
        _, _, cycles = full_upper_boundary(name, degree)
        trivial = homology_group(NULL_TEST_QUANDLES[name], degree) == HomologyGroup(0, ())
        assert bool(cycles) is not trivial

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.sampled_from(NULL_TEST_CASES), st.data())
    def test_verdict_matches_the_full_matrix(self, case, data):
        name, degree = case
        q = NULL_TEST_QUANDLES[name]
        upper, reduction, cycles = full_upper_boundary(name, degree)
        basis = quandle_basis(q, degree + 1)
        terms = data.draw(st.lists(
            st.tuples(st.sampled_from(basis), st.integers(-3, 3)), max_size=4
        ))
        z = boundary_quandle(Chain(degree + 1, terms), q)
        if cycles:
            multiples = data.draw(st.lists(
                st.tuples(st.integers(0, len(cycles) - 1), st.integers(-6, 6)), max_size=2
            ))
            basis_n = quandle_basis(q, degree)
            for k, c in multiples:
                z = z + Chain(degree, [(t, c * e) for t, e in zip(basis_n, cycles[k]) if e])
        expected = _solve(upper, reduction, coordinates(z, q)) is not None
        assert is_null_homologous(z, q) is expected

    def test_r5_degree_5_reduction_is_pinned(self):
        # the kept columns (those ending in G = {0, 1}), the rows paired
        # below and the pivot rule (a unit entry, shortest row, then lowest
        # row) fix every step: a change to any of them changes the digest
        steps, core, core_rows, core_cols, zero_rows = homology._reduction(Quandle.dihedral(5), 5)
        assert len(steps) == 255
        assert core.shape == (1, 151)
        assert (core_rows, zero_rows) == ([284], [285])
        assert core_cols[:4] == [537, 560, 601, 605] and core_cols[-1] == 1277
        assert hashlib.sha256(repr(core_cols).encode()).hexdigest() == (
            "770b846209a73b8f220568add1fe2f3392e445297da3879fe70ba5b6ddb00312"
        )
        assert hashlib.sha256(repr(core.to_rows()).encode()).hexdigest() == (
            "e7a5210d6f05dfe6702240a9158d1262ad69e75f573a734746cbcdfa32281575"
        )
        pivots = repr([(p, j, u) for p, j, u, _, _ in steps]).encode()
        assert hashlib.sha256(pivots).hexdigest() == (
            "0ed9a79a111b008fd3f923066bd6247f84f7d8cbcc1bc7f7ebdf39407653c00d"
        )

    @pytest.mark.parametrize(
        "name,degree,steps,shape,core_rows,zero_rows,col_ends,digests", HEAVY_LADDER_REDUCTIONS
    )
    def test_heavy_ladder_reduction_is_pinned(
        self, name, degree, steps, shape, core_rows, zero_rows, col_ends, digests
    ):
        # pinned like d_5(R5) above, from the kernel as it stood before the
        # per-step bookkeeping was cut
        q = Quandle.from_table(S4_TABLE) if name == "S4" else Quandle.dihedral(int(name[1:]))
        reduction = homology._reduction(q, degree)
        assert len(reduction[0]) == steps
        assert reduction[1].shape == shape
        assert (reduction[2], reduction[4]) == (core_rows, zero_rows)
        assert (reduction[3][:4], reduction[3][-1]) == col_ends
        pivots = [(p, j, u) for p, j, u, _, _ in reduction[0]]
        assert [
            hashlib.sha256(repr(x).encode()).hexdigest()
            for x in (reduction[3], reduction[1].to_rows(), pivots)
        ] == digests

    def test_full_column_guard_refuses_a_non_cycle_the_kept_rows_accept(self, r3):
        d4 = boundary_columns(r3, 4)
        reduction = homology._reduction(r3, 4)
        paired = sorted({j for _, j, _, _, _ in homology._reduction(r3, 3)[0]})
        assert paired
        for j in paired:
            b = d4.apply([1] + [0] * (d4.cols - 1))
            assert intlinalg._solve(d4, reduction, b) is not None
            b[j] += 1
            with pytest.raises(AssertionError, match="non-solution"):
                intlinalg._solve(d4, reduction, b)


class TestOrderFive:
    """The 22 classes of order 5 through the checks whose oracle is a
    theorem or a closure, and through sympy's H_1 and H_2 (sympy needs
    seconds for H_3); the builder and reduction oracles run on them beside
    the inventory."""

    def test_against_independent_sympy_recomputation(self, order_five):
        for i, q in enumerate(order_five):
            for degree in (1, 2):
                g = homology_group(q, degree)
                assert (g.free_rank, g.torsion) == sympy_homology(q, degree), (i, degree)

    def test_generators_generate_the_quandle(self, order_five):
        for i, q in enumerate(order_five):
            assert generated(q, _generators(q)) == set(range(5)), i

    def test_free_rank_oracle(self, order_five):
        orbits = [orbit_count(q) for q in order_five]
        # T5 first; the last three are the connected ones: Z/5 with t = 2, 3, and R5
        assert orbits == [5, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 2, 3, 3, 2, 3, 2, 2, 2, 1, 1, 1]
        for i, (q, k) in enumerate(zip(order_five, orbits)):
            for degree in (1, 2, 3, 4):
                assert homology_group(q, degree).free_rank == k * (k - 1) ** (degree - 1), (i, degree)

    def test_torsion_primes_divide_the_inner_automorphism_group_order(self, order_five):
        # the theorem quoted in TestHomologyGroups' test of the same name
        orders = [inner_automorphism_order(q) for q in order_five]
        assert orders == [1, 2, 2, 2, 6, 3, 3, 3, 4, 4, 4, 12, 2, 4, 4, 4, 6, 6, 6, 20, 20, 10]
        for i, (q, order) in enumerate(zip(order_five, orders)):
            for degree in range(1, 5):
                for d in homology_group(q, degree).torsion:
                    assert all(order % p == 0 for p in prime_factors(d)), (i, degree, d)

    def test_kept_cores_are_unit_free(self, order_five):
        for i, q in enumerate(order_five):
            for degree in admitted_boundary_degrees(q):
                assert unit_free(homology._reduction(q, degree)[1]), (i, degree)


def full_columns_key(degree):
    """The store key of the full d_degree, built as SparseColumns."""
    return chains.boundary_columns.__wrapped__, (degree,)


class TestTopDegreeBuilds:
    """H_n reads d_{n+1} only through its reduction, built as rows on its
    G-columns, and builds no full d_{n+1}.  A degree-n query reads the same
    reduction and checks its preimage on the full d_{n+1}, built once per
    quandle and kept.  Neither builds a tuple basis or cells above degree n."""

    @pytest.fixture
    def built(self, monkeypatch):
        record = {"matrices": [], "reductions": [], "bases": [], "cells": []}

        def sparse_columns(rows, columns):
            record["matrices"].append((rows, len(columns)))
            return intlinalg.SparseColumns(rows, columns)

        def reduction_rows(quandle, degree, paired):
            rows, cols = original_rows(quandle, degree, paired)
            # the pass consumes both, so the columns with an entry are read now
            used = set(cols).union(*(row for row in rows if row))
            record["reductions"].append((len(rows), used))
            return rows, cols

        def basis(quandle, degree):
            record["bases"].append(degree)
            return original_basis(quandle, degree)

        def cells(quandle, degree):
            record["cells"].append(degree)
            return original_cells(quandle, degree)

        original_basis, original_cells = chains.quandle_basis, chains._cells
        original_rows = homology._rows
        monkeypatch.setattr(chains, "SparseColumns", sparse_columns)
        monkeypatch.setattr(homology, "_rows", reduction_rows)
        monkeypatch.setattr(chains, "quandle_basis", basis)
        monkeypatch.setattr(chains, "_cells", cells)
        return record

    @staticmethod
    def assert_reduced_on_g(record, q, top):
        """The reduction of d_top reads only G-columns, and nothing above
        degree top - 1 and no tuple basis was built."""
        rows = len(quandle_basis(q, top - 1))
        ends = _generators(q)
        outside = {k for k, t in enumerate(quandle_basis(q, top)) if t[-1] not in ends}
        reduced = [used for n, used in record["reductions"] if n == rows]
        assert reduced, "the reduction of d_top was not built"
        for used in reduced:
            assert not used & outside
        assert record["bases"] == []
        assert max(record["cells"]) == top - 1

    def test_homology_group_builds_no_full_d5_of_r5(self, built):
        r5 = Quandle.dihedral(5)
        assert homology_group(r5, 4) == HomologyGroup(0, (5,))
        self.assert_reduced_on_g(built, r5, 5)
        assert (320, 1280) not in built["matrices"]
        assert full_columns_key(5) not in r5._store
        # d_4, which d_5's rows are built from, is kept in full
        assert built["matrices"].count((80, 320)) == 1
        assert full_columns_key(4) in r5._store

    def test_null_homology_query_keeps_the_full_d4_of_r5(self, built):
        r5 = Quandle.dihedral(5)
        generator = Chain(3, [((0, 3, 0), -1), ((0, 3, 2), 1), ((1, 0, 1), 1)])
        boundary = boundary_quandle(Chain.generator((0, 1, 2, 3)), r5)
        assert full_columns_key(4) not in r5._store
        assert is_null_homologous(boundary, r5) is True
        assert full_columns_key(4) in r5._store
        assert is_null_homologous(boundary + generator, r5) is False
        assert is_null_homologous(2 * boundary, r5) is True
        self.assert_reduced_on_g(built, r5, 4)
        # one full d_4 for the three queries, and no d_5 at all
        assert built["matrices"].count((80, 320)) == 1
        assert not [m for m in built["matrices"] if m[0] == 320]


def relabelled_tables(q, count, seed):
    """The tables of `count` distinct relabellings of q, by seeded random
    permutations; only tables, so that no relabelled quandle outlives this."""
    rng = random.Random(seed)
    tables = {}
    while len(tables) < count:
        sigma = list(range(q.order))
        rng.shuffle(sigma)
        inv = sorted(range(q.order), key=sigma.__getitem__)
        tables.setdefault(conjugate(q, sigma, inv).table, None)
    return list(tables)


class TestKeptWorkDiesWithItsQuandle:
    """What homology derives from a quandle is kept in that quandle's own
    store: it is freed with the quandle, and copies start without it."""

    def test_memory_stays_flat_over_many_distinct_quandles(self):
        tables = relabelled_tables(Quandle.dihedral(7), 50, seed=7)
        homology_group(Quandle.dihedral(7), 2)  # warm: nothing of it is kept
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for table in tables:
                assert homology_group(Quandle(table), 2) == HomologyGroup(0, ())
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # about 72 kB per table, 3.6 MB in all, when kept for the process
        assert retained < 200_000

    def test_a_dropped_quandle_is_freed(self):
        table = relabelled_tables(Quandle.dihedral(7), 1, seed=11)[0]
        assert table != Quandle.dihedral(7).table  # no module-level quandle has it

        def live():
            return [o for o in gc.get_objects() if isinstance(o, Quandle) and o.table == table]

        q = Quandle(table)
        assert homology_group(q, 2) == HomologyGroup(0, ())
        assert live() == [q]
        del q
        gc.collect()
        assert live() == []

    @pytest.mark.parametrize("copy_of", [
        copy.deepcopy, lambda q: pickle.loads(pickle.dumps(q)),
    ], ids=["deepcopy", "pickle"])
    def test_copies_start_with_an_empty_store(self, copy_of):
        q = Quandle.dihedral(5)
        groups = [homology_group(q, degree) for degree in (2, 3, 4)]
        assert q._store
        copied = copy_of(q)
        assert copied == q and copied is not q
        assert copied._store == {}
        assert [homology_group(copied, degree) for degree in (2, 3, 4)] == groups
        assert copied._store.keys() == q._store.keys()


def delayed_fibonacci(n):
    """f_1 = f_2 = 0, f_3 = 1 and f_n = f_{n-1} + f_{n-3}."""
    f = [None, 0, 0, 1]
    while len(f) <= n:
        f.append(f[-1] + f[-3])
    return f[n]


@pytest.mark.parametrize("p,degrees", [
    (3, range(2, 10)), (5, range(2, 6)), (7, range(2, 4)), (11, range(2, 4)),
])
def test_odd_prime_dihedral_homology_is_delayed_fibonacci(p, degrees, monkeypatch):
    # H^Q_n(R_p) = (Z/p)^{f_n} for an odd prime p (conjectured by
    # Niebrzydowski and Przytycki 2009, proved by Nosaka 2013); H_9(R3)
    # needs the 768 x 1536 d_10, H_5(R5) the 1280 x 5120 d_6 and H_3(R11)
    # the 1100 x 11000 d_4, over the entry limit
    monkeypatch.setattr(chains, "MAX_BOUNDARY_ENTRIES", 1100 * 11000)
    q = Quandle.dihedral(p)
    for n in degrees:
        assert homology_group(q, n) == HomologyGroup(0, (p,) * delayed_fibonacci(n)), n
        assert unit_free(homology._reduction(q, n + 1)[1]), n
    # the top reduction, built on rows, against the full columns filtered to G
    # and the tuple oracle
    top, ends = degrees[-1] + 1, _generators(q)
    paired = {j for _, j, _, _, _ in homology._reduction(q, top - 1)[0]}
    for columns in (g_columns(q, top), tuple_columns(q, top, ends)):
        assert_same_elimination(homology._reduction(q, top), eliminate(columns, paired))


class TestResourceLimits:
    # the largest admitted requests, H_4(R5) and H_3(R7), are computed in
    # full by test_larger_dihedral_regression_values
    @pytest.fixture
    def no_basis(self, monkeypatch):
        def built(*args):
            raise AssertionError("a basis or boundary matrix was built")

        for module in (chains, homology):
            monkeypatch.setattr(module, "boundary_columns", built)
        for name in ("quandle_basis", "_cells", "matrix_of_boundary"):
            monkeypatch.setattr(chains, name, built)

    def test_oversized_boundary_refused_before_any_basis(self, no_basis):
        # d_4 of R9 is 576x4608
        with pytest.raises(ResourceLimitError, match="576x4608.*MAX_BOUNDARY_ENTRIES = 1000000"):
            homology_group(Quandle.dihedral(9), 3)

    def test_null_homology_query_refused_before_any_basis(self, no_basis):
        r9 = Quandle.dihedral(9)
        cycle = boundary_quandle(Chain.generator((0, 1, 2, 3)), r9)
        with pytest.raises(ResourceLimitError, match="576x4608.*MAX_BOUNDARY_ENTRIES = 1000000"):
            is_null_homologous(cycle, r9)
        with pytest.raises(ResourceLimitError, match="MAX_HOMOLOGY_DEGREE = 16"):
            is_null_homologous(Chain.zero(17), Quandle.dihedral(3))

    def test_degree_limit_refused_before_any_basis(self, no_basis):
        limit = chains.MAX_HOMOLOGY_DEGREE
        for degree in (limit + 1, 10**9):
            with pytest.raises(ResourceLimitError, match=f"MAX_HOMOLOGY_DEGREE = {limit}"):
                homology_group(Quandle.dihedral(2), degree)
