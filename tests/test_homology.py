import random

import pytest
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
from quandlehom.errors import (
    DegenerateGeneratorError, DegreeError, NotACycleError, ResourceLimitError
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
        assert [orbit_count(q) for _, q in quandles] == [1, 2, 3, 4, 1, 2, 1, 1, 2, 1]
        for name, q in quandles:
            k = orbit_count(q)
            for degree in (1, 2, 3, 4) if q.order <= 5 else (1, 2, 3):
                g = homology_group(q, degree)
                assert g.free_rank == k * (k - 1) ** (degree - 1), (name, degree)

    def test_larger_dihedral_regression_values(self):
        # H_3(R_p) = Z/p and H_4(R5) = Z/5 (Mochizuki's 3-cocycle has order p)
        assert homology_group(Quandle.dihedral(5), 3) == HomologyGroup(0, (5,))
        assert homology_group(Quandle.dihedral(5), 4) == HomologyGroup(0, (5,))
        assert homology_group(Quandle.dihedral(7), 3) == HomologyGroup(0, (7,))

    def test_degree_must_be_positive(self, r3):
        with pytest.raises(DegreeError):
            homology_group(r3, 0)

    def test_invariant_under_quandle_relabeling(self, r3):
        def conjugate(q, sigma, inv):
            n = q.order
            return Quandle.from_table(
                [[sigma[q.table[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
            )

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

    def test_multiples_of_cbar1_detect_order_three_class(self, r3, cbar1):
        # the class generates Z/3, so exactly multiples of 3 bound
        assert is_null_homologous(2 * cbar1, r3) is False
        assert is_null_homologous(3 * cbar1, r3) is True
        assert is_null_homologous(6 * cbar1, r3) is True


class TestBoundaryMatrixEliminatedOnce:
    def test_r5_queries_reuse_the_elimination_of_d4(self, monkeypatch):
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

        eliminated = []

        def counting(a):
            eliminated.append(a)
            return original(a)

        original = intlinalg._eliminate
        monkeypatch.setattr(intlinalg, "_eliminate", counting)
        assert homology_group(r5, 3) == HomologyGroup(0, (5,))
        before = len(eliminated)
        for z, bounds in queries:
            assert is_null_homologous(z, r5) is bounds
        assert eliminated[before:] == []


class TestResourceLimits:
    # the largest admitted requests, H_4(R5) and H_3(R7), are computed in
    # full by test_larger_dihedral_regression_values
    @pytest.fixture
    def no_basis(self, monkeypatch):
        def built(*args):
            raise AssertionError("a basis or boundary matrix was built")

        for module in (chains, homology):
            monkeypatch.setattr(module, "quandle_basis", built)
            monkeypatch.setattr(module, "matrix_of_boundary", built)

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
        limit = homology.MAX_HOMOLOGY_DEGREE
        for degree in (limit + 1, 10**9):
            with pytest.raises(ResourceLimitError, match=f"MAX_HOMOLOGY_DEGREE = {limit}"):
                homology_group(Quandle.dihedral(2), degree)
