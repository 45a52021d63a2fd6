import json
import random
from itertools import product

import pytest

from quandlehom import (
    Chain,
    Quandle,
    boundary_quandle,
    boundary_rack,
    chains,
    is_degenerate,
    matrix_of_boundary,
    project_quandle,
    quandle_basis,
)
from quandlehom.errors import (
    DegenerateGeneratorError, DegreeError, ResourceLimitError, SchemaError
)

from conftest import admitted_boundary_degrees


def chain_boundary_matrix(quandle, degree):
    """The boundary matrix as lists, built one Chain per generator through
    boundary_rack and project_quandle: the slow reference for the sparse
    columns that matrix_of_boundary densifies."""
    col_basis = quandle_basis(quandle, degree)
    row_index = {t: i for i, t in enumerate(quandle_basis(quandle, degree - 1))}
    data = [[0] * len(col_basis) for _ in row_index]
    for j, gen in enumerate(col_basis):
        for tup, coeff in project_quandle(boundary_rack(Chain.generator(gen), quandle)).items():
            data[row_index[tup]][j] = coeff
    return data


class TestChainArithmetic:
    def test_zero_coefficients_are_pruned(self):
        c = Chain(2, [((0, 1), 2), ((0, 1), -2)])
        assert c.is_zero()
        assert c.items() == []

    def test_chain_plus_negation_is_empty_map(self):
        c = Chain(3, [((2, 0, 2), 5), ((1, 0, 1), -7)])
        assert (c + (-c)).items() == []

    def test_iteration_is_lexicographic(self):
        c = Chain(2, [((2, 1), 1), ((0, 1), 1), ((1, 0), 1)])
        assert c.support() == [(0, 1), (1, 0), (2, 1)]

    def test_scalar_multiplication(self):
        c = Chain.generator((1, 2))
        assert (3 * c).coefficient((1, 2)) == 3
        assert (c * -1) == -c
        assert (0 * c).is_zero()

    def test_mixed_degree_arithmetic_rejected(self):
        with pytest.raises(DegreeError):
            Chain.generator((0, 1)) + Chain.generator((0, 1, 2))
        with pytest.raises(DegreeError):
            Chain(2, [((0, 1, 2), 1)])

    def test_degree_must_be_positive(self):
        with pytest.raises(DegreeError):
            Chain(0)
        with pytest.raises(DegreeError):
            Chain(-1)

    def test_equality_ignores_construction_order(self):
        a = Chain(2, [((0, 1), 1), ((1, 2), 2)])
        b = Chain(2, [((1, 2), 2), ((0, 1), 1)])
        assert a == b
        assert hash(a) == hash(b)


class TestBoundaryRack:
    def test_degree_two_generator(self, r3):
        # d(2,0) = (2) - (2*0) = (2) - (1)
        assert boundary_rack(Chain.generator((2, 0)), r3) == Chain(
            1, [((2,), 1), ((1,), -1)]
        )

    def test_degree_three_generator(self, r3):
        expected = Chain(
            2, [((2, 2), 1), ((1, 2), -1), ((2, 0), -1), ((2, 1), 1)]
        )
        assert boundary_rack(Chain.generator((2, 0, 2)), r3) == expected

    def test_cbar1_rack_boundary(self, r3, cbar1):
        assert boundary_rack(cbar1, r3) == Chain(2, [((2, 2), 1), ((0, 0), -1)])

    def test_zero_chain(self, r3):
        assert boundary_rack(Chain.zero(3), r3) == Chain.zero(2)

    def test_degree_below_two_rejected(self, r3):
        with pytest.raises(DegreeError):
            boundary_rack(Chain.generator((1,)), r3)

    def test_out_of_range_entries_rejected(self, r3):
        with pytest.raises(ValueError):
            boundary_rack(Chain.generator((0, 5)), r3)

    def test_linearity_on_random_combinations(self, r3):
        rng = random.Random(7)
        basis3 = quandle_basis(r3, 3)
        for _ in range(25):
            c1 = Chain(3, [(rng.choice(basis3), rng.randint(-5, 5)) for _ in range(4)])
            c2 = Chain(3, [(rng.choice(basis3), rng.randint(-5, 5)) for _ in range(4)])
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            lhs = boundary_rack(a * c1 + b * c2, r3)
            rhs = a * boundary_rack(c1, r3) + b * boundary_rack(c2, r3)
            assert lhs == rhs

    def test_double_boundary_annihilates_generators(self, inventory):
        for _, q in inventory:
            for degree in (3, 4):
                for tup in product(range(q.order), repeat=degree):
                    c = boundary_rack(boundary_rack(Chain.generator(tup), q), q)
                    assert c.is_zero(), (q, tup)


class TestProjectQuandle:
    def test_drops_degenerate_generators(self):
        c = Chain(2, [((2, 2), 1), ((0, 0), -1)])
        assert project_quandle(c).is_zero()

    def test_keeps_nondegenerate(self):
        c = Chain.generator((2, 0, 2))
        assert project_quandle(c) == c

    def test_single_degenerate_triple(self):
        assert project_quandle(Chain.generator((1, 1, 2))).is_zero()

    def test_degenerate_closure(self, inventory):
        # the rack boundary of a degenerate generator lies in the span of
        # degenerate generators, so the quotient boundary is well defined
        for _, q in inventory:
            for degree in (2, 3, 4):
                for tup in product(range(q.order), repeat=degree):
                    if not is_degenerate(tup):
                        continue
                    image = boundary_rack(Chain.generator(tup), q)
                    assert project_quandle(image).is_zero(), (q, tup)


class TestBoundaryQuandle:
    def test_cbar1_is_a_quandle_cycle(self, r3, cbar1):
        assert boundary_quandle(cbar1, r3).is_zero()

    def test_single_generator(self, r3):
        expected = Chain(2, [((1, 2), -1), ((2, 0), -1), ((2, 1), 1)])
        assert boundary_quandle(Chain.generator((2, 0, 2)), r3) == expected

    def test_zero_chain(self, r3):
        assert boundary_quandle(Chain.zero(4), r3).is_zero()

    def test_degenerate_input_rejected(self, r3):
        with pytest.raises(DegenerateGeneratorError):
            boundary_quandle(Chain.generator((1, 1, 2)), r3)


class TestQuandleBasis:
    def test_r3_basis_counts_by_direct_enumeration(self, r3):
        for degree in (1, 2, 3, 4):
            expected = [
                t
                for t in product(range(3), repeat=degree)
                if all(t[i] != t[i + 1] for i in range(degree - 1))
            ]
            assert list(quandle_basis(r3, degree)) == sorted(expected)
        assert len(quandle_basis(r3, 2)) == 6
        assert len(quandle_basis(r3, 3)) == 12
        assert len(quandle_basis(r3, 4)) == 24

    def test_degree_must_be_positive(self, r3):
        with pytest.raises(DegreeError):
            quandle_basis(r3, 0)

    def test_non_int_degree_rejected_cold_and_warm(self):
        # 2.0 == 2 hashes alike: the check must come before the cache lookup
        q = Quandle.from_table([[x] * 6 for x in range(6)])  # no other test uses it
        for degree in (2.0, True):
            with pytest.raises(DegreeError):
                quandle_basis(q, degree)  # cold
        assert len(quandle_basis(q, 2)) == 30
        for degree in (2.0, True):
            with pytest.raises(DegreeError):
                quandle_basis(q, degree)  # warm


class TestMatrixOfBoundary:
    def test_non_int_degree_rejected_cold_and_warm(self):
        q = Quandle.from_table([[x] * 5 for x in range(5)])  # no other test uses it
        for degree in (3.0, 1, 0, True, "3", None):
            with pytest.raises(DegreeError):
                matrix_of_boundary(q, degree)  # cold
        assert matrix_of_boundary(q, 3).shape == (20, 80)
        with pytest.raises(DegreeError):
            matrix_of_boundary(q, 3.0)  # warm

    def test_oversized_request_refused_before_any_basis(self, monkeypatch):
        def built(*args):
            raise AssertionError("a basis or boundary matrix was built")

        monkeypatch.setattr(chains, "quandle_basis", built)
        monkeypatch.setattr(chains, "boundary_columns", built)
        # d_6 of R5 would densify 1280x5120 = 6.55 M entries
        with pytest.raises(
            ResourceLimitError,
            match="H_5 needs the 1280x5120 boundary matrix d_6, over the limit "
            "MAX_BOUNDARY_ENTRIES = 1000000",
        ):
            matrix_of_boundary(Quandle.dihedral(5), 6)
        r2 = Quandle.dihedral(2)
        for degree in (18, 10**9):
            with pytest.raises(ResourceLimitError, match="MAX_HOMOLOGY_DEGREE = 16"):
                matrix_of_boundary(r2, degree)

    def test_r3_degree3_shape_and_known_column(self, r3):
        m = matrix_of_boundary(r3, 3)
        assert m.shape == (6, 12)
        basis3 = quandle_basis(r3, 3)
        basis2 = quandle_basis(r3, 2)
        j = basis3.index((2, 0, 2))
        expected = {(1, 2): -1, (2, 0): -1, (2, 1): 1}
        for i, row_tuple in enumerate(basis2):
            assert m[i, j] == expected.get(row_tuple, 0)

    def test_degree2_column_sums(self, inventory):
        # d(x1,x2) = (x1) - (x1*x2): column sums to 0, or is zero when fixed
        for _, q in inventory:
            m = matrix_of_boundary(q, 2)
            basis2 = quandle_basis(q, 2)
            for j, (x1, x2) in enumerate(basis2):
                column = [m[i, j] for i in range(m.rows)]
                if q.act(x1, x2) == x1:
                    assert all(e == 0 for e in column)
                else:
                    assert sum(column) == 0
                    assert sorted(column).count(0) == len(column) - 2

    def test_r3_degree4_shape_and_complex_property(self, r3):
        m3 = matrix_of_boundary(r3, 3)
        m4 = matrix_of_boundary(r3, 4)
        assert m4.shape == (12, 24)
        assert (m3 @ m4).is_zero()

    def test_sparse_columns_match_the_chain_built_matrix(self, inventory):
        for name, q in inventory + [("R5", Quandle.dihedral(5))]:
            for degree in admitted_boundary_degrees(q):
                expected = chain_boundary_matrix(q, degree)
                assert matrix_of_boundary(q, degree).to_rows() == expected, (name, degree)

    def test_boundary_squared_is_zero_matrix_for_inventory(self, inventory):
        for _, q in inventory:
            for degree in (3, 4):
                lower = matrix_of_boundary(q, degree - 1)
                upper = matrix_of_boundary(q, degree)
                assert (lower @ upper).is_zero(), (q, degree)


class TestChainJson:
    def test_round_trip_with_decimal_string_coefficients(self):
        c = Chain(3, [((2, 0, 2), 1), ((0, 1, 0), -12)])
        doc = c.to_json_dict()
        assert doc == {
            "degree": 3,
            "terms": [
                {"tuple": [0, 1, 0], "coeff": "-12"},
                {"tuple": [2, 0, 2], "coeff": "1"},
            ],
        }
        assert Chain.from_json_dict(json.loads(json.dumps(doc))) == c

    def test_integer_coefficients_accepted(self):
        doc = {"degree": 2, "terms": [{"tuple": [0, 1], "coeff": 3}]}
        assert Chain.from_json_dict(doc) == Chain(2, [((0, 1), 3)])

    def test_unknown_field_rejected_with_path(self):
        with pytest.raises(SchemaError) as exc:
            Chain.from_json_dict({"degree": 2, "terms": [], "extra": 1})
        assert exc.value.path == "extra"

    def test_bad_coefficient_rejected_with_path(self):
        doc = {"degree": 2, "terms": [{"tuple": [0, 1], "coeff": "x"}]}
        with pytest.raises(SchemaError) as exc:
            Chain.from_json_dict(doc)
        assert exc.value.path == "terms[0].coeff"

    def test_tuple_length_must_match_degree(self):
        doc = {"degree": 3, "terms": [{"tuple": [0, 1], "coeff": "1"}]}
        with pytest.raises(SchemaError) as exc:
            Chain.from_json_dict(doc)
        assert exc.value.path == "terms[0].tuple"


class TestTrustedConstruction:
    """Results built without __init__'s checks must still be canonical chains."""

    @staticmethod
    def random_chain(rng, order, degree):
        # degenerate tuples and repeated tuples included, so projection and
        # cancellation both happen
        return Chain(
            degree,
            [
                (tuple(rng.randrange(order) for _ in range(degree)), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 8))
            ],
        )

    @staticmethod
    def assert_canonical(result):
        assert all(coeff != 0 for _, coeff in result.items())
        rebuilt = Chain(result.degree, list(result.items()))
        assert result == rebuilt
        assert result.to_json_dict() == rebuilt.to_json_dict()

    @pytest.mark.parametrize("order", [3, 5])
    def test_arithmetic_and_boundaries(self, order):
        q = Quandle.dihedral(order)
        rng = random.Random(f"trusted:{order}")
        for _ in range(200):
            degree = rng.randint(2, 4)
            a = self.random_chain(rng, order, degree)
            b = self.random_chain(rng, order, degree)
            for result in (
                a + b,
                a + (-a),
                a - b,
                a - a,
                -a,
                rng.randint(-3, 3) * a,
                0 * a,
                boundary_rack(a, q),
                project_quandle(a),
                project_quandle(boundary_rack(a, q)),
            ):
                self.assert_canonical(result)
