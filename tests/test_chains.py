import json
import random
import sys
from itertools import product

import pytest

from quandlehom import (
    Chain,
    Quandle,
    boundary_quandle,
    boundary_rack,
    chains,
    homology,
    is_degenerate,
    matrix_of_boundary,
    project_quandle,
    quandle_basis,
)
from quandlehom.errors import (
    DegenerateGeneratorError, DegreeError, QuandleMismatchError, ResourceLimitError, SchemaError
)
from quandlehom.quandle import _generators

from conftest import (
    CROSS_CHECK_QUANDLES, S4_TABLE, admitted_boundary_degrees, assert_same_elimination,
    built_reduction, eliminate, named_order_five, quandle_inventory, sympy_matrix, trivial_table,
    tuple_columns,
)


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


def scan_basis(quandle, degree):
    """The basis by its definition: every n^d tuple, non-degenerate ones
    kept; the oracle for quandle_basis, which builds each degree from the
    one below."""
    return tuple(
        t for t in product(range(quandle.order), repeat=degree) if not is_degenerate(t)
    )


def formula_boundary(tup, table, drop_degenerate):
    """The module docstring's boundary of one generator, written out on its
    own: d(x_1..x_n) = sum_{i=2..n} (-1)^i [(.., ^x_i, ..) -
    (x_1*x_i, .., x_{i-1}*x_i, x_{i+1}, ..)], with 1-based i and
    x * y = table[x][y].  drop_degenerate gives the quandle complex."""
    out = {}
    for i in range(2, len(tup) + 1):
        sign = (-1) ** i
        x_i = tup[i - 1]
        omitted = tup[: i - 1] + tup[i:]
        acted = tuple(table[x][x_i] for x in tup[: i - 1]) + tup[i:]
        for term, c in ((omitted, sign), (acted, -sign)):
            if drop_degenerate and any(a == b for a, b in zip(term, term[1:])):
                continue
            out[term] = out.get(term, 0) + c
    return {t: c for t, c in out.items() if c}


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

    def test_repr(self):
        assert repr(Chain.zero(3)) == "Chain.zero(3)"
        c = Chain(2, [((0, 1), 1), ((1, 0), -1), ((1, 2), 3)])
        assert repr(c) == "+(0, 1) -(1, 0) +3*(1, 2)"

    @pytest.mark.parametrize("other", [True, 1.5, "c", (0, 1), None])
    def test_arithmetic_with_a_foreign_operand_is_refused(self, other):
        c = Chain.generator((0, 1))
        for op in (lambda: c + other, lambda: c - other, lambda: c * other, lambda: other - c):
            with pytest.raises(TypeError):
                op()
        assert c != other and other != c

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
        with pytest.raises(QuandleMismatchError) as exc:
            boundary_rack(Chain.generator((0, 5)), r3)
        assert isinstance(exc.value, ValueError)
        assert str(exc.value) == "tuple entry 5 out of range for quandle of order 3"

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

    def test_every_generator_follows_the_docstring_formula(self, inventory):
        # degenerate tuples included: the rack boundary keeps every face
        for name, q in inventory:
            for degree in (2, 3, 4):
                for tup in product(range(q.order), repeat=degree):
                    got = dict(boundary_rack(Chain.generator(tup), q).items())
                    assert got == formula_boundary(tup, q.table, False), (name, tup)

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

    @pytest.mark.parametrize(
        "name, q, top",
        [(name, q, 5) for name, q in quandle_inventory()] + [("R3", Quandle.dihedral(3), 8)],
    )
    def test_extension_matches_scan_oracle(self, name, q, top):
        for degree in range(1, top + 1):
            assert quandle_basis(q, degree) == scan_basis(q, degree), (name, degree)

    def test_orders_1_and_2_build_at_degree_200(self):
        # a scan of 2^200 tuples could never finish, and a recursive build
        # would hit the recursion limit
        assert quandle_basis(Quandle.from_table(trivial_table(1)), 200) == ()
        assert quandle_basis(Quandle.from_table(trivial_table(2)), 200) == (
            (0, 1) * 100,
            (1, 0) * 100,
        )

    def test_cells_agree_with_the_tuple_basis(self, inventory):
        for name, q in inventory + CROSS_CHECK_QUANDLES + named_order_five():
            for degree in range(1, 5):
                basis = quandle_basis(q, degree)
                position = {t: i for i, t in enumerate(basis)}
                lasts, acts, ext = chains._cells(q, degree)
                assert list(lasts) == [t[-1] for t in basis], (name, degree)
                assert [list(a) for a in acts] == [
                    [position[tuple(q.table[x][y] for x in t)] for t in basis]
                    for y in range(q.order)
                ], (name, degree)
                faces = quandle_basis(q, degree - 1) if degree > 1 else ((),)
                assert [list(e) for e in ext] == [
                    [position.get(f + (y,)) for f in faces] for y in range(q.order)
                ], (name, degree)
                for j, t in enumerate(basis):
                    unit = [0] * len(basis)
                    unit[j] = 1
                    assert chains.coordinates(Chain.generator(t), q) == unit, (name, t)

    def test_orders_1_and_2_index_cells_at_degree_200(self):
        r1 = Quandle.from_table(trivial_table(1))
        assert chains._cells(r1, 200) == ((), ((),), ((),))
        assert chains.coordinates(Chain.zero(200), r1) == []
        # coordinates trusts its tuples; the check that is_null_homologous
        # runs finds the degenerate one, after the degree limit refuses it
        degenerate = Chain.generator((0,) * 200)
        with pytest.raises(DegenerateGeneratorError, match=r"generator \(0, 0, 0, .*\) is degenerate"):
            chains._check_tuples(degenerate, r1)
        with pytest.raises(ResourceLimitError, match="homology degree 200 is over the limit"):
            homology.is_null_homologous(degenerate, r1)
        t2 = Quandle.from_table(trivial_table(2))
        # (0, 1)*100 is cell 0 and (1, 0)*100 cell 1; (0, 1)*99 + (0,) extends
        # only by 1, into cell 0, and (1, 0)*99 + (1,) only by 0, into cell 1
        assert chains._cells(t2, 200) == ((1, 0), ((0, 1), (0, 1)), ((None, 1), (0, None)))
        basis = quandle_basis(t2, 200)
        assert [chains.coordinates(Chain.generator(t), t2) for t in basis] == [[1, 0], [0, 1]]

    def test_tuple_check_reports_degeneracy_before_range(self, r3):
        with pytest.raises(DegenerateGeneratorError, match=r"generator \(4, 4\) is degenerate"):
            homology.is_null_homologous(Chain.generator((4, 4)), r3)
        with pytest.raises(QuandleMismatchError, match=r"tuple \(4, 3\) out of range"):
            homology.is_null_homologous(Chain.generator((4, 3)), r3)

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


    def test_nothing_is_kept_in_the_store(self):
        q = Quandle.dihedral(5)
        assert len(quandle_basis(q, 3)) == 80
        assert q._store == {}


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
        assert (sympy_matrix(m3) * sympy_matrix(m4)).is_zero_matrix

    def test_sparse_columns_match_the_chain_built_matrix(self, inventory):
        for name, q in inventory + [("R5", Quandle.dihedral(5))]:
            for degree in admitted_boundary_degrees(q):
                expected = chain_boundary_matrix(q, degree)
                assert matrix_of_boundary(q, degree).to_rows() == expected, (name, degree)

    def test_sparse_columns_follow_the_docstring_formula(self, inventory):
        for name, q in inventory + [("R5", Quandle.dihedral(5))]:
            for degree in admitted_boundary_degrees(q):
                rows = quandle_basis(q, degree - 1)
                d = chains.boundary_columns(q, degree)
                assert d.rows == len(rows)
                assert d.cols == len(quandle_basis(q, degree))
                for gen, column in zip(quandle_basis(q, degree), d.columns):
                    got = {rows[i]: e for i, e in column.items()}
                    assert 0 not in got.values(), (name, gen)
                    assert got == formula_boundary(gen, q.table, True), (name, gen)

    def test_orders_1_and_2_build_columns_at_degree_200(self):
        # d_n is built from d_{n-1}: a recursive build would hit the
        # recursion limit long before degree 200
        for order in (1, 2):
            q = Quandle.from_table(trivial_table(order))
            rows = quandle_basis(q, 199)
            d = chains.boundary_columns(q, 200)
            assert (d.rows, d.cols) == (len(rows), len(quandle_basis(q, 200)))
            for gen, column in zip(quandle_basis(q, 200), d.columns):
                got = {rows[i]: e for i, e in column.items()}
                assert got == formula_boundary(gen, q.table, True), (order, gen)

    def test_columns_match_the_tuple_oracle_in_key_order(self, inventory):
        for name, q in inventory + CROSS_CHECK_QUANDLES + named_order_five():
            every = frozenset(range(q.order))
            for degree in admitted_boundary_degrees(q):
                got = chains.boundary_columns(q, degree)
                expected = tuple_columns(q, degree, every)
                assert got.rows == expected.rows, (name, degree)
                assert [list(c.items()) for c in got.columns] == [
                    list(c.items()) for c in expected.columns
                ], (name, degree)

    def test_rows_match_the_tuple_oracle(self, inventory):
        # the row builder on the G-columns, with the rows paired below left
        # out, against the tuple columns eliminated
        for name, q in inventory + CROSS_CHECK_QUANDLES + named_order_five():
            for degree in admitted_boundary_degrees(q):
                below = homology._reduction(q, degree - 1)[0] if degree > 2 else ()
                paired = {j for _, j, _, _, _ in below}
                assert_same_elimination(
                    built_reduction(q, degree, paired),
                    eliminate(tuple_columns(q, degree, _generators(q)), paired),
                )

    @pytest.mark.parametrize("q, degree", [
        (Quandle.dihedral(3), 6),
        (Quandle.dihedral(4), 5),
        (Quandle.from_table(S4_TABLE), 5),
        (Quandle.dihedral(5), 5),
        (Quandle.dihedral(6), 4),
    ], ids=["d6(R3)", "d5(R4)", "d5(S4)", "d5(R5)", "d4(R6)"])
    def test_elimination_of_the_top_matrix_matches_on_the_oracle(self, q, degree):
        ends = _generators(q)
        paired = {j for _, j, _, _, _ in homology._reduction(q, degree - 1)[0]}
        assert paired
        # the rows built straight from the cells, as homology's reduction reads them
        expected = eliminate(tuple_columns(q, degree, ends), paired)
        assert_same_elimination(built_reduction(q, degree, paired), expected)

    def test_boundary_squared_is_zero_matrix_for_inventory(self, inventory):
        for _, q in inventory:
            for degree in (3, 4):
                lower = matrix_of_boundary(q, degree - 1)
                upper = matrix_of_boundary(q, degree)
                assert (sympy_matrix(lower) * sympy_matrix(upper)).is_zero_matrix, (q, degree)


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

    @pytest.mark.parametrize("coeff", ["-12", "0", "007", 5, -3])
    def test_decimal_coefficients_accepted(self, coeff):
        doc = {"degree": 2, "terms": [{"tuple": [0, 1], "coeff": coeff}]}
        assert Chain.from_json_dict(doc) == Chain(2, [((0, 1), int(coeff))])

    # digit separators, padding, a sign other than "-", non-ASCII digits
    # (Arabic-Indic three) and the like are not ASCII -?[0-9]+
    @pytest.mark.parametrize("coeff", [
        "1_0", " 5 ", "5\n", "\u0663", "\uff15", "+5", "--5", "-", "", "1.0", "0x10", 1.0, True, None,
    ])
    def test_other_coefficient_forms_rejected_with_path(self, coeff):
        doc = {"degree": 2, "terms": [{"tuple": [0, 1], "coeff": coeff}]}
        with pytest.raises(SchemaError) as exc:
            Chain.from_json_dict(doc)
        assert exc.value.path == "terms[0].coeff"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    def test_combined_coefficient_over_the_digit_limit_names_a_term_on_its_tuple(self):
        # each coefficient is at the interpreter's limit, their sum one digit over
        nines = "9" * sys.get_int_max_str_digits()
        doc = {"degree": 3, "terms": [
            {"tuple": [2, 1, 0], "coeff": nines},
            {"tuple": [2, 0, 2], "coeff": nines},
            {"tuple": [2, 1, 0], "coeff": "-" + nines},
            {"tuple": [2, 0, 2], "coeff": nines},
        ]}
        with pytest.raises(SchemaError, match="Exceeds the limit") as exc:
            Chain.from_json_dict(doc)
        assert exc.value.path == "terms[1].coeff"
        assert "\n" not in str(exc.value)
        # sums that stay within the limit are accepted
        doc["terms"][3]["coeff"] = "-" + nines[1:]
        assert Chain.from_json_dict(doc) == Chain.generator((2, 0, 2), 9 * 10 ** (len(nines) - 1))

    def test_tuple_length_must_match_degree(self):
        doc = {"degree": 3, "terms": [{"tuple": [0, 1], "coeff": "1"}]}
        with pytest.raises(SchemaError) as exc:
            Chain.from_json_dict(doc)
        assert exc.value.path == "terms[0].tuple"

    def test_terms_must_be_a_list(self):
        with pytest.raises(SchemaError) as exc:
            Chain.from_json_dict({"degree": 2, "terms": {"tuple": [0, 1], "coeff": "1"}})
        assert (exc.value.path, exc.value.message) == ("terms", "must be a list")

    # the parser leaves the entries to Chain(...), which names the same paths
    @pytest.mark.parametrize("entry", [-1, True, 1.0, "1", None])
    def test_tuple_entries_rejected_with_path(self, entry):
        doc = {"degree": 2, "terms": [
            {"tuple": [0, 1], "coeff": "1"}, {"tuple": [0, entry], "coeff": "1"},
        ]}
        with pytest.raises(SchemaError) as exc:
            Chain.from_json_dict(doc)
        assert (exc.value.path, exc.value.message) == (
            "terms[1].tuple[1]", "must be a nonnegative integer"
        )


class TestChainConstructorChecks:
    """Chain(...) checks every entry and coefficient and names the bad one
    by its place in `terms`; a SchemaError is also a ValueError."""

    @pytest.mark.parametrize("entry", [-1, True, 1.5, "0", None])
    def test_bad_tuple_entry(self, entry):
        with pytest.raises(SchemaError) as exc:
            Chain(3, [((0, 1, 0), 1), ((2, entry, 2), 1)])
        assert isinstance(exc.value, ValueError)
        assert str(exc.value) == "terms[1].tuple[1]: must be a nonnegative integer"

    @pytest.mark.parametrize("coeff", [1.0, True, "1", None])
    def test_bad_coefficient(self, coeff):
        with pytest.raises(SchemaError) as exc:
            Chain(2, [((0, 1), coeff)])
        assert isinstance(exc.value, ValueError)
        assert str(exc.value) == "terms[0].coeff: must be an integer"

    def test_dict_terms_are_numbered_in_their_order(self):
        with pytest.raises(SchemaError) as exc:
            Chain(2, {(0, 1): 1, (1, 0): 2.5})
        assert exc.value.path == "terms[1].coeff"


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
