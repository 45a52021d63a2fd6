import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from quandlehom import IntMatrix, det, homology, matrix_of_boundary, snf, solve_in_image
from quandlehom.intlinalg import SparseColumns, _rank_and_torsion, _solve

from conftest import (
    CROSS_CHECK_QUANDLES, admitted_boundary_degrees, assert_same_elimination, built_reduction,
    eliminate, g_columns, is_unimodular, named_order_five, sympy_matrix,
)


def random_matrix(rng, max_dim=8, bound=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def assert_smith_invariants(a, dec):
    assert sympy_matrix(dec.U) * sympy_matrix(a) * sympy_matrix(dec.V) == sympy_matrix(dec.D)
    assert is_unimodular(dec.U)
    assert is_unimodular(dec.V)
    diag = dec.diagonal
    for i in range(dec.D.rows):
        for j in range(dec.D.cols):
            if i != j:
                assert dec.D[i, j] == 0
    assert all(d >= 0 for d in diag)
    # zeros trail and the divisibility chain holds
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero
    nonzero = [d for d in diag if d]
    for a_, b_ in zip(nonzero, nonzero[1:]):
        assert b_ % a_ == 0


class TestIntMatrix:
    def test_shapes_and_multiplication(self):
        a = IntMatrix([[1, 2], [3, 4], [5, 6]])
        assert a.shape == (3, 2)
        assert a.apply([1, -1]) == [-1, -1, -1]

    def test_empty_matrix_needs_explicit_cols(self):
        with pytest.raises(ValueError):
            IntMatrix([])
        m = IntMatrix([], cols=4)
        assert m.shape == (0, 4)

    def test_rejects_ragged_and_nonint(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix([[1.5]])
        with pytest.raises(ValueError):
            IntMatrix([[True]])

    @pytest.mark.parametrize("cols", [1, 3])
    def test_cols_must_match_the_rows(self, cols):
        with pytest.raises(ValueError) as exc:
            IntMatrix([[1, 2], [3, 4]], cols=cols)
        assert str(exc.value) == f"cols={cols} does not match row length 2"
        assert IntMatrix([[1, 2], [3, 4]], cols=2).shape == (2, 2)

    @pytest.mark.parametrize("matrix", [
        IntMatrix([[1, 2], [3, 4], [5, 6]]),
        SparseColumns(3, [{0: 1, 1: 3, 2: 5}, {0: 2, 1: 4, 2: 6}]),
    ], ids=["IntMatrix", "SparseColumns"])
    @pytest.mark.parametrize("vec", [[1], [1, 2, 3]], ids=["short", "long"])
    def test_apply_refuses_a_vector_of_the_wrong_length(self, matrix, vec):
        with pytest.raises(ValueError) as exc:
            matrix.apply(vec)
        assert str(exc.value) == f"vector length {len(vec)} != cols 2"
        assert matrix.apply([1, -1]) == [-1, -1, -1]

    def test_repr_of_a_large_matrix_gives_its_shape(self):
        assert repr(IntMatrix([[0] * 36])) == f"IntMatrix({[[0] * 36]!r})"
        assert repr(IntMatrix([[0] * 37])) == "IntMatrix(shape=(1, 37))"

    def test_immutability(self):
        a = IntMatrix([[1]])
        with pytest.raises(AttributeError):
            a.rows = 2
        rows = a.to_rows()
        rows[0][0] = 99
        assert a[0, 0] == 1


class TestDeterminant:
    def test_known_values(self):
        assert det(IntMatrix([[1]])) == 1
        assert det(IntMatrix([[2, 0], [0, 3]])) == 6
        assert det(IntMatrix([[0, 1], [1, 0]])) == -1
        assert det(IntMatrix([[1, 2], [2, 4]])) == 0
        assert det(IntMatrix([], cols=0)) == 1
        # a column with no nonzero entry from the diagonal down
        assert det(IntMatrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]])) == 0

    def test_requires_square(self):
        with pytest.raises(ValueError):
            det(IntMatrix([[1, 2]]))

    def test_against_sympy_on_randoms(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det(IntMatrix(rows)) == int(Matrix(rows).det())


class TestSmithNormalForm:
    def test_diag_2_3_gives_1_6(self):
        dec = snf(IntMatrix([[2, 0], [0, 3]]))
        assert dec.diagonal == (1, 6)
        assert_smith_invariants(IntMatrix([[2, 0], [0, 3]]), dec)

    def test_zero_matrix(self):
        a = IntMatrix([[0] * 2 for _ in range(3)], cols=2)
        dec = snf(a)
        assert dec.D == a
        assert_smith_invariants(a, dec)

    def test_one_by_one(self):
        dec = snf(IntMatrix([[1]]))
        assert dec.D == IntMatrix([[1]])
        dec = snf(IntMatrix([[-7]]))
        assert dec.diagonal == (7,)

    def test_invariants_on_200_random_matrices(self):
        rng = random.Random(2024)
        for _ in range(200):
            a = random_matrix(rng)
            assert_smith_invariants(a, snf(a))

    def test_invariant_factors_match_sympy(self):
        rng = random.Random(99)
        for _ in range(60):
            a = random_matrix(rng, max_dim=6)
            mine = [d for d in snf(a).diagonal if d]
            s = smith_normal_form(Matrix(a.to_rows()))
            theirs = [
                abs(int(s[i, i]))
                for i in range(min(s.rows, s.cols))
                if s[i, i] != 0
            ]
            assert mine == theirs

    def test_entries_can_exceed_fixed_width(self):
        # large entries force intermediate values past 64 bits
        big = 2**70
        a = IntMatrix([[big, big - 1], [big + 1, big]])
        dec = snf(a)
        assert_smith_invariants(a, dec)
        assert dec.diagonal == (1, abs(det(a)))


class TestSolveInImage:
    def test_simple_solvable(self):
        assert solve_in_image(IntMatrix([[2]]), [4]) == [2]

    def test_parity_obstruction(self):
        assert solve_in_image(IntMatrix([[2]]), [3]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_in_image(IntMatrix([[1, 2]]), [1, 2])

    @pytest.mark.parametrize("entry", [1.0, True, "1", None])
    def test_non_int_right_hand_side_entry(self, entry):
        with pytest.raises(ValueError) as exc:
            solve_in_image(IntMatrix([[1, 0], [0, 1]]), [0, entry])
        assert str(exc.value) == f"b[1] = {entry!r} is not an int"

    def test_completeness_on_constructed_systems(self):
        rng = random.Random(5)
        for _ in range(120):
            a = random_matrix(rng, max_dim=5)
            x0 = [rng.randint(-5, 5) for _ in range(a.cols)]
            b = a.apply(x0)
            x = solve_in_image(a, b)
            assert x is not None
            assert a.apply(x) == b

    def test_soundness_and_hnf_agreement_on_randoms(self):
        # independent oracle: b is in the integer column span of A iff
        # appending b as a column leaves the Hermite normal form unchanged
        rng = random.Random(17)
        for _ in range(120):
            a = random_matrix(rng, max_dim=5)
            b = [rng.randint(-9, 9) for _ in range(a.rows)]
            x = solve_in_image(a, b)
            if x is not None:
                assert a.apply(x) == b
            sym = Matrix(a.to_rows())
            augmented = sym.row_join(Matrix(a.rows, 1, b))
            oracle = hermite_normal_form(sym) == hermite_normal_form(augmented)
            assert (x is not None) == oracle

    def test_agreement_with_divisibility_criterion(self):
        rng = random.Random(23)
        for _ in range(120):
            a = random_matrix(rng, max_dim=5)
            b = [rng.randint(-9, 9) for _ in range(a.rows)]
            dec = snf(a)
            c = dec.U.apply(b)
            solvable = True
            for i in range(a.rows):
                d = dec.D[i, i] if i < min(a.rows, a.cols) else 0
                if d == 0:
                    solvable = solvable and c[i] == 0
                else:
                    solvable = solvable and c[i] % d == 0
            assert (solve_in_image(a, b) is not None) == solvable


# Cross-checks of the sparse unit-pivot front end against the dense Smith
# normal form of the whole matrix, which it replaced in rank, torsion and
# image-membership computations.

# mostly zeros, with unit and non-unit entries mixed
SPARSE_ENTRY = st.sampled_from([0] * 8 + [1, -1, 1, -1, 2, -2, 3, -4, 6])


@st.composite
def sparse_matrices(draw, max_dim=10):
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    rows = draw(
        st.lists(st.lists(SPARSE_ENTRY, min_size=n, max_size=n), min_size=m, max_size=m)
    )
    return IntMatrix(rows, cols=n)


def assert_front_end_matches_dense_snf(a):
    steps, core, core_rows, core_cols, zero_rows = eliminate(as_sparse_columns(a))
    core_factors = [d for d in snf(core).diagonal if d]
    dense_factors = [d for d in snf(a).diagonal if d]
    assert [1] * len(steps) + core_factors == dense_factors
    rank, torsion = _rank_and_torsion(eliminate(as_sparse_columns(a)))
    assert rank == len(dense_factors)
    assert torsion == tuple(d for d in dense_factors if d >= 2)
    # the core has no zero line
    assert core.shape == (len(core_rows), len(core_cols))
    entries = core.to_rows()
    assert all(any(row) for row in entries)
    assert all(any(row[j] for row in entries) for j in range(core.cols))
    assert len(steps) + core.rows + len(zero_rows) == a.rows


def dense_divisibility_criterion(a, b):
    """b is in the integer image of a iff (U b)_i is divisible by d_i, with
    d_i = 0 beyond the rank, for the Smith form U a V = D of the whole a."""
    dec = snf(a)
    c = dec.U.apply(b)
    for i in range(a.rows):
        d = dec.D[i, i] if i < a.cols else 0
        if (c[i] != 0) if d == 0 else (c[i] % d != 0):
            return False
    return True


class TestEliminationFrontEnd:
    @settings(max_examples=300, deadline=None, database=None)
    @given(sparse_matrices())
    def test_rank_and_torsion_match_dense_snf(self, a):
        assert_front_end_matches_dense_snf(a)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 3)])
    def test_empty_and_zero_shapes(self, shape):
        rows, cols = shape
        a = IntMatrix([[0] * cols for _ in range(rows)], cols=cols)
        steps, core, _, _, zero_rows = eliminate(as_sparse_columns(a))
        assert steps == [] and core.shape == (0, 0)
        assert zero_rows == list(range(shape[0]))
        assert _rank_and_torsion(eliminate(as_sparse_columns(a))) == (0, ())
        assert_front_end_matches_dense_snf(a)

    def test_planted_zero_rows_and_columns(self):
        a = IntMatrix([
            [0, 2, 0, 1, 0],
            [0, 0, 0, 0, 0],
            [0, 4, 0, 3, 0],
            [0, 0, 0, 0, 0],
            [0, 6, 0, 0, 0],
        ])
        _, _, _, core_cols, zero_rows = eliminate(as_sparse_columns(a))
        assert 1 in zero_rows and 3 in zero_rows
        assert 0 not in core_cols and 2 not in core_cols
        assert_front_end_matches_dense_snf(a)
        assert _rank_and_torsion(eliminate(as_sparse_columns(a))) == (2, (2,))

    def test_no_unit_entry_leaves_the_whole_matrix_as_core(self):
        a = IntMatrix([[2, 4], [6, 3]])
        steps, core, _, _, _ = eliminate(as_sparse_columns(a))
        assert steps == [] and core == a
        assert_front_end_matches_dense_snf(a)

    def test_wide_core_builds_no_transforms(self):
        # 2·[I_3 | B] has no unit entry, so all of it is core; a Smith form
        # that carried V would build it about 3000 x 3000 here
        rng = random.Random(3000)
        rows = [
            [2 * (i == r) for i in range(3)] + [2 * rng.randint(-99, 99) for _ in range(2997)]
            for r in range(3)
        ]
        steps, core, _, _, _ = eliminate(as_sparse_columns(IntMatrix(rows)))
        assert steps == [] and core.shape == (3, 3000)
        assert _rank_and_torsion(eliminate(as_sparse_columns(IntMatrix(rows)))) == (3, (2, 2, 2))
        narrow = IntMatrix([row[:300] for row in rows])
        assert snf(narrow).diagonal == (2, 2, 2)
        assert _rank_and_torsion(eliminate(as_sparse_columns(narrow))) == (3, (2, 2, 2))

    @settings(max_examples=300, deadline=None, database=None)
    @given(sparse_matrices(), st.data())
    def test_rows_and_columns_split_into_pivot_core_and_zero(self, a, data):
        dropped = data.draw(rows_of(a))
        steps, core, core_rows, core_cols, zero_rows = eliminate(as_sparse_columns(a), dropped)
        pivot_rows = [p for p, _, _, _, _ in steps]
        pivot_cols = [j for _, j, _, _, _ in steps]
        empty_cols = sorted(set(range(a.cols)) - set(pivot_cols) - set(core_cols))
        assert sorted(pivot_cols + core_cols + empty_cols) == list(range(a.cols))
        kept = [i for i in range(a.rows) if i not in dropped]
        assert sorted(pivot_rows + core_rows + zero_rows) == kept
        assert core_rows == sorted(core_rows) and core_cols == sorted(core_cols)
        assert core.shape == (len(core_rows), len(core_cols))
        entries = core.to_rows()
        assert all(any(row) for row in entries)
        assert all(any(row[j] for row in entries) for j in range(core.cols))
        # a column left empty is, on the kept rows, an integer combination
        # of the pivot columns
        pivots = IntMatrix([[a[i, j] for j in pivot_cols] for i in kept], cols=len(pivot_cols))
        for j in empty_cols:
            assert solve_in_image(pivots, [a[i, j] for i in kept]) is not None

    def test_every_inventory_boundary_matrix(self, inventory):
        for _, q in inventory:
            for degree in (2, 3, 4):
                assert_front_end_matches_dense_snf(matrix_of_boundary(q, degree))


class TestSolveInImageAgainstDenseSnf:
    @settings(max_examples=300, deadline=None, database=None)
    @given(sparse_matrices(max_dim=8), st.data())
    def test_solvable_systems(self, a, data):
        x0 = data.draw(st.lists(st.integers(-5, 5), min_size=a.cols, max_size=a.cols))
        b = a.apply(x0)
        x = solve_in_image(a, b)
        assert x is not None and a.apply(x) == b
        assert dense_divisibility_criterion(a, b)

    @settings(max_examples=300, deadline=None, database=None)
    @given(sparse_matrices(max_dim=8), st.data())
    def test_perturbed_systems(self, a, data):
        x0 = data.draw(st.lists(st.integers(-5, 5), min_size=a.cols, max_size=a.cols))
        noise = data.draw(st.lists(st.integers(-2, 2), min_size=a.rows, max_size=a.rows))
        b = [e + n for e, n in zip(a.apply(x0), noise)]
        x = solve_in_image(a, b)
        if x is not None:
            assert a.apply(x) == b
        assert (x is not None) == dense_divisibility_criterion(a, b)

    def test_boundary_matrices_of_the_inventory(self, inventory):
        rng = random.Random(41)
        for name, q in inventory:
            a = matrix_of_boundary(q, 4)
            for _ in range(5):
                b = a.apply([rng.randint(-3, 3) for _ in range(a.cols)])
                if b:
                    b[rng.randrange(a.rows)] += rng.choice([0, 1, 2, 3])
                x = solve_in_image(a, b)
                assert (x is not None) == dense_divisibility_criterion(a, b), name
                if x is not None:
                    assert a.apply(x) == b


# Columns repeated up to sign all stay in the core; these cross-check the
# elimination of such matrices against the dense Smith normal form of the
# whole matrix.

@st.composite
def matrices_with_repeated_columns(draw, max_dim=8):
    """Sparse matrices with planted copies, negations and one-entry sign
    flips of their columns; a flipped copy is a different column."""
    base = draw(sparse_matrices(max_dim=max_dim).filter(lambda a: a.cols))
    columns = [[row[j] for row in base.to_rows()] for j in range(base.cols)]
    for _ in range(draw(st.integers(1, 6))):
        column = columns[draw(st.integers(0, len(columns) - 1))]
        kind = draw(st.sampled_from(["equal", "negated", "flipped"]))
        if kind == "equal":
            planted = list(column)
        elif kind == "negated":
            planted = [-e for e in column]
        else:
            planted = list(column)
            if planted:
                i = draw(st.integers(0, len(planted) - 1))
                planted[i] = -planted[i]
        columns.insert(draw(st.integers(0, len(columns))), planted)
    return IntMatrix([list(row) for row in zip(*columns)], cols=len(columns))


def assert_solution_is_zero_off_core_and_pivots(a, x):
    steps, _, _, core_cols, _ = eliminate(as_sparse_columns(a))
    kept = set(core_cols) | {j for _, j, _, _, _ in steps}
    assert all(x[j] == 0 for j in range(a.cols) if j not in kept)


class TestRepeatedCoreColumns:
    @settings(max_examples=300, deadline=None, database=None)
    @given(matrices_with_repeated_columns())
    def test_pivots_and_core_match_dense_snf(self, a):
        assert_front_end_matches_dense_snf(a)

    @settings(max_examples=300, deadline=None, database=None)
    @given(matrices_with_repeated_columns(), st.data())
    def test_solve_agrees_with_dense_criterion(self, a, data):
        x0 = data.draw(st.lists(st.integers(-5, 5), min_size=a.cols, max_size=a.cols))
        noise = data.draw(st.lists(st.integers(-2, 2), min_size=a.rows, max_size=a.rows))
        for b in (a.apply(x0), [e + n for e, n in zip(a.apply(x0), noise)]):
            x = solve_in_image(a, b)
            assert (x is not None) == dense_divisibility_criterion(a, b)
            if x is not None:
                assert a.apply(x) == b
                assert_solution_is_zero_off_core_and_pivots(a, x)

    def test_repeated_columns_stay_in_the_core(self):
        # columns 1 and 2 repeat column 0 up to sign; column 3 differs from
        # it in one sign only and spans more of the image
        a = IntMatrix([[2, 2, -2, 2, 0], [3, 3, -3, -3, 0]])
        steps, core, core_rows, core_cols, _ = eliminate(as_sparse_columns(a))
        assert steps == [] and core_rows == [0, 1] and core_cols == [0, 1, 2, 3]
        assert _rank_and_torsion(eliminate(as_sparse_columns(a))) == (2, (12,))
        for x0 in ([0, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 1, 1, 1, 1]):
            b = a.apply(x0)
            x = solve_in_image(a, b)
            assert x is not None and a.apply(x) == b
            assert x[4] == 0
        assert solve_in_image(a, [2, 0]) is None


class TestEliminationKeptOnTheMatrix:
    @settings(max_examples=200, deadline=None, database=None)
    @given(matrices_with_repeated_columns(), st.data())
    def test_repeated_solves_on_one_matrix(self, a, data):
        fresh_rank = _rank_and_torsion(eliminate(as_sparse_columns(a)))
        for _ in range(3):
            x0 = data.draw(st.lists(st.integers(-5, 5), min_size=a.cols, max_size=a.cols))
            b = a.apply(x0)
            x = solve_in_image(a, b)
            assert x is not None and a.apply(x) == b
        assert _rank_and_torsion(eliminate(as_sparse_columns(a))) == fresh_rank

    def test_same_shape_matrices_keep_their_own_elimination(self):
        a = IntMatrix([[1, 0], [0, 2]])
        b = IntMatrix([[2, 0], [0, 4]])
        assert solve_in_image(a, [1, 2]) == [1, 1]
        assert solve_in_image(b, [1, 2]) is None
        assert _rank_and_torsion(eliminate(as_sparse_columns(a))) == (2, (2,))
        assert _rank_and_torsion(eliminate(as_sparse_columns(b))) == (2, (2, 4))


# The elimination kernel as it stood before each step's bookkeeping was cut
# (every column indexed, then visited once in index order), kept as the
# oracle that the current kernel must match step for step.

def eliminate_oracle(a, dropped=frozenset()):
    rows = {i: {} for i in range(a.rows) if i not in dropped}
    cols = {}
    for j, column in enumerate(a.columns):
        cols[j] = col = set()
        for i, e in column.items():
            row = rows.get(i)
            if row is not None:
                row[j] = e
                col.add(i)
    steps = []
    for j in range(a.cols):
        col = cols.get(j)
        if not col:
            continue
        p = None
        for i in col:  # the unit entry with the shortest row, then the lowest i
            if rows[i][j] in (1, -1) and (p is None or (len(rows[i]), i) < (size, p)):
                p, size = i, len(rows[i])
        if p is None:
            continue
        prow = rows.pop(p)
        u = prow.pop(j)
        for k in prow:
            cols[k].remove(p)
        del cols[j]
        col.remove(p)
        rest = list(prow.items())
        multipliers = []
        for i in col:
            row = rows[i]
            f = row.pop(j) * u  # u is its own inverse
            multipliers.append((i, f))
            for k, e in rest:
                v = row.get(k)
                if v is None:
                    row[k] = -f * e
                    cols[k].add(i)
                elif v == f * e:
                    del row[k]
                    cols[k].remove(i)
                else:
                    row[k] = v - f * e
        steps.append((p, j, u, rest, multipliers))
    core_rows = sorted(i for i, row in rows.items() if row)
    core_cols = sorted(j for j, col in cols.items() if col)
    data = [[rows[i].get(j, 0) for j in core_cols] for i in core_rows]
    zero_rows = sorted(i for i, row in rows.items() if not row)
    return steps, IntMatrix._from_rows(data, len(core_cols)), core_rows, core_cols, zero_rows


def assert_matches_the_oracle(a, dropped=frozenset()):
    assert_same_elimination(eliminate(a, dropped), eliminate_oracle(a, dropped))


def as_sparse_columns(a):
    """The IntMatrix a as the SparseColumns that eliminate reads."""
    return SparseColumns(a.rows, [
        {i: a[i, j] for i in range(a.rows) if a[i, j]} for j in range(a.cols)
    ])


def rows_of(a):
    """Sets of rows of a, as the kernel's `dropped` must be."""
    return st.frozensets(st.integers(0, a.rows - 1)) if a.rows else st.just(frozenset())


class TestEliminationAgainstTheOracle:
    @settings(max_examples=300, deadline=None, database=None)
    @given(sparse_matrices(), st.data())
    def test_random_sparse_matrices(self, a, data):
        dropped = data.draw(rows_of(a))
        matrix = as_sparse_columns(a)
        assert_matches_the_oracle(matrix)
        assert_matches_the_oracle(matrix, dropped)

    @settings(max_examples=100, deadline=None, database=None)
    @given(matrices_with_repeated_columns(), st.data())
    def test_matrices_with_repeated_columns(self, a, data):
        matrix = as_sparse_columns(a)
        assert_matches_the_oracle(matrix)
        assert_matches_the_oracle(matrix, data.draw(rows_of(a)))

    def test_every_inventory_reduction(self, inventory):
        for name, q in inventory + CROSS_CHECK_QUANDLES + named_order_five():
            for degree in admitted_boundary_degrees(q):
                below = homology._reduction(q, degree - 1)[0] if degree > 2 else ()
                paired = {j for _, j, _, _, _ in below}
                kept = g_columns(q, degree)
                assert_matches_the_oracle(kept, paired)
                # the pass on the rows that homology's reductions are built in
                built = built_reduction(q, degree, paired)
                assert_same_elimination(built, eliminate_oracle(kept, paired))
                assert_same_elimination(built, eliminate(kept, paired))


class TestSolveInImageAgainstTheOracle:
    """solve_in_image builds its pivot pass from the rows of an IntMatrix;
    the same pivots give the same x as _solve on the column form, eliminated
    by the test oracle."""

    @staticmethod
    def assert_same_solution(a, data):
        x0 = data.draw(st.lists(st.integers(-5, 5), min_size=a.cols, max_size=a.cols))
        noise = data.draw(st.lists(st.integers(-2, 2), min_size=a.rows, max_size=a.rows))
        columns = as_sparse_columns(a)
        image = a.apply(x0)
        for b in (image, [e + n for e, n in zip(image, noise)]):
            assert solve_in_image(a, b) == _solve(columns, eliminate(columns), b)

    @settings(max_examples=300, deadline=None, database=None)
    @given(sparse_matrices(max_dim=8), st.data())
    def test_random_sparse_matrices(self, a, data):
        self.assert_same_solution(a, data)

    @settings(max_examples=200, deadline=None, database=None)
    @given(matrices_with_repeated_columns(), st.data())
    def test_matrices_with_repeated_columns(self, a, data):
        self.assert_same_solution(a, data)
