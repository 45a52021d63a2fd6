import json
from functools import lru_cache
from importlib import resources
from itertools import combinations, permutations

import pytest
from sympy import Matrix

from quandlehom import Chain, Quandle, chains, dataset_from_json, det, quandle_basis
from quandlehom.errors import ResourceLimitError
from quandlehom.intlinalg import SparseColumns, _pivot_pass
from quandlehom.quandle import _generators


def is_unimodular(a):
    return a.rows == a.cols and abs(det(a)) == 1


def sympy_matrix(a):
    """An IntMatrix as a sympy Matrix: the independent oracle computes the
    matrix products that the tests check."""
    return Matrix(a.rows, a.cols, [e for row in a.to_rows() for e in row])


def trivial_table(n):
    return [[x] * n for x in range(n)]


# the order-4 Alexander quandle on GF(4) with t a generator
S4_TABLE = [
    [0, 3, 1, 2],
    [2, 1, 3, 0],
    [3, 0, 2, 1],
    [1, 2, 0, 3],
]


def relabellings(table):
    """Every relabelling of `table`, a square array over range(n), as tuples
    of tuples: relabelled by the permutation r, x * y becomes
    r(r^-1(x) * r^-1(y))."""
    n = len(table)
    return {
        tuple(tuple(r[table[inv[x]][inv[y]]] for y in range(n)) for x in range(n))
        for r in permutations(range(n))
        for inv in [sorted(range(n), key=r.__getitem__)]
    }


def least_relabelling(table):
    """The least of the relabellings of `table`."""
    return min(relabellings(table))


@lru_cache(maxsize=None)
def quandle_classes(n):
    """One table per isomorphism class of quandles of order n, the least
    relabelled one, in ascending order: a backtracking search over the
    right translations s[y] (x -> x * y), each a permutation fixing y,
    chosen for y = 0, 1, ... in turn.  Distributivity, s[z] s[y] =
    s[w] s[z] with w = s[z](y), is checked as soon as s[y], s[z] and s[w]
    are all chosen, so a partial choice that breaks it is not extended."""
    elements = range(n)
    fixing = [[p for p in permutations(elements) if p[y] == y] for y in elements]
    s, seen, least = [], set(), []

    def distributive(j):
        # the pairs (y, z) first decidable once s[j] is chosen
        return all(
            s[z][s[y][x]] == s[w][s[z][x]]
            for y in range(j + 1) for z in range(j + 1)
            if (w := s[z][y]) <= j and j in (y, z, w)
            for x in elements
        )

    def extend():
        if len(s) == n:
            table = tuple(tuple(s[y][x] for y in elements) for x in elements)
            if table not in seen:
                relabelled = relabellings(table)
                seen.update(relabelled)
                least.append(min(relabelled))
            return
        for p in fixing[len(s)]:
            s.append(p)
            if distributive(len(s) - 1):
                extend()
            s.pop()

    extend()
    return sorted(least)


# the classes of each order, named in the order of their least tables; Rn is
# dihedral, Tn trivial and S4 the Alexander quandle above.  In the others a
# point (pt) is fixed by every element and acts on a trivial quandle by a
# swap or a 3-cycle, or trivially (+ pt)
CLASS_NAMES = {
    1: ["R1"],
    2: ["T2"],
    3: ["T3", "T2 swapped by pt", "R3"],
    4: ["T4", "T2 swapped by pt + pt", "T2 swapped by 2 pts", "R3 + pt", "T3 cycled by pt",
        "R4", "S4"],
}


def quandle_inventory():
    """Every quandle of order <= 4 up to isomorphism, 12 classes, each as
    its least relabelled table, by order."""
    return [
        (name, Quandle.from_table(table))
        for n, names in CLASS_NAMES.items()
        for name, table in zip(names, quandle_classes(n), strict=True)
    ]


@lru_cache(maxsize=None)
def order_five_classes():
    """Every quandle of order 5 up to isomorphism, 22 classes, each as its
    least relabelled table: kept out of the inventory, whose suites would
    run too long on them, and checked against the theorems, the builder and
    reduction oracles, the n^4 3-cocycle oracle and sympy's H_1 and H_2."""
    return tuple(Quandle.from_table(table) for table in quandle_classes(5))


def named_order_five():
    """order_five_classes as (name, quandle) pairs, named by position."""
    return [(f"order 5 #{i}", q) for i, q in enumerate(order_five_classes())]


def conjugate(q, sigma, inv):
    """q relabelled by the permutation sigma, whose inverse is inv."""
    n = q.order
    return Quandle.from_table(
        [[sigma[q.table[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
    )


def alexander(n, t):
    """The Alexander quandle on Z/n with x * y = t x + (1 - t) y."""
    return Quandle.from_table([[(t * x + (1 - t) * y) % n for y in range(n)] for x in range(n)])


def product(p, q):
    """The product quandle on pairs (a, b), labelled a * q.order + b."""
    m = q.order
    return Quandle.from_table([
        [p.table[a // m][b // m] * m + q.table[a % m][b % m] for b in range(p.order * m)]
        for a in range(p.order * m)
    ])


def transpositions(n):
    """The conjugation quandle on the transpositions of S_n, x * y = y x y,
    each a permutation tuple of range(n)."""
    perms = []
    for a, b in combinations(range(n), 2):
        perm = list(range(n))
        perm[a], perm[b] = b, a
        perms.append(tuple(perm))
    index = {x: i for i, x in enumerate(perms)}
    return Quandle.from_table([
        [index[tuple(y[x[y[i]]] for i in range(n))] for y in perms] for x in perms
    ])


# beyond the inventory: larger dihedral quandles, Alexander quandles (the
# one on Z/4 with t = 3 is R4), products, whose G is larger than {0, 1},
# a relabelled R5 (0 <-> 1 is not an automorphism) and a conjugation
# quandle
CROSS_CHECK_QUANDLES = [(f"R{n}", Quandle.dihedral(n)) for n in range(5, 9)] + [
    (f"Z/{n} t={t}", alexander(n, t)) for n, t in ((5, 2), (7, 3), (8, 3), (9, 2))
] + [
    ("R3xT2", product(Quandle.dihedral(3), Quandle.from_table(trivial_table(2)))),
    ("T2xR3", product(Quandle.from_table(trivial_table(2)), Quandle.dihedral(3))),
    ("R5 relabelled", conjugate(Quandle.dihedral(5), [1, 0, 2, 3, 4], [1, 0, 2, 3, 4])),
    ("transpositions of S4", transpositions(4)),
]


def admitted_boundary_degrees(q):
    """Each n whose d_n the limits let homology build: d_n is the upper
    boundary matrix of H_{n-1}, and every lower one is smaller."""
    degrees = []
    for n in range(2, chains.MAX_HOMOLOGY_DEGREE + 2):
        try:
            chains._check_limits(q, n - 1)
        except ResourceLimitError:
            break
        degrees.append(n)
    return degrees


@lru_cache(maxsize=None)
def tuple_columns(quandle, degree, ends):
    """chains.boundary_columns on tuple bases, with every column whose tuple
    does not end in `ends` (a frozenset) left empty: each row found by
    hashing a tuple into the degree-(n-1) basis, the last entries read off
    the degree-(n-2) tuples, and d_{n-1} built the same way.  The slow
    oracle for the cell arithmetic of boundary_columns and chains._rows,
    which must give the same columns in the same key order (the pivots of
    the elimination depend on it)."""
    order = quandle.order
    if degree > 2:
        below = tuple_columns(quandle, degree - 1, frozenset(range(order))).columns
        lasts = [f[-1] for f in quandle_basis(quandle, degree - 2)]
    else:
        below, lasts = [{}] * order, ()
    row_index = {t: i for i, t in enumerate(quandle_basis(quandle, degree - 1))}
    acts = [[row[y] for row in quandle.table] for y in range(order)]  # x -> x*y
    c = (-1) ** degree
    columns = []
    for j, (x, column_below) in enumerate(zip(row_index, below)):
        faces = [(i * (order - 1), lasts[i], e) for i, e in column_below.items()]
        for y in filter(x[-1].__ne__, range(order)):
            if y not in ends:
                columns.append({})
                continue
            column = {r + y - (y > last): e for r, last, e in faces if y != last}
            xy = row_index[tuple(map(acts[y].__getitem__, x))]
            if xy != j:
                column[j], column[xy] = c, -c
            columns.append(column)
    return SparseColumns(len(row_index), columns)


def g_columns(quandle, degree):
    """chains.boundary_columns(quandle, degree) with every column whose
    tuple does not end in G left empty, as SparseColumns."""
    ends, full = _generators(quandle), chains.boundary_columns(quandle, degree)
    return SparseColumns(full.rows, [
        column if t[-1] in ends else {}
        for t, column in zip(quandle_basis(quandle, degree), full.columns)
    ])


def eliminate(a, dropped=frozenset()):
    """The pivot pass on `a`, a SparseColumns, leaving out the rows in
    `dropped`, which must be rows of `a`: _pivot_pass on a's transpose, with
    those rows None.  The column-form oracle for the row builders, and the
    entry to the kernel for the property tests."""
    rows = [{} for _ in range(a.rows)]  # a pivot's or dropped row becomes None
    cols = {}  # the non-empty columns only: no other ever gains an entry
    for j, column in enumerate(a.columns):
        if column:
            cols[j] = set(column)
            for i, e in column.items():
                rows[i][j] = e
    for i in dropped:  # left out as a pivot row is
        for k in rows[i]:
            cols[k].remove(i)
        rows[i] = None
    return _pivot_pass(rows, cols)


def built_reduction(quandle, degree, paired):
    """The pivot pass on the rows that chains._rows builds for the G-columns
    of d_degree without the rows in `paired`: the path of homology's kept
    reductions, run afresh."""
    return _pivot_pass(*chains._rows(quandle, degree, paired))


def assert_same_elimination(got, expected):
    """The same (p, j, u) steps in the same order, each with the same rest
    and multipliers up to order (sorted, so a pair written twice is caught),
    and the same core, core rows, core columns and zero rows."""
    steps, *tail = got
    expected_steps, *expected_tail = expected
    assert [s[:3] for s in steps] == [s[:3] for s in expected_steps]
    for (*_, rest, multipliers), (*_, expected_rest, expected_multipliers) in zip(
        steps, expected_steps
    ):
        assert sorted(rest) == sorted(expected_rest)
        assert sorted(multipliers) == sorted(expected_multipliers)
    assert tail == expected_tail


def load_bundled(name):
    raw = resources.files("quandlehom.data").joinpath(name).read_text()
    return dataset_from_json(json.loads(raw))


@pytest.fixture(scope="session")
def r3():
    return Quandle.dihedral(3)


@pytest.fixture(scope="session")
def inventory():
    return quandle_inventory()


@pytest.fixture(scope="session")
def order_five():
    return order_five_classes()


@pytest.fixture(scope="session")
def d_dataset():
    return load_bundled("yashiro_d.json")


@pytest.fixture(scope="session")
def dprime_dataset():
    return load_bundled("yashiro_dprime.json")


@pytest.fixture
def cbar1():
    return Chain.generator((2, 0, 2)) + Chain.generator((2, 1, 0))
