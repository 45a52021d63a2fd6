"""Exact integer matrix algebra: Smith normal form with unimodular
transforms, determinants, and integer linear-system solving.  The dense
entries snf, det and solve_in_image take an IntMatrix, whose constructor
checks every entry; they convert nothing else.

Entries are Python ints throughout; nothing here ever touches floating
point.  Rank, invariant factors and image membership all go through one
sparse elimination (_pivot_pass): boundary matrices are sparse and most of
their pivots are +-1, so each unit pivot is eliminated by exact row
operations on row dicts and column sets, one row and one column at a time.
Only the columns with an entry are indexed, and each is visited once, in
index order.  On a quandle boundary matrix that one pass leaves no unit
entry (the tests check every reduction of their quandles), and only the
small core left without unit entries reaches _smith, the one dense Smith
normal form kernel (Dumas, Heckenbach, Saunders and Welker,
"Computing simplicial homology based on efficient Smith normal form
algorithms", 2003).  It carries only the blocks that its caller appends
to the core: _rank_and_torsion appends none and reads the diagonal, so a
short, wide core costs its own size, not the square of its width; snf,
which only the image solve calls here, appends I_m as columns and I_n as
rows, which come out as U and V.  Nothing here keeps an elimination
(solve_in_image eliminates afresh on each call): the kept ones are
homology's, one per boundary matrix, each kept with its rank and torsion
by its Quandle object and freed with it.

_pivot_pass reads row dicts and column sets, with None for each row left
out.  solve_in_image builds them from an IntMatrix's rows; chains._rows
builds them for homology's kept reductions, without the rows paired below.
_solve reads b on the kept rows only, and reads the matrix only through
.cols and .apply, to check the solution against b on every row: an
IntMatrix for solve_in_image, the full boundary SparseColumns for homology.
"""

from collections import namedtuple
from itertools import compress


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


class IntMatrix:
    """A dense, effectively immutable integer matrix.

    >>> IntMatrix([[1, 2], [3, 4]]).apply([1, -1])
    [-1, -1]
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data, cols=None):
        data = [list(row) for row in data]
        if data:
            width = len(data[0])
        elif cols is not None:
            width = cols
        else:
            raise ValueError("cols is required for a matrix with no rows")
        if cols is not None and cols != width:
            raise ValueError(f"cols={cols} does not match row length {width}")
        for i, row in enumerate(data):
            if len(row) != width:
                raise ValueError(f"row {i} has length {len(row)}, expected {width}")
            for j, e in enumerate(row):
                if not isinstance(e, int) or isinstance(e, bool):
                    raise ValueError(f"entry ({i},{j}) = {e!r} is not an int")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_data", data)

    @classmethod
    def _from_rows(cls, data, cols):
        """Wrap, without copying or checking, int rows the package built."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_data", data)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):  # copies and pickles are rebuilt through __init__
        return type(self), (self._data, self.cols)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def to_rows(self):
        """A fresh list-of-lists copy of the entries."""
        return [row.copy() for row in self._data]

    def apply(self, vec):
        """Matrix-vector product as a list of ints."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        support = list(compress(range(self.cols), vec))
        return [sum(row[k] * vec[k] for k in support) for row in self._data]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._data == other._data

    def __repr__(self):
        if self.rows * self.cols > 36:
            return f"IntMatrix(shape={self.shape})"
        return f"IntMatrix({self._data!r})"


class SparseColumns:
    """An integer matrix kept as one {row: entry} dict per column, with no
    zero entries: the form in which the package builds boundary matrices.
    Read-only once built, like IntMatrix.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows, columns):
        self.rows = rows
        self.cols = len(columns)
        self.columns = columns

    def apply(self, vec):
        """Matrix-vector product as a list of ints."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        out = [0] * self.rows
        for column, v in zip(self.columns, vec):
            if v:
                for i, e in column.items():
                    out[i] += e * v
        return out


class SmithDecomposition(namedtuple("SmithDecomposition", "U D V")):
    """U·A·V = D with U, V unimodular and D diagonal with a
    divisibility chain d1 | d2 | ... and trailing zeros."""

    __slots__ = ()

    @property
    def diagonal(self):
        return tuple(
            self.D[i, i] for i in range(min(self.D.rows, self.D.cols))
        )


def _find_pivot(d, k, m, n):
    """Position of a nonzero entry of minimal |value| in d[k:m, k:n], or None."""
    best = None
    best_abs = None
    for i in range(k, m):
        row = d[i]
        for j in range(k, n):
            e = row[j]
            if e and (best_abs is None or abs(e) < best_abs):
                best, best_abs = (i, j), abs(e)
                if best_abs == 1:
                    return best
    return best


def _smith(w, m, n):
    """Bring the block w[:m][:n] of the int rows w to Smith normal form in
    place.  Pivot search, the divisibility test and the sign fix read that
    block alone, but row operations act on whole rows and column operations
    on whole columns: what the caller appends is carried along, so columns
    appended after n end as U times what was appended, and rows appended
    after m as what was appended times V.
    """
    for k in range(min(m, n)):
        pos = _find_pivot(w, k, m, n)
        if pos is None:
            break
        while True:
            pi, pj = pos
            if pi != k:
                w[k], w[pi] = w[pi], w[k]
            if pj != k:
                for row in w:
                    row[k], row[pj] = row[pj], row[k]
            wk = w[k]
            pivot = wk[k]
            for i in range(k + 1, m):
                if w[i][k]:
                    q = w[i][k] // pivot
                    w[i] = [e - q * f for e, f in zip(w[i], wk)]
            for j in range(k + 1, n):
                if wk[j]:
                    q = wk[j] // pivot
                    for row in w:
                        row[j] -= q * row[k]
            # floor division leaves remainders strictly smaller than |pivot|,
            # so re-pivoting terminates
            if any(w[i][k] for i in range(k + 1, m)) or any(wk[k + 1:n]):
                pos = _find_pivot(w, k, m, n)
                continue
            # the block holds multiples of the entry above, so a pivot that size divides it
            if k and abs(pivot) == w[k - 1][k - 1]:
                break
            # the first row below with an entry that the pivot does not divide
            offender = next(
                (i for i in range(k + 1, m) if any(e % pivot for e in w[i][k + 1:n])), None
            )
            if offender is None:
                break
            # pull the non-divisible row up so the next pass shrinks the pivot
            w[k] = [e + f for e, f in zip(wk, w[offender])]
            pos = (k, k)
        if w[k][k] < 0:
            w[k] = [-e for e in w[k]]


def snf(a):
    """Smith normal form of `a` with both unimodular transforms: _smith on
    the rows of [A | I_m] followed by those of I_n, which carries U in the
    appended columns and V in the appended rows.

    >>> snf(IntMatrix([[2, 0], [0, 3]])).diagonal
    (1, 6)
    """
    m, n = a.rows, a.cols
    w = [row + unit for row, unit in zip(a._data, _identity_rows(m))] + _identity_rows(n)
    _smith(w, m, n)
    return SmithDecomposition(
        U=IntMatrix._from_rows([row[n:] for row in w[:m]], m),
        D=IntMatrix._from_rows([row[:n] for row in w[:m]], n),
        V=IntMatrix._from_rows(w[m:], n),
    )


def _pivot_pass(rows, cols):
    """The elimination of a matrix given as rows, a list of {column: entry}
    dicts with None for each row left out, and cols, {column: the set of
    rows with an entry in it}, keyed in index order by every column that a
    row has an entry in, and by any others, whose empty sets are passed
    over; both are consumed.  Returns (steps, core, core_rows,
    core_cols, zero_rows), and the matrix without the rows left out is
    equivalent to I_r + core with r = len(steps).

    Visits each column in cols once, in index order, and pivots on its
    unit entry with the shortest row, the lowest row winning ties; a unit
    entry that fill brings into a column already passed stays in the core.
    A step (p, j, u, rest, multipliers) pivoted on a[p][j] = u = +-1:
    rest holds row p's other (column, entry) pairs as they stood then, and
    multipliers the (row i, f) of the operations row_i -= f * row_p that
    cleared column j.  core is the submatrix on the rows and columns left
    nonzero, in their original order; zero_rows are the rows that the
    operations emptied, or that were zero from the start.
    """
    steps = []
    for j in list(cols):
        col = cols[j]
        p = None
        for i in col:  # the unit entry with the shortest row, then the lowest i
            row = rows[i]
            if row[j] in (1, -1):
                size = len(row)
                if p is None or size < best or size == best and i < p:
                    p, best = i, size
        if p is None:
            continue
        prow, rows[p] = rows[p], None
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
    core_rows = [i for i, row in enumerate(rows) if row]
    core_cols = [j for j, col in cols.items() if col]
    data = [[rows[i].get(j, 0) for j in core_cols] for i in core_rows]
    zero_rows = [i for i, row in enumerate(rows) if row == {}]
    return steps, IntMatrix._from_rows(data, len(core_cols)), core_rows, core_cols, zero_rows


def _rank_and_torsion(reduction):
    """Rank and invariant factors >= 2, in ascending order, of the matrix
    (less its dropped rows) that a _pivot_pass result reduced: the unit
    pivots plus the Smith form of the core.

    >>> _rank_and_torsion(_pivot_pass([{0: 1, 1: 2}, {0: 3}], {0: {0, 1}, 1: {0}}))
    (2, (6,))
    """
    steps, core, _, _, _ = reduction
    w = core.to_rows()  # the core alone: no transform is built
    _smith(w, core.rows, core.cols)
    diagonal = [w[i][i] for i in range(min(core.rows, core.cols))]
    return len(steps) + sum(1 for d in diagonal if d), tuple(d for d in diagonal if d >= 2)


def det(a):
    """Exact determinant of a square integer matrix (Bareiss algorithm)."""
    if a.rows != a.cols:
        raise ValueError(f"determinant requires a square matrix, got {a.shape}")
    n = a.rows
    if n == 0:
        return 1
    w = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k][k] == 0:
            for i in range(k + 1, n):
                if w[i][k]:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
            w[i][k] = 0
        prev = w[k][k]
    return sign * w[n - 1][n - 1]


def solve_in_image(a, b):
    """An integer x with a.apply(x) == b, or None if b is not in the image of
    `a` over the integers.  The solution is re-verified before returning.

    This is _solve on the elimination of the whole of `a`, built from its rows.
    """
    b = list(b)
    if len(b) != a.rows:
        raise ValueError(f"right-hand side has length {len(b)}, expected {a.rows}")
    for i, e in enumerate(b):
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"b[{i}] = {e!r} is not an int")
    rows = [{j: e for j, e in enumerate(row) if e} for row in a._data]
    cols = {j: {i for i, row in enumerate(rows) if j in row} for j in range(a.cols)}
    return _solve(a, _pivot_pass(rows, cols), b)


def _solve(a, reduction, b):
    """An integer x with a.apply(x) == b, or None, from `reduction`, a
    _pivot_pass result for `a` or for some of its columns, perhaps without
    some rows; x is 0 on the other columns.  `a` is read only through .cols
    and .apply: an IntMatrix or a SparseColumns.

    The unit pivots' row operations carry b along; b must then vanish on
    the rows they emptied, the core is solved through its Smith form, and
    the pivot columns are back-substituted, last pivot first.  Rows that
    the reduction dropped are not read until x is checked against b on
    every row of `a`.
    """
    steps, core, core_rows, core_cols, zero_rows = reduction
    dec = snf(core)
    c = b.copy()
    for p, _, _, _, multipliers in steps:
        cp = c[p]
        if cp:
            for i, f in multipliers:
                c[i] -= f * cp
    if any(c[i] for i in zero_rows):
        return None
    c_core = dec.U.apply([c[i] for i in core_rows])
    y = [0] * core.cols
    for i in range(core.rows):
        di = dec.D[i, i] if i < core.cols else 0
        if di == 0:
            if c_core[i] != 0:
                return None
        else:
            if c_core[i] % di:
                return None
            y[i] = c_core[i] // di
    x = [0] * a.cols
    for j, v in zip(core_cols, dec.V.apply(y)):
        x[j] = v
    for p, j, u, rest, _ in reversed(steps):
        x[j] = u * (c[p] - sum(e * x[k] for k, e in rest))
    # exactness guard: unreachable when no row was dropped, and for a cycle
    # b when the dropped rows are those homology drops
    if a.apply(x) != b:
        raise AssertionError("the reduction produced a non-solution: a x != b on some row")
    return x
