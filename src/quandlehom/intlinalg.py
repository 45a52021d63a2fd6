"""Exact integer matrix algebra: Smith normal form with unimodular
transforms, determinants, and integer linear-system solving.

Entries are Python ints throughout; nothing here ever touches floating
point.  Rank, invariant factors and image membership all go through one
sparse front end (_eliminate): boundary matrices are sparse and most of
their pivots are +-1, so each unit pivot is eliminated by exact row
operations on row and column dicts, one row and one column at a time.
Only the small core left without unit entries reaches the dense `snf`,
the one Smith normal form kernel (Dumas, Heckenbach, Saunders and
Welker, "Computing simplicial homology based on efficient Smith normal
form algorithms", 2003).  The core keeps one column of each set that is
equal up to sign, which leaves its image, rank and invariant factors
unchanged; a solution is 0 on the dropped columns.  An IntMatrix is
immutable, so its elimination is computed on first use and kept on the
matrix: every later rank or image query on it reuses the pivots, and
each query still takes the Smith form of the (small) core afresh.

Boundary matrices are built as SparseColumns, which _eliminate reads
without a dense copy.  It can leave rows out, as the reduction of the whole
complex in homology does; _solve then reads b on the kept rows only and
checks the solution against b on every row.
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

    >>> IntMatrix([[1, 2], [3, 4]]) @ IntMatrix.identity(2)
    IntMatrix([[1, 2], [3, 4]])
    """

    __slots__ = ("rows", "cols", "_data", "_reduction")

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
        object.__setattr__(self, "_reduction", None)

    @classmethod
    def _from_rows(cls, data, cols):
        """Wrap, without copying or checking, int rows the package built."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_data", data)
        object.__setattr__(m, "_reduction", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n):
        return cls._from_rows(_identity_rows(n), n)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def to_rows(self):
        """A fresh list-of-lists copy of the entries."""
        return [row.copy() for row in self._data]

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        ot = other._data
        out = []
        for row in self._data:
            out.append(
                [
                    sum(row[k] * ot[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
            )
        return IntMatrix._from_rows(out, other.cols)

    def apply(self, vec):
        """Matrix-vector product as a list of ints."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        support = list(compress(range(self.cols), vec))
        return [sum(row[k] * vec[k] for k in support) for row in self._data]

    def is_zero(self):
        return all(e == 0 for row in self._data for e in row)

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

    def to_dense(self):
        data = [[0] * self.cols for _ in range(self.rows)]
        for j, column in enumerate(self.columns):
            for i, e in column.items():
                data[i][j] = e
        return IntMatrix._from_rows(data, self.cols)


class SmithDecomposition(namedtuple("SmithDecomposition", "U D V")):
    """U @ A @ V == D with U, V unimodular and D diagonal with a
    divisibility chain d1 | d2 | ... and trailing zeros."""

    __slots__ = ()

    @property
    def diagonal(self):
        return tuple(
            self.D[i, i] for i in range(min(self.D.rows, self.D.cols))
        )


def _find_pivot(d, k, m, n):
    """Position of a nonzero entry of minimal |value| in d[k:, k:], or None."""
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


def snf(a):
    """Smith normal form of `a` with both unimodular transforms.

    >>> snf(IntMatrix([[2, 0], [0, 3]])).diagonal
    (1, 6)
    """
    if not isinstance(a, IntMatrix):
        a = IntMatrix(a)
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = _identity_rows(m)
    v = _identity_rows(n)

    def swap_rows(i1, i2):
        d[i1], d[i2] = d[i2], d[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for row in d:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    def add_row(src, dst, q):
        # row dst += q * row src
        ds, dd = d[src], d[dst]
        for j in range(n):
            dd[j] += q * ds[j]
        us, ud = u[src], u[dst]
        for j in range(m):
            ud[j] += q * us[j]

    def add_col(src, dst, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    for k in range(min(m, n)):
        pos = _find_pivot(d, k, m, n)
        if pos is None:
            break
        while True:
            pi, pj = pos
            if pi != k:
                swap_rows(k, pi)
            if pj != k:
                swap_cols(k, pj)
            pivot = d[k][k]
            for i in range(k + 1, m):
                if d[i][k]:
                    add_row(k, i, -(d[i][k] // pivot))
            for j in range(k + 1, n):
                if d[k][j]:
                    add_col(k, j, -(d[k][j] // pivot))
            # floor division leaves remainders strictly smaller than |pivot|,
            # so re-pivoting terminates
            if any(d[i][k] for i in range(k + 1, m)) or any(
                d[k][j] for j in range(k + 1, n)
            ):
                pos = _find_pivot(d, k, m, n)
                continue
            offender = None
            for i in range(k + 1, m):
                row = d[i]
                for j in range(k + 1, n):
                    if row[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # pull the non-divisible row up so the next pass shrinks the pivot
            add_row(offender, k, 1)
            pos = (k, k)
        if d[k][k] < 0:
            for j in range(n):
                d[k][j] = -d[k][j]
            for j in range(m):
                u[k][j] = -u[k][j]

    return SmithDecomposition(
        U=IntMatrix._from_rows(u, m),
        D=IntMatrix._from_rows(d, n),
        V=IntMatrix._from_rows(v, n),
    )


def _eliminate(a, dropped=frozenset()):
    """Eliminate the +-1 pivots of `a` (an IntMatrix or SparseColumns)
    sparsely, leaving out the rows in `dropped`; returns (steps, core,
    core_rows, core_cols, zero_rows), and a without those rows is
    equivalent to I_r + core with r = len(steps).

    Sweeps the columns in order and, in each, pivots on the unit entry
    with the shortest row, until a whole sweep finds no unit entry left.
    A step (p, j, u, rest, multipliers) pivoted on a[p][j] = u = +-1:
    rest holds row p's other (column, entry) pairs as they stood then, and
    multipliers the (row i, f) of the operations row_i -= f * row_p that
    cleared column j.  core is the submatrix on the rows and columns left
    nonzero, in their original order, keeping only the first of any columns
    equal up to sign (they span the same image); zero_rows are the rows
    that the operations emptied, or that were zero from the start.
    """
    if isinstance(a, IntMatrix):
        columns = [{i: row[j] for i, row in enumerate(a._data) if row[j]} for j in range(a.cols)]
    else:
        columns = a.columns
    rows = {i: {} for i in range(a.rows) if i not in dropped}
    cols = {}
    for j, column in enumerate(columns):
        cols[j] = col = set()
        for i, e in column.items():
            row = rows.get(i)
            if row is not None:
                row[j] = e
                col.add(i)
    steps = []
    swept = True
    while swept:
        swept = False
        for j in range(a.cols):
            col = cols.get(j)
            if not col:
                continue
            units = [i for i in col if rows[i][j] in (1, -1)]
            if not units:
                continue
            p = min(units, key=lambda i: (len(rows[i]), i))
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
                    if k in row:
                        v = row[k] - f * e
                        if v:
                            row[k] = v
                        else:
                            del row[k]
                            cols[k].remove(i)
                    else:
                        row[k] = -f * e
                        cols[k].add(i)
            steps.append((p, j, u, rest, multipliers))
            swept = True
    core_rows = sorted(i for i, row in rows.items() if row)
    first = {}  # column up to sign -> the first core column equal to it
    for j in sorted(j for j, col in cols.items() if col):
        column = sorted((i, rows[i][j]) for i in cols[j])
        sign = 1 if column[0][1] > 0 else -1
        first.setdefault(tuple((i, sign * e) for i, e in column), j)
    core_cols = list(first.values())
    index = {i: k for k, i in enumerate(core_rows)}
    data = [[0] * len(core_cols) for _ in core_rows]
    for k, j in enumerate(core_cols):
        for i in cols[j]:
            data[index[i]][k] = rows[i][j]
    zero_rows = sorted(i for i, row in rows.items() if not row)
    return steps, IntMatrix._from_rows(data, len(core_cols)), core_rows, core_cols, zero_rows


def _reduced(a):
    """_eliminate(a), computed on first use and kept on the matrix."""
    if a._reduction is None:
        object.__setattr__(a, "_reduction", _eliminate(a))
    return a._reduction


def _rank_and_torsion(reduction):
    """Rank and invariant factors >= 2, in ascending order, of the matrix
    (less its dropped rows) that an _eliminate result reduced: the unit
    pivots plus the Smith form of the core.

    >>> _rank_and_torsion(_eliminate(IntMatrix([[1, 2], [3, 0]])))
    (2, (6,))
    """
    steps, core, _, _, _ = reduction
    diagonal = snf(core).diagonal
    return len(steps) + sum(1 for d in diagonal if d), tuple(d for d in diagonal if d >= 2)


def det(a):
    """Exact determinant of a square integer matrix (Bareiss algorithm)."""
    if not isinstance(a, IntMatrix):
        a = IntMatrix(a)
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
    """An integer x with a @ x == b, or None if b is not in the image of
    `a` over the integers.  The solution is re-verified before returning.

    This is _solve on the elimination of the whole of `a`.
    """
    if not isinstance(a, IntMatrix):
        a = IntMatrix(a)
    b = list(b)
    if len(b) != a.rows:
        raise ValueError(f"right-hand side has length {len(b)}, expected {a.rows}")
    for i, e in enumerate(b):
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"b[{i}] = {e!r} is not an int")
    return _solve(a, _reduced(a), b)


def _solve(a, reduction, b):
    """An integer x with a @ x == b, or None, from `reduction`, an
    _eliminate result for `a` (an IntMatrix or SparseColumns).

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
        raise AssertionError("solve_in_image produced a non-solution")
    return x
