"""Sparse integer chains on tuples of quandle elements, the rack boundary
operator, the degenerate-tuple projection, and boundary matrices.

A degree-n chain is a formal integer combination of n-tuples.  The quandle
chain complex is the quotient of the rack complex by tuples with two equal
adjacent entries; since that subgroup is generator-spanned, the quotient is
realized by simply dropping degenerate tuples (project_quandle).

Boundary convention, fixed for the whole package and written once (_faces):

    d(x_1, ..., x_n) = sum_{i=2..n} (-1)^i [ (x_1, ..., ^x_i, ..., x_n)
                       - (x_1*x_i, ..., x_{i-1}*x_i, x_{i+1}, ..., x_n) ]

where ^x_i omits the i-th entry and * is the quandle operation.

For (x', y) with x' of length n-1, the terms i < n are those of x' with y
appended, and the term i = n is (-1)^n [x' - x'*y], * acting entrywise.  So
column (x', y) of d_n is built from column x' of d_{n-1} (d_1 = 0): each
face f goes to (f, y), and f ending in y drops out.

No tuple is built on that path.  Bases are ordered by extension, so a cell of
degree d is an index: (f, y) sits at index(f) * (order - 1) + y - (y > last(f)).
_cells computes that index once per degree, for every (f, y), and reads f*y
off it; both builders take each face's (f, y) from it.  Cells and boundary
columns are kept in the Quandle object's own store and freed with it: equal
quandles built separately do not share them.  quandle_basis keeps nothing there.

Each boundary form has one builder on that recursion, and the tests check each
column against the formula.  boundary_columns makes the column form,
SparseColumns, always the full matrix and kept: the degree above, the cycle
test, a null-homology query's check and matrix_of_boundary read it.  _rows
makes the row form that intlinalg._pivot_pass reads, for homology's kept
reductions: the G-columns, whose cell ends in the generating set G that the
quandle module defines, less the rows paired below, written straight into row
dicts and column sets, and not kept: a reduction builds no column dict and
transposes nothing.
"""

import sys

from .errors import (
    DegenerateGeneratorError, DegreeError, QuandleMismatchError, ResourceLimitError,
    SchemaError, decimal_int, expect_keys,
)
from .intlinalg import IntMatrix, SparseColumns
from .quandle import Quandle, _generators, _memoized

# homology_group, is_null_homologous and matrix_of_boundary refuse, before any
# basis is built, a degree above MAX_HOMOLOGY_DEGREE (for orders 1 and 2 the
# matrices stay tiny, but it bounds the tuple length d) and a
# d_{d+1} of more than MAX_BOUNDARY_ENTRIES entries: an n(n-1)^(d-1) x n(n-1)^d
# matrix for a quandle of order n, 320x1280 for H_4(R5) and 252x1512 for H_3(R7)
MAX_HOMOLOGY_DEGREE = 16
MAX_BOUNDARY_ENTRIES = 1_000_000


def is_degenerate(tup):
    """True if the tuple has two equal adjacent entries.

    >>> is_degenerate((1, 1, 2))
    True
    >>> is_degenerate((2, 0, 2))
    False
    """
    return any(tup[i] == tup[i + 1] for i in range(len(tup) - 1))


class Chain:
    """A sparse formal integer combination of fixed-degree tuples.

    Zero coefficients are never stored, so equal chains compare equal and
    serialize identically.  Iteration is always in lexicographic tuple
    order.  Chains are immutable; arithmetic returns new chains and raises
    DegreeError on mixed degrees.

    >>> c = Chain.generator((2, 0, 2)) + Chain.generator((2, 1, 0))
    >>> c - c == Chain.zero(3)
    True
    """

    __slots__ = ("degree", "_terms")

    def __init__(self, degree, terms=()):
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise DegreeError(f"chain degree must be a positive integer, got {degree!r}")
        checked = []
        items = terms.items() if isinstance(terms, dict) else terms
        for i, (tup, coeff) in enumerate(items):
            tup = tuple(tup)
            if len(tup) != degree:
                raise DegreeError(
                    f"tuple {tup} has length {len(tup)}, chain degree is {degree}"
                )
            for j, e in enumerate(tup):
                if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                    raise SchemaError(f"terms[{i}].tuple[{j}]", "must be a nonnegative integer")
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise SchemaError(f"terms[{i}].coeff", "must be an integer")
            checked.append((tup, coeff))
        self._fill(degree, checked)

    @classmethod
    def _from_checked(cls, degree, pairs):
        """Like __init__ for (tuple, int) pairs the package already checked:
        combines and drops zeros, without the per-entry checks."""
        chain = object.__new__(cls)
        chain._fill(degree, pairs)
        return chain

    def _fill(self, degree, pairs):
        terms = {}
        for tup, coeff in pairs:
            c = terms.get(tup, 0) + coeff
            if c:
                terms[tup] = c
            elif tup in terms:
                del terms[tup]
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Chain is immutable")

    def __reduce__(self):  # copies and pickles are rebuilt through __init__
        return type(self), (self.degree, self._terms)

    @classmethod
    def zero(cls, degree):
        return cls(degree)

    @classmethod
    def generator(cls, tup, coeff=1):
        tup = tuple(tup)
        return cls(len(tup), [(tup, coeff)])

    def items(self):
        """(tuple, coefficient) pairs in lexicographic tuple order."""
        return sorted(self._terms.items())

    def support(self):
        return sorted(self._terms)

    def coefficient(self, tup):
        return self._terms.get(tuple(tup), 0)

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __add__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeError(f"mixed-degree arithmetic: {self.degree} vs {other.degree}")
        return Chain._from_checked(
            self.degree, [*self._terms.items(), *other._terms.items()]
        )

    def __sub__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Chain._from_checked(self.degree, ((t, -c) for t, c in self._terms.items()))

    def __mul__(self, k):
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        return Chain._from_checked(self.degree, ((t, k * c) for t, c in self._terms.items()))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return self.degree == other.degree and self._terms == other._terms

    def __hash__(self):
        return hash((self.degree, tuple(self.items())))

    def __repr__(self):
        if not self._terms:
            return f"Chain.zero({self.degree})"
        parts = []
        for tup, coeff in self.items():
            if coeff == 1:
                parts.append(f"+{tup}")
            elif coeff == -1:
                parts.append(f"-{tup}")
            else:
                parts.append(f"{coeff:+d}*{tup}")
        return " ".join(parts)

    def to_json_dict(self):
        """{"degree": n, "terms": [...]} with coefficients as decimal strings."""
        return {
            "degree": self.degree,
            "terms": [
                {"tuple": list(tup), "coeff": str(coeff)}
                for tup, coeff in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, obj):
        if not isinstance(obj, dict):
            raise SchemaError("", "chain document must be a JSON object")
        expect_keys(obj, {"degree", "terms"}, ("degree", "terms"), "")
        degree = obj["degree"]
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise SchemaError("degree", "must be a positive integer")
        terms_obj = obj["terms"]
        if not isinstance(terms_obj, list):
            raise SchemaError("terms", "must be a list")
        terms = []
        for i, entry in enumerate(terms_obj):
            path = f"terms[{i}]"
            if not isinstance(entry, dict):
                raise SchemaError(path, "must be an object")
            expect_keys(entry, {"tuple", "coeff"}, ("tuple", "coeff"), path)
            tup, coeff = entry["tuple"], entry["coeff"]
            if not isinstance(tup, list) or len(tup) != degree:
                raise SchemaError(f"{path}.tuple", f"must be a list of {degree} integers")
            if isinstance(coeff, str):  # other text gives None, which Chain refuses
                coeff = decimal_int(coeff, f"{path}.coeff")
            terms.append((tup, coeff))
        chain = cls(degree, terms)
        # each coefficient is under the interpreter's digit limit, but terms
        # on one tuple combine, and to_json_dict could not write the sum
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            bound = 10 ** limit
            for i, (tup, _) in enumerate(terms):
                if abs(chain._terms.get(tuple(tup), 0)) >= bound:
                    raise SchemaError(
                        f"terms[{i}].coeff",
                        f"Exceeds the limit ({limit} digits) for integer string "
                        f"conversion once the terms on {tup} are combined",
                    )
        return chain


def _faces(tup, table):
    """The (face, sign) terms of the module docstring's formula for one
    tuple, degenerate faces included; table is quandle.table, trusted."""
    for ii in range(1, len(tup)):  # ii is the 0-based index of x_i, i = ii + 1
        c = 1 if ii % 2 else -1
        xi = tup[ii]
        head, tail = tup[:ii], tup[ii + 1 :]
        yield head + tail, c
        yield tuple([table[x][xi] for x in head]) + tail, -c


def boundary_rack(chain, quandle):
    """Rack boundary of a chain, by linear extension of the generator
    formula in the module docstring.

    >>> r3 = Quandle.dihedral(3)
    >>> boundary_rack(Chain.generator((2, 0)), r3)
    -(1,) +(2,)
    """
    if chain.degree < 2:
        raise DegreeError(f"boundary requires degree >= 2, got {chain.degree}")
    n = chain.degree
    order = quandle.order
    table = quandle.table

    def terms():
        for tup, coeff in chain._terms.items():
            if max(tup) >= order:
                raise QuandleMismatchError(
                    f"tuple entry {max(tup)} out of range for quandle of order {order}"
                )
            for face, c in _faces(tup, table):
                yield face, c * coeff

    return Chain._from_checked(n - 1, terms())


def project_quandle(chain):
    """Project into the quandle complex by dropping degenerate generators."""
    return Chain._from_checked(
        chain.degree,
        ((t, c) for t, c in chain._terms.items() if not is_degenerate(t)),
    )


def boundary_quandle(chain, quandle):
    """Quandle-complex boundary: the rack boundary followed by projection.

    The input must already live in the quandle complex; a degenerate
    generator is a contract violation, not a value to be silently dropped.
    """
    for tup in chain.support():
        if is_degenerate(tup):
            raise DegenerateGeneratorError(
                f"generator {tup} has two equal adjacent entries"
            )
    return project_quandle(boundary_rack(chain, quandle))


def quandle_basis(quandle, degree):
    """All non-degenerate degree-n tuples over the quandle, lexicographic,
    built on each call and kept nowhere; the 3-cocycle check scans the
    degree-4 tuples one at a time from _nondegenerate instead.

    >>> len(quandle_basis(Quandle.dihedral(3), 3))
    12
    """
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise DegreeError(f"basis degree must be a positive integer, got {degree!r}")
    return tuple(_nondegenerate(quandle.order, degree))


def _nondegenerate(order, degree):
    """quandle_basis's tuples as a generator; degree is trusted."""
    if degree == 1:
        return ((x,) for x in range(order))
    # extending the tuples in order keeps them sorted
    return (t + (x,) for t in _nondegenerate(order, degree - 1) for x in range(order) if x != t[-1])


def _cell_count(quandle, degree):
    """len(quandle_basis(quandle, degree)), without building it."""
    n = quandle.order
    return n * (n - 1) ** (degree - 1)


@_memoized
def _cells(quandle, degree):
    """The degree-d cells, quandle_basis(quandle, d), by index alone: (lasts,
    acts, ext).  lasts[j] is the last entry of cell j.  ext[y][i], the index
    of (f, y) for f cell i of degree d-1, or None if f ends in y, is the one
    place the numbering is computed; acts[y][j], cell j acted on by y
    entrywise, reads it as (f, x)*y = (f*y, x*y).  Kept, so read only."""
    table, n = quandle.table, quandle.order
    if degree == 1:  # (y,) extends the one cell of degree 0, the empty tuple
        return tuple(range(n)), tuple(zip(*table)), tuple((y,) for y in range(n))
    below, acts_below, _ = _cells(quandle, degree - 1)
    ext = tuple(tuple([i * (n - 1) + y - (y > last) if y != last else None
                       for i, last in enumerate(below)]) for y in range(n))
    acts = []
    for act, xy in zip(acts_below, zip(*table)):  # xy[x] = x*y
        # exts[k]: ext[x*y] for each x != k in order, for a cell f ending in k
        exts = [[ext[xy[x]] for x in range(n) if x != k] for k in range(n)]
        acts.append(tuple([e[a] for a, k in zip(act, below) for e in exts[k]]))
    return tuple([x for k in below for x in range(n) if x != k]), tuple(acts), ext


def _check_limits(quandle, degree):
    if degree > MAX_HOMOLOGY_DEGREE:
        raise ResourceLimitError(
            f"homology degree {degree} is over the limit MAX_HOMOLOGY_DEGREE = "
            f"{MAX_HOMOLOGY_DEGREE}"
        )
    rows, cols = _cell_count(quandle, degree), _cell_count(quandle, degree + 1)
    if rows * cols > MAX_BOUNDARY_ENTRIES:
        raise ResourceLimitError(
            f"H_{degree} needs the {rows}x{cols} boundary matrix d_{degree + 1}, over the "
            f"limit MAX_BOUNDARY_ENTRIES = {MAX_BOUNDARY_ENTRIES} entries"
        )


@_memoized
def boundary_columns(quandle, degree):
    """The quandle boundary from degree n to n-1 as SparseColumns, built from
    d_{n-1} as in the module docstring: column j is the image of the j-th tuple
    of quandle_basis(quandle, n), keyed by row in the degree-(n-1) basis.
    Built from the cells of degree n-1, with no tuple basis, and kept; its
    callers check the degree."""
    order = quandle.order
    # d_{n-1}, which builds the degrees below it on its first call; d_1 = 0
    below = boundary_columns(quandle, degree - 1).columns if degree > 2 else [{}] * order
    # appended[y][i]: the row of face i with y appended, None if face i ends in y
    lasts, acts, appended = _cells(quandle, degree - 1)
    others = [[y for y in range(order) if y != x] for x in range(order)]
    c = (-1) ** degree
    columns = []
    for j, (last, column_below) in enumerate(zip(lasts, below)):
        items = column_below.items()
        for y in others[last]:
            rows = appended[y]
            column = {r: e for i, e in items if (r := rows[i]) is not None}
            xy = acts[y][j]
            if xy != j:  # x' = x'*y leaves no i = n term
                column[j], column[xy] = c, -c
            columns.append(column)
    return SparseColumns(len(lasts), columns)


def _rows(quandle, degree, paired):
    """The G-columns of boundary_columns(quandle, degree), those whose cell
    ends in G = _generators(quandle), as the rows and column sets that
    intlinalg._pivot_pass reads, less the rows in `paired`: each of those is
    None and gets no entry, and a column with no other entry gets no set.
    Built like boundary_columns, straight into that form, with no column
    dict; not kept, as the pass consumes it."""
    order, ends = quandle.order, _generators(quandle)
    below = boundary_columns(quandle, degree - 1).columns if degree > 2 else [{}] * order
    lasts, acts, ext = _cells(quandle, degree - 1)
    rows = [None if i in paired else {} for i in range(len(lasts))]
    # appended[y][i]: as in boundary_columns, and None also where that row is paired
    appended = {y: [None if r is None or r in paired else r for r in ext[y]] for y in ends}
    # kept[x]: each y in ends other than x, with the offset of (f, y) after f's
    # block, for a cell f ending in x
    kept = [[(y, y - (y > x)) for y in sorted(ends) if y != x] for x in range(order)]
    c = (-1) ** degree
    cols = {}
    for j, (last, column_below) in enumerate(zip(lasts, below)):
        items = column_below.items()
        row_j = rows[j]
        for y, offset in kept[last]:
            k = j * (order - 1) + offset
            rows_y = appended[y]
            col = set()
            for i, e in items:
                if (r := rows_y[i]) is not None:
                    rows[r][k] = e
                    col.add(r)
            xy = acts[y][j]
            if xy != j:  # as in boundary_columns
                if row_j is not None:
                    row_j[k] = c
                    col.add(j)
                if (row := rows[xy]) is not None:
                    row[k] = -c
                    col.add(xy)
            if col:
                cols[k] = col
    return rows, cols


def matrix_of_boundary(quandle, degree):
    """Matrix of the quandle boundary from degree n to n-1, with columns
    indexed by quandle_basis(quandle, n) and rows by the degree-(n-1)
    basis, both lexicographic: boundary_columns densified for outside
    callers, as the package reads the columns.  Refused, before any basis
    is built, over the limits of homology_group."""
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 2:
        raise DegreeError(f"boundary matrix requires an integer degree >= 2, got {degree!r}")
    _check_limits(quandle, degree - 1)
    sparse = boundary_columns(quandle, degree)
    data = [[0] * sparse.cols for _ in range(sparse.rows)]
    for j, column in enumerate(sparse.columns):
        for i, e in column.items():
            data[i][j] = e
    return IntMatrix._from_rows(data, sparse.cols)


def _check_tuples(chain, quandle):
    """The check that coordinates trusts, for a chain from outside the
    package: in sorted tuple order, a degenerate tuple raises
    DegenerateGeneratorError, and then one out of the quandle's range
    QuandleMismatchError."""
    n = quandle.order
    for tup in chain.support():
        if is_degenerate(tup):
            raise DegenerateGeneratorError(
                f"generator {tup} is degenerate, not a quandle-basis element"
            )
        if max(tup) >= n:
            raise QuandleMismatchError(f"tuple {tup} out of range for quandle of order {n}")


def coordinates(chain, quandle):
    """Coordinate vector of a quandle-complex chain in its degree basis.

    Trusts the chain's tuples to be non-degenerate and in the quandle's
    range, as those of a checked dataset's points, projected, are; a chain
    from outside goes through _check_tuples first.  Each tuple sets its own
    entry, so the terms are read unsorted."""
    step = quandle.order - 1
    vec = [0] * _cell_count(quandle, chain.degree)
    for tup, coeff in chain._terms.items():
        j = tup[0]
        # the index of (f, y) as _cells' ext numbers it, folded here: the search calls
        # this once per subset, where ext lookups measured slower
        for last, y in zip(tup, tup[1:]):
            j = j * step + y - (y > last)
        vec[j] = coeff
    return vec
