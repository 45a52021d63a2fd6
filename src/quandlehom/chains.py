"""Sparse integer chains on tuples of quandle elements, the rack boundary
operator, the degenerate-tuple projection, and boundary matrices.

A degree-n chain is a formal integer combination of n-tuples.  The quandle
chain complex is the quotient of the rack complex by tuples with two equal
adjacent entries; since that subgroup is generator-spanned, the quotient is
realized by simply dropping degenerate tuples (project_quandle).

Boundary convention, fixed for the whole package:

    d(x_1, ..., x_n) = sum_{i=2..n} (-1)^i [ (x_1, ..., ^x_i, ..., x_n)
                       - (x_1*x_i, ..., x_{i-1}*x_i, x_{i+1}, ..., x_n) ]

where ^x_i omits the i-th entry and * is the quandle operation.
"""

from functools import lru_cache
from itertools import product

from .errors import (
    DegenerateGeneratorError, DegreeError, ResourceLimitError, SchemaError, expect_keys
)
from .intlinalg import SparseColumns
from .quandle import Quandle

# homology_group, is_null_homologous and matrix_of_boundary refuse, before any
# basis is built, a degree above MAX_HOMOLOGY_DEGREE (for orders 1 and 2 the
# matrices stay tiny, but the basis scan visits n^d tuples of length d) and a
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
        for tup, coeff in items:
            tup = tuple(tup)
            if len(tup) != degree:
                raise DegreeError(
                    f"tuple {tup} has length {len(tup)}, chain degree is {degree}"
                )
            for e in tup:
                if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                    raise ValueError(f"tuple entry {e!r} is not a nonnegative int")
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise ValueError(f"coefficient {coeff!r} is not an int")
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

    def __len__(self):
        return len(self._terms)

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
            tup = entry["tuple"]
            if not isinstance(tup, list) or len(tup) != degree:
                raise SchemaError(f"{path}.tuple", f"must be a list of {degree} integers")
            for j, e in enumerate(tup):
                if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                    raise SchemaError(
                        f"{path}.tuple[{j}]", "must be a nonnegative integer"
                    )
            coeff = entry["coeff"]
            if isinstance(coeff, str):
                try:
                    coeff = int(coeff, 10)
                except ValueError:
                    raise SchemaError(f"{path}.coeff", "must be a decimal integer string")
            elif not isinstance(coeff, int) or isinstance(coeff, bool):
                raise SchemaError(f"{path}.coeff", "must be a decimal integer string")
            terms.append((tuple(tup), coeff))
        return cls._from_checked(degree, terms)


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
                raise ValueError(
                    f"tuple entry {max(tup)} out of range for quandle of order {order}"
                )
            for ii in range(1, n):  # ii is the 0-based index of x_i, i = ii + 1
                c = coeff if ii % 2 else -coeff
                xi = tup[ii]
                yield tup[:ii] + tup[ii + 1 :], c
                yield tuple(table[x][xi] for x in tup[:ii]) + tup[ii + 1 :], -c

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


@lru_cache(maxsize=None, typed=True)
def quandle_basis(quandle, degree):
    """All non-degenerate degree-n tuples over the quandle, lexicographic.

    >>> len(quandle_basis(Quandle.dihedral(3), 3))
    12
    """
    # typed: 2.0 == 2 would otherwise hit degree 2's entry, skipping this check
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise DegreeError(f"basis degree must be a positive integer, got {degree!r}")
    return tuple(
        t
        for t in product(range(quandle.order), repeat=degree)
        if not is_degenerate(t)
    )


def _check_limits(quandle, degree):
    if degree > MAX_HOMOLOGY_DEGREE:
        raise ResourceLimitError(
            f"homology degree {degree} is over the limit MAX_HOMOLOGY_DEGREE = "
            f"{MAX_HOMOLOGY_DEGREE}"
        )
    n = quandle.order
    rows, cols = n * (n - 1) ** (degree - 1), n * (n - 1) ** degree
    if rows * cols > MAX_BOUNDARY_ENTRIES:
        raise ResourceLimitError(
            f"H_{degree} needs the {rows}x{cols} boundary matrix d_{degree + 1}, over the "
            f"limit MAX_BOUNDARY_ENTRIES = {MAX_BOUNDARY_ENTRIES} entries"
        )


@lru_cache(maxsize=None, typed=True)
def boundary_columns(quandle, degree):
    """The quandle boundary from degree n to n-1 as SparseColumns, read
    straight off the quandle table: column j is the image of the j-th
    tuple of quandle_basis(quandle, n), keyed by row in the degree-(n-1)
    basis.  A degenerate face has no row there, so it drops out.
    """
    # typed, as for quandle_basis
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 2:
        raise DegreeError(f"boundary matrix requires an integer degree >= 2, got {degree!r}")
    row_index = {t: i for i, t in enumerate(quandle_basis(quandle, degree - 1))}
    right = list(zip(*quandle.table))  # right[y][x] = x * y
    columns = []
    for gen in quandle_basis(quandle, degree):
        column = {}
        for ii in range(1, degree):  # as in boundary_rack
            c = 1 if ii % 2 else -1
            head, tail = gen[:ii], gen[ii + 1 :]
            acted = tuple(map(right[gen[ii]].__getitem__, head))
            for face, e in ((head + tail, c), (acted + tail, -c)):
                i = row_index.get(face)
                if i is not None:
                    v = column.get(i, 0) + e
                    if v:
                        column[i] = v
                    else:
                        del column[i]
        columns.append(column)
    return SparseColumns(len(row_index), columns)


def matrix_of_boundary(quandle, degree):
    """Matrix of the quandle boundary from degree n to n-1, with columns
    indexed by quandle_basis(quandle, n) and rows by the degree-(n-1)
    basis, both lexicographic: boundary_columns as a dense IntMatrix.
    Refused, before any basis is built, over the limits of homology_group.
    """
    if isinstance(degree, int) and degree >= 2:  # boundary_columns refuses the rest
        _check_limits(quandle, degree - 1)
    return boundary_columns(quandle, degree).to_dense()


def coordinates(chain, quandle):
    """Coordinate vector of a quandle-complex chain in its degree basis."""
    basis = quandle_basis(quandle, chain.degree)
    index = {t: i for i, t in enumerate(basis)}
    vec = [0] * len(basis)
    for tup, coeff in chain.items():
        if tup not in index:
            if is_degenerate(tup):
                raise DegenerateGeneratorError(
                    f"generator {tup} is degenerate, not a quandle-basis element"
                )
            raise ValueError(
                f"tuple {tup} out of range for quandle of order {quandle.order}"
            )
        vec[index[tup]] = coeff
    return vec
