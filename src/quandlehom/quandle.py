"""Finite quandles on {0..n-1} with an explicit operation table.

The convention throughout the package is table[x][y] = x * y, i.e. the row
index is the left operand.  Every constructor validates the three quandle
axioms eagerly, so no invalid quandle ever reaches the chain machinery.

Input is validated once, where it enters: public constructors and JSON
parsers check it, and internal code trusts what they accepted.  So hot
loops read `table` directly, while `act` range-checks outside callers.

_generators defines, once, the generating set G on whose columns homology
eliminates each boundary matrix.  It lives here, beside Quandle, because
chains builds those columns and cannot import homology, which imports it.
"""

from functools import wraps
from itertools import product

from .errors import QuandleAxiomError, ResourceLimitError

# the largest dihedral order built, and the most rows a table may have: the
# axiom check visits n^3 triples, and mochizuki_theta_p(p) checks p(p-1)^3
# boundaries (about 7 s at p = 31 in one CPython 3.11 process on a 2-core
# host)
MAX_DIHEDRAL_ORDER = 32


class Quandle:
    """An immutable finite quandle.

    >>> r3 = Quandle.dihedral(3)
    >>> r3.act(2, 0)
    1
    >>> r3.act(0, 0)
    0
    """

    __slots__ = ("order", "table", "_store")

    def __init__(self, table):
        """Validate `table` (a square array over {0..n-1}) and freeze it.

        Raises QuandleAxiomError naming the failed axiom and a witness,
        or ValueError if the table is malformed; ResourceLimitError, before
        any entry is checked, if it has more than MAX_DIHEDRAL_ORDER rows.
        """
        rows = tuple(tuple(row) for row in table)
        n = len(rows)
        if n == 0:
            raise ValueError("quandle order must be at least 1")
        if n > MAX_DIHEDRAL_ORDER:
            raise ResourceLimitError(
                f"quandle table has {n} rows, over the limit MAX_DIHEDRAL_ORDER = "
                f"{MAX_DIHEDRAL_ORDER}"
            )
        for x, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {x} has length {len(row)}, expected {n}")
            for y, e in enumerate(row):
                if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
                    raise ValueError(f"table[{x}][{y}] = {e!r} is not in 0..{n - 1}")
        for x in range(n):
            if rows[x][x] != x:
                raise QuandleAxiomError(
                    "idempotency", (x,), f"{x} * {x} = {rows[x][x]}, expected {x}"
                )
        for y in range(n):
            if sorted(rows[x][y] for x in range(n)) != list(range(n)):
                raise QuandleAxiomError(
                    "right_bijectivity",
                    (y,),
                    f"column {y} (x -> x * {y}) is not a bijection",
                )
        for x, y, z in product(range(n), repeat=3):
            if rows[rows[x][y]][z] != rows[rows[x][z]][rows[y][z]]:
                raise QuandleAxiomError(
                    "distributivity",
                    (x, y, z),
                    f"({x}*{y})*{z} != ({x}*{z})*({y}*{z})",
                )
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", rows)
        object.__setattr__(self, "_store", {})  # filled by _memoized, never compared

    def __setattr__(self, name, value):
        raise AttributeError("Quandle is immutable")

    def __reduce__(self):  # copies and pickles are rebuilt through __init__
        return type(self), (self.table,)

    @classmethod
    def dihedral(cls, n):
        """The dihedral quandle on Z/nZ with x * y = (2y - x) mod n.

        >>> Quandle.dihedral(3).table
        ((0, 2, 1), (2, 1, 0), (1, 0, 2))
        """
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"dihedral quandle order must be a positive integer, got {n!r}")
        if n > MAX_DIHEDRAL_ORDER:
            raise ResourceLimitError(
                f"dihedral quandle order {n} is over the limit MAX_DIHEDRAL_ORDER = "
                f"{MAX_DIHEDRAL_ORDER}"
            )
        return cls(tuple((2 * y - x) % n for y in range(n)) for x in range(n))

    @classmethod
    def from_table(cls, table):
        """Build a quandle from an explicit operation table: Quandle(table)."""
        return cls(table)

    def act(self, x, y):
        """Return x * y, i.e. table[x][y]."""
        n = self.order
        for e in (x, y):
            if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
                raise ValueError(f"element {e!r} is not in 0..{n - 1}")
        return self.table[x][y]

    def __eq__(self, other):
        if not isinstance(other, Quandle):
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"Quandle(order={self.order})"


def _memoized(fn):
    """Cache fn(quandle, *args) in that quandle's own store, freed with it
    (a copy or a pickle, rebuilt through __init__, starts empty).  Keyed by
    (fn, args): fn trusts its arguments, which the public entries check."""

    @wraps(fn)
    def cached(quandle, *args):
        key = (fn, args)
        store = quandle._store
        if key not in store:
            store[key] = fn(quandle, *args)
        return store[key]

    return cached


@_memoized
def _generators(quandle):
    """A generating set G: each element not in the closure under * (a
    subquandle, as each x -> x*y has finite order) of those before it.
    {0, 1} for a dihedral quandle of order at least 2, all for a trivial one."""
    table, gens, closure = quandle.table, set(), set()
    for x in range(quandle.order):
        if x not in closure:
            gens.add(x)
            closure.add(x)
            while new := {table[a][b] for a in closure for b in closure} - closure:
                closure |= new
    return frozenset(gens)
