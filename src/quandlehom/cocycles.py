"""Quandle 3-cocycles with values in Z/m, evaluated by table lookup.

A 3-cocycle must vanish on degenerate triples and pair to zero with the
(projected) boundary of every 4-tuple.  The checker pairs against this
package's own boundary operator rather than a hardcoded six-term identity,
so it stays consistent with the boundary sign convention by construction.
It pairs only the non-degenerate 4-tuples, those of quandle_basis(q, 4)
in lexicographic order, generated one at a time so that none is kept.
Degenerate tuples span a subcomplex of the rack complex, so a degenerate
4-tuple's projected boundary is the zero chain and pairs to 0 with every
table (Carter, Jelsovsky, Kamada, Langford and Saito, 2003).  It can never
be the first failing 4-tuple, so skipping it leaves the verdict and the
witness as a scan of all n^4 tuples in lexicographic order would give them.

The family constructed here for the dihedral quandle on p elements is

    f(x, y, z) = (x - y) * ((2z - y)^p + y^p - 2z^p) / p   (mod p),

with the inner expression computed over Z and divided exactly by p
(Fermat's little theorem makes it divisible).  For p = 3 this is the
classical certificate used to separate homology classes on the
three-element dihedral quandle.
"""

from collections import namedtuple
from itertools import product

from .chains import Chain, _nondegenerate, boundary_rack, project_quandle
from .errors import CocycleValidationError, DegreeError, QuandleMismatchError
from .quandle import Quandle


class Cocycle3:
    """A Z/m-valued function on element triples, materialized as a full
    n*n*n table at construction so evaluation is pure lookup.

    The constructor checks that the table is exactly n*n*n and every value
    an int, and stores it reduced mod m; it does not enforce the cocycle
    condition (that is is_quandle_3cocycle's job), so invalid candidate
    tables can be built and then rejected.
    """

    __slots__ = ("quandle", "modulus", "_values")

    def __init__(self, quandle, modulus, values):
        if not isinstance(quandle, Quandle):
            raise ValueError(f"quandle must be a Quandle, got {type(quandle).__name__}")
        if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
        n = quandle.order
        if len(values) != n:
            raise ValueError(f"values has length {len(values)}, expected {n}")
        table = []
        for x in range(n):
            if len(values[x]) != n:
                raise ValueError(f"values[{x}] has length {len(values[x])}, expected {n}")
            plane = []
            for y in range(n):
                row = tuple(values[x][y])
                if len(row) != n:
                    raise ValueError(f"values[{x}][{y}] has length {len(row)}, expected {n}")
                for z, e in enumerate(row):
                    if not isinstance(e, int) or isinstance(e, bool):
                        raise ValueError(f"values[{x}][{y}][{z}] = {e!r} is not an int")
                plane.append(tuple(e % modulus for e in row))
            table.append(tuple(plane))
        object.__setattr__(self, "quandle", quandle)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_values", tuple(table))

    def __setattr__(self, name, value):
        raise AttributeError("Cocycle3 is immutable")

    def __reduce__(self):  # copies and pickles are rebuilt through __init__
        return type(self), (self.quandle, self.modulus, self._values)

    @classmethod
    def from_function(cls, quandle, modulus, fn):
        n = quandle.order
        return cls(
            quandle,
            modulus,
            [[[fn(x, y, z) for z in range(n)] for y in range(n)] for x in range(n)],
        )

    def __call__(self, x, y, z):
        n = self.quandle.order
        for e in (x, y, z):
            if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
                raise ValueError(f"element {e!r} is not in 0..{n - 1}")
        return self._values[x][y][z]

    def table(self):
        """The full value table as nested lists, for JSON export."""
        return [[list(row) for row in plane] for plane in self._values]

    def __eq__(self, other):
        if not isinstance(other, Cocycle3):
            return NotImplemented
        return (
            self.quandle == other.quandle
            and self.modulus == other.modulus
            and self._values == other._values
        )

    def __repr__(self):
        return f"Cocycle3(order={self.quandle.order}, modulus={self.modulus})"


def pair(cocycle, chain):
    """Pairing <cocycle, chain> in Z/m: sum of coeff * f(tuple), reduced.

    The chain must be a degree-3 chain over the cocycle's quandle.
    """
    if chain.degree != 3:
        raise DegreeError(f"pairing requires a degree-3 chain, got {chain.degree}")
    n = cocycle.quandle.order
    values = cocycle._values
    total = 0
    for (x, y, z), coeff in chain._terms.items():
        if max(x, y, z) >= n:
            raise QuandleMismatchError(
                f"tuple {(x, y, z)} is not over a quandle of order {n}"
            )
        total += coeff * values[x][y][z]
    return total % cocycle.modulus


class CocycleCheck(namedtuple("CocycleCheck", "ok witness")):
    """Outcome of the 3-cocycle test; truthiness follows `ok`.  The
    witness is a tuple, or None when the check passed."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def is_quandle_3cocycle(cocycle):
    """Check the two 3-cocycle conditions by brute force.

    Returns CocycleCheck(True, None), or CocycleCheck(False, witness)
    where the witness is the first degenerate triple with nonzero value or,
    failing that, the lexicographically first 4-tuple whose projected
    boundary pairs nontrivially.  Only the non-degenerate 4-tuples are
    paired: a degenerate one's projected boundary is zero (module
    docstring), so it never fails and the witness is the same as over all
    n^4 tuples.
    """
    q = cocycle.quandle
    n = q.order
    values = cocycle._values
    for x, y in product(range(n), repeat=2):
        if values[x][x][y] != 0:
            return CocycleCheck(False, (x, x, y))
        if values[x][y][y] != 0:
            return CocycleCheck(False, (x, y, y))
    for gen in _nondegenerate(n, 4):
        bd = project_quandle(boundary_rack(Chain._from_checked(4, [(gen, 1)]), q))
        if pair(cocycle, bd) != 0:
            return CocycleCheck(False, gen)
    return CocycleCheck(True, None)


def _is_odd_prime(p):
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def mochizuki_theta_p(p):
    """The degree-3 cocycle above on the dihedral quandle of odd prime
    order p, with values in Z/p.  The constructed table is verified by
    is_quandle_3cocycle and rejected if it fails.
    """
    if not isinstance(p, int) or isinstance(p, bool) or p < 3:
        raise ValueError(f"expected an odd prime, got {p!r}")
    quandle = Quandle.dihedral(p)  # its order limit goes before the trial division
    if not _is_odd_prime(p):
        raise ValueError(f"expected an odd prime, got {p!r}")

    def value(x, y, z):
        # p divides inner for every integer y and z, not only for 0..p-1:
        # by Fermat a^p = a (mod p), so inner = (2z - y) + y - 2z = 0 (mod p)
        inner = (2 * z - y) ** p + y ** p - 2 * z ** p
        return ((x - y) * (inner // p)) % p

    cocycle = Cocycle3.from_function(quandle, p, value)
    check = is_quandle_3cocycle(cocycle)
    if not check:
        raise CocycleValidationError(
            check.witness, f"constructed table fails the 3-cocycle check at {check.witness}"
        )
    return cocycle


def mochizuki_theta():
    """The p = 3 cocycle on the three-element dihedral quandle."""
    return mochizuki_theta_p(3)
