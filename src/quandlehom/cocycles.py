"""Quandle 3-cocycles with values in Z/m, evaluated by table lookup.

A 3-cocycle must vanish on degenerate triples and pair to zero with the
(projected) boundary of every 4-tuple.  The checker pairs against this
package's own boundary operator rather than a hardcoded six-term identity,
so it stays consistent with the boundary sign convention by construction.

The family constructed here for the dihedral quandle on p elements is

    f(x, y, z) = (x - y) * ((2z - y)^p + y^p - 2z^p) / p   (mod p),

with the inner expression computed over Z and divided exactly by p
(Fermat's little theorem makes it divisible).  For p = 3 this is the
classical certificate used to separate homology classes on the
three-element dihedral quandle.
"""

from collections import namedtuple
from itertools import product

from .chains import Chain, boundary_rack, project_quandle
from .errors import CocycleValidationError, DegreeError, QuandleMismatchError
from .quandle import Quandle


class Cocycle3:
    """A Z/m-valued function on element triples, materialized as a full
    n*n*n table at construction so evaluation is pure lookup.

    The constructor stores values reduced mod m; it does not enforce the
    cocycle condition (that is is_quandle_3cocycle's job), so invalid
    candidate tables can be built and then rejected.
    """

    __slots__ = ("quandle", "modulus", "_values")

    def __init__(self, quandle, modulus, values):
        if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
        n = quandle.order
        table = []
        for x in range(n):
            plane = []
            for y in range(n):
                row = tuple(values[x][y][z] % modulus for z in range(n))
                plane.append(row)
            table.append(tuple(plane))
        object.__setattr__(self, "quandle", quandle)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_values", tuple(table))

    def __setattr__(self, name, value):
        raise AttributeError("Cocycle3 is immutable")

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
    where the witness is a degenerate triple with nonzero value or a
    4-tuple whose projected boundary pairs nontrivially.
    """
    q = cocycle.quandle
    n = q.order
    values = cocycle._values
    for x, y in product(range(n), repeat=2):
        if values[x][x][y] != 0:
            return CocycleCheck(False, (x, x, y))
        if values[x][y][y] != 0:
            return CocycleCheck(False, (x, y, y))
    for gen in product(range(n), repeat=4):
        bd = project_quandle(boundary_rack(Chain._from_checked(4, [(gen, 1)]), q))
        if pair(cocycle, bd) != 0:
            return CocycleCheck(False, gen)
    return CocycleCheck(True, None)


def _is_odd_prime(p):
    if not isinstance(p, int) or isinstance(p, bool) or p < 3 or p % 2 == 0:
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
    if not _is_odd_prime(p):
        raise ValueError(f"expected an odd prime, got {p!r}")
    quandle = Quandle.dihedral(p)

    def value(x, y, z):
        inner = (2 * z - y) ** p + y ** p - 2 * z ** p
        if inner % p:
            # Fermat guarantees divisibility for canonical representatives;
            # a failure means the representative convention drifted
            raise AssertionError(
                f"({2 * z - y})^{p} + {y}^{p} - 2*{z}^{p} not divisible by {p}"
            )
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
