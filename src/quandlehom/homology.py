"""Quandle homology groups over the integers and the null-homology test.

H_n is ker(d_n) / im(d_{n+1}) in the quandle complex; d_1 is the zero map.
Free rank and torsion come from the ranks and invariant factors of the two
boundary matrices.  intlinalg finds them by eliminating the unit pivots
sparsely and taking the Smith normal form of the small core left over, so
no Smith form of a whole boundary matrix is ever built.

The complex is reduced as a whole, from d_2 up, as in Kaczynski, Mrozek
and Slusarek ("Homology computation by reduction of chain complexes",
1998): each unit pivot of d_n pairs a cell of C_n, its column j, with a
cell of C_{n-1}, and d_{n+1} is eliminated without its rows j.  The pivot
columns of d_n are independent, so a cycle is fixed by its coordinates off
them, and those coordinates of ker d_n form a direct summand: deleting the
rows keeps the rank and the torsion of d_{n+1} and adds no fill.  One
reduction is kept per (quandle, degree).

Null-homology of a cycle is decided directly as an integer
image-membership query on the kept rows, not by reducing against computed
torsion; the preimage found is checked on every row of d_{n+1}.
"""

from collections import namedtuple
from functools import lru_cache

from . import intlinalg
# the limits live with the boundary builders; the README names them here
from .chains import (
    MAX_BOUNDARY_ENTRIES, MAX_HOMOLOGY_DEGREE, _check_limits, boundary_columns,
    boundary_rack, coordinates, project_quandle, quandle_basis,
)
from .errors import DegreeError, NotACycleError


class HomologyGroup(namedtuple("HomologyGroup", "free_rank torsion")):
    """A finitely generated abelian group: free rank plus invariant
    factors d_i >= 2 with d_i | d_{i+1}."""

    __slots__ = ()

    def __new__(cls, free_rank, torsion):
        torsion = tuple(torsion)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in torsion:
            if d < 2:
                raise ValueError(f"torsion coefficient {d} must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"torsion chain broken: {a} does not divide {b}")
        return super().__new__(cls, free_rank, torsion)

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def to_json_dict(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


@lru_cache(maxsize=None)
def _reduction(quandle, degree):
    """The elimination of d_degree without the rows that the elimination
    of d_{degree-1} paired: its pivot columns, cells of C_{degree-1}."""
    below = _reduction(quandle, degree - 1)[0] if degree > 2 else ()
    paired = {j for _, j, _, _, _ in below}
    return intlinalg._eliminate(boundary_columns(quandle, degree), paired)


def homology_group(quandle, degree):
    """H_degree of the quandle complex with integer coefficients.

    >>> from quandlehom import Quandle
    >>> str(homology_group(Quandle.dihedral(3), 3))
    'Z/3'
    """
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise DegreeError(f"homology degree must be a positive integer, got {degree!r}")
    _check_limits(quandle, degree)
    dim = len(quandle_basis(quandle, degree))
    if degree == 1:
        rank_down = 0
    else:
        rank_down, _ = intlinalg._rank_and_torsion(_reduction(quandle, degree))
    rank_up, torsion = intlinalg._rank_and_torsion(_reduction(quandle, degree + 1))
    return HomologyGroup(free_rank=dim - rank_down - rank_up, torsion=torsion)


def is_null_homologous(chain, quandle):
    """True iff the cycle bounds, i.e. lies in the image of d_{degree+1}
    of the quandle complex over the integers.

    Raises NotACycleError if the input is not a cycle: the two halves of
    the pseudo-cycle definition are kept separate on purpose.
    """
    _check_limits(quandle, chain.degree)
    vec = coordinates(chain, quandle)  # the one degeneracy and range check
    if chain.degree >= 2:
        bd = project_quandle(boundary_rack(chain, quandle))
        if bd:
            raise NotACycleError(f"chain has nonzero quandle boundary: {bd!r}")
    up = chain.degree + 1
    return intlinalg._solve(boundary_columns(quandle, up), _reduction(quandle, up), vec) is not None
