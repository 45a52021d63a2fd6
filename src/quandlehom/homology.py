"""Quandle homology groups over the integers and the null-homology test.

H_n is ker(d_n) / im(d_{n+1}) in the quandle complex; d_1 is the zero map.
Free rank and torsion come from the ranks and invariant factors of the two
boundary matrices.  intlinalg finds them by eliminating the unit pivots
sparsely and taking the Smith normal form of the small core left over, so
no Smith form of a whole boundary matrix is ever built.

The complex is reduced as a whole, from d_2 up, as in Kaczynski, Mrozek and
Slusarek ("Homology computation by reduction of chain complexes", 1998):
each unit pivot of d_n pairs a cell of C_n, its column j, with a cell of
C_{n-1}, and d_{n+1} is eliminated without its rows j.  The pivot columns
of d_n are independent, so a cycle is fixed by its coordinates off them,
and those coordinates of ker d_n form a direct summand: deleting the rows
keeps the rank and the torsion of d_{n+1}, adds no fill and leaves a
smaller core.  One reduction per degree is kept in the Quandle object's own
store, with the rank and torsion read off it, and freed with it: H_n and
H_{n+1} take the Smith form of d_{n+1}'s core once.  Equal quandles built
separately do not share them.

Only the columns of d_n whose cell ends in a generating set G of the
quandle are eliminated; the rest are never built into a reduction, so
indices stay the full matrix's.  A kept reduction reads them in the row
form that chains._rows builds from G (quandle._generators) and the rows
paired below, with no entry on those rows.  They span the same integer
image, as the last face is a chain homotopy from the identity to the
action of an element (Litherland and Nelson, "The Betti numbers of some
finite racks", 2003).  By chains' last-face formula, for
a cell w = (x, y) of C_n and z != y,
d(w, z) = d(w)z + (-1)^{n+1} (w - w*z), where d(w)z appends z to each cell
and w*z = (x*z, y*z).  Applying d gives d(w*z) = d(w) + (-1)^{n+1} d(d(w)z),
and w -> w*z maps the cells ending in y onto those ending in y*z, so the
columns ending in y*z lie in the span of those ending in y and in z.  By
induction over the closure of G, the G-columns span d_n, with or without
the paired rows: rank and torsion are unchanged, and a preimage on them
is one of d_n.

These are the package's only kept eliminations.  A degree-n chain z is
tested on its coordinate vector alone.  It is a cycle iff d_n z = 0, read
off the full d_n by the one cycle test, which the pseudo-cycle search
shares.  A cycle bounds iff the vector lies in the integer image of
d_{n+1}, a query on the kept reduction of d_{n+1}: the preimage it finds
is 0 off the G-columns, and is checked on every row against the full
d_{n+1}, which chains keeps with the Quandle object like every boundary
matrix (H_{n+1} builds it anyway, as d_{n+2} is built from it).
"""

from collections import namedtuple

from . import intlinalg
from .chains import (
    _cell_count, _check_limits, _rows, boundary_columns, boundary_quandle, coordinates,
)
from .errors import DegreeError, NotACycleError, _CheckedMake
from .quandle import _memoized


class HomologyGroup(_CheckedMake, namedtuple("HomologyGroup", "free_rank torsion")):
    """A finitely generated abelian group: free rank plus invariant
    factors d_i >= 2 with d_i | d_{i+1}."""

    __slots__ = ()

    def __new__(cls, free_rank, torsion):
        torsion = tuple(torsion)
        if not isinstance(free_rank, int) or isinstance(free_rank, bool):
            raise ValueError(f"free rank {free_rank!r} is not an int")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in torsion:
            if not isinstance(d, int) or isinstance(d, bool):
                raise ValueError(f"torsion coefficient {d!r} is not an int")
            if d < 2:
                raise ValueError(f"torsion coefficient {d} must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"torsion chain broken: {a} does not divide {b}")
        return super().__new__(cls, free_rank, torsion)

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def to_json_dict(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


@_memoized
def _reduction(quandle, degree):
    """The elimination of d_degree on its columns that end in G, without the
    rows that the elimination of d_{degree-1} paired: its pivot columns,
    cells of C_{degree-1}.  The pivot pass runs on rows built with none of
    those entries; the other columns get none, so every index stays that of
    the full matrix."""
    below = _reduction(quandle, degree - 1)[0] if degree > 2 else ()
    paired = {j for _, j, _, _, _ in below}
    return intlinalg._pivot_pass(*_rows(quandle, degree, paired))


@_memoized
def _rank_and_torsion(quandle, degree):
    """Rank and invariant factors of d_degree, from the Smith form of its
    kept reduction's core, taken once: H_{degree-1} and H_degree share it."""
    return intlinalg._rank_and_torsion(_reduction(quandle, degree))


def homology_group(quandle, degree):
    """H_degree of the quandle complex with integer coefficients.

    >>> from quandlehom import Quandle
    >>> str(homology_group(Quandle.dihedral(3), 3))
    'Z/3'
    """
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise DegreeError(f"homology degree must be a positive integer, got {degree!r}")
    _check_limits(quandle, degree)
    rank_down = _rank_and_torsion(quandle, degree)[0] if degree > 1 else 0
    rank_up, torsion = _rank_and_torsion(quandle, degree + 1)
    dim = _cell_count(quandle, degree)
    return HomologyGroup(free_rank=dim - rank_down - rank_up, torsion=torsion)


def _cycle_coordinates(chain, quandle):
    """The chain's coordinate vector if d_n, kept with the reduction of
    d_{n+1}, maps it to zero, else None: the one cycle test.  The limits
    are checked first, cycle or not."""
    _check_limits(quandle, chain.degree)
    vec = coordinates(chain, quandle)  # the one degeneracy and range check
    if chain.degree >= 2 and any(boundary_columns(quandle, chain.degree).apply(vec)):
        return None
    return vec


def is_null_homologous(chain, quandle):
    """True iff the cycle bounds, i.e. lies in the image of d_{degree+1}
    of the quandle complex over the integers.  A preimage is sought on the
    kept reduction of d_{degree+1}'s G-columns and checked against the
    chain on every row of the full d_{degree+1}.

    Raises NotACycleError if the input is not a cycle: the two halves of
    the pseudo-cycle definition are kept separate on purpose.
    """
    if (vec := _cycle_coordinates(chain, quandle)) is None:
        bd = boundary_quandle(chain, quandle)
        raise NotACycleError(f"chain has nonzero quandle boundary: {bd!r}")
    up = chain.degree + 1
    d = boundary_columns(quandle, up)
    return intlinalg._solve(d, _reduction(quandle, up), vec) is not None
