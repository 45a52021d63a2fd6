"""Reference arithmetic for the benchmark's inputs and its correctness gate.

Written from the definitions and sharing no code with the package under
test: dihedral tables, the quandle-complex boundary, the Mochizuki cocycle
theta_p and its pairing, orbit counts, and a pseudo-cycle test on R3.
Chains are plain dicts {tuple: nonzero int}.
"""

from functools import lru_cache
from itertools import product


def dihedral(n):
    """table[x][y] = x * y = (2y - x) mod n."""
    return [[(2 * y - x) % n for y in range(n)] for x in range(n)]


def degenerate(tup):
    return any(a == b for a, b in zip(tup, tup[1:]))


@lru_cache(maxsize=None)
def nondegenerate_tuples(order, degree):
    return tuple(t for t in product(range(order), repeat=degree) if not degenerate(t))


def boundary(chain, table):
    """Quandle-complex boundary, with degenerate tuples dropped:

    d(x_1..x_n) = sum_{i=2..n} (-1)^i [(.., ^x_i, ..) - (x_1*x_i, .., x_{i-1}*x_i, x_{i+1}, ..)]
    """
    out = {}
    for tup, coeff in chain.items():
        for i in range(1, len(tup)):  # 0-based position of x_{i+1}
            sign = coeff if i % 2 else -coeff
            omitted = tup[:i] + tup[i + 1 :]
            acted = tuple(table[tup[j]][tup[i]] for j in range(i)) + tup[i + 1 :]
            for term, c in ((omitted, sign), (acted, -sign)):
                if not degenerate(term):
                    out[term] = out.get(term, 0) + c
    return {t: c for t, c in out.items() if c}


def theta(p, x, y, z):
    """Mochizuki's 3-cocycle on R_p: (x - y)((2z - y)^p + y^p - 2z^p)/p mod p."""
    return (x - y) * (((2 * z - y) ** p + y**p - 2 * z**p) // p) % p


def theta_table(p):
    return [[[theta(p, x, y, z) for z in range(p)] for y in range(p)] for x in range(p)]


def pair_theta(p, chain):
    return sum(c * theta(p, *t) for t, c in chain.items()) % p


def orbit_count(table):
    """Orbits of x -> x * y (union-find over all y)."""
    parent = list(range(len(table)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, row in enumerate(table):
        for xy in row:
            parent[find(x)] = find(xy)
    return len({find(x) for x in range(len(table))})


def free_rank(orbits, degree):
    """rank H^Q_n = k (k - 1)^(n - 1) for a quandle with k orbits
    (Litherland-Nelson; Etingof-Grana)."""
    return orbits * (orbits - 1) ** (degree - 1)


def r3_chain(points):
    """Signed color chain of R3 triple points [(sign, colors)], projected."""
    out = {}
    for sign, colors in points:
        t = tuple(colors)
        if not degenerate(t):
            out[t] = out.get(t, 0) + sign
    return {t: c for t, c in out.items() if c}


R3 = dihedral(3)


def r3_is_pseudo_cycle(points):
    """H_3(R3) = Z/3 and theta_3 pairs nontrivially with its generator, so
    a 3-cycle on R3 bounds iff it pairs to 0 with theta_3."""
    chain = r3_chain(points)
    return bool(chain) and not boundary(chain, R3) and pair_theta(3, chain) != 0
