"""Seeded input generators: the same (workload, seed) gives the same inputs.

Inputs are plain JSON-able data. Workers receive only these; every
random choice is made here, from random.Random(f"{workload}:{seed}").
"""

import random

import oracle

WORKLOADS = ("cli-paper", "homology-ladder", "search-r3", "cocycle-ladder")

# the order-4 Alexander quandle on GF(4), as in the test suite's inventory
S4_TABLE = [[0, 3, 1, 2], [2, 1, 3, 0], [3, 0, 2, 1], [1, 2, 0, 3]]

QUANDLES = {
    "R3": {"kind": "dihedral", "order": 3},
    "R4": {"kind": "dihedral", "order": 4},
    "S4": {"kind": "table", "table": S4_TABLE},
    "R5": {"kind": "dihedral", "order": 5},
    "R6": {"kind": "dihedral", "order": 6},
}

HOMOLOGY_LADDER = [
    ("R3", 2), ("R3", 3), ("R3", 4), ("R3", 5),
    ("R4", 3), ("R4", 4),
    ("S4", 3), ("S4", 4),
    ("R5", 2), ("R5", 3), ("R5", 4),
    ("R6", 3),
]

QUERIES = 16
# a 3-cycle on R5 with <theta_5, z> = 3, so c*z + (a boundary) never bounds
R5_NONBOUNDING = {(0, 3, 0): -1, (0, 3, 2): 1, (1, 0, 1): 1}

# the six two-term 3-cycles on R3; each pairs to 2 with theta_3, so none bounds
R3_TWO_TERM_CYCLES = [
    ((0, 1, 0), (0, 2, 1)),
    ((0, 1, 2), (0, 2, 0)),
    ((1, 0, 1), (1, 2, 0)),
    ((1, 0, 2), (1, 2, 1)),
    ((2, 0, 1), (2, 1, 2)),
    ((2, 0, 2), (2, 1, 0)),
]
R3_TRIPLES = oracle.nondegenerate_tuples(3, 3)
SEARCH_POINTS = 16
SEARCH_DATASETS = ("sparse-1", "sparse-2", "paired-1", "paired-2")

# known-defect probe: 2,157 pseudo-cycles, more than the packing DFS can
# recurse through; not seeded, so it is the same probe on every run
PACK_DEEP = "pack-deep"

COCYCLE_PRIMES = (5, 7, 11, 13)
COCYCLE_CHAINS = 20


def terms_json(chain):
    return [[list(t), c] for t, c in sorted(chain.items())]


def random_chain(rng, order, degree, n_terms):
    basis = oracle.nondegenerate_tuples(order, degree)
    chain = {}
    for t in rng.sample(basis, n_terms):
        chain[t] = rng.choice((-3, -2, -1, 1, 2, 3))
    return chain


def random_boundary(rng, order, n_terms=3):
    """The boundary of a random 4-chain over R_order, resampled until nonzero."""
    table = oracle.dihedral(order)
    while True:
        bd = oracle.boundary(random_chain(rng, order, 4, n_terms), table)
        if bd:
            return bd


def homology_inputs(rng):
    queries = []
    for i in range(QUERIES):
        chain = random_boundary(rng, 5)
        bounds = i % 2 == 0
        if not bounds:
            c = rng.randrange(1, 5)
            for t, v in R5_NONBOUNDING.items():
                chain[t] = chain.get(t, 0) + c * v
            chain = {t: v for t, v in chain.items() if v}
        queries.append({"terms": terms_json(chain), "bounds": bounds})
    rng.shuffle(queries)
    return {
        "quandles": QUANDLES,
        "ladder": [list(x) for x in HOMOLOGY_LADDER],
        "queries": queries,
    }


def r3_dataset(points):
    return {
        "quandle": {"kind": "dihedral", "order": 3},
        "triple_points": [
            {"id": f"t{i:02d}", "sign": s, "colors": list(c)}
            for i, (s, c) in enumerate(points)
        ],
    }


def sparse_points(rng, k=SEARCH_POINTS):
    return [(rng.choice((1, -1)), rng.choice(R3_TRIPLES)) for _ in range(k)]


def paired_points(rng, k=SEARCH_POINTS):
    points = []
    for _ in range(k // 4):
        sign = rng.choice((1, -1))
        points += [(sign, t) for t in rng.choice(R3_TWO_TERM_CYCLES)]
    points += sparse_points(rng, k - len(points))
    rng.shuffle(points)
    return points


def pack_deep_dataset():
    return r3_dataset([(1, (2, 0, 2))] * 7 + [(1, (2, 1, 0))] * 7)


def search_inputs(rng):
    datasets = {}
    for name in SEARCH_DATASETS:
        make = sparse_points if name.startswith("sparse") else paired_points
        datasets[name] = r3_dataset(make(rng))
    return {"datasets": datasets, "recheck_seed": rng.randrange(2**32)}


def cocycle_inputs(rng):
    chains = {}
    for p in COCYCLE_PRIMES:
        chains[str(p)] = [
            terms_json(random_chain(rng, p, 4, 3)) for _ in range(COCYCLE_CHAINS)
        ]
    return {"primes": list(COCYCLE_PRIMES), "chains": chains}


def generate(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-paper":
        return {}  # the bundled data files are the input
    if workload == "homology-ladder":
        return homology_inputs(rng)
    if workload == "search-r3":
        return search_inputs(rng)
    if workload == "cocycle-ladder":
        return cocycle_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def op_count(workload, inputs):
    """Operations one sample attempts (a crashed sample fails all of them)."""
    if workload == "cli-paper":
        return 1
    if workload == "homology-ladder":
        return len(inputs["ladder"]) + len(inputs["queries"])
    if workload == "search-r3":
        return len(inputs["datasets"])
    return sum(1 + len(chains) for chains in inputs["chains"].values())
