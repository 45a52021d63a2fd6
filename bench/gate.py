"""Correctness gate: check(workload, inputs, op, seed) returns None when the
answer of one operation is right, else a one-line description of what is
wrong. Reference values come from oracle.py or are pinned from the
package's output at the commit that added this benchmark.
"""

import hashlib
import json
import random

import inputs as gen
import oracle

DEFAULT_SEED = 0

# sha256 of `python -m quandlehom verify-paper` stdout on the bundled data
CLI_SHA256 = "1f76920c69e01bbb44da57b0796871f990ab99833096dec6f14d45881a8a6610"

# H_n as (free rank, torsion invariants)
EXPECTED_GROUPS = {
    ("R3", 2): (0, ()),
    ("R3", 3): (0, (3,)),
    ("R3", 4): (0, (3,)),
    ("R3", 5): (0, (3,)),
    ("R4", 3): (2, (2,) * 4),
    ("R4", 4): (2, (2,) * 10),
    ("S4", 3): (0, (2, 4)),
    ("S4", 4): (0, (2, 2, 4)),
    ("R5", 2): (0, ()),
    ("R5", 3): (0, (5,)),
    ("R5", 4): (0, (5,)),
    ("R6", 3): (2, (3, 3)),
}

# report digests (see report_digest) of the search-r3 datasets for DEFAULT_SEED
SEARCH_DIGESTS = {
    "sparse-1": "1e621bb2379d4e484c9438259d745c28ef61d693196d1a0e536b005b35be9863",
    "sparse-2": "638cb5d56c6e539120d9c1d8f3eaa31f62c7bbdd43427ffab8b6e2f77cf70cba",
    "paired-1": "ae05a2d4ab171a8725f8c567d791948e7e48fe385375952cdf48f73c6fd337b1",
    "paired-2": "0b884d0005d311cec7f64fd614965a5ab25e83e1249d6b4421caf56c0eaaf19e",
}

PACK_DEEP_COUNTS = (2157, 7)  # distinct pseudo-cycles, max disjoint family
UNLISTED_SAMPLE = 64


def report_digest(report):
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def quandle_table(spec):
    if spec["kind"] == "dihedral":
        return oracle.dihedral(spec["order"])
    return spec["table"]


def parse_terms(terms):
    return {tuple(t): c for t, c in terms}


def check_cli(inputs, op, seed):
    if op["answer"]["sha256"] != CLI_SHA256:
        return "verify-paper stdout differs from the pinned output"
    return None


def check_homology(inputs, op, seed):
    name = op["op"]
    if name.startswith("query"):
        expected = inputs["queries"][int(name[len("query"):])]["bounds"]
        if op["answer"] is not expected:
            return f"{name}: is_null_homologous gave {op['answer']}, expected {expected}"
        return None
    quandle, degree = name.split(":")
    degree = int(degree)
    rank, torsion = op["answer"][0], tuple(op["answer"][1])
    if (rank, torsion) != EXPECTED_GROUPS[(quandle, degree)]:
        return f"H_{degree}({quandle}) = ({rank}, {torsion}), expected {EXPECTED_GROUPS[(quandle, degree)]}"
    orbits = oracle.orbit_count(quandle_table(inputs["quandles"][quandle]))
    if rank != oracle.free_rank(orbits, degree):
        return f"H_{degree}({quandle}) free rank {rank} != k(k-1)^(n-1) with k = {orbits}"
    return None


def check_report(points, report, rng):
    """Check a pseudo-cycle report against the R3 oracle; None if right."""
    listed = [tuple(s) for s in report["pseudo_cycles"]]
    listed_set = set(listed)
    if report["distinct_count"] != len(listed) or len(listed_set) != len(listed):
        return "distinct_count does not match the listed subsets"
    for subset in listed:
        if not oracle.r3_is_pseudo_cycle([points[pid] for pid in subset]):
            return f"listed subset {subset} is not a pseudo-cycle"
    ids = sorted(points)
    for _ in range(UNLISTED_SAMPLE):
        mask = rng.randrange(1, 1 << len(ids))
        subset = tuple(pid for i, pid in enumerate(ids) if mask >> i & 1)
        if subset not in listed_set and oracle.r3_is_pseudo_cycle([points[pid] for pid in subset]):
            return f"unlisted subset {subset} is a pseudo-cycle"
    witness = [tuple(s) for s in report["witness_packing"]]
    if len(witness) != report["max_disjoint_count"]:
        return "max_disjoint_count does not match the witness"
    used = set()
    for subset in witness:
        if subset not in listed_set or used & set(subset):
            return f"witness subset {subset} is unlisted or overlaps another"
        used |= set(subset)
    return None


def check_search(inputs, op, seed):
    name = op["op"]
    report = op["answer"]
    if op.get("recheck_mismatches"):
        return f"{name}: is_pseudo_cycle disagrees with the report on {op['recheck_mismatches']} subsets"
    doc = gen.pack_deep_dataset() if name == gen.PACK_DEEP else inputs["datasets"][name]
    points = {p["id"]: (p["sign"], p["colors"]) for p in doc["triple_points"]}
    problem = check_report(points, report, random.Random(f"gate:{seed}:{name}"))
    if problem:
        return f"{name}: {problem}"
    if name == gen.PACK_DEEP:
        counts = (report["distinct_count"], report["max_disjoint_count"])
        if counts != PACK_DEEP_COUNTS:
            return f"{name}: counts {counts}, expected {PACK_DEEP_COUNTS}"
    elif seed == DEFAULT_SEED and report_digest(report) != SEARCH_DIGESTS[name]:
        return f"{name}: report digest differs from the pinned one"
    return None


def check_cocycle(inputs, op, seed):
    name = op["op"]
    if name.startswith("theta"):
        p = int(name[len("theta"):])
        expected = hashlib.sha256(json.dumps(oracle.theta_table(p)).encode()).hexdigest()
        if op["answer"] != expected:
            return f"{name}: value table differs from the defining formula"
        return None
    p, i = (int(x) for x in name[len("pair"):].split("."))
    chain = parse_terms(inputs["chains"][str(p)][i])
    if parse_terms(op["answer"]["boundary"]) != oracle.boundary(chain, oracle.dihedral(p)):
        return f"{name}: boundary differs from the reference boundary"
    if op["answer"]["value"] != 0:
        return f"{name}: theta_{p} pairs to {op['answer']['value']} with a boundary"
    return None


CHECKS = {
    "cli-paper": check_cli,
    "homology-ladder": check_homology,
    "search-r3": check_search,
    "cocycle-ladder": check_cocycle,
}


def check(workload, inputs, op, seed):
    return CHECKS[workload](inputs, op, seed)
