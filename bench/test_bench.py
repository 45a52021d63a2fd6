"""Self-tests of the benchmark: seeded inputs repeat byte for byte, and the
correctness gate flags wrong answers. Run with `python3 -m pytest bench`."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import inputs as gen  # noqa: E402
import oracle  # noqa: E402

SEEDED = [w for w in gen.WORKLOADS if w != "cli-paper"]


def dump(obj):
    return json.dumps(obj, sort_keys=True).encode()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes(workload):
    assert dump(gen.generate(workload, 7)) == dump(gen.generate(workload, 7))


@pytest.mark.parametrize("workload", SEEDED)
def test_other_seed_other_inputs(workload):
    assert dump(gen.generate(workload, 7)) != dump(gen.generate(workload, 8))


def test_queries_match_their_labels():
    r5 = oracle.dihedral(5)
    queries = gen.generate("homology-ladder", 3)["queries"]
    assert sum(q["bounds"] for q in queries) == len(queries) // 2
    for q in queries:
        z = gate.parse_terms(q["terms"])
        assert not oracle.boundary(z, r5)
        assert (oracle.pair_theta(5, z) == 0) == q["bounds"]


def test_oracle_matches_known_facts():
    assert oracle.orbit_count(oracle.dihedral(4)) == 2
    assert oracle.orbit_count(gen.S4_TABLE) == 1
    for a, b in gen.R3_TWO_TERM_CYCLES:
        assert oracle.r3_is_pseudo_cycle([(1, a), (1, b)])
    assert not oracle.r3_is_pseudo_cycle([(1, (2, 0, 2)), (-1, (2, 1, 0))])


def op(name, answer):
    return {"op": name, "answer": answer, "error": None}


def test_gate_homology():
    inputs = gen.generate("homology-ladder", 0)
    assert gate.check("homology-ladder", inputs, op("R4:4", [2, [2] * 10]), 0) is None
    assert gate.check("homology-ladder", inputs, op("R4:4", [2, [2] * 9]), 0)
    assert gate.check("homology-ladder", inputs, op("R5:4", [0, [25]]), 0)
    label = inputs["queries"][0]["bounds"]
    assert gate.check("homology-ladder", inputs, op("query0", label), 0) is None
    assert gate.check("homology-ladder", inputs, op("query0", not label), 0)


def test_gate_free_rank_oracle(monkeypatch):
    # a pinned table that were wrong would still be caught by the rank formula
    monkeypatch.setitem(gate.EXPECTED_GROUPS, ("R5", 4), (1, (5,)))
    inputs = gen.generate("homology-ladder", 0)
    assert "free rank" in gate.check("homology-ladder", inputs, op("R5:4", [1, [5]]), 0)


DPRIME = {
    "quandle": {"kind": "dihedral", "order": 3},
    "triple_points": [
        {"id": "t2", "sign": 1, "colors": [2, 0, 2]},
        {"id": "t3", "sign": 1, "colors": [2, 1, 0]},
        {"id": "t5", "sign": -1, "colors": [2, 0, 2]},
        {"id": "t6", "sign": -1, "colors": [2, 1, 0]},
    ],
}
DPRIME_REPORT = {
    "pseudo_cycles": [["t2", "t3"], ["t5", "t6"]],
    "distinct_count": 2,
    "max_disjoint_count": 2,
    "witness_packing": [["t2", "t3"], ["t5", "t6"]],
}


def search_check(report, seed=1):
    return gate.check("search-r3", {"datasets": {"d": DPRIME}}, op("d", report), seed)


def test_gate_search():
    assert search_check(DPRIME_REPORT) is None
    extra = dict(DPRIME_REPORT, pseudo_cycles=[["t2", "t3"], ["t2", "t5"], ["t5", "t6"]], distinct_count=3)
    assert "not a pseudo-cycle" in search_check(extra)
    missing = dict(DPRIME_REPORT, pseudo_cycles=[["t2", "t3"]], distinct_count=1)
    assert search_check(missing)
    overlapping = dict(DPRIME_REPORT, witness_packing=[["t2", "t3"], ["t2", "t3"]])
    assert search_check(overlapping)
    assert search_check(dict(DPRIME_REPORT, max_disjoint_count=1))


def test_gate_search_pinned_digest():
    inputs = gen.generate("search-r3", gate.DEFAULT_SEED)
    # a right-looking but different report trips the pinned digest on the default seed
    problem = gate.check("search-r3", inputs, op("sparse-1", {
        "pseudo_cycles": [], "distinct_count": 0, "max_disjoint_count": 0, "witness_packing": [],
    }), gate.DEFAULT_SEED)
    assert problem


def test_gate_recheck_mismatch():
    flagged = dict(op("d", DPRIME_REPORT), recheck_mismatches=1)
    assert gate.check("search-r3", {"datasets": {"d": DPRIME}}, flagged, 1)


def test_gate_cocycle():
    inputs = gen.generate("cocycle-ladder", 0)
    terms = gate.parse_terms(inputs["chains"]["5"][0])
    bd = gen.terms_json(oracle.boundary(terms, oracle.dihedral(5)))
    assert gate.check("cocycle-ladder", inputs, op("pair5.0", {"boundary": bd, "value": 0}), 0) is None
    assert gate.check("cocycle-ladder", inputs, op("pair5.0", {"boundary": bd, "value": 1}), 0)
    assert gate.check("cocycle-ladder", inputs, op("pair5.0", {"boundary": bd[1:], "value": 0}), 0)
    assert gate.check("cocycle-ladder", inputs, op("theta5", "0" * 64), 0)


def test_gate_cli():
    assert gate.check("cli-paper", {}, op("verify-paper", {"exit": 0, "sha256": gate.CLI_SHA256}), 0) is None
    assert gate.check("cli-paper", {}, op("verify-paper", {"exit": 0, "sha256": "0" * 64}), 0)


def test_traced_worker_wraps_import_copies(tmp_path):
    spans = tmp_path / "spans.tsv.gz"
    request = {"workload": "cli-paper", "inputs": {}, "trace": str(spans)}
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(request).encode(),
        capture_output=True, env=env, timeout=120, check=True,
    )
    result = json.loads(proc.stdout)
    assert gate.check("cli-paper", {}, result["ops"][0], 0) is None
    layers = result["layers"]
    # homology.snf and pseudocycles.is_null_homologous are `from .x import y` copies
    assert layers["intlinalg.snf.calls"] == 2
    assert layers["homology.is_null_homologous.calls"] == 2
    assert layers["pseudocycles.subsets"] == 15
    assert spans.stat().st_size > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-paper", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
