"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them inline).

Everything here is exact integer arithmetic, so every assertion is an
equality with no tolerance.
"""

import json
import random
from contextlib import contextmanager
from itertools import chain as ichain, combinations, product

import pytest

from quandlehom import (
    Chain,
    IntMatrix,
    TriplePoint,
    TriplePointDataset,
    boundary_quandle,
    boundary_rack,
    cli,
    enumerate_pseudo_cycles,
    homology_group,
    is_null_homologous,
    is_pseudo_cycle,
    is_quandle_3cocycle,
    matrix_of_boundary,
    max_disjoint_packing,
    mochizuki_theta,
    pair,
    project_quandle,
    quandle_basis,
    snf,
    solve_in_image,
)

from conftest import is_unimodular, quandle_inventory, sympy_matrix


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_1_counterexample_reproduction(capsys, d_dataset, dprime_dataset):
    with criterion(1, "counterexample reproduction"):
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert max_disjoint_packing(d_dataset).count == 0
        count, witness = max_disjoint_packing(dprime_dataset)
        assert count == 2
        assert witness == (("t2", "t3"), ("t5", "t6"))


def test_criterion_2_cycle_check(r3, cbar1):
    with criterion(2, "cycle check"):
        assert boundary_quandle(cbar1, r3) == Chain.zero(2)
        assert boundary_rack(cbar1, r3) == Chain(2, [((2, 2), 1), ((0, 0), -1)])


def test_criterion_3_cocycle_certificate(cbar1):
    with criterion(3, "cocycle certificate"):
        theta = mochizuki_theta()
        assert pair(theta, cbar1) == 2
        assert pair(theta, -cbar1) == 1
        check = is_quandle_3cocycle(theta)
        assert check.ok and check.witness is None


def test_criterion_4_homological_certificate(r3, cbar1):
    with criterion(4, "homological certificate"):
        assert is_null_homologous(cbar1, r3) is False
        assert pair(mochizuki_theta(), cbar1) != 0


def test_criterion_5_homology_groups(r3):
    with criterion(5, "homology groups"):
        expected = {1: (1, ()), 2: (0, ()), 3: (0, (3,))}
        for degree, (rank, torsion) in expected.items():
            g = homology_group(r3, degree)
            assert (g.free_rank, g.torsion) == (rank, torsion)


def test_criterion_6_property_suites(r3, dprime_dataset):
    with criterion(6, "property suites"):
        inventory = quandle_inventory()

        # boundary squared vanishes in degrees 2..4 for every catalogued
        # quandle of order <= 4, and the rack boundary is degenerate-closed
        for _, q in inventory:
            for degree in (3, 4):
                lower = sympy_matrix(matrix_of_boundary(q, degree - 1))
                assert (lower * sympy_matrix(matrix_of_boundary(q, degree))).is_zero_matrix
            for degree in (2, 3, 4):
                for tup in product(range(q.order), repeat=degree):
                    if any(tup[i] == tup[i + 1] for i in range(degree - 1)):
                        image = boundary_rack(Chain.generator(tup), q)
                        assert project_quandle(image).is_zero()

        # Smith normal form invariants on 200 random matrices
        rng = random.Random(2024)
        for _ in range(200):
            m = rng.randint(1, 8)
            n = rng.randint(1, 8)
            a = IntMatrix(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            )
            dec = snf(a)
            uav = sympy_matrix(dec.U) * sympy_matrix(a) * sympy_matrix(dec.V)
            assert uav == sympy_matrix(dec.D)
            assert is_unimodular(dec.U) and is_unimodular(dec.V)
            nonzero = [d for d in dec.diagonal if d]
            assert all(d > 0 for d in nonzero)
            assert list(dec.diagonal[len(nonzero):]) == [0] * (
                len(dec.diagonal) - len(nonzero)
            )
            for x, y in zip(nonzero, nonzero[1:]):
                assert y % x == 0

        # solve_in_image round trips at <= 5x5
        rng = random.Random(5)
        for _ in range(100):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            a = IntMatrix(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            )
            x0 = [rng.randint(-5, 5) for _ in range(n)]
            b = a.apply(x0)
            x = solve_in_image(a, b)
            assert x is not None and a.apply(x) == b
        assert solve_in_image(IntMatrix([[2]]), [3]) is None

        # pairing is invariant under 100 random boundary perturbations
        theta = mochizuki_theta()
        rng = random.Random(43)
        basis4 = quandle_basis(r3, 4)
        cbar1 = Chain(3, [((2, 0, 2), 1), ((2, 1, 0), 1)])
        for _ in range(100):
            d = Chain(4, [(rng.choice(basis4), rng.randint(-5, 5)) for _ in range(5)])
            perturbation = boundary_quandle(d, r3)
            assert pair(theta, cbar1 + perturbation) == pair(theta, cbar1)

        # enumerate/test consistency on datasets with <= 6 points
        rng = random.Random(53)
        datasets = [dprime_dataset]
        for k in (3, 5, 6):
            datasets.append(
                TriplePointDataset(
                    quandle=r3,
                    points=tuple(
                        TriplePoint(
                            id=f"p{i}",
                            sign=rng.choice([1, -1]),
                            colors=tuple(rng.randrange(3) for _ in range(3)),
                        )
                        for i in range(k)
                    ),
                )
            )
        for ds in datasets:
            listed = set(enumerate_pseudo_cycles(ds))
            ids = ds.sorted_ids()
            for subset in ichain.from_iterable(
                combinations(ids, k) for k in range(1, len(ids) + 1)
            ):
                assert (subset in listed) == is_pseudo_cycle(set(subset), ds)

        # id permutation and global sign flip invariance
        renames = {"t2": "b", "t3": "a", "t5": "d", "t6": "c"}
        renamed = TriplePointDataset(
            quandle=dprime_dataset.quandle,
            points=tuple(
                TriplePoint(id=renames[p.id], sign=p.sign, colors=p.colors)
                for p in dprime_dataset.points
            ),
        )
        assert max_disjoint_packing(renamed).count == 2
        assert set(enumerate_pseudo_cycles(renamed)) == {
            tuple(sorted(renames[i] for i in s))
            for s in enumerate_pseudo_cycles(dprime_dataset)
        }
        flipped = TriplePointDataset(
            quandle=dprime_dataset.quandle,
            points=tuple(
                TriplePoint(id=p.id, sign=-p.sign, colors=p.colors)
                for p in dprime_dataset.points
            ),
        )
        assert enumerate_pseudo_cycles(flipped) == enumerate_pseudo_cycles(
            dprime_dataset
        )


def test_criterion_7_cli_contract(capsys, tmp_path):
    with criterion(7, "CLI contract"):
        # byte stability
        _, first, _ = run_cli(capsys, "verify-paper")
        _, second, _ = run_cli(capsys, "verify-paper")
        assert first == second

        # exit code 0 on success (covered above), 1 on verdict fail
        dprime = {
            "quandle": {"kind": "dihedral", "order": 3},
            "triple_points": [
                {"id": "t2", "sign": 1, "colors": [2, 0, 2]},
                {"id": "t3", "sign": 1, "colors": [2, 1, 0]},
                {"id": "t5", "sign": 1, "colors": [2, 0, 2]},
                {"id": "t6", "sign": -1, "colors": [2, 1, 0]},
            ],
        }
        flipped = tmp_path / "flipped.json"
        flipped.write_text(json.dumps(dprime))
        code, _, _ = run_cli(capsys, "verify-paper", "--dprime", str(flipped))
        assert code == 1

        # exit code 2 with field path on schema violations
        bad = json.loads(json.dumps(dprime))
        bad["triple_points"][0]["colors"] = [9, 0, 2]
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        code, out, err = run_cli(capsys, "pseudo-cycles", "--input", str(bad_path))
        assert code == 2
        assert out == ""
        assert "triple_points[0].colors[0]" in err

        # malformed input never escapes as a traceback
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        code, out, _ = run_cli(capsys, "pseudo-cycles", "--input", str(broken))
        assert code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2
