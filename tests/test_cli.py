import hashlib
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import quandlehom
from quandlehom import CocycleCheck, Quandle, chains, cli, cocycles, homology, pseudocycles, quandle
from quandlehom.errors import QuandleMismatchError

from conftest import S4_TABLE, conjugate, trivial_table


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return str(path)


DPRIME = {
    "quandle": {"kind": "dihedral", "order": 3},
    "triple_points": [
        {"id": "t2", "sign": 1, "colors": [2, 0, 2]},
        {"id": "t3", "sign": 1, "colors": [2, 1, 0]},
        {"id": "t5", "sign": -1, "colors": [2, 0, 2]},
        {"id": "t6", "sign": -1, "colors": [2, 1, 0]},
    ],
}


class TestVerifyPaper:
    def test_default_run_passes(self, capsys):
        code, report, err = run_json(capsys, "verify-paper")
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["results"]["first_failure"] is None
        by_name = {c["name"]: c for c in report["results"]["checks"]}
        assert by_name["d_max_disjoint_count_is_zero"]["count"] == 0
        assert by_name["dprime_max_disjoint_count_is_two"]["count"] == 2
        assert by_name["dprime_max_disjoint_count_is_two"]["witness"] == [
            ["t2", "t3"],
            ["t5", "t6"],
        ]
        assert by_name["theta_pairing_cbar1_nonzero"]["value"] == 2
        assert "verdict pass" in err

    def test_flipped_sign_fails_at_cbar2_check(self, capsys, tmp_path):
        doc = json.loads(json.dumps(DPRIME))
        doc["triple_points"][2]["sign"] = 1  # t5
        path = write_json(tmp_path / "flipped.json", doc)
        code, report, _ = run_json(capsys, "verify-paper", "--dprime", path)
        assert code == 1
        assert report["verdict"] == "fail"
        assert report["results"]["first_failure"] == "cbar2_is_minus_cbar1"

    @pytest.mark.parametrize("missing,check", [
        ("t2", "cbar1_is_quandle_cycle"),
        ("t3", "cbar1_is_quandle_cycle"),
        ("t5", "cbar2_is_minus_cbar1"),
        ("t6", "cbar2_is_minus_cbar1"),
    ])
    def test_missing_id_fails_its_chain_check(self, capsys, tmp_path, missing, check):
        with open(BUNDLED_DPRIME) as fh:
            doc = json.load(fh)
        for point in doc["triple_points"]:
            if point["id"] == missing:
                point["id"] = missing + "x"
        path = write_json(tmp_path / "renamed.json", doc)
        code, report, err = run_json(capsys, "verify-paper", "--dprime", path)
        assert code == 1
        assert report["verdict"] == "fail"
        assert report["results"]["first_failure"] == check
        assert report["results"]["checks"][-1] == {"name": check, "pass": False}
        assert "verdict fail" in err

    def test_later_checks_are_not_run(self, capsys, tmp_path, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a check after the first failure ran")

        for name in ("pair", "is_null_homologous"):
            monkeypatch.setattr(cli, name, unreachable)
        doc = dict(DPRIME, triple_points=[p for p in DPRIME["triple_points"] if p["id"] != "t5"])
        path = write_json(tmp_path / "no_t5.json", doc)
        code, report, err = run_json(capsys, "verify-paper", "--dprime", path)
        assert code == 1
        assert report["results"] == {
            "checks": [
                {"name": "cbar1_is_quandle_cycle", "pass": True},
                {"name": "cbar2_is_minus_cbar1", "pass": False},
            ],
            "first_failure": "cbar2_is_minus_cbar1",
        }
        assert err.splitlines() == [
            "verify-paper: cbar1_is_quandle_cycle: ok",
            "verify-paper: cbar2_is_minus_cbar1: FAIL",
            "verify-paper: verdict fail",
        ]

    def test_cbar1_check_applies_the_limits_of_the_cycle_test(self, capsys, tmp_path):
        # over the trivial quandle of order 8 every subset chain projects to
        # zero, so the search reports; the cycle test of cbar1 still checks
        # that d_4 is within the limits, as for every chain of its degree
        doc = {
            "quandle": {"kind": "table", "table": trivial_table(8)},
            "triple_points": [
                {"id": pid, "sign": 1, "colors": colors}
                for pid, colors in (("t2", [0, 0, 1]), ("t3", [1, 1, 0]), ("t5", [2, 2, 0]))
            ],
        }
        path = write_json(tmp_path / "t8.json", doc)
        code, out, err = run(capsys, "verify-paper", "--dprime", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "MAX_BOUNDARY_ENTRIES" in err

    def test_theta_is_checked_once(self, capsys, monkeypatch):
        calls = []
        original = cocycles.is_quandle_3cocycle

        def counting(cocycle):
            calls.append(cocycle.modulus)
            return original(cocycle)

        monkeypatch.setattr(cocycles, "is_quandle_3cocycle", counting)
        code, report, _ = run_json(capsys, "verify-paper")
        assert code == 0 and report["verdict"] == "pass"
        assert calls == [3]
        assert not hasattr(cli, "is_quandle_3cocycle")

    # theta_3 is a cocycle of the standard R3; S4 and T3 give cbar1 colors
    # in range, and over S4 the other eight checks pass
    @pytest.mark.parametrize("table", [S4_TABLE, trivial_table(3)], ids=["S4", "T3"])
    def test_other_quandle_fails_the_pairing_check(self, capsys, tmp_path, table):
        doc = dict(DPRIME, quandle={"kind": "table", "table": table})
        path = write_json(tmp_path / "other.json", doc)
        code, report, err = run_json(capsys, "verify-paper", "--dprime", path)
        assert code == 1
        assert report["verdict"] == "fail"
        assert report["results"]["first_failure"] == "theta_pairing_cbar1_nonzero"
        assert report["results"]["checks"][-1] == {
            "name": "theta_pairing_cbar1_nonzero", "pass": False,
        }
        assert "verdict fail" in err

    def test_r3_in_table_form_still_passes(self, capsys, tmp_path):
        # quandles compare by table: every relabelling of R3, the swap of 0
        # and 1 included, is an automorphism and gives the same table
        r3 = Quandle.dihedral(3)
        swapped = conjugate(r3, [1, 0, 2], [1, 0, 2])
        assert swapped == r3
        doc = dict(DPRIME, quandle={"kind": "table", "table": [list(r) for r in swapped.table]})
        path = write_json(tmp_path / "table.json", doc)
        code, report, _ = run_json(capsys, "verify-paper", "--dprime", path)
        assert code == 0
        assert report["verdict"] == "pass"

    def test_corrupted_quandle_table_exits_2_before_math(self, capsys, tmp_path):
        doc = {
            "quandle": {"kind": "table", "table": [[1, 0], [0, 1]]},
            "triple_points": [],
        }
        path = write_json(tmp_path / "bad.json", doc)
        code, out, err = run(capsys, "verify-paper", "--dprime", path)
        assert code == 2
        assert out == ""
        assert "quandle.table" in err

    def test_byte_stable_reports(self, capsys):
        _, first, _ = run(capsys, "verify-paper")
        _, second, _ = run(capsys, "verify-paper")
        assert first == second


class TestHomologyCommand:
    def test_dihedral_3_degree_3(self, capsys):
        code, report, _ = run_json(capsys, "homology", "--quandle", "dihedral:3", "--degree", "3")
        assert code == 0
        assert report["results"]["homology"] == {"free_rank": 0, "torsion": [3]}

    def test_dihedral_3_degree_1(self, capsys):
        code, report, _ = run_json(capsys, "homology", "--quandle", "dihedral:3", "--degree", "1")
        assert code == 0
        assert report["results"]["homology"] == {"free_rank": 1, "torsion": []}

    def test_dihedral_0_is_input_error(self, capsys):
        code, out, err = run(capsys, "homology", "--quandle", "dihedral:0", "--degree", "3")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_unknown_kind_reported_before_its_parameter(self, capsys):
        code, out, err = run(capsys, "homology", "--quandle", "foo:abc", "--degree", "3")
        assert code == 2
        assert out == ""
        assert "unknown quandle kind 'foo'" in err

    def test_non_integer_dihedral_order_is_input_error(self, capsys):
        code, out, err = run(capsys, "homology", "--quandle", "dihedral:abc", "--degree", "3")
        assert code == 2
        assert out == ""
        assert "quandle.order" in err

    def test_spec_without_a_colon_is_input_error(self, capsys):
        code, out, err = run(capsys, "homology", "--quandle", "dihedral3", "--degree", "3")
        assert (code, out) == (2, "")
        assert err == "error: quandle: expected <kind>:<param>, got 'dihedral3'\n"

    # int() would read each of these parameters; the CLI takes only -?[0-9]+,
    # as Chain.from_json_dict does for coefficients
    @pytest.mark.parametrize("argv", [
        ["homology", "--quandle", "dihedral: 3", "--degree", "3"],
        ["homology", "--quandle", "dihedral:1_0", "--degree", "1"],
        ["homology", "--quandle", "dihedral:3", "--degree", " 3"],
        ["check-cocycle", "--cocycle", "mochizuki:\u0663"],
    ], ids=["spaced-order", "underscored-order", "spaced-degree", "arabic-indic-prime"])
    def test_non_decimal_integer_parameter_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_table_quandle_from_file(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "q.json",
            {"kind": "table", "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]},
        )
        code, report, _ = run_json(capsys, "homology", "--quandle", f"table:{path}", "--degree", "2")
        assert code == 0
        assert report["results"]["homology"] == {"free_rank": 0, "torsion": []}
        assert report["inputs_digest"] is not None


class TestPseudoCyclesCommand:
    def test_max_mode(self, capsys, tmp_path):
        path = write_json(tmp_path / "dprime.json", DPRIME)
        code, report, _ = run_json(capsys, "pseudo-cycles", "--input", path, "--max")
        assert code == 0
        assert report["results"]["max_disjoint_count"] == 2
        assert report["results"]["witness_packing"] == [["t2", "t3"], ["t5", "t6"]]
        assert "pseudo_cycles" not in report["results"]

    def test_list_mode_empty_dataset(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "empty.json",
            {"quandle": {"kind": "dihedral", "order": 3}, "triple_points": []},
        )
        code, report, _ = run_json(capsys, "pseudo-cycles", "--input", path, "--list")
        assert code == 0
        assert report["results"]["pseudo_cycles"] == []
        assert report["results"]["distinct_count"] == 0

    def test_all_mode_is_default(self, capsys, tmp_path):
        path = write_json(tmp_path / "dprime.json", DPRIME)
        code, report, _ = run_json(capsys, "pseudo-cycles", "--input", path)
        assert code == 0
        assert report["results"]["pseudo_cycles"] == [["t2", "t3"], ["t5", "t6"]]
        assert report["results"]["distinct_count"] == 2
        assert report["results"]["max_disjoint_count"] == 2

    def test_out_of_range_color_rejected_with_field_path(self, capsys, tmp_path):
        doc = json.loads(json.dumps(DPRIME))
        doc["triple_points"][0]["colors"] = [5, 0, 2]
        path = write_json(tmp_path / "bad.json", doc)
        code, out, err = run(capsys, "pseudo-cycles", "--input", path)
        assert code == 2
        assert out == ""
        assert "triple_points[0].colors[0]" in err

    def test_unknown_field_rejected_with_field_path(self, capsys, tmp_path):
        doc = json.loads(json.dumps(DPRIME))
        doc["triple_points"][1]["extra"] = 1
        path = write_json(tmp_path / "bad.json", doc)
        code, _, err = run(capsys, "pseudo-cycles", "--input", path)
        assert code == 2
        assert "triple_points[1].extra" in err

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = run(capsys, "pseudo-cycles", "--input", str(path))
        assert code == 2
        assert out == ""

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "pseudo-cycles", "--input", str(tmp_path / "nope.json"))
        assert code == 2


class TestEvalCocycleCommand:
    CBAR1 = {
        "degree": 3,
        "terms": [
            {"tuple": [2, 0, 2], "coeff": "1"},
            {"tuple": [2, 1, 0], "coeff": "1"},
        ],
    }

    def test_chain_file_pairing(self, capsys, tmp_path):
        path = write_json(tmp_path / "cbar1.json", self.CBAR1)
        code, report, _ = run_json(capsys, "eval-cocycle", "--cocycle", "mochizuki:3", "--chain", path)
        assert code == 0
        assert report["results"]["value"] == 2
        assert report["results"]["modulus"] == 3

    def test_zero_chain_pairs_to_zero(self, capsys, tmp_path):
        path = write_json(tmp_path / "zero.json", {"degree": 3, "terms": []})
        code, report, _ = run_json(capsys, "eval-cocycle", "--cocycle", "mochizuki:3", "--chain", path)
        assert code == 0
        assert report["results"]["value"] == 0

    def test_dataset_subset_pairing(self, capsys, tmp_path):
        path = write_json(tmp_path / "dprime.json", DPRIME)
        code, report, _ = run_json(
            capsys,
            "eval-cocycle", "--cocycle", "mochizuki:3",
            "--input", path, "--subset", "t5,t6",
        )
        assert code == 0
        assert report["results"]["value"] == 1

    def test_quandle_mismatch_is_input_error(self, capsys, tmp_path):
        path = write_json(tmp_path / "dprime.json", DPRIME)
        code, out, err = run(
            capsys,
            "eval-cocycle", "--cocycle", "mochizuki:5",
            "--input", path, "--subset", "t2,t3",
        )
        assert code == 2
        assert out == ""
        assert "does not match" in err

    def test_quandle_mismatch_raises_its_error(self, tmp_path):
        path = write_json(tmp_path / "dprime.json", DPRIME)
        argv = ["eval-cocycle", "--cocycle", "mochizuki:5", "--input", path, "--subset", "t2"]
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(QuandleMismatchError, match="does not match"):
            args.func(args)

    def test_chain_entries_out_of_cocycle_range_rejected(self, capsys, tmp_path):
        doc = {"degree": 3, "terms": [{"tuple": [0, 4, 0], "coeff": "1"}]}
        path = write_json(tmp_path / "big.json", doc)
        code, _, err = run(capsys, "eval-cocycle", "--cocycle", "mochizuki:3", "--chain", path)
        assert code == 2

    @pytest.mark.parametrize("coeff", ["1_0", " 5 ", "\u0663", "+5", "1.0", ""])
    def test_non_decimal_coefficient_string_exits_2(self, capsys, tmp_path, coeff):
        doc = {"degree": 3, "terms": [{"tuple": [2, 0, 2], "coeff": coeff}]}
        path = write_json(tmp_path / "chain.json", doc)
        code, out, err = run(capsys, "eval-cocycle", "--cocycle", "mochizuki:3", "--chain", path)
        assert code == 2
        assert out == ""
        assert "terms[0].coeff" in err

    def test_float_sign_in_dataset_exits_2(self, capsys, tmp_path):
        doc = json.loads(json.dumps(DPRIME))
        doc["triple_points"][0]["sign"] = 1.0
        path = write_json(tmp_path / "float_sign.json", doc)
        code, out, err = run(
            capsys, "eval-cocycle", "--cocycle", "mochizuki:3",
            "--input", path, "--subset", "t2,t3",
        )
        assert code == 2
        assert out == ""
        assert "triple_points[0].sign" in err

    def test_unknown_cocycle_spec_rejected(self, capsys, tmp_path):
        path = write_json(tmp_path / "zero.json", {"degree": 3, "terms": []})
        code, _, err = run(capsys, "eval-cocycle", "--cocycle", "carter:3", "--chain", path)
        assert code == 2

    @pytest.mark.parametrize("source", [
        ["--input", "dprime.json"],  # would pair the empty chain
        ["--chain", "zero.json", "--subset", "t2,t3"],  # would ignore the ids
    ])
    def test_subset_goes_with_input_alone(self, capsys, tmp_path, source):
        write_json(tmp_path / "dprime.json", DPRIME)
        write_json(tmp_path / "zero.json", {"degree": 3, "terms": []})
        flag, name, *rest = source
        argv = ["eval-cocycle", "--cocycle", "mochizuki:3", flag, str(tmp_path / name), *rest]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--subset" in err

    @pytest.mark.parametrize("subset", ["", ",", "t2,,t3", "t2,t3,"])
    def test_empty_subset_item_exits_2(self, capsys, tmp_path, subset):
        path = write_json(tmp_path / "dprime.json", DPRIME)
        argv = ["eval-cocycle", "--cocycle", "mochizuki:3", "--input", path, "--subset", subset]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: no triple point with id ''\n"


class TestCheckCocycleCommand:
    def test_mochizuki_3_passes(self, capsys):
        code, report, _ = run_json(capsys, "check-cocycle", "--cocycle", "mochizuki:3")
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["results"]["is_cocycle"] is True

    def test_dump_table(self, capsys):
        code, report, _ = run_json(capsys, "check-cocycle", "--cocycle", "mochizuki:3", "--dump-table")
        assert code == 0
        assert report["results"]["values"][2][0][2] == 2

    def test_brute_force_check_runs_once(self, capsys, monkeypatch):
        calls = []
        original = cocycles.is_quandle_3cocycle

        def counting(cocycle):
            calls.append(cocycle.modulus)
            return original(cocycle)

        monkeypatch.setattr(cocycles, "is_quandle_3cocycle", counting)
        code, report, _ = run_json(capsys, "check-cocycle", "--cocycle", "mochizuki:5")
        assert code == 0 and report["verdict"] == "pass"
        assert calls == [5]

    def test_failing_construction_check_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cocycles, "is_quandle_3cocycle", lambda cocycle: CocycleCheck(False, (0, 1, 0, 2))
        )
        code, out, err = run(capsys, "check-cocycle", "--cocycle", "mochizuki:5")
        assert code == 2
        assert out == ""
        assert "fails the 3-cocycle check at (0, 1, 0, 2)" in err

    def test_non_prime_parameter_is_input_error(self, capsys):
        code, out, err = run(capsys, "check-cocycle", "--cocycle", "mochizuki:4")
        assert code == 2
        assert out == ""

    def test_composite_with_no_factor_3_is_input_error(self, capsys):
        code, out, err = run(capsys, "check-cocycle", "--cocycle", "mochizuki:25")
        assert (code, out) == (2, "")
        assert err == "error: expected an odd prime, got 25\n"

    @pytest.mark.parametrize("p", ["-3", "0"])
    def test_non_positive_parameter_is_not_an_odd_prime(self, capsys, p):
        # the message names the prime the user gave, not a quandle order
        code, out, err = run(capsys, "check-cocycle", "--cocycle", f"mochizuki:{p}")
        assert (code, out) == (2, "")
        assert err == f"error: expected an odd prime, got {p}\n"


class TestResourceGuards:
    """Each refusal exits 2 naming its limit, before anything is built: the
    patched builders fail the test if they are reached."""

    @staticmethod
    def built(*args):
        raise AssertionError("a table, basis, boundary matrix or subset chain was built")

    @pytest.fixture(autouse=True)
    def nothing_built(self, monkeypatch):
        for module in (chains, homology):
            monkeypatch.setattr(module, "boundary_columns", self.built)
        for name in ("quandle_basis", "_cells", "matrix_of_boundary"):
            monkeypatch.setattr(chains, name, self.built)
        monkeypatch.setattr(pseudocycles, "chain_of", self.built)

    def refused(self, capsys, argv, limit):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert limit in err

    def test_dihedral_order(self, capsys, monkeypatch):
        monkeypatch.setattr(Quandle, "__init__", self.built)
        argv = ["homology", "--quandle", "dihedral:100000", "--degree", "1"]
        self.refused(capsys, argv, "MAX_DIHEDRAL_ORDER = 32")

    @pytest.mark.parametrize("argv,limit", [
        (
            ["homology", "--quandle", "dihedral:9", "--degree", "3"],
            "576x4608 boundary matrix d_4, over the limit MAX_BOUNDARY_ENTRIES = 1000000",
        ),
        (["homology", "--quandle", "dihedral:3", "--degree", "17"], "MAX_HOMOLOGY_DEGREE = 16"),
    ], ids=["boundary-entries", "homology-degree"])
    def test_homology(self, capsys, argv, limit):
        self.refused(capsys, argv, limit)

    def test_table_order(self, capsys, tmp_path, monkeypatch):
        # the row count is checked in Quandle.__init__, before its n^3 axiom scan
        monkeypatch.setattr(quandle, "product", self.built)
        table = [[x] * 33 for x in range(33)]
        path = write_json(tmp_path / "q.json", {"kind": "table", "table": table})
        argv = ["homology", "--quandle", f"table:{path}", "--degree", "1"]
        self.refused(capsys, argv, "MAX_DIHEDRAL_ORDER = 32")

    @pytest.mark.parametrize("command", [
        ["check-cocycle"], ["eval-cocycle", "--chain", "chain.json"],
    ], ids=["check", "eval"])
    def test_cocycle_prime_over_the_order_limit(self, capsys, monkeypatch, command):
        # trial division up to the square root of this 31-digit p would run for hours
        monkeypatch.setattr(cocycles, "_is_odd_prime", self.built)
        argv = command + ["--cocycle", "mochizuki:1000000000000000000000000000057"]
        self.refused(capsys, argv, "MAX_DIHEDRAL_ORDER = 32")

    def test_dataset_over_the_default_cap(self, capsys, tmp_path):
        points = [{"id": f"p{i:02d}", "sign": 1, "colors": [0, 1, 2]} for i in range(21)]
        doc = {"quandle": {"kind": "dihedral", "order": 3}, "triple_points": points}
        path = write_json(tmp_path / "many.json", doc)
        self.refused(
            capsys, ["pseudo-cycles", "--input", path],
            "dataset has 21 triple points, enumeration cap is DEFAULT_POINT_CAP = 20",
        )


# the quandle boundary of the generator (0, 1, 2, 3) over R9: a degree-3
# cycle whose null-homology test would need the 576x4608 d_4
R9_CYCLE = {
    "quandle": {"kind": "dihedral", "order": 9},
    "triple_points": [
        {"id": "a", "sign": 1, "colors": [0, 1, 2]},
        {"id": "b", "sign": -1, "colors": [0, 1, 3]},
        {"id": "c", "sign": 1, "colors": [0, 2, 3]},
        {"id": "d", "sign": -1, "colors": [6, 5, 4]},
    ],
}


@pytest.mark.parametrize("command,flag", [("pseudo-cycles", "--input"), ("verify-paper", "--d")])
def test_null_homology_guard_exits_2(capsys, tmp_path, monkeypatch, command, flag):
    for module in (chains, homology):
        monkeypatch.setattr(module, "boundary_columns", TestResourceGuards.built)
    monkeypatch.setattr(chains, "matrix_of_boundary", TestResourceGuards.built)
    path = write_json(tmp_path / "r9.json", R9_CYCLE)
    code, out, err = run(capsys, command, flag, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "576x4608 boundary matrix d_4, over the limit MAX_BOUNDARY_ENTRIES = 1000000" in err


def test_nonzero_subset_chain_over_r8_exits_2(capsys, tmp_path, monkeypatch):
    # one non-degenerate point is no cycle, but its chain is nonzero, so
    # the limits of d_4 are checked before d_3 is read
    for module in (chains, homology):
        monkeypatch.setattr(module, "boundary_columns", TestResourceGuards.built)
    doc = {
        "quandle": {"kind": "dihedral", "order": 8},
        "triple_points": [{"id": "a", "sign": 1, "colors": [0, 1, 2]}],
    }
    path = write_json(tmp_path / "r8.json", doc)
    code, out, err = run(capsys, "pseudo-cycles", "--input", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "392x2744 boundary matrix d_4, over the limit MAX_BOUNDARY_ENTRIES = 1000000" in err


@pytest.mark.parametrize("points", [
    [],
    [{"id": "a", "sign": 1, "colors": [0, 0, 1]}, {"id": "b", "sign": -1, "colors": [3, 5, 5]}],
], ids=["empty", "all-degenerate"])
def test_zero_subset_chains_over_r9_still_report(capsys, tmp_path, points):
    doc = {"quandle": {"kind": "dihedral", "order": 9}, "triple_points": points}
    path = write_json(tmp_path / "r9.json", doc)
    code, report, _ = run_json(capsys, "pseudo-cycles", "--input", path)
    assert code == 0
    assert report["results"] == {
        "pseudo_cycles": [], "distinct_count": 0, "max_disjoint_count": 0, "witness_packing": [],
    }


class TestCliContract:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["homology", "--degree", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["homology", "--quandle", "dihedral:3"],
            ["pseudo-cycles", "--input", "d.json", "--cap", "5"],
            ["frobnicate"],
        ],
        ids=["missing-degree", "removed-cap", "unknown-subcommand"],
    )
    def test_usage_errors_print_one_error_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["pseudo-cycles", "--input", "{path}"],
            ["eval-cocycle", "--cocycle", "mochizuki:3", "--chain", "{path}"],
            ["homology", "--quandle", "table:{path}", "--degree", "3"],
            ["verify-paper", "--d", "{path}"],
        ],
        ids=["input", "chain", "quandle-table", "verify-paper-d"],
    )
    def test_deeply_nested_json_is_one_error_line(self, capsys, tmp_path, argv):
        # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, *(a.format(path=path) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: not valid JSON (")
        assert err.count("\n") == 1

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    def test_integer_over_the_digit_limit_is_one_error_line(self, capsys, tmp_path):
        # json.loads raises a plain ValueError on an integer literal longer
        # than the interpreter's limit (4,300 digits by default)
        path = tmp_path / "long.json"
        path.write_text(
            '{"quandle": {"kind": "dihedral", "order": 1' + "0" * 5000 + '}, "triple_points": []}'
        )
        code, out, err = run(capsys, "pseudo-cycles", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: not valid JSON (")
        assert err.count("\n") == 1

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    @pytest.mark.parametrize("argv,field", [
        (["eval-cocycle", "--cocycle", "mochizuki:3", "--chain", "{path}"], "terms[0].coeff"),
        (["homology", "--quandle", "dihedral:3", "--degree", "{long}"], "degree"),
        (["homology", "--quandle", "dihedral:{long}", "--degree", "3"], "quandle.order"),
        (["check-cocycle", "--cocycle", "mochizuki:{long}"], "cocycle"),
    ], ids=["coeff", "degree", "order", "cocycle"])
    def test_decimal_text_over_the_digit_limit_names_its_field(
        self, capsys, tmp_path, argv, field
    ):
        # int() raises a plain ValueError on decimal text longer than the
        # interpreter's limit (4,300 digits by default)
        long = "1" + "0" * 5000
        path = write_json(tmp_path / "chain.json", {
            "degree": 3, "terms": [{"tuple": [2, 0, 2], "coeff": long}],
        })
        code, out, err = run(capsys, *(a.format(path=path, long=long) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field}: Exceeds the limit")
        assert err.count("\n") == 1

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    def test_combined_coefficient_over_the_digit_limit_names_its_field(self, capsys, tmp_path):
        # each coefficient is within the limit; their sum on one tuple is
        # not, and the report could not write it
        nines = "9" * sys.get_int_max_str_digits()
        path = write_json(tmp_path / "chain.json", {"degree": 3, "terms": [
            {"tuple": [2, 0, 2], "coeff": nines}, {"tuple": [2, 0, 2], "coeff": nines},
        ]})
        code, out, err = run(capsys, "eval-cocycle", "--cocycle", "mochizuki:3", "--chain", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: terms[0].coeff: Exceeds the limit")
        assert err.count("\n") == 1

    def test_reports_are_byte_stable_per_command(self, capsys, tmp_path):
        path = write_json(tmp_path / "dprime.json", DPRIME)
        for argv in (
            ["homology", "--quandle", "dihedral:3", "--degree", "3"],
            ["pseudo-cycles", "--input", path, "--all"],
            ["check-cocycle", "--cocycle", "mochizuki:3"],
        ):
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second


BUNDLED_DPRIME = str(resources.files("quandlehom.data").joinpath("yashiro_dprime.json"))

# sha256 of the exact stdout bytes: reports are byte-stable, so any change
# here is a change to the CLI's output contract
GOLDEN_STDOUT = [
    (["verify-paper"], "1f76920c69e01bbb44da57b0796871f990ab99833096dec6f14d45881a8a6610"),
    (
        ["homology", "--quandle", "dihedral:3", "--degree", "3"],
        "803e749f8a054457a82e9f83436c6ed2a24f2019e1b7e1933a25439bb46f6faf",
    ),
    (
        ["pseudo-cycles", "--input", BUNDLED_DPRIME, "--all"],
        "f45611d33b2b3a44782f7bd6c5707d9300f4763676df50eb0afbd79735fa38bd",
    ),
    (
        ["eval-cocycle", "--cocycle", "mochizuki:3", "--input", BUNDLED_DPRIME,
         "--subset", "t2,t3"],
        "8ce221734d17a360fa1bd384f76418ddc85aab29babbea11a359f2f7e1b56b53",
    ),
    (
        ["check-cocycle", "--cocycle", "mochizuki:3", "--dump-table"],
        "55128dc28ced611cc2bc1865a787916d676bd38579f2bdf02aed841de6ae004d",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT, ids=[a[0] for a, _ in GOLDEN_STDOUT])
def test_golden_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# digests taken with the dense Smith normal form of each whole boundary
# matrix, before the unit-pivot elimination; kept apart from GOLDEN_STDOUT,
# whose ids are the bare command names
GOLDEN_HOMOLOGY_STDOUT = [
    ("dihedral:4", "8c6779d68d3ed70251e0ac688da4afbec4b87e34e37ecb58120c7145a163d5f3"),
    ("dihedral:5", "a1794152f16501a7ddb78b1fda60bbcff91ac882c0174e85863615bd7050094b"),
]


@pytest.mark.parametrize("quandle,digest", GOLDEN_HOMOLOGY_STDOUT, ids=[q for q, _ in GOLDEN_HOMOLOGY_STDOUT])
def test_golden_homology_degree_4_stdout(capsys, quandle, digest):
    code, out, _ = run(capsys, "homology", "--quandle", quandle, "--degree", "4")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the exact stderr bytes of the GOLDEN_STDOUT commands, in the
# same order: the human summary is part of the CLI contract too
GOLDEN_STDERR = [
    "728397eb8b7080d0b8d69d7dc9b68d2e1b0580f15097d1771f5a61f560ac9357",
    "ad4f091ad20a6ea3bbbd4829659d34ca9b11d83471fa44a22a1832d3576ebbdb",
    "6bd55e191cb6edd0394e4c5aa0f0c74d52abc00ab8c87cc5a790024652c517e1",
    "452071b3863cbb20dddc52d6100b4eedd58bffa90f2563b4079483cb1489f461",
    "d75792ea651d5358dc84662ebbf323cd6fd176329f0b786b31bf1a0eb414ce85",
]


@pytest.mark.parametrize(
    "argv,digest",
    [(argv, digest) for (argv, _), digest in zip(GOLDEN_STDOUT, GOLDEN_STDERR)],
    ids=[a[0] for a, _ in GOLDEN_STDOUT],
)
def test_golden_stderr(capsys, argv, digest):
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(err.encode()).hexdigest() == digest


GOLDEN_PSEUDO_CYCLES_MODES = [
    ("--max", "0ad7b4f9d086db5cf69b59d36a35e9150654b5fa637bcbbbfdd7309b829aea17"),
    ("--list", "dd5dee2736a29378e9ab6a7f8b231f957bcb5fc6f557f9197fa4af766a74ae65"),
]


@pytest.mark.parametrize("mode,digest", GOLDEN_PSEUDO_CYCLES_MODES, ids=["max", "list"])
def test_golden_pseudo_cycles_mode_stdout(capsys, mode, digest):
    code, out, _ = run(capsys, "pseudo-cycles", "--input", BUNDLED_DPRIME, mode)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _flipped_dprime(tmp_path):
    doc = json.loads(json.dumps(DPRIME))
    doc["triple_points"][2]["sign"] = 1  # t5: cbar2 is no longer -cbar1
    return write_json(tmp_path / "flipped.json", doc)


# each case: the exit code it must give and its argv, built from tmp_path;
# together they cover pass, fail, no-verdict and input-error outcomes
CONTRACT_CASES = {
    "verify-paper": (0, lambda tmp: ["verify-paper"]),
    "verify-paper-fail": (1, lambda tmp: ["verify-paper", "--dprime", _flipped_dprime(tmp)]),
    "homology": (0, lambda tmp: ["homology", "--quandle", "dihedral:3", "--degree", "3"]),
    "homology-bad-order": (2, lambda tmp: ["homology", "--quandle", "dihedral:0", "--degree", "3"]),
    "pseudo-cycles-all": (0, lambda tmp: ["pseudo-cycles", "--input", BUNDLED_DPRIME]),
    "pseudo-cycles-max": (0, lambda tmp: ["pseudo-cycles", "--input", BUNDLED_DPRIME, "--max"]),
    "pseudo-cycles-list": (0, lambda tmp: ["pseudo-cycles", "--input", BUNDLED_DPRIME, "--list"]),
    "pseudo-cycles-missing-file": (
        2, lambda tmp: ["pseudo-cycles", "--input", str(tmp / "nope.json")],
    ),
    "eval-cocycle": (0, lambda tmp: [
        "eval-cocycle", "--cocycle", "mochizuki:3", "--input", BUNDLED_DPRIME, "--subset", "t5,t6",
    ]),
    "eval-cocycle-bad-spec": (2, lambda tmp: [
        "eval-cocycle", "--cocycle", "carter:3", "--input", BUNDLED_DPRIME, "--subset", "t2",
    ]),
    "check-cocycle": (0, lambda tmp: ["check-cocycle", "--cocycle", "mochizuki:5"]),
    "check-cocycle-not-prime": (2, lambda tmp: ["check-cocycle", "--cocycle", "mochizuki:9"]),
}


@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_report_envelope_and_exit_code(capsys, tmp_path, case):
    expected_code, make_argv = CONTRACT_CASES[case]
    argv = make_argv(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == expected_code
    if code == 2:
        assert out == ""
        assert err.startswith("error:")
        return
    report = json.loads(out)
    keys = list(report)
    assert keys[:3] == ["command", "inputs_digest", "results"]
    assert keys[3:] in ([], ["verdict"])
    assert report["command"] == argv[0]
    assert code == (1 if report.get("verdict") == "fail" else 0)
    assert err


def test_cli_import_leaves_out_slow_modules():
    # each of these costs milliseconds of start-up on every command; -S keeps
    # site's .pth files from importing any of them first and hiding a regression
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import quandlehom.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing', 'importlib.resources') "
        "if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-B", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def fresh_import(code):
    """`result`, as JSON, after `import quandlehom` and then `code` in a new
    interpreter that writes no bytecode and runs no site .pth file.  `core`
    holds the modules that the import loaded; json loads only at the end,
    since it imports re."""
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); before = set(sys.modules); "
        "import quandlehom; core = set(sys.modules) - before\n"
        f"{code}\nimport json; print(json.dumps(result))"
    )
    done = subprocess.run(
        [sys.executable, "-B", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_package_import_loads_the_core_only():
    # the homology path never runs cocycles or pseudocycles, and re, with the
    # enum it imports, is not on the path at all
    core, after_pair, undir = fresh_import(
        "names = set(dir(quandlehom))\n"
        "loaded = set(sys.modules)\n"
        "quandlehom.pair\n"
        "result = [sorted(core), sorted(set(sys.modules) - loaded),\n"
        "    sorted(set(quandlehom.__all__) - names)]"
    )
    assert [m for m in core if m.startswith("quandlehom")] == [
        "quandlehom", "quandlehom.chains", "quandlehom.errors", "quandlehom.homology",
        "quandlehom.intlinalg", "quandlehom.quandle",
    ]
    assert not {"re", "enum"} & set(core)
    assert after_pair == ["quandlehom.cocycles"]
    assert undir == []  # dir() lists the names that are not loaded yet


def test_public_names_are_the_defining_modules_objects():
    # star-import first, so that it, not getattr, loads the leaves
    found = fresh_import(
        "star = {}\n"
        "exec('from quandlehom import *', star)\n"
        "result = {name: [obj.__module__, obj is star.get(name),\n"
        "    obj is getattr(sys.modules[obj.__module__], name)]\n"
        "    for name in quandlehom.__all__ for obj in [getattr(quandlehom, name)]}"
    )
    assert list(found) == quandlehom.__all__
    for name, (module, from_star, from_module) in found.items():
        assert module.startswith("quandlehom."), name
        assert from_star and from_module, name
    with pytest.raises(AttributeError, match="'no_such_name'"):
        quandlehom.no_such_name


def test_cli_imports_only_the_standard_library():
    # -I drops PYTHONPATH and the user site, -S every site-packages directory:
    # what loads here is what `import quandlehom.cli` itself pulls in
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import quandlehom.cli; "
        "print(sorted(m for m in sys.modules if m != '__main__' and m.partition('.')[0] "
        "not in sys.stdlib_module_names | {'quandlehom'}))"
    )
    done = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
