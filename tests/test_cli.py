import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import quandlehom
from quandlehom import CocycleCheck, Quandle, chains, cli, cocycles, homology, pseudocycles, quandle
from quandlehom.errors import QuandleMismatchError

import golden
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


# the paper's D': t2 and t3 are +1 (2,0,2) and +1 (2,1,0), t5 and t6 the same with sign -1
BUNDLED_DPRIME = str(resources.files("quandlehom.data").joinpath("yashiro_dprime.json"))
DPRIME = json.loads(Path(BUNDLED_DPRIME).read_text())


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

    def test_cancelling_pairs_fail_the_pairing_check_with_value_0(self, capsys, tmp_path):
        # t2/t3 and t5/t6 cancel: cbar1 is the zero chain, a cycle, so the run
        # reaches the pairing on R3, which reads 0
        code, report, _ = run_json(capsys, *golden.argv(GOLDEN["verify-paper-cancelling"], tmp_path))
        assert (code, report["results"]["first_failure"]) == (1, "theta_pairing_cbar1_nonzero")
        assert report["results"]["checks"][-1] == {
            "name": "theta_pairing_cbar1_nonzero", "pass": False, "value": 0, "modulus": 3}

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

    def test_mode_options(self):
        # the argparse actions, not the formatted --help, whose layout
        # differs between Python versions
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        parser = sub.choices["pseudo-cycles"]
        modes = [a for a in parser._actions if a.dest == "mode"]
        assert [(a.option_strings, a.const, a.help) for a in modes] == [
            (["--max"], "max", "only the maximum disjoint count and witness"),
            (["--list"], "list", "only the list of pseudo-cycle subsets"),
            (["--all"], "all", "full report (default)"),
        ]
        assert parser.get_default("mode") == "all"
        assert parser.parse_args(["--input", "x.json"]).mode == "all"
        assert parser.parse_args(["--input", "x.json", "--max"]).mode == "max"

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
        raise AssertionError("a table, basis, boundary matrix or half table was built")

    @pytest.fixture(autouse=True)
    def nothing_built(self, monkeypatch):
        for module in (chains, homology):
            monkeypatch.setattr(module, "boundary_columns", self.built)
        for name in ("quandle_basis", "_cells", "matrix_of_boundary"):
            monkeypatch.setattr(chains, name, self.built)
        # what the search builds before its first subset
        for name in ("_half_table", "_cycle_test"):
            monkeypatch.setattr(pseudocycles, name, self.built)

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
    monkeypatch.setattr(pseudocycles, "_half_table", TestResourceGuards.built)
    monkeypatch.setattr(chains, "matrix_of_boundary", TestResourceGuards.built)
    path = write_json(tmp_path / "r9.json", R9_CYCLE)
    code, out, err = run(capsys, command, flag, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "576x4608 boundary matrix d_4, over the limit MAX_BOUNDARY_ENTRIES = 1000000" in err


def test_nonzero_subset_chain_over_r8_exits_2(capsys, tmp_path, monkeypatch):
    # one non-degenerate point is no cycle, but its chain is nonzero, so
    # the limits of d_4 are checked before d_3 is read or a half table built
    for module in (chains, homology):
        monkeypatch.setattr(module, "boundary_columns", TestResourceGuards.built)
    monkeypatch.setattr(pseudocycles, "_half_table", TestResourceGuards.built)
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

    @pytest.mark.parametrize("argv,text,key", [
        (["pseudo-cycles", "--input", "{path}"],
         '{"quandle": {"kind": "dihedral", "order": 3}, "triple_points": ['
         '{"id": "t2", "sign": 1, "sign": -1, "colors": [2, 0, 2]}]}', "sign"),
        (["eval-cocycle", "--cocycle", "mochizuki:3", "--chain", "{path}"],
         '{"degree": 3, "terms": [{"tuple": [2, 0, 2], "coeff": "1", "coeff": "2"}]}', "coeff"),
        (["homology", "--quandle", "table:{path}", "--degree", "2"],
         '{"kind": "table", "table": [[0]], "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}',
         "table"),
    ], ids=["input", "chain", "quandle-table"])
    def test_repeated_key_is_one_error_line(self, capsys, tmp_path, argv, text, key):
        # json.loads alone keeps the last value of a repeated key, and each
        # of these documents would then be accepted
        path = tmp_path / "repeated.json"
        path.write_text(text)
        code, out, err = run(capsys, *(a.format(path=path) for a in argv))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: not valid JSON (key {key!r} repeated in one object)\n"

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
            ["verify-paper"],
            ["homology", "--quandle", "dihedral:3", "--degree", "3"],
            ["pseudo-cycles", "--input", path, "--all"],
            ["check-cocycle", "--cocycle", "mochizuki:3"],
        ):
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second


# every pinned CLI output; `python tests/golden.py` runs the slow entries too
GOLDEN = golden.load()


@pytest.mark.parametrize("name", [name for name, entry in GOLDEN.items() if not entry.get("slow")])
def test_golden(capsys, tmp_path, name):
    code, out, err = run(capsys, *golden.argv(GOLDEN[name], tmp_path))
    assert golden.compare(GOLDEN[name], code, out.encode(), err.encode()) == []


def test_golden_theta_13_through_python_m(tmp_path):
    assert golden.compare(GOLDEN["mochizuki:13"], *golden.run(GOLDEN["mochizuki:13"], tmp_path)) == []


ALTERED = {"exit": 1, "stdout_sha256": "0" * 64, "stderr_sha256": "0" * 64, "count": 3,
           "witness": [], "distinct_count": 3, "stdout_sha265": "0" * 64}


@pytest.mark.parametrize("field", ALTERED)
def test_golden_compare_reports_one_altered_value(capsys, tmp_path, field):
    entry = dict(GOLDEN["pseudo-cycles"], count=2, witness=[["t2", "t3"], ["t5", "t6"]], distinct_count=2)
    code, out, err = run(capsys, *golden.argv(entry, tmp_path))
    assert golden.compare(entry, code, out.encode(), err.encode()) == []
    problems = golden.compare({**entry, field: ALTERED[field]}, code, out.encode(), err.encode())
    assert len(problems) == 1 and problems[0].startswith(f"{field}: ")


def test_golden_runner_names_the_entry_that_differs(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the runner appends bench/
    monkeypatch.setattr(golden, "load", lambda: {"verify-paper": dict(GOLDEN["verify-paper"], exit=1)})
    assert golden.main() == 1
    assert capsys.readouterr().out.endswith("differs: verify-paper\n")


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
    assert fresh_import(
        "import quandlehom.cli\n"
        "result = [m for m in ('dataclasses', 'inspect', 'typing', 'importlib.resources')\n"
        "    if m in sys.modules]"
    ) == []


def fresh_import(code):
    """`result`, as JSON, after `import quandlehom` and then `code` in a new
    interpreter that writes no bytecode and runs no site .pth file; -I drops
    PYTHONPATH and the user site, -S every site-packages directory.  `core`
    holds the modules that the import loaded; json loads only at the end,
    since it imports re."""
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); before = set(sys.modules); "
        "import quandlehom; core = set(sys.modules) - before\n"
        f"{code}\nimport json; print(json.dumps(result))"
    )
    done = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
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


# the package's public names, in full: a name made public by accident, such
# as a helper that an eager import binds in quandlehom, fails the test below
PUBLIC_NAMES = [
    "Chain", "Cocycle3", "CocycleCheck", "HomologyGroup", "IntMatrix", "PseudoCycleReport",
    "Quandle", "SmithDecomposition", "TriplePoint", "TriplePointDataset", "boundary_quandle",
    "boundary_rack", "chain_of", "dataset_from_json", "det", "enumerate_pseudo_cycles",
    "homology_group", "is_degenerate", "is_null_homologous", "is_pseudo_cycle",
    "is_quandle_3cocycle", "matrix_of_boundary", "max_disjoint_packing", "mochizuki_theta",
    "mochizuki_theta_p", "pair", "project_quandle", "pseudo_cycle_report", "quandle_basis", "snf",
    "solve_in_image",
]


def test_public_names_are_pinned():
    assert quandlehom.__all__ == PUBLIC_NAMES
    star = fresh_import(
        "star = {}\n"
        "exec('from quandlehom import *', star)\n"
        "result = sorted(star.keys() - {'__builtins__'})"
    )
    assert star == PUBLIC_NAMES


@pytest.mark.parametrize("seed", range(8))
def test_the_first_unknown_id_is_named_under_every_hash_seed(seed):
    # the ids are looked up in the order given, never through a set of
    # strings, whose order would follow the hash seed
    src = Path(cli.__file__).resolve().parents[1]
    path = src / "quandlehom" / "data" / "yashiro_dprime.json"
    code = (
        f"import contextlib, io, json, sys; sys.path.insert(0, {str(src)!r})\n"
        "from quandlehom import cli, dataset_from_json, is_pseudo_cycle\n"
        "from quandlehom.errors import UnknownIdError\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        "    code = cli.main(['eval-cocycle', '--cocycle', 'mochizuki:3',\n"
        f"        '--input', {str(path)!r}, '--subset', 't2,zz,yy,xx'])\n"
        f"with open({str(path)!r}) as f:\n"
        "    dataset = dataset_from_json(json.load(f))\n"
        "try:\n"
        "    is_pseudo_cycle(['t2', 'yy', 'xx', 'zz', 'yy'], dataset)\n"
        "except UnknownIdError as exc:\n"
        "    raised = str(exc)\n"
        "print(json.dumps([code, err.getvalue(), raised]))"
    )
    done = subprocess.run(
        [sys.executable, "-B", "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONHASHSEED": str(seed)},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        2, "error: no triple point with id 'zz'\n", "no triple point with id 'yy'",
    ]


def test_cli_imports_only_the_standard_library():
    # what loads here is what `import quandlehom.cli` itself pulls in
    assert fresh_import(
        "import quandlehom.cli\n"
        "result = sorted(m for m in sys.modules if m != '__main__' and m.partition('.')[0]\n"
        "    not in sys.stdlib_module_names | {'quandlehom'})"
    ) == []
