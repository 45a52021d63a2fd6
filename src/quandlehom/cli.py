"""Command-line interface.

JSON reports go to stdout (byte-stable for identical inputs); a short
human summary goes to stderr.  Exit codes: 0 success / verdict pass,
1 verification verdict fail, 2 input error.

Each command returns (inputs_digest, results, summary_lines, verdict);
main alone builds the {"command", "inputs_digest", "results"[, "verdict"]}
report, writes both streams and picks the exit code.  verify-paper takes
the paper's nine checks, in order, from one generator and stops at the
first failure: the checks after it are neither run nor listed.

Commands:
  verify-paper    run the bundled counterexample pipeline end to end
  homology        homology group of a quandle at a degree
  pseudo-cycles   enumerate / count pseudo-cycles of a dataset file
  eval-cocycle    pair a cocycle with a chain (file or dataset subset)
  check-cocycle   re-verify a cocycle table by brute force
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .chains import Chain, project_quandle
from .cocycles import mochizuki_theta_p, pair
from .errors import QuandleMismatchError, QuandlehomError, SchemaError, decimal_int
from .homology import _cycle_coordinates, homology_group, is_null_homologous
from .pseudocycles import chain_of, dataset_from_json, pseudo_cycle_report, quandle_from_json

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_INPUT_ERROR = 2


def _bundled_path(name):
    return Path(__file__).with_name("data") / name


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} repeated in one object")
        obj[key] = value
    return obj


def _load_json(path):
    """Parse a JSON file, refusing a key repeated in one object, and hash its bytes."""
    raw = path.read_bytes()
    try:
        obj = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    # ValueError covers JSONDecodeError, UnicodeDecodeError, a repeated key
    # and an integer literal over the interpreter's digit limit
    except (ValueError, RecursionError) as exc:
        raise SchemaError("", f"{path}: not valid JSON ({exc})")
    return obj, hashlib.sha256(raw).hexdigest()


def _load_dataset(path):
    obj, digest = _load_json(path)
    return dataset_from_json(obj), digest


def _parse_quandle_spec(spec):
    kind, sep, param = spec.partition(":")
    if not sep:
        raise SchemaError("quandle", f"expected <kind>:<param>, got {spec!r}")
    if kind == "table":
        obj, digest = _load_json(Path(param))
        return quandle_from_json(obj), digest
    # text that is not decimal goes on as it is: quandle_from_json checks the
    # kind first, then the order
    order = decimal_int(param, "quandle.order")
    return quandle_from_json({"kind": kind, "order": param if order is None else order}), None


def _parse_cocycle_spec(spec):
    name, sep, param = spec.partition(":")
    if not sep or name != "mochizuki":
        raise SchemaError("cocycle", f"unknown cocycle spec {spec!r}")
    p = decimal_int(param, "cocycle")
    if p is None:
        raise SchemaError("cocycle", f"cocycle parameter {param!r} is not an integer")
    return mochizuki_theta_p(p)


def _paper_checks(ds_d, ds_dp):
    """Yield the paper's nine checks in order, as (name, result) pairs.

    theta_3, cbar1, cbar2 and both reports are computed before the first
    check, so a refused dataset exits 2 whatever the checks say.  Each check
    runs only when asked for and assumes that the ones before it passed."""
    theta = mochizuki_theta_p(3)
    # an edited dataset that lacks one of the paper's ids fails that chain's check
    ids = set(ds_dp.sorted_ids())
    cbar1 = chain_of(("t2", "t3"), ds_dp) if {"t2", "t3"} <= ids else None
    cbar2 = chain_of(("t5", "t6"), ds_dp) if {"t5", "t6"} <= ids else None
    report_d, report_dp = pseudo_cycle_report(ds_d), pseudo_cycle_report(ds_dp)
    q = ds_dp.quandle
    yield "cbar1_is_quandle_cycle", {
        "pass": cbar1 is not None and _cycle_coordinates(project_quandle(cbar1), q) is not None
    }
    yield "cbar2_is_minus_cbar1", {"pass": cbar2 is not None and cbar2 == -cbar1}
    # the verdict of the brute-force check mochizuki_theta_p ran on theta's
    # table: a table that fails it raises, and exits 2
    yield "theta_is_3cocycle", {"pass": True}
    # theta is a cocycle of the standard R3: over another quandle the
    # pairing means nothing, even where the colors are in range
    if q != theta.quandle:
        yield "theta_pairing_cbar1_nonzero", {"pass": False}
        return
    value = pair(theta, cbar1)
    yield "theta_pairing_cbar1_nonzero", {
        "pass": value != 0, "value": value, "modulus": theta.modulus,
    }
    yield "cbar1_not_null_homologous", {"pass": not is_null_homologous(project_quandle(cbar1), q)}
    count_d, count_dp = report_d.max_disjoint_count, report_dp.max_disjoint_count
    yield "d_max_disjoint_count_is_zero", {
        "pass": count_d == 0, "count": count_d, "distinct_count": report_d.distinct_count,
    }
    yield "dprime_max_disjoint_count_is_two", {
        "pass": count_dp == 2,
        "count": count_dp,
        "distinct_count": report_dp.distinct_count,
        "pseudo_cycles": [list(s) for s in report_dp.pseudo_cycles],
        "witness": [list(s) for s in report_dp.witness_packing],
    }
    yield "dprime_witness_is_t2t3_t5t6", {
        "pass": report_dp.witness_packing == (("t2", "t3"), ("t5", "t6"))
    }
    yield "counts_differ", {"pass": count_d != count_dp}


def cmd_verify_paper(args):
    ds_d, digest_d = _load_dataset(args.d)
    ds_dp, digest_dp = _load_dataset(args.dprime)
    checks, first_failure = [], None
    for name, result in _paper_checks(ds_d, ds_dp):
        checks.append({"name": name, **result})
        if not result["pass"]:
            first_failure = name
            break
    verdict = "pass" if first_failure is None else "fail"
    summary = [f"verify-paper: {c['name']}: {'ok' if c['pass'] else 'FAIL'}" for c in checks]
    summary.append(f"verify-paper: verdict {verdict}")
    results = {"checks": checks, "first_failure": first_failure}
    return {"d": digest_d, "dprime": digest_dp}, results, summary, verdict


def cmd_homology(args):
    degree = decimal_int(args.degree, "degree")
    if degree is None:
        raise SchemaError("degree", f"{args.degree!r} is not a decimal integer")
    quandle, digest = _parse_quandle_spec(args.quandle)
    group = homology_group(quandle, degree)
    results = {"quandle": args.quandle, "degree": degree, "homology": group.to_json_dict()}
    return digest, results, [f"H_{degree} = {group}"], None


# each pseudo-cycles mode: its option's help, report fields and stderr summary lines
PSEUDO_CYCLE_MODES = {
    "max": ("only the maximum disjoint count and witness",
            ("max_disjoint_count", "witness_packing"),
            ["max disjoint pseudo-cycles: {max_disjoint_count}"]),
    "list": ("only the list of pseudo-cycle subsets",
             ("pseudo_cycles", "distinct_count"),
             ["pseudo-cycles: {pseudo_cycles}"]),
    "all": ("full report (default)",
            ("pseudo_cycles", "distinct_count", "max_disjoint_count", "witness_packing"),
            ["pseudo-cycles: {pseudo_cycles}",
             "max disjoint: {max_disjoint_count} via {witness_packing}"]),
}


def cmd_pseudo_cycles(args):
    dataset, digest = _load_dataset(args.input)
    full = pseudo_cycle_report(dataset).to_json_dict()
    _, fields, summary = PSEUDO_CYCLE_MODES[args.mode]
    results = {k: full[k] for k in fields}
    return digest, results, [line.format(**full) for line in summary], None


def cmd_eval_cocycle(args):
    # without --subset, --input would pair the empty chain; with --chain,
    # the ids would be ignored
    if (args.subset is None) != (args.input is None):
        raise SchemaError("", "--subset is required with --input and not allowed with --chain")
    cocycle = _parse_cocycle_spec(args.cocycle)
    if args.chain:
        obj, digest = _load_json(args.chain)
        chain = Chain.from_json_dict(obj)
    else:
        dataset, digest = _load_dataset(args.input)
        if dataset.quandle != cocycle.quandle:
            raise QuandleMismatchError(
                f"dataset quandle (order {dataset.quandle.order}) does not match "
                f"cocycle quandle (order {cocycle.quandle.order})"
            )
        chain = chain_of(args.subset.split(","), dataset)
    value = pair(cocycle, chain)
    results = {
        "cocycle": args.cocycle,
        "modulus": cocycle.modulus,
        "chain": chain.to_json_dict(),
        "value": value,
    }
    return digest, results, [f"<{args.cocycle}, chain> = {value} (mod {cocycle.modulus})"], None


def cmd_check_cocycle(args):
    # the verdict is that of the brute-force check mochizuki_theta_p runs on
    # the table it builds: a table that fails it raises, and exits 2
    cocycle = _parse_cocycle_spec(args.cocycle)
    results = {
        "cocycle": args.cocycle,
        "order": cocycle.quandle.order,
        "modulus": cocycle.modulus,
        "is_cocycle": True,
        "witness": None,
    }
    if args.dump_table:
        results["values"] = cocycle.table()
    return None, results, [f"check-cocycle {args.cocycle}: pass"], "pass"


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors keep the input-error contract:
    one `error: <message>` line on stderr, without the usage block, and exit 2.
    Subparsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_INPUT_ERROR, f"error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="quandlehom",
        description="Exact quandle homology and pseudo-cycle analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-paper", help="run the bundled counterexample pipeline")
    p.add_argument("--d", type=Path, default=_bundled_path("yashiro_d.json"),
                   help="override the no-triple-point dataset file")
    p.add_argument("--dprime", type=Path, default=_bundled_path("yashiro_dprime.json"),
                   help="override the four-triple-point dataset file")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("homology", help="quandle homology group")
    p.add_argument("--quandle", required=True, help="dihedral:<n> or table:<path>")
    p.add_argument("--degree", required=True)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("pseudo-cycles", help="search a triple-point dataset")
    p.add_argument("--input", type=Path, required=True, help="dataset JSON file")
    mode = p.add_mutually_exclusive_group()
    for name, (text, _, _) in PSEUDO_CYCLE_MODES.items():
        mode.add_argument(f"--{name}", dest="mode", action="store_const", const=name, help=text)
    p.set_defaults(func=cmd_pseudo_cycles, mode="all")

    p = sub.add_parser("eval-cocycle", help="pair a cocycle with a 3-chain")
    p.add_argument("--cocycle", required=True, help="mochizuki:<p>")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--chain", type=Path, help="chain JSON file")
    src.add_argument("--input", type=Path, help="dataset JSON file (with --subset)")
    p.add_argument("--subset", help="comma-separated triple point ids (with --input)")
    p.set_defaults(func=cmd_eval_cocycle)

    p = sub.add_parser("check-cocycle", help="brute-force cocycle verification")
    p.add_argument("--cocycle", required=True, help="mochizuki:<p>")
    p.add_argument("--dump-table", action="store_true", help="include the value table")
    p.set_defaults(func=cmd_check_cocycle)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        digest, results, summary, verdict = args.func(args)
    except (QuandlehomError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = {"command": args.command, "inputs_digest": digest, "results": results}
    if verdict is not None:
        report["verdict"] = verdict
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    for line in summary:
        print(line, file=sys.stderr)
    return EXIT_VERDICT_FAIL if verdict == "fail" else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
