"""Command-line interface.

JSON reports go to stdout (byte-stable for identical inputs); a short
human summary goes to stderr.  Exit codes: 0 success / verdict pass,
1 verification verdict fail, 2 input error.

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
from importlib import resources

from .chains import Chain, boundary_quandle, project_quandle
from .cocycles import is_quandle_3cocycle, mochizuki_theta_p, pair
from .errors import QuandlehomError, SchemaError
from .homology import homology_group, is_null_homologous
from .pseudocycles import (
    chain_of,
    dataset_from_json,
    pseudo_cycle_report,
    quandle_from_json,
)

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_INPUT_ERROR = 2


def _bundled_path(name):
    return resources.files("quandlehom.data").joinpath(name)


def _read_bytes(path):
    if hasattr(path, "read_bytes"):
        return path.read_bytes()
    with open(path, "rb") as fh:
        return fh.read()


def _load_json(path):
    raw = _read_bytes(path)
    try:
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("", f"{path}: not valid JSON ({exc})")


def _load_dataset(path):
    obj, digest = _load_json(path)
    return dataset_from_json(obj), digest


def _emit(report, summary_lines):
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    for line in summary_lines:
        print(line, file=sys.stderr)


def _parse_quandle_spec(spec):
    kind, sep, param = spec.partition(":")
    if not sep:
        raise SchemaError("quandle", f"expected <kind>:<param>, got {spec!r}")
    if kind == "table":
        obj, digest = _load_json(param)
        return quandle_from_json(obj), digest
    try:
        order = int(param, 10)
    except ValueError:
        order = param  # quandle_from_json checks the kind first, then the order
    return quandle_from_json({"kind": kind, "order": order}), None


def _parse_cocycle_spec(spec):
    name, sep, param = spec.partition(":")
    if not sep or name != "mochizuki":
        raise SchemaError("cocycle", f"unknown cocycle spec {spec!r}")
    try:
        p = int(param, 10)
    except ValueError:
        raise SchemaError("cocycle", f"cocycle parameter {param!r} is not an integer")
    return mochizuki_theta_p(p)


def cmd_verify_paper(args):
    d_path = args.d if args.d else _bundled_path("yashiro_d.json")
    dprime_path = args.dprime if args.dprime else _bundled_path("yashiro_dprime.json")
    ds_d, digest_d = _load_dataset(d_path)
    ds_dp, digest_dp = _load_dataset(dprime_path)

    theta = mochizuki_theta_p(3)
    cbar1 = chain_of({"t2", "t3"}, ds_dp)
    cbar2 = chain_of({"t5", "t6"}, ds_dp)
    report_d = pseudo_cycle_report(ds_d)
    report_dp = pseudo_cycle_report(ds_dp)

    checks = []
    first_failure = None

    def run(name, fn):
        nonlocal first_failure
        if first_failure is not None:
            return
        entry = {"name": name}
        entry.update(fn())
        checks.append(entry)
        if not entry["pass"]:
            first_failure = name

    run(
        "cbar1_is_quandle_cycle",
        lambda: {"pass": boundary_quandle(project_quandle(cbar1), ds_dp.quandle).is_zero()},
    )
    run("cbar2_is_minus_cbar1", lambda: {"pass": cbar2 == -cbar1})
    run("theta_is_3cocycle", lambda: {"pass": bool(is_quandle_3cocycle(theta))})

    def pairing_check():
        value = pair(theta, cbar1)
        return {"pass": value != 0, "value": value, "modulus": theta.modulus}

    run("theta_pairing_cbar1_nonzero", pairing_check)
    run(
        "cbar1_not_null_homologous",
        lambda: {"pass": not is_null_homologous(project_quandle(cbar1), ds_dp.quandle)},
    )
    run(
        "d_max_disjoint_count_is_zero",
        lambda: {
            "pass": report_d.max_disjoint_count == 0,
            "count": report_d.max_disjoint_count,
            "distinct_count": report_d.distinct_count,
        },
    )
    run(
        "dprime_max_disjoint_count_is_two",
        lambda: {
            "pass": report_dp.max_disjoint_count == 2,
            "count": report_dp.max_disjoint_count,
            "distinct_count": report_dp.distinct_count,
            "pseudo_cycles": [list(s) for s in report_dp.pseudo_cycles],
            "witness": [list(s) for s in report_dp.witness_packing],
        },
    )
    run(
        "dprime_witness_is_t2t3_t5t6",
        lambda: {"pass": report_dp.witness_packing == (("t2", "t3"), ("t5", "t6"))},
    )
    run(
        "counts_differ",
        lambda: {"pass": report_d.max_disjoint_count != report_dp.max_disjoint_count},
    )

    verdict = "pass" if first_failure is None else "fail"
    report = {
        "command": "verify-paper",
        "inputs_digest": {"d": digest_d, "dprime": digest_dp},
        "results": {"checks": checks, "first_failure": first_failure},
        "verdict": verdict,
    }
    summary = [f"verify-paper: {c['name']}: {'ok' if c['pass'] else 'FAIL'}" for c in checks]
    summary.append(f"verify-paper: verdict {verdict}")
    _emit(report, summary)
    return EXIT_OK if verdict == "pass" else EXIT_VERDICT_FAIL


def cmd_homology(args):
    quandle, digest = _parse_quandle_spec(args.quandle)
    group = homology_group(quandle, args.degree)
    report = {
        "command": "homology",
        "inputs_digest": digest,
        "results": {
            "quandle": args.quandle,
            "degree": args.degree,
            "homology": group.to_json_dict(),
        },
    }
    _emit(report, [f"H_{args.degree} = {group}"])
    return EXIT_OK


def cmd_pseudo_cycles(args):
    dataset, digest = _load_dataset(args.input)
    report_obj = pseudo_cycle_report(dataset, cap=args.cap)
    full = report_obj.to_json_dict()
    if args.mode == "max":
        results = {
            "max_disjoint_count": full["max_disjoint_count"],
            "witness_packing": full["witness_packing"],
        }
        summary = [f"max disjoint pseudo-cycles: {full['max_disjoint_count']}"]
    elif args.mode == "list":
        results = {
            "pseudo_cycles": full["pseudo_cycles"],
            "distinct_count": full["distinct_count"],
        }
        summary = [f"pseudo-cycles: {full['pseudo_cycles']}"]
    else:
        results = full
        summary = [
            f"pseudo-cycles: {full['pseudo_cycles']}",
            f"max disjoint: {full['max_disjoint_count']} via {full['witness_packing']}",
        ]
    report = {
        "command": "pseudo-cycles",
        "inputs_digest": digest,
        "results": results,
    }
    _emit(report, summary)
    return EXIT_OK


def cmd_eval_cocycle(args):
    cocycle = _parse_cocycle_spec(args.cocycle)
    if args.chain:
        obj, digest = _load_json(args.chain)
        chain = Chain.from_json_dict(obj)
    else:
        dataset, digest = _load_dataset(args.input)
        if dataset.quandle != cocycle.quandle:
            raise QuandlehomError(
                f"dataset quandle (order {dataset.quandle.order}) does not match "
                f"cocycle quandle (order {cocycle.quandle.order})"
            )
        subset = [s for s in args.subset.split(",") if s]
        chain = chain_of(subset, dataset)
    value = pair(cocycle, chain)
    report = {
        "command": "eval-cocycle",
        "inputs_digest": digest,
        "results": {
            "cocycle": args.cocycle,
            "modulus": cocycle.modulus,
            "chain": chain.to_json_dict(),
            "value": value,
        },
    }
    _emit(report, [f"<{args.cocycle}, chain> = {value} (mod {cocycle.modulus})"])
    return EXIT_OK


def cmd_check_cocycle(args):
    cocycle = _parse_cocycle_spec(args.cocycle)
    check = is_quandle_3cocycle(cocycle)
    results = {
        "cocycle": args.cocycle,
        "order": cocycle.quandle.order,
        "modulus": cocycle.modulus,
        "is_cocycle": check.ok,
        "witness": list(check.witness) if check.witness else None,
    }
    if args.dump_table:
        results["values"] = cocycle.table()
    report = {
        "command": "check-cocycle",
        "inputs_digest": None,
        "results": results,
        "verdict": "pass" if check.ok else "fail",
    }
    _emit(report, [f"check-cocycle {args.cocycle}: {report['verdict']}"])
    return EXIT_OK if check.ok else EXIT_VERDICT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quandlehom",
        description="Exact quandle homology and pseudo-cycle analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-paper", help="run the bundled counterexample pipeline")
    p.add_argument("--d", help="override the no-triple-point dataset file")
    p.add_argument("--dprime", help="override the four-triple-point dataset file")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("homology", help="quandle homology group")
    p.add_argument("--quandle", required=True, help="dihedral:<n> or table:<path>")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("pseudo-cycles", help="search a triple-point dataset")
    p.add_argument("--input", required=True, help="dataset JSON file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--max", dest="mode", action="store_const", const="max",
        help="only the maximum disjoint count and witness",
    )
    mode.add_argument(
        "--list", dest="mode", action="store_const", const="list",
        help="only the list of pseudo-cycle subsets",
    )
    mode.add_argument(
        "--all", dest="mode", action="store_const", const="all",
        help="full report (default)",
    )
    p.add_argument("--cap", type=int, default=20, help="triple-point enumeration cap")
    p.set_defaults(func=cmd_pseudo_cycles, mode="all")

    p = sub.add_parser("eval-cocycle", help="pair a cocycle with a 3-chain")
    p.add_argument("--cocycle", required=True, help="mochizuki:<p>")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--chain", help="chain JSON file")
    src.add_argument("--input", help="dataset JSON file (with --subset)")
    p.add_argument("--subset", default="", help="comma-separated triple point ids")
    p.set_defaults(func=cmd_eval_cocycle)

    p = sub.add_parser("check-cocycle", help="brute-force cocycle verification")
    p.add_argument("--cocycle", required=True, help="mochizuki:<p>")
    p.add_argument("--dump-table", action="store_true", help="include the value table")
    p.set_defaults(func=cmd_check_cocycle)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QuandlehomError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
