"""Command-line interface.

JSON reports go to stdout (byte-stable for identical inputs); a short
human summary goes to stderr.  Exit codes: 0 success / verdict pass,
1 verification verdict fail, 2 input error.

Each command returns (inputs_digest, results, summary_lines, verdict);
main alone builds the {"command", "inputs_digest", "results"[, "verdict"]}
report, writes both streams and picks the exit code.

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

from .chains import Chain, boundary_quandle, project_quandle
from .cocycles import is_quandle_3cocycle, mochizuki_theta_p, pair
from .errors import QuandlehomError, SchemaError
from .homology import homology_group, is_null_homologous
from .pseudocycles import (
    DEFAULT_POINT_CAP,
    chain_of,
    dataset_from_json,
    pseudo_cycle_report,
    quandle_from_json,
)

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_INPUT_ERROR = 2


def _bundled_path(name):
    return Path(__file__).with_name("data") / name


def _load_json(path):
    """Parse a JSON file and hash its bytes."""
    raw = path.read_bytes()
    try:
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("", f"{path}: not valid JSON ({exc})")


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
    ds_d, digest_d = _load_dataset(args.d)
    ds_dp, digest_dp = _load_dataset(args.dprime)

    theta = mochizuki_theta_p(3)
    # an edited dataset that lacks one of the paper's ids fails that chain's check
    ids = set(ds_dp.sorted_ids())
    cbar1 = chain_of({"t2", "t3"}, ds_dp) if {"t2", "t3"} <= ids else None
    cbar2 = chain_of({"t5", "t6"}, ds_dp) if {"t5", "t6"} <= ids else None
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
        lambda: {
            "pass": cbar1 is not None
            and boundary_quandle(project_quandle(cbar1), ds_dp.quandle).is_zero()
        },
    )
    run("cbar2_is_minus_cbar1", lambda: {"pass": cbar2 is not None and cbar2 == -cbar1})
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
    summary = [f"verify-paper: {c['name']}: {'ok' if c['pass'] else 'FAIL'}" for c in checks]
    summary.append(f"verify-paper: verdict {verdict}")
    results = {"checks": checks, "first_failure": first_failure}
    return {"d": digest_d, "dprime": digest_dp}, results, summary, verdict


def cmd_homology(args):
    quandle, digest = _parse_quandle_spec(args.quandle)
    group = homology_group(quandle, args.degree)
    results = {"quandle": args.quandle, "degree": args.degree, "homology": group.to_json_dict()}
    return digest, results, [f"H_{args.degree} = {group}"], None


# the report fields and the stderr summary lines of each pseudo-cycles mode
PSEUDO_CYCLE_MODES = {
    "max": (
        ("max_disjoint_count", "witness_packing"),
        ["max disjoint pseudo-cycles: {max_disjoint_count}"],
    ),
    "list": (("pseudo_cycles", "distinct_count"), ["pseudo-cycles: {pseudo_cycles}"]),
    "all": (("pseudo_cycles", "distinct_count", "max_disjoint_count", "witness_packing"), [
        "pseudo-cycles: {pseudo_cycles}",
        "max disjoint: {max_disjoint_count} via {witness_packing}",
    ]),
}


def cmd_pseudo_cycles(args):
    dataset, digest = _load_dataset(args.input)
    full = pseudo_cycle_report(dataset, cap=args.cap).to_json_dict()
    fields, summary = PSEUDO_CYCLE_MODES[args.mode]
    results = {k: full[k] for k in fields}
    return digest, results, [line.format(**full) for line in summary], None


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
    results = {
        "cocycle": args.cocycle,
        "modulus": cocycle.modulus,
        "chain": chain.to_json_dict(),
        "value": value,
    }
    return digest, results, [f"<{args.cocycle}, chain> = {value} (mod {cocycle.modulus})"], None


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
    verdict = "pass" if check.ok else "fail"
    return None, results, [f"check-cocycle {args.cocycle}: {verdict}"], verdict


def build_parser():
    parser = argparse.ArgumentParser(
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
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("pseudo-cycles", help="search a triple-point dataset")
    p.add_argument("--input", type=Path, required=True, help="dataset JSON file")
    mode = p.add_mutually_exclusive_group()
    for name, text in (
        ("max", "only the maximum disjoint count and witness"),
        ("list", "only the list of pseudo-cycle subsets"),
        ("all", "full report (default)"),
    ):
        mode.add_argument(f"--{name}", dest="mode", action="store_const", const=name, help=text)
    p.add_argument("--cap", type=int, default=DEFAULT_POINT_CAP,
                   help="triple-point enumeration cap")
    p.set_defaults(func=cmd_pseudo_cycles, mode="all")

    p = sub.add_parser("eval-cocycle", help="pair a cocycle with a 3-chain")
    p.add_argument("--cocycle", required=True, help="mochizuki:<p>")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--chain", type=Path, help="chain JSON file")
    src.add_argument("--input", type=Path, help="dataset JSON file (with --subset)")
    p.add_argument("--subset", default="", help="comma-separated triple point ids")
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
