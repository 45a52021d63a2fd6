"""Colored triple-point datasets and pseudo-cycle search.

A subset of triple points is a pseudo-cycle when its signed color chain is
a nonzero cycle of the quandle complex that does not bound.  Enumeration
is exhaustive over subsets (bitmask order, capped), with null-homology
verdicts memoized by the sign-normalized chain; the maximum disjoint
family is found by depth-first search.

Each triple point is validated once: TriplePoint checks its fields, the
dataset checks unique ids and color range, and dataset_from_json checks the
JSON shape and adds field paths to their errors.  Later code trusts them.

The packing DFS picks members in lexicographic order (recursion depth = the
family size) and cuts a branch when len(chosen) + min(candidates left, free
points // smallest candidate size) <= len(best): an exact bound, so the first
maximum family found is still the lexicographically least.
"""

from collections import namedtuple

from .chains import Chain, boundary_rack, project_quandle
from .errors import (
    EnumerationCapError, QuandleAxiomError, SchemaError, UnknownIdError, expect_keys
)
from .homology import is_null_homologous
from .quandle import Quandle

# the default enumeration cap and its ceiling: 2^20 - 1 subsets
DEFAULT_POINT_CAP = 20


class TriplePoint(namedtuple("TriplePoint", "id sign colors")):
    """One signed, colored triple point: sign is +1 or -1 and colors are
    the three sheet colors (p, q, r) as quandle elements."""

    __slots__ = ()

    def __new__(cls, id, sign, colors):
        colors = tuple(colors)
        if not isinstance(id, str) or not id:
            raise SchemaError("id", "must be a nonempty string")
        if type(sign) is not int or sign not in (1, -1):
            raise SchemaError("sign", "must be exactly 1 or -1")
        if len(colors) != 3:
            raise SchemaError("colors", "must be a list of 3 integers")
        for j, c in enumerate(colors):
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise SchemaError(f"colors[{j}]", "must be a nonnegative integer")
        return super().__new__(cls, id, sign, colors)


class TriplePointDataset(namedtuple("TriplePointDataset", "quandle points")):
    """A fixed quandle plus a list of triple points with unique ids."""

    # no __slots__ = (): the instance keeps its _by_id index in __dict__

    def __new__(cls, quandle, points):
        self = super().__new__(cls, quandle, tuple(points))
        order = quandle.order
        by_id = self._by_id = {}
        for i, pt in enumerate(self.points):
            if pt.id in by_id:
                raise SchemaError(f"points[{i}].id", f"duplicate id {pt.id!r}")
            by_id[pt.id] = pt
            for j, c in enumerate(pt.colors):
                if c >= order:
                    raise SchemaError(
                        f"points[{i}].colors[{j}]", f"must be an integer in 0..{order - 1}"
                    )
        return self

    def point(self, point_id):
        try:
            return self._by_id[point_id]
        except KeyError:
            raise UnknownIdError(f"no triple point with id {point_id!r}") from None

    def sorted_ids(self):
        return tuple(sorted(pt.id for pt in self.points))

    def to_json_dict(self):
        return {
            "quandle": {"kind": "table", "table": [list(r) for r in self.quandle.table]},
            "triple_points": [
                {"id": pt.id, "sign": pt.sign, "colors": list(pt.colors)}
                for pt in self.points
            ],
        }


def quandle_from_json(obj, path="quandle"):
    """Parse {"kind": "dihedral", "order": n} or {"kind": "table", ...}."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "must be an object")
    if "kind" not in obj:
        raise SchemaError(f"{path}.kind", "missing field")
    kind = obj["kind"]
    if kind == "dihedral":
        expect_keys(obj, {"kind", "order"}, ("order",), path)
        field, build = "order", Quandle.dihedral
    elif kind == "table":
        expect_keys(obj, {"kind", "table"}, ("table",), path)
        table = obj["table"]
        if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
            raise SchemaError(f"{path}.table", "must be a list of rows")
        field, build = "table", Quandle.from_table
    else:
        raise SchemaError(f"{path}.kind", f"unknown quandle kind {kind!r}")
    try:
        return build(obj[field])
    except (ValueError, QuandleAxiomError) as exc:
        raise SchemaError(f"{path}.{field}", str(exc))


def dataset_from_json(obj):
    """Strictly validate and build a dataset from its canonical JSON form.

    Unknown fields are rejected; every error names the offending field
    path, e.g. "triple_points[0].sign".
    """
    if not isinstance(obj, dict):
        raise SchemaError("", "dataset document must be a JSON object")
    expect_keys(obj, {"quandle", "triple_points"}, ("quandle", "triple_points"), "")
    quandle = quandle_from_json(obj["quandle"])
    tps = obj["triple_points"]
    if not isinstance(tps, list):
        raise SchemaError("triple_points", "must be a list")
    points = []
    for i, entry in enumerate(tps):
        path = f"triple_points[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "must be an object")
        expect_keys(entry, {"id", "sign", "colors"}, ("id", "sign", "colors"), path)
        if not isinstance(entry["colors"], list):
            raise SchemaError(f"{path}.colors", "must be a list of 3 integers")
        try:
            points.append(TriplePoint(entry["id"], entry["sign"], entry["colors"]))
        except SchemaError as exc:
            raise SchemaError(f"{path}.{exc.path}", exc.message) from None
    try:
        return TriplePointDataset(quandle=quandle, points=points)
    except SchemaError as exc:
        # TriplePointDataset reports "points[i]...", which the JSON document
        # calls "triple_points[i]...": the two names must stay in step
        raise SchemaError("triple_points" + exc.path[len("points"):], exc.message) from None


def chain_of(subset, dataset):
    """The signed chain of a subset of triple points: sum of sign * colors.

    Colliding tuples combine; the subset is treated as a set of ids.
    """
    points = [dataset.point(pid) for pid in set(subset)]
    return Chain._from_checked(3, [(pt.colors, pt.sign) for pt in points])


def _pseudo_cycle_test(chain, quandle, is_null):
    # the pseudo-cycle predicate on a subset's chain; `is_null` decides
    # null-homology so that enumeration can memoize the verdicts
    chain = project_quandle(chain)
    return (
        bool(chain)
        and not project_quandle(boundary_rack(chain, quandle))
        and not is_null(chain, quandle)
    )


def is_pseudo_cycle(subset, dataset):
    """True iff the subset's chain, viewed in the quandle complex, is a
    cycle that is not homologous to zero.

    Degenerate color triples are legal in datasets; they represent zero in
    the quandle complex, so the chain is projected before testing.  The
    zero chain is a cycle but bounds, hence is never a pseudo-cycle.
    """
    return _pseudo_cycle_test(
        chain_of(subset, dataset), dataset.quandle, is_null_homologous
    )


def enumerate_pseudo_cycles(dataset, cap=DEFAULT_POINT_CAP):
    """All nonempty pseudo-cycle subsets, in ascending bitmask order over
    the id-sorted point list.  Subsets are returned as sorted id tuples.
    """
    if cap > DEFAULT_POINT_CAP:
        raise EnumerationCapError(
            f"enumeration cap {cap} is over the ceiling DEFAULT_POINT_CAP = {DEFAULT_POINT_CAP}"
        )
    ids = dataset.sorted_ids()
    k = len(ids)
    if k > cap:
        raise EnumerationCapError(
            f"dataset has {k} triple points, enumeration cap is {cap}"
        )
    null_verdicts = {}

    def is_null(chain, quandle):
        # sign-normalize so c and -c share one memo entry: negate when the
        # lexicographically first term has a negative coefficient
        items = chain.items()
        key = tuple(items if items[0][1] > 0 else [(t, -c) for t, c in items])
        if key not in null_verdicts:
            null_verdicts[key] = is_null_homologous(chain, quandle)
        return null_verdicts[key]

    found = []
    for mask in range(1, 1 << k):
        subset = tuple(ids[i] for i in range(k) if mask >> i & 1)
        if _pseudo_cycle_test(chain_of(subset, dataset), dataset.quandle, is_null):
            found.append(subset)
    return found


PackingResult = namedtuple("PackingResult", "count witness")


def _pack_disjoint(ids, subsets):
    # DFS that picks each next family member from the later candidates in
    # lexicographic order, so the first maximum family found is the least
    # one; the bound in the module docstring cuts branches that cannot win
    index = {pid: i for i, pid in enumerate(ids)}
    candidates = sorted(subsets)
    masks = [sum(1 << index[pid] for pid in subset) for subset in candidates]
    smallest = min(map(len, candidates), default=1)

    best = []
    chosen = []

    def dfs(start, used, free):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen.copy()
        for i in range(start, len(candidates)):
            if len(chosen) + min(len(candidates) - i, free // smallest) <= len(best):
                return
            if not masks[i] & used:
                chosen.append(candidates[i])
                dfs(i + 1, used | masks[i], free - len(candidates[i]))
                chosen.pop()

    dfs(0, 0, len(ids))
    return PackingResult(count=len(best), witness=tuple(best))


def max_disjoint_packing(dataset, cap=DEFAULT_POINT_CAP):
    """Maximum cardinality of a family of pairwise disjoint pseudo-cycles,
    with the lexicographically least maximal family as witness.

    Covering every triple point is not required; the empty family is the
    witness when no pseudo-cycle exists.
    """
    return _pack_disjoint(
        dataset.sorted_ids(), enumerate_pseudo_cycles(dataset, cap=cap)
    )


class PseudoCycleReport(namedtuple(
    "PseudoCycleReport", "pseudo_cycles distinct_count max_disjoint_count witness_packing"
)):
    """Full search output: every pseudo-cycle subset plus the two counts
    (distinct subsets, and the maximum disjoint family with witness)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.distinct_count != len(self.pseudo_cycles):
            raise ValueError("distinct_count must equal the number of pseudo-cycles")
        if self.max_disjoint_count != len(self.witness_packing):
            raise ValueError("max_disjoint_count must equal the witness size")
        listed = set(self.pseudo_cycles)
        used = set()
        for subset in self.witness_packing:
            if subset not in listed:
                raise ValueError(f"witness subset {subset!r} is not a pseudo-cycle")
            if used & set(subset):
                raise ValueError("witness subsets are not pairwise disjoint")
            used |= set(subset)
        return self

    def to_json_dict(self):
        return {
            "pseudo_cycles": [list(s) for s in self.pseudo_cycles],
            "distinct_count": self.distinct_count,
            "max_disjoint_count": self.max_disjoint_count,
            "witness_packing": [list(s) for s in self.witness_packing],
        }


def pseudo_cycle_report(dataset, cap=DEFAULT_POINT_CAP):
    subsets = enumerate_pseudo_cycles(dataset, cap=cap)
    packing = _pack_disjoint(dataset.sorted_ids(), subsets)
    return PseudoCycleReport(
        pseudo_cycles=tuple(subsets),
        distinct_count=len(subsets),
        max_disjoint_count=packing.count,
        witness_packing=packing.witness,
    )
