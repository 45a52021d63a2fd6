"""Colored triple-point datasets and pseudo-cycle search.

A subset of triple points is a pseudo-cycle when its signed color chain is
a nonzero cycle of the quandle complex that does not bound.  Enumeration
is exhaustive over subsets (bitmask order, capped), with null-homology
verdicts memoized by the sign-normalized coordinate vector; one pass over
the pseudo-cycles finds the maximum disjoint family.  Enumeration reads
each point's (colors, sign) term once, in id order, and drops a degenerate
one there, keeping its bit; degenerate tuples span a subcomplex, so the
chain each subset builds from its terms is already projected.

The walk splits the id-sorted points into the low h = k // 2 and the rest,
and lists, once per half, the terms of each of its 2^h or 2^(k-h) masks,
each list one term longer than a list before it.  It walks the high masks
in the outer loop and the low ones in the inner loop, so the masks
hi << h | lo come in ascending order, and a subset's chain is built from
its low list followed by its high one: its terms in bit order.  It builds
a subset's id tuple only to list it.  chain_of, which looks the ids up,
serves the CLI and is_pseudo_cycle, which projects its result.

A subset's projected chain goes through homology's one cycle test, the
one is_null_homologous runs: d_3, kept in the quandle's store, must map
its coordinate vector to zero, and no boundary chain is built per subset.
No subset is checked again: the test trusts the tuples, which the dataset
checked as points, and only is_null_homologous, run once per new verdict,
checks its chain's tuples.  The search binds the test once, before its
tables, which checks the limits of homology_group and fetches d_3 then,
and only if some point is non-degenerate: exactly when some subset's
projected chain is nonzero.  So a dataset whose d_4 is over the limits is
refused before any subset is visited if it has a non-degenerate point, and
is reported, with no pseudo-cycle, if it has none.

Each triple point is validated once: TriplePoint checks its fields, the
dataset checks unique ids and color range, and dataset_from_json checks the
JSON shape and adds field paths to their errors.  Later code trusts them.

The packing takes members in one pass over the candidates in
lexicographic order, up to the target size.  The target is the maximum
packing of the inclusion-minimal pseudo-cycles, which is the maximum over
all of them: each member of a disjoint family contains a minimal
pseudo-cycle, and swapping it in keeps the family disjoint.  So
bound(rest), the maximum packing of the minimal pseudo-cycles inside the
points rest (memoized per call), is exact.  A candidate is taken iff it
is disjoint from the members taken and bound(rest) of the points it
leaves free reaches the members still needed, i.e. iff some maximum
family extends the members taken with it; a candidate that fails never
passes later, as the free points only shrink.  So each member taken is
the next one of the lexicographically least maximum family.  The cheap
test rest.bit_count() // smallest candidate size runs before bound(rest).
"""

from collections import namedtuple
from itertools import product

from .chains import Chain, is_degenerate, project_quandle
from .errors import (
    EnumerationCapError, QuandleAxiomError, SchemaError, UnknownIdError, _CheckedMake, expect_keys,
)
from .homology import _cycle_test, is_null_homologous
from .quandle import Quandle

# the enumeration cap: 2^20 - 1 subsets
DEFAULT_POINT_CAP = 20


class TriplePoint(_CheckedMake, namedtuple("TriplePoint", "id sign colors")):
    """One signed, colored triple point: sign is +1 or -1 and colors are
    the three sheet colors (p, q, r) as quandle elements."""

    __slots__ = ()

    def __new__(cls, id, sign, colors):
        if not isinstance(id, str) or not id:
            raise SchemaError("id", "must be a nonempty string")
        if type(sign) is not int or sign not in (1, -1):
            raise SchemaError("sign", "must be exactly 1 or -1")
        if not isinstance(colors, (list, tuple)) or len(colors) != 3:
            raise SchemaError("colors", "must be a list of 3 integers")
        colors = tuple(colors)
        for j, c in enumerate(colors):
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise SchemaError(f"colors[{j}]", "must be a nonnegative integer")
        return super().__new__(cls, id, sign, colors)


class TriplePointDataset(_CheckedMake, namedtuple("TriplePointDataset", "quandle points")):
    """A fixed quandle plus a list of triple points with unique ids."""

    # no __slots__ = (): the instance keeps its _by_id index in __dict__

    def __new__(cls, quandle, points):
        if not isinstance(quandle, Quandle):
            raise SchemaError("quandle", "must be a Quandle")
        self = super().__new__(cls, quandle, tuple(points))
        order = quandle.order
        by_id = self._by_id = {}
        for i, pt in enumerate(self.points):
            if not isinstance(pt, TriplePoint):
                raise SchemaError(f"points[{i}]", "must be a TriplePoint")
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


def quandle_from_json(obj):
    """Parse {"kind": "dihedral", "order": n} or {"kind": "table", ...}."""
    if not isinstance(obj, dict):
        raise SchemaError("quandle", "must be an object")
    if "kind" not in obj:
        raise SchemaError("quandle.kind", "missing field")
    kind = obj["kind"]
    if kind == "dihedral":
        expect_keys(obj, {"kind", "order"}, ("order",), "quandle")
        field, build = "order", Quandle.dihedral
    elif kind == "table":
        expect_keys(obj, {"kind", "table"}, ("table",), "quandle")
        table = obj["table"]
        if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
            raise SchemaError("quandle.table", "must be a list of rows")
        field, build = "table", Quandle.from_table
    else:
        raise SchemaError("quandle.kind", f"unknown quandle kind {kind!r}")
    try:
        return build(obj[field])
    except (ValueError, QuandleAxiomError) as exc:
        raise SchemaError(f"quandle.{field}", str(exc))


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

    Colliding tuples combine; the ids are looked up once each, in the order given.
    """
    if isinstance(subset, str):
        raise SchemaError("subset", "must be a collection of ids, not a string")
    points = [dataset.point(pid) for pid in dict.fromkeys(subset)]
    return Chain._from_checked(3, [(pt.colors, pt.sign) for pt in points])


def is_pseudo_cycle(subset, dataset):
    """True iff the subset's chain, viewed in the quandle complex, is a
    cycle that is not homologous to zero.

    Degenerate color triples are legal in datasets; they represent zero in
    the quandle complex, so the chain is projected once, before testing.
    The zero chain is a cycle but bounds, hence is never a pseudo-cycle.  A
    nonzero projected chain over a quandle whose d_4 is over the limits of
    homology_group raises ResourceLimitError, cycle or not.
    """
    chain, quandle = project_quandle(chain_of(subset, dataset)), dataset.quandle
    return (bool(chain) and _cycle_test(quandle, 3)(chain) is not None
            and not is_null_homologous(chain, quandle))


def _half_table(terms):
    # the term lists of every mask over `terms`, indexed by mask: the masks
    # that hold the last point follow those that do not, with its term
    # appended unless it is degenerate (None), so each list is in bit order
    table = [[]]
    for term in terms:
        table += table if term is None else [pairs + [term] for pairs in table]
    return table


def enumerate_pseudo_cycles(dataset):
    """All nonempty pseudo-cycle subsets, in ascending bitmask order over
    the id-sorted point list.  Subsets are returned as sorted id tuples.
    """
    ids = dataset.sorted_ids()
    k = len(ids)
    if k > DEFAULT_POINT_CAP:
        raise EnumerationCapError(
            f"dataset has {k} triple points, enumeration cap is "
            f"DEFAULT_POINT_CAP = {DEFAULT_POINT_CAP}"
        )
    # the projection: each point's term, None for a degenerate one
    terms = [None if is_degenerate(pt.colors) else (pt.colors, pt.sign)
             for pt in map(dataset.point, ids)]
    if not any(terms):
        return []
    quandle = dataset.quandle
    cycle_test = _cycle_test(quandle, 3)
    h = k // 2
    low, high = _half_table(terms[:h]), _half_table(terms[h:])
    # null-homology verdicts, keyed by the coordinate vector negated to a
    # positive first nonzero entry, so that c and -c share one entry
    verdicts = {}
    found = []
    walk = enumerate(product(high, low))  # mask hi << h | lo, ascending
    next(walk)  # the empty subset
    for mask, (high_pairs, low_pairs) in walk:
        chain = Chain._from_checked(3, low_pairs + high_pairs)
        if not chain or (vec := cycle_test(chain)) is None:
            continue
        key = tuple(vec) if next(filter(None, vec)) > 0 else tuple(-e for e in vec)
        if key not in verdicts:
            verdicts[key] = is_null_homologous(chain, quandle)
        if not verdicts[key]:
            found.append(tuple(pid for i, pid in enumerate(ids) if mask >> i & 1))
    return found


PackingResult = namedtuple("PackingResult", "count witness")


def _packing_bound(masks, smallest):
    # bound(free): the maximum packing of the inclusion-minimal masks inside
    # `free`, memoized on the union of those masks.  It branches on the
    # lowest point of that union: covered by each minimal mask that holds
    # it, else left out; it stops early once a branch packs union size //
    # smallest.  The minimal masks: by size, each kept unless it contains a
    # kept one
    minimal = []
    for m in sorted(masks, key=int.bit_count):
        if all(k & m != k for k in minimal):
            minimal.append(m)
    memo = {}

    def bound(free):
        inside = [m for m in minimal if not m & ~free]
        cover = 0
        for m in inside:
            cover |= m
        if cover not in memo:
            low, best, most = cover & -cover, 0, cover.bit_count() // smallest
            for gain, m in [(1, m) for m in inside if m & low] + [(0, low)]:
                if best == most:
                    break
                best = max(best, gain + bound(cover & ~m))
            memo[cover] = best
        return memo[cover]

    return bound


def _pack_disjoint(ids, subsets):
    # one pass over the candidates in lexicographic order, stopping at the
    # target; the target and the test are those of the module docstring
    index = {pid: i for i, pid in enumerate(ids)}
    candidates = sorted(subsets)
    masks = [sum(1 << index[pid] for pid in subset) for subset in candidates]
    smallest = min(map(len, candidates), default=1)
    bound = _packing_bound(masks, smallest)
    free = (1 << len(ids)) - 1
    target = bound(free)
    chosen = []
    for subset, mask in zip(candidates, masks):
        if len(chosen) == target:
            break
        rest, need = free & ~mask, target - len(chosen) - 1
        if not mask & ~free and rest.bit_count() // smallest >= need and bound(rest) >= need:
            chosen.append(subset)
            free = rest
    return PackingResult(count=len(chosen), witness=tuple(chosen))


def max_disjoint_packing(dataset):
    """Maximum cardinality of a family of pairwise disjoint pseudo-cycles,
    with the lexicographically least maximal family as witness.

    Covering every triple point is not required; the empty family is the
    witness when no pseudo-cycle exists.
    """
    return _pack_disjoint(dataset.sorted_ids(), enumerate_pseudo_cycles(dataset))


def _subset(ids):
    # a listed subset as the search lists it: a nonempty tuple of ids in
    # strictly increasing order; tuple("t2") would be ("t", "2")
    if isinstance(ids, str):
        raise ValueError(f"subset {ids!r} must be a collection of ids, not a string")
    ids = tuple(ids)
    if not ids:
        raise ValueError("a subset must be nonempty")
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError(f"subset {ids!r} must list its ids in strictly increasing order")
    return ids


class PseudoCycleReport(_CheckedMake, namedtuple(
    "PseudoCycleReport", "pseudo_cycles distinct_count max_disjoint_count witness_packing"
)):
    """Full search output: every pseudo-cycle subset, as a tuple, plus the two
    counts (distinct subsets, and the maximum disjoint family with witness)."""

    __slots__ = ()

    def __new__(cls, pseudo_cycles, distinct_count, max_disjoint_count, witness_packing):
        for count in (distinct_count, max_disjoint_count):
            if not isinstance(count, int) or isinstance(count, bool):
                raise ValueError(f"count {count!r} is not an int")
        self = super().__new__(cls, tuple(map(_subset, pseudo_cycles)), distinct_count,
                               max_disjoint_count, tuple(map(_subset, witness_packing)))
        if self.distinct_count != len(self.pseudo_cycles):
            raise ValueError("distinct_count must equal the number of pseudo-cycles")
        listed = set(self.pseudo_cycles)
        if len(listed) != self.distinct_count:
            raise ValueError("pseudo-cycles must be distinct subsets")
        if self.max_disjoint_count != len(self.witness_packing):
            raise ValueError("max_disjoint_count must equal the witness size")
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


def pseudo_cycle_report(dataset):
    subsets = enumerate_pseudo_cycles(dataset)
    packing = _pack_disjoint(dataset.sorted_ids(), subsets)
    return PseudoCycleReport(
        pseudo_cycles=subsets,
        distinct_count=len(subsets),
        max_disjoint_count=packing.count,
        witness_packing=packing.witness,
    )
