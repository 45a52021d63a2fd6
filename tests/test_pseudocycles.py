import random
from itertools import chain as ichain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlehom import (
    Chain,
    Quandle,
    TriplePoint,
    TriplePointDataset,
    chain_of,
    dataset_from_json,
    enumerate_pseudo_cycles,
    is_pseudo_cycle,
    max_disjoint_packing,
    pseudo_cycle_report,
)
from quandlehom import homology, pseudocycles
from quandlehom.chains import boundary_rack, project_quandle
from quandlehom.errors import (
    EnumerationCapError, ResourceLimitError, SchemaError, UnknownIdError
)
from quandlehom.homology import is_null_homologous
from quandlehom.pseudocycles import PseudoCycleReport

from conftest import S4_TABLE, conjugate, product, trivial_table


def make_dataset(points, order=3):
    return TriplePointDataset(
        quandle=Quandle.dihedral(order),
        points=tuple(TriplePoint(id=i, sign=s, colors=c) for i, s, c in points),
    )


def all_nonempty_subsets(ids):
    return ichain.from_iterable(combinations(ids, k) for k in range(1, len(ids) + 1))


class TestTriplePointValidation:
    def test_sign_must_be_unit(self):
        with pytest.raises(ValueError):
            TriplePoint(id="t1", sign=2, colors=(0, 1, 2))
        with pytest.raises(ValueError):
            TriplePoint(id="t1", sign=True, colors=(0, 1, 2))
        with pytest.raises(ValueError):
            TriplePoint(id="t1", sign=1.0, colors=(0, 1, 2))

    def test_id_must_be_nonempty(self):
        with pytest.raises(ValueError):
            TriplePoint(id="", sign=1, colors=(0, 1, 2))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            make_dataset([("a", 1, (0, 1, 2)), ("a", -1, (0, 1, 2))])

    def test_colors_range_checked_against_quandle(self):
        with pytest.raises(ValueError):
            make_dataset([("a", 1, (0, 1, 5))])


class TestChainOf:
    def test_c1_subset(self, dprime_dataset):
        c = chain_of({"t2", "t3"}, dprime_dataset)
        assert c == Chain(3, [((2, 0, 2), 1), ((2, 1, 0), 1)])

    def test_empty_subset_gives_zero(self, dprime_dataset):
        assert chain_of(set(), dprime_dataset).is_zero()

    def test_opposite_signs_cancel(self, dprime_dataset):
        assert chain_of({"t2", "t5"}, dprime_dataset).is_zero()

    def test_unknown_id_rejected(self, dprime_dataset):
        with pytest.raises(UnknownIdError):
            chain_of({"t2", "nope"}, dprime_dataset)

    @pytest.mark.parametrize("check", [chain_of, is_pseudo_cycle])
    def test_string_subset_rejected(self, dprime_dataset, check):
        # iterating "t2" would look up the ids "t" and "2"
        with pytest.raises(SchemaError, match="^subset: must be a collection of ids"):
            check("t2", dprime_dataset)


class TestIsPseudoCycle:
    def test_c1_and_c2_are_pseudo_cycles(self, dprime_dataset):
        assert is_pseudo_cycle({"t2", "t3"}, dprime_dataset) is True
        assert is_pseudo_cycle({"t5", "t6"}, dprime_dataset) is True

    def test_empty_subset_is_not(self, dprime_dataset):
        assert is_pseudo_cycle(set(), dprime_dataset) is False

    def test_single_point_chain_is_not_a_cycle(self, dprime_dataset):
        assert is_pseudo_cycle({"t2"}, dprime_dataset) is False

    def test_cancelling_pair_is_not(self, dprime_dataset):
        # zero chain is a cycle but bounds
        assert is_pseudo_cycle({"t2", "t5"}, dprime_dataset) is False

    def test_degenerate_colors_are_legal_and_project_away(self):
        ds = make_dataset([("a", 1, (1, 1, 2)), ("b", 1, (2, 0, 2)), ("c", 1, (2, 1, 0))])
        # {a} projects to the zero chain
        assert is_pseudo_cycle({"a"}, ds) is False
        # adding a degenerate point never changes the verdict
        assert is_pseudo_cycle({"b", "c"}, ds) is True
        assert is_pseudo_cycle({"a", "b", "c"}, ds) is True


class TestRefusal:
    # d_4 of R8 is 392x2744, over MAX_BOUNDARY_ENTRIES
    def test_nonzero_chain_over_r8_is_refused_cycle_or_not(self):
        ds = make_dataset([("a", 1, (0, 1, 2)), ("b", 1, (3, 3, 1))], order=8)
        with pytest.raises(ResourceLimitError, match="392x2744 boundary matrix d_4"):
            is_pseudo_cycle({"a"}, ds)
        with pytest.raises(ResourceLimitError, match="392x2744 boundary matrix d_4"):
            enumerate_pseudo_cycles(ds)

    def test_zero_chains_over_r8_are_answered(self):
        ds = make_dataset([("a", 1, (0, 1, 2)), ("b", -1, (0, 1, 2)), ("c", 1, (3, 3, 1))], order=8)
        assert is_pseudo_cycle({"a", "b", "c"}, ds) is False
        assert is_pseudo_cycle(set(), ds) is False


class TestEnumerate:
    def test_bundled_dprime_exactly_two(self, dprime_dataset):
        assert enumerate_pseudo_cycles(dprime_dataset) == [
            ("t2", "t3"),
            ("t5", "t6"),
        ]

    def test_empty_dataset(self, d_dataset):
        assert enumerate_pseudo_cycles(d_dataset) == []

    def test_ascending_bitmask_order(self):
        # duplicate the counterexample points under fresh ids so several
        # subsets qualify; order must follow the id-sorted bitmask encoding
        ds = make_dataset(
            [
                ("a", 1, (2, 0, 2)),
                ("b", 1, (2, 1, 0)),
                ("c", 1, (2, 0, 2)),
                ("d", 1, (2, 1, 0)),
            ]
        )
        result = enumerate_pseudo_cycles(ds)
        assert result == sorted(
            result, key=lambda s: sum(1 << "abcd".index(i) for i in s)
        )
        assert ("a", "b") in result
        assert ("c", "d") in result
        assert ("a", "d") in result

    def test_consistency_with_is_pseudo_cycle_up_to_six_points(self, dprime_dataset):
        rng = random.Random(53)
        datasets = [dprime_dataset]
        for k in (3, 4, 5, 6):
            points = [
                (f"p{i}", rng.choice([1, -1]), tuple(rng.randrange(3) for _ in range(3)))
                for i in range(k)
            ]
            datasets.append(make_dataset(points))
        for ds in datasets:
            listed = set(enumerate_pseudo_cycles(ds))
            for subset in all_nonempty_subsets(ds.sorted_ids()):
                assert (subset in listed) == is_pseudo_cycle(set(subset), ds)

    def test_each_point_is_projected_once_not_each_subset(self, monkeypatch):
        # degenerate points at the lowest bit (a) and the highest (f): the
        # search drops their terms once and still lists the supersets that
        # add them; is_pseudo_cycle projects its chain once per call
        calls = []

        def counted(chain):
            calls.append(chain)
            return project_quandle(chain)

        monkeypatch.setattr(pseudocycles, "project_quandle", counted)
        ds = make_dataset([
            ("a", 1, (0, 0, 1)), ("b", 1, (2, 0, 2)), ("c", 1, (2, 1, 0)),
            ("d", -1, (2, 0, 2)), ("e", -1, (2, 1, 0)), ("f", -1, (1, 2, 2)),
        ])
        ids = ds.sorted_ids()
        subsets = [tuple(pid for i, pid in enumerate(ids) if mask >> i & 1)
                   for mask in range(1, 1 << len(ids))]
        listed = enumerate_pseudo_cycles(ds)
        assert calls == []
        assert listed == [s for s in subsets if oracle_is_pseudo_cycle(s, ds)]
        assert {("b", "c"), ("a", "b", "c"), ("b", "c", "f"), ("a", "b", "c", "f")} <= set(listed)
        for n, subset in enumerate(subsets, 1):
            assert is_pseudo_cycle(subset, ds) == (subset in listed)
            assert len(calls) == n

    def test_each_chain_is_checked_once_per_query_not_per_subset(self, monkeypatch):
        # the 6-point dataset above: the search's subset chains, built from
        # checked points, skip the tuple check, which each is_null_homologous
        # call runs once
        checks, queries = [], []

        def counted_check(chain, quandle):
            checks.append(chain)
            return check_tuples(chain, quandle)

        def counted_query(chain, quandle):
            queries.append(chain)
            return is_null_homologous(chain, quandle)

        check_tuples = homology._check_tuples
        monkeypatch.setattr(homology, "_check_tuples", counted_check)
        monkeypatch.setattr(pseudocycles, "is_null_homologous", counted_query)
        ds = make_dataset([
            ("a", 1, (0, 0, 1)), ("b", 1, (2, 0, 2)), ("c", 1, (2, 1, 0)),
            ("d", -1, (2, 0, 2)), ("e", -1, (2, 1, 0)), ("f", -1, (1, 2, 2)),
        ])
        assert enumerate_pseudo_cycles(ds)
        assert 0 < len(checks) == len(queries) < 2 ** 6 - 1
        assert checks == queries

    def test_cap_enforced(self, monkeypatch):
        def visited(*args):
            raise AssertionError("a subset was visited")

        monkeypatch.setattr(pseudocycles, "chain_of", visited)
        monkeypatch.setattr(pseudocycles, "_pseudo_cycle_test", visited)
        points = [(f"p{i:02d}", 1, (0, 1, 2)) for i in range(21)]
        ds = make_dataset(points)
        with pytest.raises(EnumerationCapError) as exc:
            enumerate_pseudo_cycles(ds)
        assert str(exc.value) == (
            "dataset has 21 triple points, enumeration cap is DEFAULT_POINT_CAP = 20"
        )


class TestMaxDisjointPacking:
    def test_bundled_dprime(self, dprime_dataset):
        count, witness = max_disjoint_packing(dprime_dataset)
        assert count == 2
        assert witness == (("t2", "t3"), ("t5", "t6"))

    def test_empty_dataset(self, d_dataset):
        assert max_disjoint_packing(d_dataset) == (0, ())

    def test_single_non_cycle_point(self):
        ds = make_dataset([("a", 1, (2, 0, 2))])
        assert max_disjoint_packing(ds).count == 0

    def test_overlapping_candidates_force_a_choice(self):
        # a and c carry the same colors: {a,b}, {c,b} both qualify but
        # overlap in b, and {a,c} cancels nothing, so the max family is 1
        ds = make_dataset(
            [("a", 1, (2, 0, 2)), ("b", 1, (2, 1, 0)), ("c", 1, (2, 0, 2))]
        )
        count, witness = max_disjoint_packing(ds)
        assert count == 1
        # lexicographically least maximal family
        assert witness == (("a", "b"),)

    def test_count_bounds(self, dprime_dataset):
        count, _ = max_disjoint_packing(dprime_dataset)
        assert count <= len(enumerate_pseudo_cycles(dprime_dataset))
        assert count <= len(dprime_dataset.points)


class TestReport:
    def test_report_invariants_hold(self, dprime_dataset):
        report = pseudo_cycle_report(dprime_dataset)
        assert report.distinct_count == 2
        assert report.max_disjoint_count == 2
        seen = set()
        for subset in report.witness_packing:
            assert subset in report.pseudo_cycles
            assert not (seen & set(subset))
            seen |= set(subset)
            assert is_pseudo_cycle(set(subset), dprime_dataset)

    def test_report_type_rejects_inconsistency(self):
        with pytest.raises(ValueError):
            PseudoCycleReport(
                pseudo_cycles=(("a",),),
                distinct_count=2,
                max_disjoint_count=0,
                witness_packing=(),
            )
        with pytest.raises(ValueError):
            PseudoCycleReport(
                pseudo_cycles=(("a", "b"), ("b", "c")),
                distinct_count=2,
                max_disjoint_count=2,
                witness_packing=(("a", "b"), ("b", "c")),  # overlap in b
            )
        with pytest.raises(ValueError):
            PseudoCycleReport(
                pseudo_cycles=(("a", "b"), ("a", "b")),  # one subset listed twice
                distinct_count=2,
                max_disjoint_count=1,
                witness_packing=(("a", "b"),),
            )
        # tuple("t2") would list the ids t and 2
        with pytest.raises(ValueError, match="'t2' must be a collection of ids, not a string"):
            PseudoCycleReport(
                pseudo_cycles=["t2"], distinct_count=1, max_disjoint_count=0, witness_packing=()
            )
        with pytest.raises(ValueError, match="a subset must be nonempty"):
            PseudoCycleReport(
                pseudo_cycles=[()], distinct_count=1, max_disjoint_count=1, witness_packing=[()]
            )
        # ("t2", "t3") and ("t3", "t2") are one subset listed twice
        with pytest.raises(ValueError, match="must list its ids in strictly increasing order"):
            PseudoCycleReport(
                pseudo_cycles=(("t2", "t3"), ("t3", "t2")),
                distinct_count=2,
                max_disjoint_count=1,
                witness_packing=(("t2", "t3"),),
            )
        with pytest.raises(ValueError, match="strictly increasing order"):
            PseudoCycleReport(
                pseudo_cycles=(("t2", "t2"),), distinct_count=1, max_disjoint_count=0,
                witness_packing=(),
            )

    def test_report_rebuilds_from_its_json_form(self, dprime_dataset):
        report = pseudo_cycle_report(dprime_dataset)
        assert PseudoCycleReport(**report.to_json_dict()) == report

    @pytest.mark.parametrize("field", ["distinct_count", "max_disjoint_count"])
    @pytest.mark.parametrize("count", [False, 0.0])
    def test_counts_must_be_ints(self, field, count):
        fields = dict(pseudo_cycles=(), distinct_count=0, max_disjoint_count=0, witness_packing=())
        with pytest.raises(ValueError, match="is not an int"):
            PseudoCycleReport(**{**fields, field: count})

    def test_id_permutation_invariance(self, dprime_dataset):
        renames = {"t2": "x9", "t3": "x1", "t5": "x5", "t6": "x3"}
        renamed = TriplePointDataset(
            quandle=dprime_dataset.quandle,
            points=tuple(
                TriplePoint(id=renames[p.id], sign=p.sign, colors=p.colors)
                for p in dprime_dataset.points
            ),
        )
        original = pseudo_cycle_report(dprime_dataset)
        mapped = pseudo_cycle_report(renamed)
        assert mapped.distinct_count == original.distinct_count
        assert mapped.max_disjoint_count == original.max_disjoint_count
        expected = {
            tuple(sorted(renames[i] for i in subset))
            for subset in original.pseudo_cycles
        }
        assert set(mapped.pseudo_cycles) == expected
        witness_mapped = {
            tuple(sorted(renames[i] for i in subset))
            for subset in original.witness_packing
        }
        assert set(mapped.witness_packing) == witness_mapped

    def test_global_sign_flip_invariance(self, dprime_dataset):
        rng = random.Random(59)
        datasets = [dprime_dataset]
        for k in (4, 5):
            datasets.append(
                make_dataset(
                    [
                        (
                            f"p{i}",
                            rng.choice([1, -1]),
                            tuple(rng.randrange(3) for _ in range(3)),
                        )
                        for i in range(k)
                    ]
                )
            )
        for ds in datasets:
            flipped = TriplePointDataset(
                quandle=ds.quandle,
                points=tuple(
                    TriplePoint(id=p.id, sign=-p.sign, colors=p.colors)
                    for p in ds.points
                ),
            )
            assert enumerate_pseudo_cycles(flipped) == enumerate_pseudo_cycles(ds)


class TestDatasetJson:
    def test_bundled_dprime_contents(self, dprime_dataset):
        assert dprime_dataset.quandle == Quandle.dihedral(3)
        by_id = {p.id: p for p in dprime_dataset.points}
        assert by_id["t2"].sign == 1 and by_id["t2"].colors == (2, 0, 2)
        assert by_id["t5"].sign == -1 and by_id["t5"].colors == (2, 0, 2)

    def test_round_trip_through_table_form(self, dprime_dataset):
        doc = dprime_dataset.to_json_dict()
        again = dataset_from_json(doc)
        assert again.quandle == dprime_dataset.quandle
        assert again.points == dprime_dataset.points

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SchemaError) as exc:
            dataset_from_json(
                {
                    "quandle": {"kind": "dihedral", "order": 3},
                    "triple_points": [],
                    "comment": "hi",
                }
            )
        assert exc.value.path == "comment"

    @pytest.mark.parametrize("points", [{}, "t1", None], ids=["object", "string", "null"])
    def test_triple_points_must_be_a_list(self, points):
        with pytest.raises(SchemaError) as exc:
            dataset_from_json(
                {"quandle": {"kind": "dihedral", "order": 3}, "triple_points": points}
            )
        assert (exc.value.path, exc.value.message) == ("triple_points", "must be a list")

    def test_unknown_point_field_rejected(self):
        with pytest.raises(SchemaError) as exc:
            dataset_from_json(
                {
                    "quandle": {"kind": "dihedral", "order": 3},
                    "triple_points": [
                        {"id": "a", "sign": 1, "colors": [0, 1, 2], "note": ""}
                    ],
                }
            )
        assert exc.value.path == "triple_points[0].note"

    def test_bad_sign_rejected_with_path(self):
        with pytest.raises(SchemaError) as exc:
            dataset_from_json(
                {
                    "quandle": {"kind": "dihedral", "order": 3},
                    "triple_points": [{"id": "a", "sign": 0, "colors": [0, 1, 2]}],
                }
            )
        assert exc.value.path == "triple_points[0].sign"

    def test_float_sign_rejected_with_path(self):
        with pytest.raises(SchemaError) as exc:
            dataset_from_json(
                {
                    "quandle": {"kind": "dihedral", "order": 3},
                    "triple_points": [{"id": "a", "sign": 1.0, "colors": [0, 1, 2]}],
                }
            )
        assert exc.value.path == "triple_points[0].sign"

    def test_color_out_of_range_rejected_with_path(self):
        with pytest.raises(SchemaError) as exc:
            dataset_from_json(
                {
                    "quandle": {"kind": "dihedral", "order": 3},
                    "triple_points": [{"id": "a", "sign": 1, "colors": [0, 1, 5]}],
                }
            )
        assert exc.value.path == "triple_points[0].colors[2]"

    # the parser leaves colors to TriplePoint, whose paths it prefixes
    @pytest.mark.parametrize("colors,path", [
        ({"0": 0, "1": 1, "2": 2}, "colors"), ("012", "colors"), (3, "colors"),
        ([0, 1], "colors"), ([0, "1", 2], "colors[1]"), ([0, 1, True], "colors[2]"),
    ], ids=["object", "string", "number", "short", "string-entry", "bool-entry"])
    def test_bad_colors_rejected_with_path(self, colors, path):
        with pytest.raises(SchemaError) as exc:
            dataset_from_json(
                {
                    "quandle": {"kind": "dihedral", "order": 3},
                    "triple_points": [
                        {"id": "a", "sign": 1, "colors": [0, 1, 2]},
                        {"id": "b", "sign": 1, "colors": colors},
                    ],
                }
            )
        assert exc.value.path == f"triple_points[1].{path}"

    def test_duplicate_ids_rejected_with_path(self):
        with pytest.raises(SchemaError) as exc:
            dataset_from_json(
                {
                    "quandle": {"kind": "dihedral", "order": 3},
                    "triple_points": [
                        {"id": "a", "sign": 1, "colors": [0, 1, 2]},
                        {"id": "a", "sign": -1, "colors": [0, 1, 2]},
                    ],
                }
            )
        assert exc.value.path == "triple_points[1].id"

    def test_invalid_quandle_table_rejected_with_path(self):
        with pytest.raises(SchemaError) as exc:
            dataset_from_json(
                {
                    "quandle": {"kind": "table", "table": [[1, 0], [0, 1]]},
                    "triple_points": [],
                }
            )
        assert exc.value.path == "quandle.table"

    def test_table_quandle_accepted(self):
        ds = dataset_from_json(
            {
                "quandle": {"kind": "table", "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]},
                "triple_points": [{"id": "a", "sign": 1, "colors": [2, 0, 2]}],
            }
        )
        assert ds.quandle == Quandle.dihedral(3)


def brute_force_packing(ids, subsets):
    """Every family of pairwise disjoint subsets, by deciding for the least
    free point whether it is left out or which subset covers it; returns the
    largest family size and the lexicographically least family of that size."""

    def families(free):
        if not free:
            yield ()
            return
        p = min(free)
        yield from families(free - {p})
        for s in subsets:
            if p in s and set(s) <= free:
                for rest in families(free - set(s)):
                    yield (s,) + rest

    best = min((tuple(sorted(f)) for f in families(frozenset(ids))), key=lambda f: (-len(f), f))
    return len(best), best


def oracle_packing(ids, subsets):
    """A DFS that picks each next family member from the later candidates in
    lexicographic order, so the first maximum family found is the least one,
    and cuts a branch when len(chosen) + min(candidates left, free points //
    smallest candidate size) <= len(best).  The packing as it was before
    the bound from the minimal pseudo-cycles, kept as the oracle that the
    one-pass packing must match."""
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
    return len(best), tuple(best)


# (quandle, two-term cycles that do not bound, their halves and a triple in
# none of them) per quandle for the packing tests: drawn together, their
# pseudo-cycles overlap
PACKING_QUANDLES = {
    "R3": (
        Quandle.dihedral(3),
        [((2, 0, 2), (2, 1, 0)), ((1, 0, 1), (1, 2, 0))],
        [(2, 0, 2), (1, 2, 0), (0, 1, 2)],
    ),
    "R4": (
        Quandle.dihedral(4),
        [((0, 1, 3), (0, 3, 1)), ((0, 2, 1), (2, 0, 1))],
        # (0, 2, 0) is a pseudo-cycle on its own
        [(0, 1, 3), (2, 0, 1), (0, 2, 0), (0, 1, 2)],
    ),
    "S4": (
        Quandle.from_table(S4_TABLE),
        [((0, 1, 0), (0, 2, 1)), ((2, 0, 2), (2, 1, 0))],
        [(0, 1, 0), (2, 1, 0), (1, 2, 3)],
    ),
    "T2": (
        Quandle.from_table(trivial_table(2)),
        [((0, 1, 0), (1, 0, 1))],
        [(0, 1, 0), (1, 0, 1), (0, 0, 1)],
    ),
}


def packing_dataset(name, colored):
    return TriplePointDataset(
        quandle=PACKING_QUANDLES[name][0],
        points=tuple(
            TriplePoint(id=f"p{i}", sign=sign, colors=c) for i, (sign, c) in enumerate(colored)
        ),
    )


@st.composite
def packing_datasets(draw):
    """Datasets of at most 12 points over one PACKING_QUANDLES entry, drawn
    from its two-term cycles and single triples, each with a random sign."""
    name = draw(st.sampled_from(sorted(PACKING_QUANDLES)))
    _, pairs, singles = PACKING_QUANDLES[name]
    size, colored = draw(st.integers(0, 12)), []
    while len(colored) < size:
        sign = draw(st.sampled_from([1, -1]))
        if size - len(colored) >= 2 and draw(st.booleans()):
            colored += [(sign, c) for c in draw(st.sampled_from(pairs))]
        else:
            colored.append((sign, draw(st.sampled_from(singles))))
    return name, packing_dataset(name, draw(st.permutations(colored)))


class TestPackingOptimality:
    def test_pack_deep_family_of_seven(self):
        # 2,157 pseudo-cycles, and the lexicographically first ones are
        # large: the pass must go by each candidate whose free points left
        # over cannot hold the rest of a family of seven
        ds = make_dataset(
            [(f"t{i:02d}", 1, (2, 0, 2)) for i in range(7)]
            + [(f"t{i:02d}", 1, (2, 1, 0)) for i in range(7, 14)]
        )
        report = pseudo_cycle_report(ds)
        assert report.distinct_count == 2157
        assert report.max_disjoint_count == 7
        assert report.witness_packing == tuple(
            (f"t{i:02d}", f"t{i + 7:02d}") for i in range(7)
        )

    @pytest.mark.parametrize("name", ["R3", "R4", "S4", "T2"])
    def test_matches_brute_force_on_random_datasets(self, name):
        _, pairs, singles = PACKING_QUANDLES[name]
        rng = random.Random(f"packing:{name}")
        nontrivial = 0
        for _ in range(30):
            k = rng.randint(1, 8)
            colored = []
            while len(colored) < k:
                if k - len(colored) >= 2 and rng.random() < 0.6:
                    sign = rng.choice([1, -1])
                    colored += [(sign, c) for c in rng.choice(pairs)]
                else:
                    colored.append((rng.choice([1, -1]), rng.choice(singles)))
            rng.shuffle(colored)
            ds = packing_dataset(name, colored)
            expected = brute_force_packing(ds.sorted_ids(), enumerate_pseudo_cycles(ds))
            assert tuple(max_disjoint_packing(ds)) == expected
            nontrivial += expected[0] >= 2
        assert nontrivial >= 5

    @settings(max_examples=80, deadline=None, database=None)
    @given(packing_datasets())
    def test_matches_the_dfs_without_the_minimal_bound(self, case):
        _, ds = case
        ids, subsets = ds.sorted_ids(), enumerate_pseudo_cycles(ds)
        assert tuple(pseudocycles._pack_disjoint(ids, subsets)) == oracle_packing(ids, subsets)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.sets(st.sampled_from(range(10)), min_size=1), max_size=14, unique_by=frozenset))
    def test_matches_the_dfs_without_the_minimal_bound_on_any_family(self, family):
        # the bound holds for every family of distinct subsets, pseudo-cycles
        # or not: each member of a disjoint family contains a minimal member
        ids = tuple(f"p{i}" for i in range(10))
        subsets = [tuple(ids[i] for i in sorted(members)) for members in family]
        result = tuple(pseudocycles._pack_disjoint(ids, subsets))
        assert result == oracle_packing(ids, subsets)
        assert result == brute_force_packing(ids, subsets)

    def test_the_least_point_is_left_out_where_that_packs_more(self):
        # the minimal subsets {a, b, c}, {b, d} and {c, e}: covering a packs 1
        subsets = [("a", "b", "c"), ("b", "d"), ("c", "e"), ("a", "b", "c", "d")]
        result = pseudocycles._pack_disjoint(("a", "b", "c", "d", "e"), subsets)
        assert tuple(result) == (2, (("b", "d"), ("c", "e")))


def oracle_is_pseudo_cycle(subset, dataset):
    """The pseudo-cycle predicate with the rack boundary of the projected
    chain built and projected again, and every null-homology test run."""
    chain = project_quandle(chain_of(subset, dataset))
    quandle = dataset.quandle
    return (
        bool(chain)
        and not project_quandle(boundary_rack(chain, quandle))
        and not is_null_homologous(chain, quandle)
    )


R3 = Quandle.dihedral(3)
T2 = Quandle.from_table(trivial_table(2))


def cbar1_terms(label):
    """The terms of the paper's cycle cbar1 over R3, its elements labelled."""
    return [(1, tuple(map(label, (2, 0, 2)))), (1, tuple(map(label, (2, 1, 0))))]


# (quandle, known cycles as (sign, colors) terms) for the cross-check; the
# boundaries of 4-tuples are drawn as further cycles, all of them bounding
ORACLE_QUANDLES = [
    ("R3", R3, [cbar1_terms(int)]),
    ("R4", Quandle.dihedral(4), []),
    ("S4", Quandle.from_table(S4_TABLE), []),
    ("T3", Quandle.from_table(trivial_table(3)), []),
    ("R5 relabelled", conjugate(Quandle.dihedral(5), [1, 0, 2, 3, 4], [1, 0, 2, 3, 4]), []),
    ("R3xT2", product(R3, T2), [cbar1_terms(lambda a: 2 * a), cbar1_terms(lambda a: 2 * a + 1)]),
]


@st.composite
def oracle_datasets(draw):
    """Datasets of at most 8 points over one ORACLE_QUANDLES entry, from
    random triples, degenerate triples, c/-c pairs and the terms of cycles."""
    name, quandle, cycles = draw(st.sampled_from(ORACLE_QUANDLES))
    element = st.integers(0, quandle.order - 1)
    sign = st.sampled_from([1, -1])
    size, terms = draw(st.integers(0, 8)), []
    while len(terms) < size:
        kind = draw(st.sampled_from(["triple", "degenerate", "pair", "cycle"]))
        if kind == "triple":
            terms.append((draw(sign), draw(st.tuples(element, element, element))))
        elif kind == "degenerate":
            x, y = draw(element), draw(element)
            terms.append((draw(sign), draw(st.sampled_from([(x, x, y), (y, x, x)]))))
        elif kind == "pair":
            colors = draw(st.tuples(element, element, element))
            terms += [(1, colors), (-1, colors)]
        else:
            # a degenerate 4-tuple's boundary projects to zero
            tup = draw(st.tuples(element, element, element, element))
            boundary = project_quandle(boundary_rack(Chain.generator(tup), quandle))
            unit_terms = [(c // abs(c), t) for t, c in boundary.items() for _ in range(abs(c))]
            terms += draw(st.sampled_from(cycles + [unit_terms]))
    points = [TriplePoint(f"p{i}", sign, colors) for i, (sign, colors) in enumerate(terms[:size])]
    return name, TriplePointDataset(quandle=quandle, points=draw(st.permutations(points)))


class TestOracle:
    @settings(max_examples=150, deadline=None, database=None)
    @given(oracle_datasets())
    def test_enumeration_and_verdicts_match_the_oracle(self, case):
        _, ds = case
        ids = ds.sorted_ids()
        masks = range(1, 1 << len(ids))
        subsets = [tuple(p for i, p in enumerate(ids) if mask >> i & 1) for mask in masks]
        expected = [subset for subset in subsets if oracle_is_pseudo_cycle(subset, ds)]
        assert enumerate_pseudo_cycles(ds) == expected
        listed = set(expected)
        for subset in subsets:
            assert is_pseudo_cycle(subset, ds) == (subset in listed)
