"""The package's immutable value types: their repr, equality, hashing,
immutability, the coercions their constructors apply and every message
their validation raises."""

import pytest

from quandlehom import (
    CocycleCheck,
    HomologyGroup,
    IntMatrix,
    PseudoCycleReport,
    Quandle,
    SmithDecomposition,
    TriplePoint,
    TriplePointDataset,
    snf,
)
from quandlehom.errors import SchemaError
from quandlehom.pseudocycles import PackingResult


def r3_dataset(points=(("a", 1, (0, 1, 2)), ("b", -1, (2, 1, 0)))):
    return TriplePointDataset(
        Quandle.dihedral(3), [TriplePoint(i, s, c) for i, s, c in points]
    )


def report(**changes):
    fields = {
        "pseudo_cycles": (("a", "b"), ("c",)),
        "distinct_count": 2,
        "max_disjoint_count": 2,
        "witness_packing": (("a", "b"), ("c",)),
    }
    fields.update(changes)
    return PseudoCycleReport(**fields)


# how to build one instance of each value type, its exact repr, and one
# of its fields
VALUES = {
    "HomologyGroup": (
        lambda: HomologyGroup(free_rank=0, torsion=(3,)),
        "HomologyGroup(free_rank=0, torsion=(3,))",
        "torsion",
    ),
    "SmithDecomposition": (
        lambda: snf(IntMatrix([[2]])),
        "SmithDecomposition(U=IntMatrix([[1]]), D=IntMatrix([[2]]), V=IntMatrix([[1]]))",
        "D",
    ),
    "TriplePoint": (
        lambda: TriplePoint(id="t1", sign=-1, colors=(0, 2, 1)),
        "TriplePoint(id='t1', sign=-1, colors=(0, 2, 1))",
        "sign",
    ),
    "TriplePointDataset": (
        lambda: r3_dataset(),
        "TriplePointDataset(quandle=Quandle(order=3), points=("
        "TriplePoint(id='a', sign=1, colors=(0, 1, 2)), "
        "TriplePoint(id='b', sign=-1, colors=(2, 1, 0))))",
        "points",
    ),
    "PseudoCycleReport": (
        lambda: report(),
        "PseudoCycleReport(pseudo_cycles=(('a', 'b'), ('c',)), distinct_count=2, "
        "max_disjoint_count=2, witness_packing=(('a', 'b'), ('c',)))",
        "distinct_count",
    ),
    "CocycleCheck": (
        lambda: CocycleCheck(False, (0, 0, 1)),
        "CocycleCheck(ok=False, witness=(0, 0, 1))",
        "ok",
    ),
    "PackingResult": (
        lambda: PackingResult(count=1, witness=(("a", "b"),)),
        "PackingResult(count=1, witness=(('a', 'b'),))",
        "witness",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
class TestValueTypes:
    def test_repr(self, name):
        make, text, _ = VALUES[name]
        assert repr(make()) == text

    def test_equal_instances_are_equal_and_hash_alike(self, name):
        make, _, _ = VALUES[name]
        a, b = make(), make()
        assert a is not b
        assert a == b
        assert not a != b
        if name != "SmithDecomposition":  # IntMatrix is unhashable
            assert hash(a) == hash(b)

    def test_fields_cannot_be_assigned(self, name):
        make, _, field = VALUES[name]
        value = make()
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        assert getattr(value, field) is before


def test_readme_homology_group_repr():
    assert repr(HomologyGroup(free_rank=0, torsion=(3,))) == "HomologyGroup(free_rank=0, torsion=(3,))"
    assert repr(HomologyGroup(2, [2, 4])) == "HomologyGroup(free_rank=2, torsion=(2, 4))"


def test_cocycle_check_truthiness_follows_ok():
    assert not CocycleCheck(False, (0, 0, 1))
    assert bool(CocycleCheck(False, (0, 0, 1))) is False
    assert bool(CocycleCheck(True, None)) is True


def test_unequal_instances_differ():
    assert HomologyGroup(0, (3,)) != HomologyGroup(0, (5,))
    assert TriplePoint("a", 1, (0, 1, 2)) != TriplePoint("a", -1, (0, 1, 2))
    assert r3_dataset() != r3_dataset((("a", 1, (0, 1, 2)),))


class TestCoercions:
    def test_sequences_become_tuples(self):
        assert HomologyGroup(1, [2, 4]).torsion == (2, 4)
        assert TriplePoint("a", 1, [0, 1, 2]).colors == (0, 1, 2)
        points = [TriplePoint("a", 1, (0, 1, 2))]
        assert TriplePointDataset(Quandle.dihedral(3), points).points == tuple(points)

    def test_dataset_index_by_id(self):
        ds = r3_dataset()
        assert ds.point("b") == TriplePoint("b", -1, (2, 1, 0))
        assert ds.sorted_ids() == ("a", "b")

    def test_smith_decomposition_diagonal(self):
        assert snf(IntMatrix([[2, 0], [0, 3]])).diagonal == (1, 6)
        decomposition = SmithDecomposition(
            U=IntMatrix.identity(1), D=IntMatrix([[4]]), V=IntMatrix.identity(1)
        )
        assert decomposition.diagonal == (4,)


class TestHomologyGroupValidation:
    @pytest.mark.parametrize("free_rank,torsion,message", [
        (-1, (), "free rank must be nonnegative"),
        (0, (1,), "torsion coefficient 1 must be >= 2"),
        (0, (0,), "torsion coefficient 0 must be >= 2"),
        (0, (2, -3), "torsion coefficient -3 must be >= 2"),
        (0, (4, 6), "torsion chain broken: 4 does not divide 6"),
        (1, (2, 4, 6), "torsion chain broken: 4 does not divide 6"),
    ])
    def test_messages(self, free_rank, torsion, message):
        with pytest.raises(ValueError) as exc:
            HomologyGroup(free_rank, torsion)
        assert str(exc.value) == message

    def test_valid_groups(self):
        assert HomologyGroup(0, ()).is_trivial()
        assert str(HomologyGroup(1, (2, 4))) == "Z + Z/2 + Z/4"
        assert HomologyGroup(0, (3,)).to_json_dict() == {"free_rank": 0, "torsion": [3]}


def schema_error(build):
    with pytest.raises(SchemaError) as exc:
        build()
    return exc.value.path, exc.value.message, str(exc.value)


class TestTriplePointValidation:
    @pytest.mark.parametrize("args,path,message", [
        (("", 1, (0, 1, 2)), "id", "must be a nonempty string"),
        ((7, 1, (0, 1, 2)), "id", "must be a nonempty string"),
        (("t", 0, (0, 1, 2)), "sign", "must be exactly 1 or -1"),
        (("t", True, (0, 1, 2)), "sign", "must be exactly 1 or -1"),
        (("t", 1.0, (0, 1, 2)), "sign", "must be exactly 1 or -1"),
        (("t", 1, (0, 1)), "colors", "must be a list of 3 integers"),
        (("t", 1, (0, 1, 2, 0)), "colors", "must be a list of 3 integers"),
        (("t", 1, (0, -1, 2)), "colors[1]", "must be a nonnegative integer"),
        (("t", 1, (0, 1, False)), "colors[2]", "must be a nonnegative integer"),
        (("t", 1, ("0", 1, 2)), "colors[0]", "must be a nonnegative integer"),
    ])
    def test_messages(self, args, path, message):
        assert schema_error(lambda: TriplePoint(*args)) == (path, message, f"{path}: {message}")

    def test_id_is_checked_before_sign_and_colors(self):
        assert schema_error(lambda: TriplePoint("", 5, ()))[0] == "id"
        assert schema_error(lambda: TriplePoint("t", 5, ()))[0] == "sign"

    def test_keyword_construction(self):
        assert TriplePoint(id="t", sign=1, colors=(0, 1, 2)) == TriplePoint("t", 1, (0, 1, 2))


class TestDatasetValidation:
    def test_duplicate_id(self):
        points = (("a", 1, (0, 1, 2)), ("b", 1, (0, 1, 2)), ("a", -1, (1, 0, 2)))
        assert schema_error(lambda: r3_dataset(points)) == (
            "points[2].id", "duplicate id 'a'", "points[2].id: duplicate id 'a'"
        )

    def test_color_out_of_range(self):
        points = (("a", 1, (0, 1, 2)), ("b", 1, (0, 3, 2)))
        assert schema_error(lambda: r3_dataset(points)) == (
            "points[1].colors[1]",
            "must be an integer in 0..2",
            "points[1].colors[1]: must be an integer in 0..2",
        )

    def test_keyword_construction(self):
        ds = TriplePointDataset(quandle=Quandle.dihedral(3), points=())
        assert ds.points == ()
        assert ds.quandle == Quandle.dihedral(3)


class TestReportValidation:
    @pytest.mark.parametrize("changes,message", [
        ({"distinct_count": 3}, "distinct_count must equal the number of pseudo-cycles"),
        ({"max_disjoint_count": 1}, "max_disjoint_count must equal the witness size"),
        (
            {"witness_packing": (("a", "b"), ("d",))},
            "witness subset ('d',) is not a pseudo-cycle",
        ),
        (
            {
                "pseudo_cycles": (("a", "b"), ("b", "c")),
                "witness_packing": (("a", "b"), ("b", "c")),
            },
            "witness subsets are not pairwise disjoint",
        ),
    ])
    def test_messages(self, changes, message):
        with pytest.raises(ValueError) as exc:
            report(**changes)
        assert str(exc.value) == message

    def test_json_form(self):
        assert report().to_json_dict() == {
            "pseudo_cycles": [["a", "b"], ["c"]],
            "distinct_count": 2,
            "max_disjoint_count": 2,
            "witness_packing": [["a", "b"], ["c"]],
        }
