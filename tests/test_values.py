"""The package's immutable value types: their repr, equality, hashing,
immutability, the coercions their constructors apply and every message
their validation raises, also through `_make`, `_replace`, copies and
pickles."""

import copy
import pickle
from types import SimpleNamespace

import pytest

from quandlehom import (
    Chain,
    Cocycle3,
    CocycleCheck,
    HomologyGroup,
    IntMatrix,
    PseudoCycleReport,
    Quandle,
    SmithDecomposition,
    TriplePoint,
    TriplePointDataset,
    mochizuki_theta,
    snf,
)
from quandlehom.errors import SchemaError
from quandlehom.pseudocycles import PackingResult

from conftest import load_bundled


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
            U=IntMatrix([[1]]), D=IntMatrix([[4]]), V=IntMatrix([[1]])
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
        (True, (), "free rank True is not an int"),
        (1.5, (), "free rank 1.5 is not an int"),
        (0, (2.0,), "torsion coefficient 2.0 is not an int"),
        (0, ("3",), "torsion coefficient '3' is not an int"),
    ])
    def test_messages(self, free_rank, torsion, message):
        with pytest.raises(ValueError) as exc:
            HomologyGroup(free_rank, torsion)
        assert str(exc.value) == message

    def test_valid_groups(self):
        assert HomologyGroup(0, ()) == (0, ())
        assert str(HomologyGroup(1, (2, 4))) == "Z + Z/2 + Z/4"
        assert HomologyGroup(0, (3,)).to_json_dict() == {"free_rank": 0, "torsion": [3]}


@pytest.mark.parametrize("value", [0.5, True, "1"], ids=["float", "bool", "str"])
def test_cocycle_values_must_be_ints(value):
    with pytest.raises(ValueError) as exc:
        Cocycle3.from_function(Quandle.dihedral(3), 3, lambda x, y, z: value)
    assert str(exc.value) == f"values[0][0][0] = {value!r} is not an int"


BAD_COCYCLE_SHAPES = {
    "3x3x4": "values[0][0] has length 4, expected 3",
    "3x3x2": "values[0][0] has length 2, expected 3",
    "3x4x3": "values[0] has length 4, expected 3",
    "3x2x3": "values[0] has length 2, expected 3",
    "4x3x3": "values has length 4, expected 3",
    "2x3x3": "values has length 2, expected 3",
}


@pytest.mark.parametrize("shape", BAD_COCYCLE_SHAPES)
def test_cocycle_table_must_be_n_by_n_by_n(shape):
    a, b, c = map(int, shape.split("x"))
    values = [[[0] * c for _ in range(b)] for _ in range(a)]
    with pytest.raises(ValueError) as exc:
        Cocycle3(Quandle.dihedral(3), 3, values)
    assert str(exc.value) == BAD_COCYCLE_SHAPES[shape]


@pytest.mark.parametrize("quandle", [
    SimpleNamespace(order=3, table=Quandle.dihedral(3).table), 3, None,
], ids=["namespace", "int", "None"])
def test_cocycle_quandle_must_be_a_quandle(quandle):
    values = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    with pytest.raises(ValueError) as exc:
        Cocycle3(quandle, 3, values)
    assert str(exc.value) == f"quandle must be a Quandle, got {type(quandle).__name__}"


@pytest.mark.parametrize("modulus", [1, True, 2.0], ids=["one", "bool", "float"])
def test_cocycle_modulus_must_be_an_integer_at_least_2(modulus):
    values = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    with pytest.raises(ValueError) as exc:
        Cocycle3(Quandle.dihedral(3), modulus, values)
    assert str(exc.value) == f"modulus must be an integer >= 2, got {modulus!r}"


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

    @pytest.mark.parametrize("colors", [
        (c for c in (0, 1, 2)), range(3), {0: 0, 1: 1, 2: 2}, "012", 3, None,
    ], ids=["generator", "range", "dict", "str", "int", "None"])
    def test_colors_must_be_a_list_or_tuple(self, colors):
        assert schema_error(lambda: TriplePoint("t", 1, colors)) == (
            "colors", "must be a list of 3 integers", "colors: must be a list of 3 integers"
        )


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

    # objects that only look like triple points would skip TriplePoint's
    # checks: a sign of 5 made a chain with coefficient 5 and a listed
    # pseudo-cycle, a float color a TypeError inside the search
    @pytest.mark.parametrize("point", [
        SimpleNamespace(id="b", sign=5, colors=(2, 0, 2)),
        SimpleNamespace(id="b", sign=1, colors=(2.0, 0, 2)),
        ("b", 1, (2, 0, 2)),
        {"id": "b", "sign": 1, "colors": [2, 0, 2]},
    ], ids=["sign-5", "float-color", "tuple", "dict"])
    def test_point_must_be_a_triple_point(self, point):
        points = [TriplePoint("a", 1, (2, 1, 0)), point]
        assert schema_error(lambda: TriplePointDataset(Quandle.dihedral(3), points)) == (
            "points[1]", "must be a TriplePoint", "points[1]: must be a TriplePoint"
        )

    @pytest.mark.parametrize("quandle", [
        SimpleNamespace(order=3, table=Quandle.dihedral(3).table),
        [[0, 2, 1], [2, 1, 0], [1, 0, 2]],
        None,
    ], ids=["namespace", "table", "None"])
    def test_quandle_must_be_a_quandle(self, quandle):
        assert schema_error(lambda: TriplePointDataset(quandle, [])) == (
            "quandle", "must be a Quandle", "quandle: must be a Quandle"
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


# one instance of each immutable class that is not a namedtuple
OBJECTS = {
    "Quandle": lambda: Quandle.dihedral(5),
    "Chain": lambda: Chain(3, [((2, 0, 2), 1), ((0, 1, 0), -12)]),
    "IntMatrix": lambda: IntMatrix([[1, -2], [0, 3]]),
    "empty IntMatrix": lambda: IntMatrix([], cols=2),
    "Cocycle3": mochizuki_theta,
}
COPIES = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "pickle protocol 0": lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("name", sorted(OBJECTS))
class TestObjects:
    def test_attributes_cannot_be_assigned(self, name):
        value = OBJECTS[name]()
        with pytest.raises(AttributeError, match="is immutable"):
            value.order = 1

    @pytest.mark.parametrize("other", [None, 3, "x", SimpleNamespace()])
    def test_a_foreign_operand_is_unequal(self, name, other):
        value = OBJECTS[name]()
        assert value.__eq__(other) is NotImplemented
        assert value != other and other != value


class TestCopyAndPickle:
    @pytest.mark.parametrize("how", sorted(COPIES))
    @pytest.mark.parametrize("name", sorted(OBJECTS) + sorted(VALUES))
    def test_round_trip_equals_the_original(self, name, how):
        make = OBJECTS[name] if name in OBJECTS else VALUES[name][0]
        value = make()
        twin = COPIES[how](value)
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_loaded_dataset_keeps_its_index(self, how):
        ds = COPIES[how](load_bundled("yashiro_dprime.json"))
        assert ds == load_bundled("yashiro_dprime.json")
        assert ds.point("t2").colors == (2, 0, 2)

    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    @pytest.mark.parametrize("cls", [Quandle, Chain, IntMatrix, Cocycle3], ids=lambda c: c.__name__)
    def test_copies_are_rebuilt_through_the_constructor(self, monkeypatch, cls, how):
        value = OBJECTS[cls.__name__]()
        built = []
        original = cls.__init__

        def counting(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
        assert COPIES[how](value) == value
        assert len(built) == 1

    def test_copies_do_not_share_matrix_rows(self):
        a = IntMatrix([[1, 2]])
        b = copy.copy(a)
        assert b._data is not a._data and b._data[0] is not a._data[0]


class TestMakeAndReplaceValidate:
    def test_replace_builds_a_checked_value(self):
        assert HomologyGroup(0, (3,))._replace(free_rank=2) == HomologyGroup(2, (3,))
        assert TriplePoint("a", 1, (0, 1, 2))._replace(sign=-1) == TriplePoint("a", -1, (0, 1, 2))
        assert report()._replace(
            witness_packing=(("c",),), max_disjoint_count=1
        ) == report(witness_packing=(("c",),), max_disjoint_count=1)

    def test_replaced_dataset_keeps_its_index(self):
        ds = r3_dataset()._replace(points=[TriplePoint("t2", 1, (2, 0, 2))])
        assert ds.points == (TriplePoint("t2", 1, (2, 0, 2)),)
        assert ds.point("t2").colors == (2, 0, 2)

    @pytest.mark.parametrize("build,error,message", [
        pytest.param(
            lambda: HomologyGroup(0, (3,))._replace(free_rank=-1),
            ValueError, "free rank must be nonnegative", id="HomologyGroup._replace",
        ),
        pytest.param(
            lambda: HomologyGroup._make([0, (1,)]),
            ValueError, "torsion coefficient 1 must be >= 2", id="HomologyGroup._make",
        ),
        pytest.param(
            lambda: TriplePoint("a", 1, (0, 1, 2))._replace(sign=0),
            SchemaError, "sign: must be exactly 1 or -1", id="TriplePoint._replace",
        ),
        pytest.param(
            lambda: TriplePoint._make(["a", 1, (0, 1)]),
            SchemaError, "colors: must be a list of 3 integers", id="TriplePoint._make",
        ),
        pytest.param(
            lambda: r3_dataset()._replace(quandle=Quandle.dihedral(2)),
            SchemaError, "points[0].colors[2]: must be an integer in 0..1",
            id="TriplePointDataset._replace",
        ),
        pytest.param(
            lambda: TriplePointDataset._make(
                [Quandle.dihedral(3), [TriplePoint("a", 1, (0, 1, 2))] * 2]
            ),
            SchemaError, "points[1].id: duplicate id 'a'", id="TriplePointDataset._make",
        ),
        pytest.param(
            lambda: report()._replace(distinct_count=3),
            ValueError, "distinct_count must equal the number of pseudo-cycles",
            id="PseudoCycleReport._replace",
        ),
        pytest.param(
            lambda: PseudoCycleReport._make([(("a",),), 1, 1, (("b",),)]),
            ValueError, "witness subset ('b',) is not a pseudo-cycle",
            id="PseudoCycleReport._make",
        ),
    ])
    def test_bad_fields_raise_the_constructors_error(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error
        assert str(exc.value) == message
