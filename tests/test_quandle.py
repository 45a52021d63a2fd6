from itertools import product

import pytest

from quandlehom import Quandle, quandle
from quandlehom.errors import QuandleAxiomError, ResourceLimitError, SchemaError
from quandlehom.pseudocycles import quandle_from_json
from quandlehom.quandle import MAX_DIHEDRAL_ORDER

from conftest import S4_TABLE, least_relabelling, quandle_classes, trivial_table


def brute_force_axioms(q):
    n = q.order
    t = q.table
    for x in range(n):
        assert t[x][x] == x
    for y in range(n):
        assert sorted(t[x][y] for x in range(n)) == list(range(n))
    for x, y, z in product(range(n), repeat=3):
        assert t[t[x][y]][z] == t[t[x][z]][t[y][z]]


def test_dihedral_3_table_convention():
    # table[x][y] = x * y = (2y - x) mod 3, row is the left operand
    assert Quandle.dihedral(3).table == ((0, 2, 1), (2, 1, 0), (1, 0, 2))


def test_dihedral_validates_for_small_orders():
    for n in range(1, 10):
        brute_force_axioms(Quandle.dihedral(n))


def test_dihedral_rows_do_not_depend_on_how_the_table_is_read(monkeypatch):
    # a constructor that takes every row before reading any entry must
    # still get R_n: each row is complete when it is handed over
    original = Quandle.__init__

    def rows_first(self, table):
        original(self, list(table))

    monkeypatch.setattr(Quandle, "__init__", rows_first)
    for n in (3, 5, 8):
        assert Quandle.dihedral(n).table == tuple(
            tuple((2 * y - x) % n for y in range(n)) for x in range(n)
        )


def test_inventory_passes_brute_force_recheck(inventory):
    for _, q in inventory:
        brute_force_axioms(q)


def test_inventory_holds_every_class_of_order_at_most_4(inventory):
    # 1, 1, 3 and 7 isomorphism classes of orders 1 to 4 (OEIS A181769)
    assert [len(quandle_classes(n)) for n in range(1, 5)] == [1, 1, 3, 7]
    assert len(inventory) == len(dict(inventory)) == 12
    # a named class holds the least relabelling of the quandle it is named for
    r3 = Quandle.dihedral(3).table
    named = {
        "R1": Quandle.dihedral(1).table,
        "T2": trivial_table(2),
        "T3": trivial_table(3),
        "T4": trivial_table(4),
        "R3": r3,
        "R4": Quandle.dihedral(4).table,
        "S4": S4_TABLE,
        "R3 + pt": [[*row, x] for x, row in enumerate(r3)] + [[3] * 4],
    }
    for name, table in named.items():
        assert dict(inventory)[name].table == least_relabelling(table), name


def test_order_five_classes(order_five):
    # 22 isomorphism classes of order 5 (OEIS A181769)
    assert len(order_five) == 22
    for q in order_five:
        brute_force_axioms(q)
    assert least_relabelling(Quandle.dihedral(5).table) in [q.table for q in order_five]
    assert least_relabelling(trivial_table(5)) in [q.table for q in order_five]


def test_act_values(r3):
    assert r3.act(0, 0) == 0
    assert r3.act(2, 2) == 2
    assert r3.act(2, 0) == 1
    assert r3.act(1, 2) == 0
    assert r3.act(0, 2) == 1
    assert r3.act(2, 1) == 0


def test_act_rejects_out_of_range(r3):
    with pytest.raises(ValueError):
        r3.act(3, 0)
    with pytest.raises(ValueError):
        r3.act(0, -1)
    with pytest.raises(ValueError):
        r3.act(0, True)


def test_dihedral_order_limit_refused_before_the_table(monkeypatch):
    def built(self, table):
        raise AssertionError("the table was built")

    Quandle.dihedral(MAX_DIHEDRAL_ORDER)
    monkeypatch.setattr(Quandle, "__init__", built)
    for n in (MAX_DIHEDRAL_ORDER + 1, 100_000):
        with pytest.raises(ResourceLimitError, match=f"MAX_DIHEDRAL_ORDER = {MAX_DIHEDRAL_ORDER}"):
            Quandle.dihedral(n)


@pytest.fixture
def no_axiom_scan(monkeypatch):
    # the distributivity scan walks product(range(n), repeat=3)
    def scanned(*args, **kwargs):
        raise AssertionError("the n^3 axiom scan was reached")

    monkeypatch.setattr(quandle, "product", scanned)


def test_table_order_limit_refused_before_validation(no_axiom_scan):
    for n in (MAX_DIHEDRAL_ORDER + 1, 1000):
        with pytest.raises(SchemaError, match=f"MAX_DIHEDRAL_ORDER = {MAX_DIHEDRAL_ORDER}") as exc:
            quandle_from_json({"kind": "table", "table": trivial_table(n)})
        assert exc.value.path == "quandle.table"


def test_constructor_applies_the_table_order_limit(no_axiom_scan):
    # Quandle(table) and Quandle.from_table share the one guard
    for build in (Quandle, Quandle.from_table):
        for n in (MAX_DIHEDRAL_ORDER + 1, 40):
            with pytest.raises(
                ResourceLimitError,
                match=f"quandle table has {n} rows, over the limit MAX_DIHEDRAL_ORDER = 32",
            ):
                build(trivial_table(n))


def test_table_order_limit_admits_its_bound():
    assert Quandle(trivial_table(MAX_DIHEDRAL_ORDER)).order == MAX_DIHEDRAL_ORDER


def test_dihedral_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        Quandle.dihedral(0)
    with pytest.raises(ValueError):
        Quandle.dihedral(-2)


def test_from_table_accepts_r3(r3):
    assert Quandle.from_table([[0, 2, 1], [2, 1, 0], [1, 0, 2]]) == r3


def test_from_table_accepts_trivial_quandles():
    for n in range(1, 5):
        q = Quandle.from_table(trivial_table(n))
        assert all(q.act(x, y) == x for x in range(n) for y in range(n))


def test_idempotency_violation_reported_with_witness():
    with pytest.raises(QuandleAxiomError) as exc:
        Quandle.from_table([[1, 0], [0, 1]])
    assert exc.value.axiom == "idempotency"
    assert exc.value.witness == (0,)


def test_right_bijectivity_violation_reported_with_witness():
    # idempotent but column 0 is constant
    with pytest.raises(QuandleAxiomError) as exc:
        Quandle.from_table([[0, 0], [0, 1]])
    assert exc.value.axiom == "right_bijectivity"
    assert exc.value.witness == (0,)


def test_distributivity_violation_reported_with_witness():
    # idempotent with bijective columns, found by exhaustive search
    with pytest.raises(QuandleAxiomError) as exc:
        Quandle.from_table([[0, 2, 1], [1, 1, 0], [2, 0, 2]])
    assert exc.value.axiom == "distributivity"
    assert exc.value.witness == (0, 1, 2)


def test_from_table_rejects_malformed_tables():
    with pytest.raises(ValueError):
        Quandle.from_table([])
    with pytest.raises(ValueError):
        Quandle.from_table([[0, 1], [1]])
    with pytest.raises(ValueError):
        Quandle.from_table([[0, 2], [1, 1]])  # entry 2 out of range
    with pytest.raises(ValueError):
        Quandle.from_table([[0.0, 1], [1, 0]])


def test_dihedral_odd_orders_are_connected():
    # repeated right actions reach every element from any start
    for n in (1, 3, 5, 7, 9):
        q = Quandle.dihedral(n)
        for start in range(n):
            seen = {start}
            frontier = [start]
            while frontier:
                x = frontier.pop()
                for y in range(n):
                    z = q.act(x, y)
                    if z not in seen:
                        seen.add(z)
                        frontier.append(z)
            assert seen == set(range(n))


def test_quandle_is_immutable(r3):
    with pytest.raises(AttributeError):
        r3.order = 5
    assert isinstance(r3.table, tuple)
    assert isinstance(r3.table[0], tuple)


def test_equality_and_hash(r3):
    again = Quandle.dihedral(3)
    assert r3 == again
    assert hash(r3) == hash(again)
    assert r3 != Quandle.dihedral(5)
