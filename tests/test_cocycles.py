import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlehom import (
    Chain,
    Cocycle3,
    Quandle,
    boundary_quandle,
    boundary_rack,
    is_degenerate,
    is_null_homologous,
    is_quandle_3cocycle,
    mochizuki_theta,
    mochizuki_theta_p,
    pair,
    project_quandle,
    quandle_basis,
)
from quandlehom import chains, cocycles
from quandlehom.cocycles import CocycleCheck
from quandlehom.errors import DegreeError, QuandleMismatchError, ResourceLimitError

from conftest import CROSS_CHECK_QUANDLES, named_order_five, quandle_inventory


def brute_force_3cocycle_check(cocycle):
    """The oracle: both cocycle conditions over every triple and all n^4
    4-tuples in lexicographic order, degenerate ones included."""
    q = cocycle.quandle
    n = q.order
    for x, y in product(range(n), repeat=2):
        if cocycle(x, x, y) != 0:
            return CocycleCheck(False, (x, x, y))
        if cocycle(x, y, y) != 0:
            return CocycleCheck(False, (x, y, y))
    for gen in product(range(n), repeat=4):
        if pair(cocycle, project_quandle(boundary_rack(Chain.generator(gen), q))) != 0:
            return CocycleCheck(False, gen)
    return CocycleCheck(True, None)


@pytest.fixture(scope="module")
def theta():
    return mochizuki_theta()


class TestThetaValues:
    def test_frozen_values(self, theta):
        # 2 * ((4)^3 + 0 - 16) / 3 = 32 = 2 mod 3
        assert theta(2, 0, 2) == 2
        # ((-1)^3 + 1 - 0) / 3 = 0
        assert theta(2, 1, 0) == 0

    def test_vanishes_when_first_two_agree(self, theta):
        for x, y in product(range(3), repeat=2):
            assert theta(x, x, y) == 0

    def test_vanishes_when_last_two_agree(self, theta):
        for x, y in product(range(3), repeat=2):
            assert theta(x, y, y) == 0

    def test_inner_expression_divisible_by_three_on_sweep(self):
        # x^3 = x mod 3 makes the numerator divisible for any integers
        for q in range(-20, 21):
            for r in range(-20, 21):
                assert ((2 * r - q) ** 3 + q ** 3 - 2 * r ** 3) % 3 == 0

    def test_out_of_range_arguments_rejected(self, theta):
        with pytest.raises(ValueError):
            theta(3, 0, 0)


class TestCocycleCheck:
    def test_theta_passes(self, theta):
        check = is_quandle_3cocycle(theta)
        assert check.ok
        assert check.witness is None
        assert bool(check)

    def test_zero_function_is_a_cocycle(self, r3):
        zero = Cocycle3.from_function(r3, 3, lambda x, y, z: 0)
        assert is_quandle_3cocycle(zero).ok

    def test_projection_to_first_coordinate_fails_with_witness(self, r3):
        f = Cocycle3.from_function(r3, 3, lambda x, y, z: x)
        check = is_quandle_3cocycle(f)
        assert not check.ok
        x, y, z = check.witness
        # the reported witness is a degenerate triple with nonzero value
        assert (x == y or y == z) and f(x, y, z) != 0

    def test_nondegenerate_violation_reports_quadruple(self, r3):
        # vanishes on degenerate triples but is not closed under d4
        f = Cocycle3.from_function(
            r3, 3, lambda x, y, z: 0 if (x == y or y == z) else (x + 2 * y + z)
        )
        check = is_quandle_3cocycle(f)
        assert not check.ok
        assert len(check.witness) == 4


class TestNonDegenerateScan:
    @pytest.mark.parametrize("name,q,degrees", [
        *(pytest.param(name, q, range(2, 6), id=name) for name, q in quandle_inventory()),
        *(pytest.param(name, q, range(2, 5), id=name) for name, q in CROSS_CHECK_QUANDLES),
    ])
    def test_degenerate_tuples_have_zero_projected_boundary(self, name, q, degrees):
        # the lemma that lets the check skip degenerate 4-tuples
        for degree in degrees:
            for tup in product(range(q.order), repeat=degree):
                if is_degenerate(tup):
                    bd = project_quandle(boundary_rack(Chain.generator(tup), q))
                    assert bd.is_zero(), (name, tup)

    def test_a_passing_check_pairs_each_nondegenerate_quadruple_once(self, theta, monkeypatch):
        paired = []
        kernel = cocycles._pair

        def recording_pair(cocycle, chain):
            paired.append(chain)
            return kernel(cocycle, chain)

        monkeypatch.setattr(cocycles, "_pair", recording_pair)
        assert is_quandle_3cocycle(theta).ok
        q = theta.quandle
        assert len(paired) == 24
        assert paired == [
            project_quandle(boundary_rack(Chain.generator(gen), q)) for gen in quandle_basis(q, 4)
        ]

    def test_the_check_runs_no_tuple_check(self, monkeypatch):
        # the face chains are built in range from the quandle's own table
        checks = []
        check = chains._check_tuples

        def counted_check(*args, **kwargs):
            checks.append(args)
            return check(*args, **kwargs)

        for module in (chains, cocycles):
            monkeypatch.setattr(module, "_check_tuples", counted_check)
        assert is_quandle_3cocycle(mochizuki_theta_p(5)).ok
        assert checks == []


def relabelled(cocycle, q, sigma):
    """The cocycle moved to q, the cocycle's quandle relabelled by sigma."""
    inv = {s: x for x, s in enumerate(sigma)}
    return Cocycle3.from_function(
        q, cocycle.modulus, lambda x, y, z: cocycle(inv[x], inv[y], inv[z])
    )


_QUANDLES = dict(quandle_inventory() + CROSS_CHECK_QUANDLES + named_order_five())
THETA_CASES = [
    ("R3", mochizuki_theta_p(3)),
    ("R5", mochizuki_theta_p(5)),
    ("R7", mochizuki_theta_p(7)),
    ("R5 relabelled", relabelled(
        mochizuki_theta_p(5), _QUANDLES["R5 relabelled"], [1, 0, 2, 3, 4]
    )),
]


def coboundary(q, modulus, psi):
    """psi o d_3 for a 2-cochain psi that vanishes on degenerate pairs: a
    3-cocycle on every quandle, as d_3 d_4 = 0."""
    def value(x, y, z):
        bd = boundary_rack(Chain.generator((x, y, z)), q)
        return sum(c * psi[a][b] for (a, b), c in bd.items())

    return Cocycle3.from_function(q, modulus, value)


@st.composite
def candidate_tables(draw):
    """theta_p or a random coboundary, with or without one entry changed."""
    if draw(st.booleans()):
        name, cocycle = draw(st.sampled_from(THETA_CASES))
        q, modulus = cocycle.quandle, cocycle.modulus
        table = cocycle.table()
    else:
        name, q = draw(st.sampled_from(sorted(_QUANDLES.items())))
        modulus = draw(st.integers(2, 6))
        n = q.order
        psi = [[0 if x == y else draw(st.integers(0, modulus - 1)) for y in range(n)]
               for x in range(n)]
        table = coboundary(q, modulus, psi).table()
    if draw(st.booleans()):
        n = q.order
        x, y, z = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[x][y][z] += draw(st.integers(1, modulus - 1))
    return name, Cocycle3(q, modulus, table)


class TestAgainstTheBruteForceOracle:
    def test_theta_and_coboundaries_are_cocycles(self):
        for name, cocycle in THETA_CASES:
            assert brute_force_3cocycle_check(cocycle).ok, name
        for name, q in _QUANDLES.items():
            n = q.order
            psi = [[(x + 2 * y) % 5 if x != y else 0 for y in range(n)] for x in range(n)]
            assert brute_force_3cocycle_check(coboundary(q, 5, psi)).ok, name

    @settings(max_examples=100, deadline=None, database=None)
    @given(candidate_tables())
    def test_same_verdict_and_witness(self, case):
        name, cocycle = case
        assert is_quandle_3cocycle(cocycle) == brute_force_3cocycle_check(cocycle), name


class TestThetaFamily:
    def test_p3_matches_base_construction(self, theta):
        assert mochizuki_theta_p(3) == theta

    def test_p5_passes_brute_force(self):
        theta5 = mochizuki_theta_p(5)
        assert theta5.modulus == 5
        assert is_quandle_3cocycle(theta5).ok

    def test_p5_vanishes_on_degenerate_triples(self):
        theta5 = mochizuki_theta_p(5)
        for x, y in product(range(5), repeat=2):
            assert theta5(x, x, y) == 0
            assert theta5(x, y, y) == 0

    def test_p7_passes_brute_force(self):
        assert is_quandle_3cocycle(mochizuki_theta_p(7)).ok

    @pytest.mark.parametrize("bad", [2, 4, 9, 1, 0, -3])
    def test_non_odd_primes_rejected(self, bad):
        with pytest.raises(ValueError):
            mochizuki_theta_p(bad)

    def test_primality_agrees_with_trial_division(self):
        for p in range(3, 200, 2):
            assert cocycles._is_odd_prime(p) == all(p % d for d in range(2, p)), p

    def test_square_of_the_second_odd_prime_rejected(self):
        # 25 is the least odd composite with no factor 3: its trial division
        # must step on to d = 5
        with pytest.raises(ValueError) as exc:
            mochizuki_theta_p(25)
        assert str(exc.value) == "expected an odd prime, got 25"

    @pytest.mark.parametrize("bad", [True, -3, 0, 2.0, 3.0])
    def test_non_positive_and_non_int_reported_as_not_an_odd_prime(self, bad, monkeypatch):
        def unreachable(n):
            raise AssertionError("a dihedral quandle was built")

        monkeypatch.setattr(Quandle, "dihedral", unreachable)
        with pytest.raises(ValueError) as exc:
            mochizuki_theta_p(bad)
        assert str(exc.value) == f"expected an odd prime, got {bad!r}"

    @pytest.mark.parametrize("p", [33, 37, 10**30 + 57])
    def test_order_limit_refused_before_the_primality_test(self, p, monkeypatch):
        def unreachable(p):
            raise AssertionError("the primality test ran")

        monkeypatch.setattr(cocycles, "_is_odd_prime", unreachable)
        with pytest.raises(ResourceLimitError, match="MAX_DIHEDRAL_ORDER = 32"):
            mochizuki_theta_p(p)


class TestPairing:
    def test_cbar1_pairs_to_two(self, theta, cbar1):
        assert pair(theta, cbar1) == 2

    def test_cbar2_pairs_to_one(self, theta, cbar1):
        assert pair(theta, -cbar1) == 1

    def test_zero_chain_pairs_to_zero(self, theta):
        assert pair(theta, Chain.zero(3)) == 0

    def test_linearity(self, theta, r3):
        rng = random.Random(41)
        basis3 = quandle_basis(r3, 3)
        for _ in range(30):
            c1 = Chain(3, [(rng.choice(basis3), rng.randint(-5, 5)) for _ in range(4)])
            c2 = Chain(3, [(rng.choice(basis3), rng.randint(-5, 5)) for _ in range(4)])
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            lhs = pair(theta, a * c1 + b * c2)
            assert lhs == (a * pair(theta, c1) + b * pair(theta, c2)) % 3

    def test_invariant_under_100_boundary_perturbations(self, theta, r3, cbar1):
        rng = random.Random(43)
        basis4 = quandle_basis(r3, 4)
        cycles = [cbar1, -cbar1, Chain.zero(3), 2 * cbar1]
        for _ in range(100):
            d = Chain(4, [(rng.choice(basis4), rng.randint(-5, 5)) for _ in range(5)])
            bd = boundary_quandle(d, r3)
            c = rng.choice(cycles)
            assert pair(theta, c + bd) == pair(theta, c)

    def test_nonzero_pairing_implies_not_null_homologous(self, theta, r3, cbar1):
        rng = random.Random(47)
        basis4 = quandle_basis(r3, 4)
        suite = [cbar1, -cbar1, 2 * cbar1, 3 * cbar1, Chain.zero(3)]
        for _ in range(10):
            d = Chain(4, [(rng.choice(basis4), rng.randint(-3, 3)) for _ in range(4)])
            suite.append(cbar1 + boundary_quandle(d, r3))
            suite.append(boundary_quandle(d, r3))
        for cycle in suite:
            if pair(theta, cycle) != 0:
                assert is_null_homologous(cycle, r3) is False

    def test_quandle_mismatch_rejected(self, theta):
        with pytest.raises(QuandleMismatchError) as exc:
            pair(theta, Chain.generator((0, 4, 0)))
        assert isinstance(exc.value, ValueError)

    def test_wrong_degree_rejected(self, theta):
        with pytest.raises(DegreeError):
            pair(theta, Chain.generator((0, 1)))


class TestTableExport:
    def test_table_shape_and_values(self, theta):
        table = theta.table()
        assert len(table) == 3 and all(len(p) == 3 for p in table)
        assert table[2][0][2] == 2
        for x, y, z in product(range(3), repeat=3):
            assert table[x][y][z] == theta(x, y, z)
