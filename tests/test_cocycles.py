import random
from itertools import product

import pytest

from quandlehom import (
    Chain,
    Cocycle3,
    boundary_quandle,
    is_null_homologous,
    is_quandle_3cocycle,
    mochizuki_theta,
    mochizuki_theta_p,
    pair,
    quandle_basis,
)
from quandlehom import cocycles
from quandlehom.errors import DegreeError, QuandleMismatchError, ResourceLimitError


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
    def test_theta_passes_over_all_81_quadruples(self, theta):
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
