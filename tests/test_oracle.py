import random
from itertools import combinations, permutations

import pytest

from helpers import brute_partitions, left_side
from jansum.charring import schur_to_monomial
from jansum.identities import conjecture_sweep, first_identity_shapes, second_identity_shapes
from jansum.lattice import Partition
from jansum.oracle import _det, enumerate_ssyt, eval_monomial, eval_schur_bialternant


class TestEnumerateSsyt:
    def test_two_standard_tableaux(self):
        assert enumerate_ssyt(Partition((2, 1)), Partition((1, 1, 1))) == 2

    def test_single_row_single_value(self):
        for k in (1, 2, 5):
            assert enumerate_ssyt(Partition((k,)), Partition((k,))) == 1

    def test_column_strictness_blocks_repeats(self):
        assert enumerate_ssyt(Partition((1, 1)), Partition((2,))) == 0

    def test_empty(self):
        assert enumerate_ssyt(Partition(), Partition()) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_ssyt(Partition((2,)), Partition((1,)))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            enumerate_ssyt(Partition((11,)), Partition((11,)))


class TestBialternant:
    def test_degree_one_is_coordinate_sum(self):
        assert eval_schur_bialternant(Partition((1,)), (2, 5, 9)) == 16

    def test_elementary_e2(self):
        assert eval_schur_bialternant(Partition((1, 1)), (1, 2, 3)) == 11

    def test_matches_monomial_expansion_at_a_point(self):
        point = (1, 2, 3)
        expanded = eval_monomial(Partition((2, 1)), point) + 2 * eval_monomial(
            Partition((1, 1, 1)), point
        )
        assert eval_schur_bialternant(Partition((2, 1)), point) == expanded

    def test_repeated_coordinates_refused(self):
        with pytest.raises(ValueError):
            eval_schur_bialternant(Partition((1,)), (3, 3))

    def test_too_few_variables_refused(self):
        with pytest.raises(ValueError):
            eval_schur_bialternant(Partition((1, 1, 1)), (1, 2))


def leibniz(m: list[list[int]]) -> int:
    """The determinant as the signed sum, over permutations, of products."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        term = -1 if sum(perm[i] > perm[j] for i, j in combinations(range(n), 2)) % 2 else 1
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


class TestDeterminant:
    def test_matches_leibniz_on_sparse_matrices(self):
        # many zeros, so that Bareiss elimination meets a zero pivot: a
        # zero leading entry with a nonzero below it is swapped, and a
        # zero first column returns 0 at once
        rng = random.Random(65)
        sizes, swapped, singular = set(), 0, 0
        for _ in range(3000):
            n = rng.randint(0, 5)
            m = [[rng.choice((0, 0, 0, -2, -1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
            assert _det(m) == leibniz(m), m
            sizes.add(n)
            if n > 1 and m[0][0] == 0:
                if any(row[0] for row in m):
                    swapped += 1
                else:
                    singular += 1
        assert sizes == set(range(6))
        assert swapped > 100 and singular > 100


class TestEvalMonomial:
    def test_pairs(self):
        assert eval_monomial(Partition((1, 1)), (1, 2, 3)) == 11

    def test_vanishes_without_enough_variables(self):
        assert eval_monomial(Partition((5,)), (0, 0)) == 0
        assert eval_monomial(Partition((1, 1, 1)), (4, 7)) == 0

    def test_orbit_of_21_at_ones(self):
        assert eval_monomial(Partition((2, 1)), (1, 1)) == 2

    def test_empty_partition_is_one(self):
        assert eval_monomial(Partition(), (3, 4)) == 1


class TestCrossChecks:
    def test_bialternant_equals_kostka_expansion(self):
        rng = random.Random(31)
        for n in range(1, 8):
            for parts in brute_partitions(n):
                lam = Partition(parts)
                expansion = schur_to_monomial(lam)
                for _ in range(3):
                    nvars = rng.randint(lam.length, n)
                    point = rng.sample(range(1, 25), nvars)
                    direct = eval_schur_bialternant(lam, point)
                    expanded = sum(
                        k * eval_monomial(mu, point) for mu, k in expansion.items()
                    )
                    assert direct == expanded, (lam, point)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_identities_spot_checked_by_evaluation(self, n):
        rng = random.Random(100 + n)
        cases = (
            (first_identity_shapes(n), next(conjecture_sweep(n, n, "first"))),
            (second_identity_shapes(n), next(conjecture_sweep(n, n, "second"))),
        )
        for shapes, report in cases:
            for _ in range(10):
                nvars = rng.randint(2, 6)
                point = rng.sample(range(1, 30), nvars)
                lhs = sum(
                    c * eval_monomial(mu, point) for mu, c in left_side(report).items()
                )
                rhs = sum(
                    (1 if i % 2 == 0 else -1) * eval_schur_bialternant(shape, point)
                    for i, shape in enumerate(shapes)
                    if shape.length <= nvars
                )
                assert lhs == rhs, (report.which, n, point)
