import time

import pytest

from jansum.charring import BASIS_MONOMIAL, FormalCharacter, schur_to_monomial
from jansum.identities import (
    conjecture_sweep,
    first_identity_shapes,
    multiplicity_one_report,
    second_identity_shapes,
    verify_first_identity,
    verify_second_identity,
)
from jansum.lattice import Partition, partitions_below


class TestShapes:
    def test_first_family(self):
        assert [s.parts for s in first_identity_shapes(3)] == [(2, 2, 1), (2, 1, 1, 1)]
        assert [s.parts for s in first_identity_shapes(2)] == [(1, 1, 1)]

    def test_second_family(self):
        assert [s.parts for s in second_identity_shapes(4)] == [
            (3, 1),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]


class TestFirstIdentity:
    def test_n2_single_column(self):
        report = verify_first_identity(2)
        assert report.equal
        assert report.prime
        assert report.lhs.terms == {Partition((1, 1, 1)): 1}
        assert report.rhs.terms == {Partition((1, 1, 1)): 1}

    def test_n3_frozen_expansion(self):
        # S(2,2,1) - S(2,1,1,1) with Kostka rows (1,2,5) and (1,4)
        report = verify_first_identity(3)
        assert report.equal
        assert report.rhs.terms == {
            Partition((2, 2, 1)): 1,
            Partition((2, 1, 1, 1)): 1,
            Partition((1, 1, 1, 1, 1)): 1,
        }

    def test_n5_prime(self):
        report = verify_first_identity(5)
        assert report.equal
        assert report.prime
        assert report.label == "theorem"

    def test_rejects_n_below_2(self):
        with pytest.raises(ValueError):
            verify_first_identity(1)


class TestSecondIdentity:
    def test_n2(self):
        report = verify_second_identity(2)
        assert report.equal
        assert report.lhs.terms == {Partition((1, 1)): 1}

    def test_n4_composite(self):
        report = verify_second_identity(4)
        assert report.equal
        assert not report.prime
        assert report.label == "conjecture instance"
        assert report.lhs.terms == {
            Partition((3, 1)): 1,
            Partition((2, 2)): 1,
            Partition((2, 1, 1)): 1,
            Partition((1, 1, 1, 1)): 1,
        }

    def test_n7_prime(self):
        report = verify_second_identity(7)
        assert report.equal
        assert report.prime


class TestHomogeneity:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_degrees(self, n):
        first = verify_first_identity(n)
        for char, degree in ((first.lhs, 2 * n - 1), (first.rhs, 2 * n - 1)):
            assert all(key.size == degree for key in char.terms)
        second = verify_second_identity(n)
        for char, degree in ((second.lhs, n), (second.rhs, n)):
            assert all(key.size == degree for key in char.terms)


class TestSweep:
    def test_range_of_second(self):
        reports = list(conjecture_sweep(2, 6, "second"))
        assert [r.n for r in reports] == [2, 3, 4, 5, 6]
        assert all(r.equal for r in reports)

    def test_single_composite(self):
        (report,) = conjecture_sweep(4, 4, "first")
        assert not report.prime
        assert report.equal

    def test_single_prime(self):
        (report,) = conjecture_sweep(2, 2, "first")
        assert report.prime

    def test_bad_range(self):
        with pytest.raises(ValueError):
            conjecture_sweep(5, 4, "first")
        with pytest.raises(ValueError):
            conjecture_sweep(1, 4, "first")
        with pytest.raises(ValueError):
            conjecture_sweep(2, 4, "first", jobs=0)

    def test_huge_ideal_refused_before_the_first_report(self):
        # n = 150 would need about 4e10 partitions
        with pytest.raises(ValueError, match="refused"):
            conjecture_sweep(2, 150, "second")

    def test_bad_which(self):
        with pytest.raises(ValueError):
            conjecture_sweep(2, 3, "third")

    @pytest.mark.parametrize("check", [verify_first_identity, verify_second_identity])
    def test_huge_ideal_refused_before_the_shapes(self, check):
        # the n - 1 shapes of n = 4000 hold about 8e6 parts
        started = time.perf_counter()
        with pytest.raises(ValueError, match="refused"):
            check(4000)
        assert time.perf_counter() - started < 0.1


class TestNegativeControl:
    def test_dropping_one_term_breaks_equality(self):
        report = verify_first_identity(5)
        assert report.equal and report.diff.is_zero
        shapes = first_identity_shapes(5)
        truncated = FormalCharacter(BASIS_MONOMIAL, None, {})
        for i, shape in enumerate(shapes[:-1]):  # drop the last alternating term
            term = schur_to_monomial(shape)
            truncated = truncated + (term if i % 2 == 0 else -term)
        diff = report.lhs - truncated
        assert not diff.is_zero


class TestMultiplicityOne:
    def test_p3_d4(self):
        report = multiplicity_one_report(3, 4)
        assert report.passed
        first, second = report.families
        assert first.target == Partition((2, 2, 1))
        assert set(first.character.terms) == set(partitions_below(Partition((2, 2, 1))))
        assert all(c == 1 for c in first.character.terms.values())
        assert second.target == Partition((2, 1))

    def test_p2_d3(self):
        report = multiplicity_one_report(2, 3)
        assert report.passed
        first, second = report.families
        assert first.character.terms == {Partition((1, 1, 1)): 1}
        assert second.character.terms == {Partition((1, 1)): 1}

    def test_p5_d8(self):
        report = multiplicity_one_report(5, 8)
        assert report.passed
        first, _ = report.families
        assert set(first.character.terms) == set(partitions_below(Partition((4, 4, 1))))

    def test_equivalence_with_first_identity(self):
        # same computation read two ways, for prime n
        for p, d in [(3, 4), (5, 8)]:
            assert verify_first_identity(p).equal
            assert multiplicity_one_report(p, d).passed

    def test_refuses_small_d(self):
        with pytest.raises(ValueError):
            multiplicity_one_report(5, 7)

    def test_refuses_composite_p(self):
        with pytest.raises(ValueError):
            multiplicity_one_report(4, 8)
