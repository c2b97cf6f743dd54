import json
import random
from collections import Counter

import pytest

from helpers import (
    brute_partitions,
    brute_strips,
    hook_length_count,
    prefix_leq,
    run_parts,
    schur_sum_by_kostka,
)
from jansum import charring
from jansum.charring import (
    FormalCharacter,
    _monomial_character,
    coefficient_counts,
    kostka,
    schur_sum_dag,
    schur_sum_leaves,
    schur_to_monomial,
)
from jansum.lattice import Partition, Weight, dominance_leq
from jansum.oracle import enumerate_ssyt
from jansum.serialize import monomial_json, monomial_text


def mono(parts_to_coeffs):
    return FormalCharacter({Partition(p): c for p, c in parts_to_coeffs.items()})


class TestFormalCharacter:
    def test_equality_ignores_insertion_order(self):
        a = mono({(3,): 1, (2, 1): 2})
        b = mono({(2, 1): 2, (3,): 1})
        assert a == b

    def test_zero_coefficients_dropped(self):
        x = mono({(2,): 0, (1, 1): 1})
        assert x.terms == {Partition((1, 1)): 1}
        assert not mono({(2,): 0}).terms

    def test_non_integer_coefficient_raises(self):
        with pytest.raises(TypeError):
            mono({(2,): 1.0})
        with pytest.raises(TypeError):
            mono({(2,): "1"})

    def test_equality_is_by_value(self):
        a = mono({(3,): 1, (2, 1): 2})
        assert a != mono({(3,): 1, (2, 1): 3})
        assert a != mono({(3,): 1})
        assert a != {Partition((3,)): 1, Partition((2, 1)): 2}
        assert repr(a) == "FormalCharacter(2 terms)"

    def test_is_a_read_only_view(self):
        # a character is read, never combined: sums are folded from leaves
        x = mono({(2, 1): 1})
        with pytest.raises(TypeError):
            _ = x + x
        with pytest.raises(TypeError):
            _ = x - x
        with pytest.raises(TypeError):
            _ = -x
        assert not hasattr(x, "is_zero")

    def test_keys_must_be_partitions(self):
        # the monomial basis only: a weight is no key
        with pytest.raises(ValueError, match="not a partition"):
            FormalCharacter({Weight((1, 0)): 1})
        with pytest.raises(ValueError, match="not a partition"):
            FormalCharacter({(2, 1): 1})

    def test_monomial_carries_no_levi(self):
        # a character is monomial by construction: the constructor takes its
        # terms alone, and the character names no basis and no Levi
        with pytest.raises(TypeError):
            FormalCharacter("monomial", None, {})
        x = mono({(2,): 1})
        assert not hasattr(x, "levi")
        assert not hasattr(x, "basis")
        assert not hasattr(charring, "BASIS_MONOMIAL")
        assert not hasattr(charring, "BASIS_WEYL")

    def test_writers_list_terms_reverse_lex(self):
        # S_3 + S_21 + 2 S_111 = m_3 + 2 m_21 + 5 m_111: the walk lists its
        # leaves in reverse-lexicographic order, and the writers keep it
        coeffs = {Partition((3,)): 1, Partition((2, 1)): 1, Partition((1, 1, 1)): 2}
        leaves = schur_sum_leaves(coeffs, Partition((3,)))
        assert leaves == [("3", 1), ("2,1", 2), ("1,1,1", 5)]
        assert "".join(monomial_text(leaves)) == "m[3] + 2·m[2,1] + 5·m[1,1,1]"
        keys = [t["key"] for t in json.loads("".join(monomial_json(leaves)))["terms"]]
        assert keys == [[3], [2, 1], [1, 1, 1]]


class TestKostka:
    def test_standard_examples(self):
        assert kostka(Partition((2, 1)), Partition((1, 1, 1))) == 2
        assert kostka(Partition((2, 2, 1)), Partition((1, 1, 1, 1, 1))) == 5

    def test_single_row(self):
        for k in (1, 3, 6):
            assert kostka(Partition((k,)), Partition((k,))) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kostka(Partition((2,)), Partition((1,)))

    def test_unitriangularity_and_ssyt_agreement_up_to_6(self):
        for n in range(0, 7):
            ps = [Partition(t) for t in brute_partitions(n)]
            for lam in ps:
                assert kostka(lam, lam) == 1
                for mu in ps:
                    value = kostka(lam, mu)
                    assert value == enumerate_ssyt(lam, mu)
                    assert (value > 0) == dominance_leq(mu, lam)

    @pytest.mark.parametrize(
        "shape", [(6, 4, 2), (5, 5, 5), (8, 6, 4, 2), (10, 10, 10), tuple(range(26, 0, -1))]
    )
    def test_standard_content_matches_hook_length_formula(self, shape):
        # beyond the SSYT oracle's reach: K(shape, 1^n) counts standard tableaux
        n = sum(shape)
        assert kostka(Partition(shape), Partition((1,) * n)) == hook_length_count(shape)


class TestStrips:
    """The one strip enumerator, charring._strips, against brute_strips: it
    takes a shape by its runs (charring._runs) and adds each inner shape's
    coefficient, keyed by the inner shape's runs, into the caller's
    per-size sums."""

    @staticmethod
    def shapes():
        # the empty shape, single rows and columns, staircases, shapes of a
        # few long runs, and seeded random partitions of size at most 14
        rng = random.Random(14)
        every = [t for n in range(1, 15) for t in brute_partitions(n)]
        yield ()
        for k in (1, 2, 5, 9):
            yield (k,)
            yield (1,) * k
            yield tuple(range(k, 0, -1))
        yield (2,) * 12
        yield (5,) * 3 + (1,) * 9
        yield (4,) * 4 + (2,) * 4 + (1,) * 4
        yield (1,) * 14
        yield from rng.sample(every, 60)

    @staticmethod
    def strips(terms, cap, least):
        """The per-size sums of charring._strips over (parts, coeff) terms,
        each inner shape keyed by its parts; run_parts asserts that every
        key written is in canonical run form."""
        sums = [{} for _ in range(cap + 1 - least)]
        for shape, coeff in terms:
            charring._strips(charring._runs(shape), cap, least, coeff, sums)
        return [{run_parts(inner): c for inner, c in found.items()} for found in sums]

    @staticmethod
    def brute_sums(terms, cap, least):
        """The per-size sums of the strips of every (shape, coeff) term,
        sizes least..cap, from brute_strips."""
        sums = [{} for _ in range(cap + 1 - least)]
        for shape, coeff in terms:
            for found, total in zip(brute_strips(shape, cap)[least:], sums):
                for inner in found:
                    total[inner] = total.get(inner, 0) + coeff
        return sums

    def test_runs_of_a_shape(self):
        assert charring._runs(()) == ()
        assert charring._runs((3, 3, 2, 1, 1, 1)) == (3, 2, 2, 1, 1, 3)
        assert charring._runs((1,) * 14) == (1, 14)
        for shape in self.shapes():
            assert run_parts(charring._runs(shape)) == shape

    def test_every_cap_against_brute_force(self):
        # every cap, and every least up to it: among them all sizes
        # (least = 0), the sizes the walk steps (least = 1) and the one size
        # a Kostka number peels (least = cap)
        cases = 0
        for shape in self.shapes():
            for cap in range(0, (shape[0] if shape else 0) + 2):
                expected = brute_strips(shape, cap)
                for least in range(cap + 1):
                    sums = self.strips([(shape, 1)], cap, least)
                    assert [sorted(found) for found in sums] == expected[least:], (shape, cap, least)
                    assert all(c == 1 for found in sums for c in found.values())
                cases += 1
        assert cases > 400

    def test_sums_shared_across_shapes(self):
        # seeded signed sums of shapes of one size, their coefficients other
        # than 1, summed into one list of per-size sums as the walk's step
        # and kostka do; an inner shape that two shapes share adds both, and
        # a sum that cancels keeps its 0, which the step then drops
        rng = random.Random(16)
        shared = cancelled = 0
        for _ in range(150):
            n = rng.randint(1, 12)
            every = list(brute_partitions(n))
            shapes = rng.sample(every, min(len(every), rng.randint(1, 6)))
            terms = [(shape, rng.choice((-2, -1, 2, 3))) for shape in shapes]
            cap = rng.randint(1, n)
            least = rng.choice((0, 1, cap))
            sums = self.strips(terms, cap, least)
            assert sums == self.brute_sums(terms, cap, least), (terms, cap, least)
            alone = [self.brute_sums([term], cap, least) for term in terms]
            seen = Counter(inner for found in alone for total in found for inner in total)
            shared += any(k > 1 for k in seen.values())
            cancelled += any(c == 0 for total in sums for c in total.values())
        assert shared > 50 and cancelled > 20


class TestSchurToMonomial:
    def test_column_is_single_orbit(self):
        for k in (1, 2, 4):
            ch = schur_to_monomial(Partition((1,) * k))
            assert ch.terms == {Partition((1,) * k): 1}

    def test_shape_21(self):
        ch = schur_to_monomial(Partition((2, 1)))
        assert ch.terms == {Partition((2, 1)): 1, Partition((1, 1, 1)): 2}

    def test_complete_homogeneous_h2(self):
        ch = schur_to_monomial(Partition((2,)))
        assert ch.terms == {Partition((2,)): 1, Partition((1, 1)): 1}

    def test_signed_sum_is_linear(self):
        shapes = [Partition((3, 1, 1)), Partition((2, 2, 1)), Partition((2, 1, 1, 1))]
        coeffs = {shapes[0]: 2, shapes[1]: -1, shapes[2]: 3}
        expected = {}
        for shape, c in coeffs.items():
            for mu, k in schur_to_monomial(shape).terms.items():
                expected[mu] = expected.get(mu, 0) + c * k
        got = _monomial_character(schur_sum_leaves(coeffs, Partition((3, 2))))
        assert got == FormalCharacter(expected)

    def test_signed_sum_needs_a_dominating_top(self):
        with pytest.raises(ValueError):
            _monomial_character(schur_sum_leaves({Partition((3, 1)): 1}, Partition((2, 2))))

    @pytest.mark.parametrize("seed", range(12))
    def test_coefficient_counts_match_the_expansion(self, seed):
        # any top, so that prefix bounds bind at any depth; any signed shapes
        rng = random.Random(seed)
        top = rng.choice(list(brute_partitions(rng.randint(1, 10))))
        below = [t for t in brute_partitions(sum(top)) if prefix_leq(t, top)]
        coeffs = {Partition(t): rng.randint(-3, 3) for t in rng.sample(below, min(4, len(below)))}
        terms = _monomial_character(schur_sum_leaves(coeffs, Partition(top))).terms
        expected = Counter(terms.get(Partition(t), 0) for t in below)
        assert coefficient_counts(schur_sum_dag(coeffs, Partition(top))) == expected

    @pytest.mark.parametrize(
        "seed",
        [
            *range(12),
            (1,) * 13,
            (2,) * 9,
            (3,) + (1,) * 12,
            (6, 6, 1),
            (2,) * 30,
            (3,) * 8 + (1,) * 10,
            (7, 7) + (1,) * 13,
        ],
    )
    def test_expansion_matches_the_kostka_numbers(self, seed):
        # the tops and shapes drawn above, and given tops whose ideals end in
        # long runs of ones or whose shapes are a few long runs, against one
        # Kostka number per (shape, mu): an oracle that walks no ideal and
        # ends its ones by the hook length formula, not by the walk's finish
        if isinstance(seed, tuple):
            rng, top = random.Random(len(seed)), Partition(seed)
        else:
            rng = random.Random(seed)
            top = Partition(rng.choice(list(brute_partitions(rng.randint(1, 10)))))
        below = [t for t in brute_partitions(top.size, top.parts[0]) if prefix_leq(t, top.parts)]
        coeffs = {Partition(t): rng.randint(-3, 3) for t in rng.sample(below, min(4, len(below)))}
        expected = schur_sum_by_kostka(coeffs, top)
        assert coefficient_counts(schur_sum_dag(coeffs, top)) == Counter(expected.values())
        terms = _monomial_character(schur_sum_leaves(coeffs, top)).terms
        assert list(terms.items()) == [(mu, c) for mu, c in expected.items() if c]

    def test_partitions_of_one_coefficient_share_a_leaf(self):
        # a run of ones ends at its coefficient's leaf: stored one key per
        # cell, the runs made 3 780 keys below (2^60) and 7 650 below (12,8,4)
        for top, keys in [((2,) * 60, 181), ((12, 8, 4), 3771)]:
            b = Partition(top)
            assert len(schur_sum_dag({b: 1}, b)) == keys, top

    def test_coefficient_counts_keep_cancelled_branches(self):
        # S(2,1) - 2 S(1,1,1) = m(2,1): below the part 1 the state cancels,
        # and its one partition (1,1,1) still counts, with coefficient 0
        top = Partition((2, 1))
        counts = coefficient_counts(schur_sum_dag({top: 1, Partition((1, 1, 1)): -2}, top))
        assert counts == {1: 1, 0: 1}
        assert coefficient_counts(schur_sum_dag({}, top)) == {0: 2}

    def test_coefficient_counts_need_a_dominating_top(self):
        with pytest.raises(ValueError, match="not below"):
            coefficient_counts(schur_sum_dag({Partition((3,)): 1}, Partition((2, 1))))

    def test_support_matches_dominance_ideal(self):
        lam = Partition((3, 2))
        assert {k.parts for k in schur_to_monomial(lam).terms} == {
            t for t in brute_partitions(5) if prefix_leq(t, (3, 2))
        }
