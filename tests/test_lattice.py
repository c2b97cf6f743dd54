import random

import pytest

from helpers import brute_partitions, coroot_sum, omega_sum, prefix_leq, random_weight
from jansum import charring, lattice
from jansum.jantzen import lambda_sequence
from jansum.lattice import (
    Partition,
    Weight,
    check_ideal_size,
    dominance_leq,
    partitions_below,
    rho,
)
from jansum.weyl import to_epsilon


class TestPartition:
    def test_strips_trailing_zeros(self):
        assert Partition((2, 1, 0, 0)).parts == (2, 1)
        assert Partition((0, 0)).parts == ()

    def test_empty_is_valid(self):
        empty = Partition()
        assert empty.size == 0
        assert empty.length == 0

    def test_size_and_length(self):
        p = Partition((3, 3, 1))
        assert p.size == 7
        assert p.length == 3

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_rejects_interior_zero(self):
        with pytest.raises(ValueError):
            Partition((2, 0, 1))

    def test_hash_and_eq(self):
        assert Partition((2, 1)) == Partition([2, 1, 0])
        assert hash(Partition((2, 1))) == hash(Partition((2, 1)))
        assert Partition((2, 1)) != Partition((3,))


class TestWeight:
    def test_rank_and_arithmetic(self):
        w = Weight((1, 2))
        v = Weight((0, -1))
        assert w.rank == 2
        assert (w + v).coords == (1, 1)
        assert (w - v).coords == (1, 3)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            Weight((1, 2)) + Weight((1, 2, 3))

    def test_rejects_rank_below_two(self):
        with pytest.raises(ValueError):
            Weight((1,))

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Weight((1.0, 2))


class TestPairing:
    # the pairing with alpha_{lo,hi}^vee: the tests' coordinate sum, and the
    # epsilon difference x_lo - x_{hi+1} that oracle.reference_jantzen reads
    def test_lambda0_shifted_against_alpha22(self):
        shifted = lambda_sequence(3, 4)[0] + rho(4)
        assert shifted.coords == (1, 2, 2, 1)
        assert coroot_sum(shifted.coords, 2, 2) == 2  # p - 1 at p = 3
        x = to_epsilon(shifted)
        assert x[1] - x[2] == 2

    def test_rho_against_long_root(self):
        # (rho, alpha_{j,k}^vee) = k - j + 1
        assert coroot_sum(rho(4).coords, 1, 4) == 4
        x = to_epsilon(rho(4))
        assert x[0] - x[4] == 4

    def test_plain_coordinate_sum(self):
        shifted = lambda_sequence(3, 4)[0] + rho(4)
        assert coroot_sum(shifted.coords, 1, 3) == 1 + 2 + 2
        x = to_epsilon(shifted)
        assert x[0] - x[3] == 1 + 2 + 2

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            coroot_sum(rho(3).coords, 2, 4)

    def test_linearity(self):
        rng = random.Random(101)
        for _ in range(200):
            d = rng.randint(2, 6)
            w = random_weight(rng, d)
            v = random_weight(rng, d)
            lo = rng.randint(1, d)
            hi = rng.randint(lo, d)
            pair = coroot_sum((w + v).coords, lo, hi)
            assert pair == coroot_sum(w.coords, lo, hi) + coroot_sum(v.coords, lo, hi)
            x = to_epsilon(w + v)
            assert x[lo - 1] - x[hi] == pair


class TestDominance:
    def test_examples(self):
        assert dominance_leq(Partition((2, 1, 1, 1)), Partition((2, 2, 1)))
        assert dominance_leq(Partition((3, 1)), Partition((3, 1)))
        assert not dominance_leq(Partition((3, 1)), Partition((2, 2)))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            dominance_leq(Partition((2,)), Partition((2, 1)))

    def test_partial_order_up_to_size_8(self):
        for n in range(0, 9):
            ps = [Partition(t) for t in brute_partitions(n)]
            for a in ps:
                assert dominance_leq(a, a)
            for a in ps:
                for b in ps:
                    le_ab = dominance_leq(a, b)
                    assert le_ab == prefix_leq(a.parts, b.parts)
                    if le_ab and dominance_leq(b, a):
                        assert a == b
            if n <= 7:  # transitivity on the smaller sizes keeps this quick
                for a in ps:
                    below_a = [b for b in ps if dominance_leq(b, a)]
                    for b in below_a:
                        for c in ps:
                            if dominance_leq(c, b):
                                assert dominance_leq(c, a)


class TestPartitionsBelow:
    def test_examples(self):
        assert [p.parts for p in partitions_below(Partition((1, 1, 1)))] == [(1, 1, 1)]
        assert [p.parts for p in partitions_below(Partition((2, 2, 1)))] == [
            (2, 2, 1),
            (2, 1, 1, 1),
            (1, 1, 1, 1, 1),
        ]
        assert [p.parts for p in partitions_below(Partition((3, 1)))] == [
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_against_brute_filter(self):
        for top in [(4, 4, 1), (5, 2), (3, 3, 3), (6,), (2, 2, 2, 1)]:
            b = Partition(top)
            expected = [t for t in brute_partitions(b.size) if prefix_leq(t, top)]
            assert [p.parts for p in partitions_below(b)] == expected

    def test_parts_past_the_recursion_limit(self):
        # partitions of 1020 into parts <= 3 have up to 1020 parts
        below = partitions_below(Partition((3,) * 340))
        assert len(below) == 87211
        assert (below[0], below[-1]) == (Partition((3,) * 340), Partition((1,) * 1020))

    def test_contains_extremes_and_all_dominated(self):
        for top in [(3, 1), (4, 2, 1), (2, 2, 2)]:
            b = Partition(top)
            below = partitions_below(b)
            assert below[0] == b
            assert below[-1] == Partition((1,) * b.size)
            for lam in below:
                assert dominance_leq(lam, b)

    def test_empty_partition(self):
        assert partitions_below(Partition()) == [Partition()]


class TestLeafKeys:
    """lattice.ideal_leaves grows each leaf's key from its parent's: as the
    comma-joined text of the parts that the writers print, or as their
    tuple, which partitions_below reads."""

    @staticmethod
    def tops():
        # the empty shape, single rows and columns, tops whose ideals end
        # in long runs of ones, and seeded random tops of size at most 16
        rng = random.Random(24)
        yield ()
        for k in (1, 2, 7, 13):
            yield (k,)
            yield (1,) * k
        yield from [(2,) * 9, (3,) + (1,) * 12, (15, 1), (6, 6, 1), (4, 4, 4, 4)]
        every = [t for n in range(1, 17) for t in brute_partitions(n)]
        yield from rng.sample(every, 50)

    def test_text_keys_are_the_joined_parts(self):
        def none(state, k):
            return None

        longest_run = 0
        for top in self.tops():
            b = Partition(top)
            below = partitions_below(b)
            dag = lattice.ideal_dag(b, None, none, none)
            keys = [key for key, _ in lattice.ideal_leaves(dag)]
            assert keys == [",".join(map(str, mu.parts)) for mu in below], top
            assert [key for key, _ in lattice.ideal_leaves(dag, text=False)] == [
                mu.parts for mu in below
            ]
            assert [lattice.text_partition(key) for key in keys] == below
            longest_run = max(longest_run, *(mu.parts.count(1) for mu in below))
        assert longest_run >= 13

    def test_each_key_comes_with_its_leaf_state(self):
        # a state that records the parts taken, and a finish that adds the
        # ones left, so every path has a leaf of its own, and each leaf's
        # value must be its key's parts
        for top in self.tops():
            b = Partition(top)
            dag = lattice.ideal_dag(
                b, (), lambda state, k: state + (k,), lambda state, left: state + (1,) * left
            )
            listings = lattice.ideal_leaves(dag), lattice.ideal_leaves(dag, text=False)
            for text, tuples in zip(*listings, strict=True):
                assert text[1] == tuples[1] == tuples[0]
                assert text[0] == ",".join(map(str, tuples[0]))

    def test_finish_is_called_once_per_key_with_no_part_above_one(self):
        # the leaves of a Schur walk share a few values: finish gives each
        # key whose parts left are all 1, or none, its leaf, once, as the
        # key is stored
        for top in self.tops():
            b = Partition(top)
            step, finish = charring._stepper()
            calls = []

            def counted(state, left):
                calls.append((state, left))
                return finish(state, left)

            dag = lattice.ideal_dag(b, frozenset({(charring._runs(b.parts), 1)}), step, counted)
            ends = [key for key in dag if len(key) == 4 and key[2] <= 1]
            assert calls == [key[:2] for key in ends], top
            assert all(dag[key] == ((finish(*key[:2]),),) for key in ends)

    def test_step_never_peels_a_part_of_one(self):
        # the ones belong to finish: step is given only parts of 2 or more
        for top in self.tops():
            b = Partition(top)
            step, finish = charring._stepper()
            parts = []

            def counted(state, k):
                parts.append(k)
                return step(state, k)

            lattice.ideal_dag(b, frozenset({(charring._runs(b.parts), 1)}), counted, finish)
            assert all(k >= 2 for k in parts), top


class TestIdealGuard:
    @pytest.mark.parametrize("top", [(5, 1), (11, 1), (4, 4, 1), (7, 7, 1)])
    def test_bound_is_exact_for_both_identity_families(self, monkeypatch, top):
        size = len(partitions_below(Partition(top)))
        monkeypatch.setattr(lattice, "IDEAL_LIMIT", size)
        check_ideal_size(Partition(top))
        monkeypatch.setattr(lattice, "IDEAL_LIMIT", size - 1)
        with pytest.raises(ValueError):
            check_ideal_size(Partition(top))

    def test_admits_the_largest_sizes_checked(self):
        # second identity at n = 32, 40 and 45, first at n = 16 and 23
        for top in [(31, 1), (39, 1), (44, 1), (15, 15, 1), (22, 22, 1)]:
            check_ideal_size(Partition(top))

    def test_refuses_before_walking(self):
        # just past the limit, and a walk deeper than the interpreter's stack;
        # without the guard both still end, so a missing guard fails here
        for top in [(45, 1), (2,) * 200_001]:
            with pytest.raises(ValueError, match="refused"):
                partitions_below(Partition(top))

    def test_refuses_far_past_the_limit(self):
        for top in [(23, 23, 1), (149, 1), (10**9,)]:
            with pytest.raises(ValueError, match="refused"):
                check_ideal_size(Partition(top))

    def test_single_column_is_one_partition(self):
        assert partitions_below(Partition((1,) * 500)) == [Partition((1,) * 500)]


class TestWeightPartitionConversion:
    # the minimal nonnegative lift of a dominant weight is the partition of
    # its epsilon coordinates, the suffix sums of its own
    def test_lambda0_lift(self):
        assert Partition(to_epsilon(lambda_sequence(3, 4)[0])) == Partition((2, 2, 1))

    def test_lambda2_lift(self):
        assert Partition(to_epsilon(lambda_sequence(5, 5)[2])) == Partition((4, 2, 1, 1, 1))

    def test_rho_lift(self):
        assert Partition(to_epsilon(rho(2))) == Partition((2, 1))

    def test_not_dominant_rejected(self):
        # the suffix sums of the first are all nonnegative but not weakly
        # decreasing, those of the second negative: neither is a partition
        for coords in [(0, 2, -1, 1), (0, -1)]:
            with pytest.raises(ValueError):
                Partition(to_epsilon(Weight(coords)))

    def test_lambda_i_identification(self):
        # minimal lift of lambda_i is (p-1, p-1-i, 1^(i+1))
        for p in (2, 3, 5, 7):
            d = max(3, 2 * p - 2)
            for i in range(min(d, p) - 1):
                expected = Partition([p - 1, p - 1 - i] + [1] * (i + 1))
                assert Partition(to_epsilon(lambda_sequence(p, d)[i])) == expected

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            d = rng.randint(2, 7)
            parts = sorted((rng.randint(1, 6) for _ in range(rng.randint(0, d))), reverse=True)
            padded = parts + [0] * (d + 1 - len(parts))
            w = Weight(padded[i] - padded[i + 1] for i in range(d))
            assert Partition(to_epsilon(w)) == Partition(parts)


class TestNamedWeights:
    def test_lambda_i_omega_convention(self):
        assert lambda_sequence(5, 5)[3].coords == (3, 0, 0, 0, 0)  # omega_6 = 0

    def test_lambda_i_is_the_omega_sum(self):
        # every lambda_i at p <= 15, 3 <= d <= 20, against i*omega_1 +
        # (p-2-i)*omega_2 + omega_{3+i}, with r = min(d, p) of them;
        # 3+i = d+1 (omega_{d+1} = 0) is among the cases
        edge = False
        for p in range(2, 16):
            for d in range(3, 21):
                seq = lambda_sequence(p, d)
                assert len(seq) == min(d, p) - 1, (p, d)
                for i, lam in enumerate(seq):
                    expected = omega_sum(d, (i, 1), (p - 2 - i, 2), (1, 3 + i))
                    assert lam.coords == expected, (p, d, i)
                    edge = edge or 3 + i == d + 1
        assert edge

    def test_fundamental_weight_convention(self):
        assert omega_sum(3, (1, 3)) == (0, 0, 1)
        assert omega_sum(3, (1, 4)) == (0, 0, 0)
        with pytest.raises(ValueError):
            omega_sum(3, (1, 5))
        # the library's lambda_i at the edge 3 + i = d + 1: omega_4 = 0 in rank 3
        assert lambda_sequence(5, 3)[1].coords == (1, 2, 0)
