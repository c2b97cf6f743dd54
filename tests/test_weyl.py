import random

import pytest

from helpers import coroot_sum, inversions, levi_roots, omega_sum, random_dominant, random_weight
from jansum.lattice import Weight, rho
from jansum.oracle import _dot_reflect, reference_jantzen
from jansum.weyl import (
    LeviDatum,
    SignedDominant,
    dot_normalize,
    dot_orbit_oracle,
    from_epsilon,
    to_epsilon,
)


def theta(k: int, n: int) -> Weight:
    """omega_1 - k*omega_k + (k-1)*omega_{k+1} in rank n (theta_1 = 0)."""
    return Weight(omega_sum(n, (1, 1), (-k, k), (k - 1, k + 1)))


def traced_roots(lam: Weight, levi: LeviDatum) -> list[tuple[int, int]]:
    """The distinct roots of oracle.reference_jantzen's trace at p = 2, in
    trace order: every positive root of the Levi when lam + rho pairs with
    each to more than 2."""
    roots = []
    for term in reference_jantzen(lam, 2, levi)[0]:
        if term.root not in roots:
            roots.append(term.root)
    return roots


class TestEpsilon:
    def test_rho(self):
        assert to_epsilon(rho(2)) == (2, 1, 0)

    def test_shifted_negative(self):
        assert to_epsilon(rho(2) - Weight(omega_sum(2, (2, 2)))) == (0, -1, 0)

    def test_zero(self):
        assert to_epsilon(Weight((0, 0, 0))) == (0, 0, 0, 0)

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(100):
            w = random_weight(rng, rng.randint(2, 7))
            assert from_epsilon(to_epsilon(w)) == w

    def test_all_ones_shift_invariance(self):
        rng = random.Random(12)
        for _ in range(50):
            w = random_weight(rng, rng.randint(2, 6))
            eps = to_epsilon(w)
            c = rng.randint(-4, 4)
            assert from_epsilon([e + c for e in eps]) == w


class TestLeviDatum:
    def test_full_blocks(self):
        assert LeviDatum.full(3).blocks == ((1, 2, 3, 4),)

    def test_parabolic_blocks(self):
        levi = LeviDatum(4, range(2, 5))
        assert levi.blocks == ((1,), (2, 3, 4, 5))

    def test_scattered_blocks(self):
        levi = LeviDatum(5, (1, 4))
        assert levi.blocks == ((1, 2), (3,), (4, 5), (6,))

    def test_empty_levi(self):
        levi = LeviDatum(3, ())
        assert levi.blocks == ((1,), (2,), (3,), (4,))
        assert levi_roots(levi.simples, 3) == []
        assert traced_roots(Weight((5, 5, 5)), levi) == []

    def test_positive_roots_of_parabolic(self):
        levi = LeviDatum(3, (2, 3))
        assert levi_roots(levi.simples, 3) == [(2, 2), (2, 3), (3, 3)]
        assert traced_roots(Weight((0, 5, 5)), levi) == [(2, 2), (2, 3), (3, 3)]

    def test_full_positive_roots_count(self):
        levi = LeviDatum.full(4)
        assert len(levi_roots(levi.simples, 4)) == 10
        assert len(traced_roots(Weight((5, 5, 5, 5)), levi)) == 10

    def test_invalid_simples(self):
        with pytest.raises(ValueError):
            LeviDatum(3, (0,))
        with pytest.raises(ValueError):
            LeviDatum(3, (4,))

    def test_levi_dominance(self):
        levi = LeviDatum(3, (2,))
        assert levi.is_dominant(Weight((-5, 1, -2)))
        assert not levi.is_dominant(Weight((5, -1, 2)))


class TestAffineDotReflect:
    # the reflection that oracle.reference_jantzen applies to every term
    def test_sl3_hand_example(self):
        # 2*omega_1 reflected at (alpha_1, level 2) lands on omega_2
        assert _dot_reflect(Weight((2, 0)), 1, 1, 2) == Weight((0, 1))

    def test_fixed_point_when_level_matches(self):
        rng = random.Random(13)
        for _ in range(50):
            d = rng.randint(2, 6)
            lam = random_weight(rng, d)
            lo = rng.randint(1, d)
            hi = rng.randint(lo, d)
            level = coroot_sum((lam + rho(d)).coords, lo, hi)
            assert _dot_reflect(lam, lo, hi, level) == lam

    def test_theta_ladder(self):
        # s_k . theta_k = theta_{k-1} for 2 <= k <= n
        for n in range(2, 11):
            for k in range(2, n + 1):
                assert _dot_reflect(theta(k, n), k, k, 0) == theta(k - 1, n)

    def test_theta_word(self):
        # omega_1 - k*omega_k + k*omega_{k+1} = (s_k ... s_2) . omega_{k+1}
        for n in range(2, 11):
            for k in range(2, n + 1):
                w = Weight(omega_sum(n, (1, k + 1)))
                for j in range(2, k + 1):  # rightmost reflection acts first
                    w = _dot_reflect(w, j, j, 0)
                assert w == Weight(omega_sum(n, (1, 1), (-k, k), (k, k + 1)))


class TestDotNormalize:
    def test_dominant_is_fixed(self):
        rng = random.Random(14)
        for _ in range(50):
            d = rng.randint(2, 6)
            lam = random_dominant(rng, d)
            out = dot_normalize(lam, LeviDatum.full(d))
            assert out == SignedDominant(1, lam)

    def test_sl3_singular(self):
        out = dot_normalize(Weight(omega_sum(2, (-2, 2))), LeviDatum.full(2))
        assert out.is_singular

    def test_sl3_single_reflection(self):
        out = dot_normalize(Weight((-3, 3)), LeviDatum.full(2))
        assert out == SignedDominant(-1, Weight((1, 1)))

    def test_simple_reflection_flips_sign(self):
        rng = random.Random(15)
        for d in range(2, 7):
            full = LeviDatum.full(d)
            for _ in range(20):
                lam = random_dominant(rng, d)
                for j in range(1, d + 1):
                    image = _dot_reflect(lam, j, j, 0)
                    assert dot_normalize(image, full) == SignedDominant(-1, lam)

    def test_reflection_sequences_track_parity(self):
        # starting from a dominant weight the orbit stays regular and every
        # intermediate pairing is nonzero, so the normalization sign is the
        # determinant of the word: (-1)^steps
        rng = random.Random(16)
        for _ in range(100):
            d = rng.randint(2, 6)
            full = LeviDatum.full(d)
            lam = random_dominant(rng, d)
            w = lam
            steps = rng.randint(0, 8)
            for _ in range(steps):
                j = rng.randint(1, d)
                assert coroot_sum((w + rho(d)).coords, j, j) != 0
                w = _dot_reflect(w, j, j, 0)
            out = dot_normalize(w, full)
            assert out.dominant == lam
            assert out.sign == (-1 if steps % 2 else 1)
            assert out == dot_orbit_oracle(w)

    def test_levi_block_rule(self):
        # singular for a Levi iff some block of mu+rho repeats an entry
        rng = random.Random(17)
        for _ in range(300):
            d = rng.randint(2, 6)
            simples = [j for j in range(1, d + 1) if rng.random() < 0.6]
            levi = LeviDatum(d, simples)
            mu = random_weight(rng, d, lo=-4, hi=4)
            eps = to_epsilon(mu + rho(d))
            repeated = any(
                len({eps[pos - 1] for pos in block}) < len(block)
                for block in levi.blocks
            )
            assert dot_normalize(mu, levi).is_singular == repeated

    def test_levi_outcome_is_levi_dominant(self):
        rng = random.Random(18)
        for _ in range(200):
            d = rng.randint(2, 6)
            simples = [j for j in range(1, d + 1) if rng.random() < 0.5]
            levi = LeviDatum(d, simples)
            out = dot_normalize(random_weight(rng, d), levi)
            if not out.is_singular:
                for s in levi.simples:
                    assert coroot_sum((out.dominant + rho(d)).coords, s, s) >= 1

    def test_large_blocks_match_brute_inversion_count(self):
        # dot_orbit_oracle stops at rank 6; here blocks reach 31 entries
        rng = random.Random(30)
        d = 30
        for trial in range(100):
            eps = rng.sample(range(-80, 80), d + 1)
            mu = from_epsilon(eps) - rho(d)
            simples = range(1, d + 1) if trial % 4 == 0 else [
                j for j in range(1, d + 1) if rng.random() < 0.9
            ]
            levi = LeviDatum(d, simples)
            arranged = list(eps)
            inv = 0
            for block in levi.blocks:
                vals = [eps[pos - 1] for pos in block]
                inv += inversions(vals)
                for pos, v in zip(block, sorted(vals, reverse=True)):
                    arranged[pos - 1] = v
            expected = SignedDominant(-1 if inv % 2 else 1, from_epsilon(arranged) - rho(d))
            assert dot_normalize(mu, levi) == expected

    def test_normalizing_twice_is_stable(self):
        rng = random.Random(19)
        for _ in range(100):
            d = rng.randint(2, 5)
            full = LeviDatum.full(d)
            out = dot_normalize(random_weight(rng, d), full)
            if not out.is_singular:
                assert dot_normalize(out.dominant, full) == SignedDominant(1, out.dominant)


class TestDotOrbitOracle:
    def test_agrees_with_normalize(self):
        rng = random.Random(20)
        for d in (2, 3, 4, 5):
            full = LeviDatum.full(d)
            for _ in range(50):
                mu = random_weight(rng, d)
                assert dot_normalize(mu, full) == dot_orbit_oracle(mu)

    def test_minus_rho_is_singular(self):
        for d in range(2, 6):
            assert dot_orbit_oracle(Weight((-1,) * d)).is_singular

    def test_dominant_identity(self):
        rng = random.Random(21)
        for _ in range(20):
            d = rng.randint(2, 5)
            lam = random_dominant(rng, d)
            assert dot_orbit_oracle(lam) == SignedDominant(1, lam)

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            dot_orbit_oracle(Weight((0,) * 7))


class TestSignedDominant:
    def test_singular_constructor(self):
        s = SignedDominant.singular()
        assert s.is_singular
        assert s.dominant is None

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            SignedDominant(0, Weight((1, 1)))
        with pytest.raises(ValueError):
            SignedDominant(1)
        with pytest.raises(ValueError):
            SignedDominant(2, Weight((1, 1)))
