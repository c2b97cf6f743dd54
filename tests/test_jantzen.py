import random
import time
from collections import Counter

import pytest

from helpers import random_dominant, reference_jantzen, run_cli
from jansum.charring import BASIS_WEYL, FormalCharacter
from jansum.jantzen import (
    TERM_LIMIT,
    derived_simple_chars,
    is_prime,
    jantzen_sum,
    lambda_sequence,
    p_adic_valuation,
    verify_prop_char,
)
from jansum.lattice import Root, Weight, pairing, rho
from jansum.weyl import (
    LeviDatum,
    SignedDominant,
    affine_dot_reflect,
    dot_orbit_oracle,
)

TEST_MATRIX = [(2, 3), (3, 3), (3, 4), (5, 5), (5, 7), (7, 6)]


class TestHelpers:
    def test_is_prime(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert not is_prime(1)
        assert not is_prime(0)

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))

        assert all(is_prime(n) == trial(n) for n in range(-3, 10**5))

    def test_is_prime_large(self):
        assert is_prime(10**18 + 3)
        # a strong pseudoprime to every prime base up to 31; 37 exposes it
        assert not is_prime(3825123056546413051)

    def test_is_prime_refuses_at_the_bound(self):
        # 399165290221 * 798330580441 passes all 12 bases 2..37
        bound = 318665857834031151167461
        assert is_prime(bound - 1) is False  # even, and still answered
        with pytest.raises(ValueError):
            is_prime(bound)
        with pytest.raises(ValueError):
            is_prime(bound + 1)

    def test_valuation(self):
        assert p_adic_valuation(2, 8) == 3
        assert p_adic_valuation(3, 9) == 2
        assert p_adic_valuation(5, 7) == 0
        # p = 1 and p = -1 divide every x (no end), p = 0 none (x % 0)
        for p in (1, -1, 0):
            with pytest.raises(ValueError, match="p >= 2"):
                p_adic_valuation(p, 12)
        assert p_adic_valuation(2, -4) == 2
        with pytest.raises(ValueError):
            p_adic_valuation(2, 0)


class TestJantzenSum:
    def test_sl3_hand_derived_instance(self):
        report = jantzen_sum(Weight((2, 0)), 2, LeviDatum.full(2))
        assert report.total == FormalCharacter(BASIS_WEYL, LeviDatum.full(2), {Weight((0, 1)): 1})
        nonsingular = [t for t in report.terms if not t.outcome.is_singular]
        assert len(nonsingular) == 1
        assert nonsingular[0].root == Root(1, 1)
        assert nonsingular[0].level == 2

    def test_small_weight_gives_empty_sum(self):
        # all pairings <= p means no admissible level at all
        report = jantzen_sum(Weight((0, 1)), 5, LeviDatum.full(2))
        assert report.terms == ()
        assert report.total.is_zero

    def test_matches_alternating_tail_at_p5_d5(self):
        seq = lambda_sequence(5, 5)
        full = LeviDatum.full(5)
        report = jantzen_sum(seq[1], 5, full)
        assert report.total == FormalCharacter(
            BASIS_WEYL, full, {seq[2]: 1, seq[3]: -1}
        )

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            jantzen_sum(Weight((1, 0)), 4, LeviDatum.full(2))

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            jantzen_sum(Weight((-1, 0)), 2, LeviDatum.full(2))
        # but only Levi-dominance is required for a sub-Levi
        jantzen_sum(Weight((-1, 3, 0)), 2, LeviDatum(3, (2, 3)))

    def test_term_fields_satisfy_bounds(self):
        report = jantzen_sum(Weight((4, 3, 2)), 2, LeviDatum.full(3))
        assert report.terms
        shifted = report.lam + rho(3)
        for term in report.terms:
            c = pairing(shifted, term.root)
            assert 0 < term.level < c
            assert term.level == term.m * report.p
            assert term.t == c - term.level >= 1
            assert term.valuation == p_adic_valuation(report.p, term.level) >= 1

    def test_reflection_antisymmetry_per_term(self):
        # pairing(image + rho, root) = 2*level - pairing(lam + rho, root)
        rng = random.Random(51)
        for _ in range(20):
            d = rng.randint(2, 5)
            lam = random_dominant(rng, d, hi=6)
            report = jantzen_sum(lam, rng.choice([2, 3, 5]), LeviDatum.full(d))
            shifted = lam + rho(d)
            for term in report.terms:
                assert pairing(term.image + rho(d), term.root) == 2 * term.level - pairing(
                    shifted, term.root
                )

    def test_total_equals_valuation_weighted_outcomes(self):
        rng = random.Random(52)
        for _ in range(20):
            d = rng.randint(2, 5)
            lam = random_dominant(rng, d, hi=5)
            levi = LeviDatum.full(d)
            report = jantzen_sum(lam, rng.choice([2, 3]), levi)
            rebuilt = FormalCharacter(BASIS_WEYL, levi, {})
            for term in report.terms:
                outcome = term.outcome
                if not outcome.is_singular:
                    coeff = outcome.sign * term.valuation
                    rebuilt += FormalCharacter(BASIS_WEYL, levi, {outcome.dominant: coeff})
            assert report.total == rebuilt

    def test_vanishing_on_small_weights(self):
        rng = random.Random(53)
        checked = 0
        while checked < 200:
            d = rng.randint(2, 4)
            p = rng.choice([5, 7, 11])
            lam = random_dominant(rng, d, hi=max(0, (p - d) // d))
            if pairing(lam + rho(d), Root(1, d)) > p:
                continue
            assert all(
                pairing(lam + rho(d), r) <= p for r in LeviDatum.full(d).positive_roots()
            )
            assert jantzen_sum(lam, p, LeviDatum.full(d)).total.is_zero
            checked += 1

    def test_total_matches_orbit_oracle_re_derivation(self):
        # rebuild the whole sum with the brute-force orbit normalization in
        # place of the block-sorting one: an independent route end to end
        rng = random.Random(55)
        for _ in range(25):
            d = rng.randint(2, 5)
            p = rng.choice([2, 3, 5])
            lam = random_dominant(rng, d, hi=6)
            report = jantzen_sum(lam, p, LeviDatum.full(d))
            rebuilt: dict = {}
            for root in LeviDatum.full(d).positive_roots():
                c = pairing(lam + rho(d), root)
                for level in range(p, c, p):
                    out = dot_orbit_oracle(affine_dot_reflect(lam, root, level))
                    if not out.is_singular:
                        key = out.dominant
                        rebuilt[key] = rebuilt.get(key, 0) + out.sign * p_adic_valuation(
                            p, level
                        )
            assert report.total.terms == {k: v for k, v in rebuilt.items() if v}

    def test_levi_naturality(self):
        # the full sum contains each sub-Levi term with the same valuation
        # and image; only the outcome normalization may differ
        rng = random.Random(54)
        for _ in range(20):
            d = rng.randint(3, 5)
            lam = random_dominant(rng, d, hi=5)
            p = rng.choice([2, 3])
            simples = [j for j in range(1, d + 1) if rng.random() < 0.6]
            sub = LeviDatum(d, simples)
            full_report = jantzen_sum(lam, p, LeviDatum.full(d))
            sub_report = jantzen_sum(lam, p, sub)
            full_index = {
                (t.root, t.m): (t.valuation, t.image) for t in full_report.terms
            }
            for term in sub_report.terms:
                assert all(j in sub.simples for j in range(term.root.lo, term.root.hi + 1))
                assert full_index[(term.root, term.m)] == (term.valuation, term.image)


def _fast_path_cases():
    """Seeded (lam, p, levi): full and random Levis at d <= 8, coordinates
    off the Levi's simple roots negative as often as not, and a few at d = 30."""
    rng = random.Random(56)
    cases = []
    for k in range(160):
        d = rng.randint(2, 8)
        p = (2, 3, 5, 7)[k % 4]
        if k % 3 == 0:
            simples = set(range(1, d + 1))
        else:
            simples = {s for s in range(1, d + 1) if rng.random() < 0.6}
        lam = Weight(
            [rng.randint(0, 4) if s in simples else rng.randint(-6, 6) for s in range(1, d + 1)]
        )
        cases.append((lam, p, LeviDatum(d, simples)))
    for p, simples in ((3, range(1, 31)), (5, range(2, 31)), (7, [s for s in range(1, 31) if s % 7])):
        simples = set(simples)
        lam = Weight([rng.randint(0, 3) if s in simples else -rng.randint(0, 3) for s in range(1, 31)])
        cases.append((lam, p, LeviDatum(30, simples)))
    return cases


class TestFastPath:
    # jantzen_sum evaluates each term in closed form; the slow reference
    # dot-reflects and normalizes every term in full
    def test_matches_slow_reference(self):
        negative_off_levi = 0
        for lam, p, levi in _fast_path_cases():
            report = jantzen_sum(lam, p, levi)
            terms, total = reference_jantzen(lam, p, levi)
            assert len(report.terms) == len(terms)
            for fast, slow in zip(report.terms, terms):
                assert fast == slow, (lam, p, levi)
            assert report.total.terms == total, (lam, p, levi)
            negative_off_levi += min(lam.coords) < 0
        assert negative_off_levi >= 40

    def test_outcomes_match_orbit_oracle(self):
        checked = 0
        for lam, p, levi in _fast_path_cases():
            if levi.is_full and lam.rank <= 6:
                for term in jantzen_sum(lam, p, levi).terms:
                    assert term.outcome == dot_orbit_oracle(term.image), (lam, p, term)
                    checked += 1
        assert checked >= 500

    def test_trace_is_built_once(self):
        report = jantzen_sum(Weight((3, 1, 2)), 2, LeviDatum.full(3))
        assert report.terms is report.terms

    def test_term_budget(self, monkeypatch):
        import jansum.jantzen as jantzen_mod

        # (2,2) at p = 2: roots a[1,1], a[2,2], a[1,2] pair to 3, 3, 6, so
        # 1 + 1 + 2 = 4 terms
        lam, full = Weight((2, 2)), LeviDatum.full(2)
        monkeypatch.setattr(jantzen_mod, "TERM_LIMIT", 4)
        assert len(jantzen_sum(lam, 2, full).terms) == 4
        monkeypatch.setattr(jantzen_mod, "TERM_LIMIT", 3)
        with pytest.raises(ValueError, match="more than 3 terms"):
            jantzen_sum(lam, 2, full)
        with pytest.raises(ValueError, match="more than 3 terms"):
            jantzen_mod.SumReport(lam, 2, full, FormalCharacter(BASIS_WEYL, full, {})).terms

    def test_huge_term_count_refused_at_once(self):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"more than {TERM_LIMIT} terms"):
            jantzen_sum(Weight((10**8, 0)), 2, LeviDatum.full(2))
        with pytest.raises(ValueError, match=f"more than {TERM_LIMIT} terms"):
            jantzen_sum(Weight((10**6,) * 40), 7, LeviDatum(40, range(2, 41)))
        assert time.perf_counter() - started < 0.5


class TestMirrorLevels:
    # The two facts jantzen_sum's fold rests on, read from the slow
    # reference's terms alone: at one root, the levels l and c - l (both
    # levels exactly when p | c) are both singular or give one dominant
    # weight with opposite signs; and no dominant weight comes from two roots.
    def test_mirror_levels_and_distinct_roots(self):
        rng = random.Random(61)
        cases = _fast_path_cases()
        for _ in range(400 - len(cases)):
            d = rng.randint(2, 7)
            simples = {s for s in range(1, d + 1) if rng.random() < 0.7}
            lam = Weight(
                [rng.randint(0, 5) if s in simples else rng.randint(-6, 6) for s in range(1, d + 1)]
            )
            cases.append((lam, rng.choice((2, 3, 5, 7)), LeviDatum(d, simples)))
        pairs = Counter()  # mirror pairs, singular and regular
        for lam, p, levi in cases:
            terms, _ = reference_jantzen(lam, p, levi)
            at = {(term.root, term.level): term for term in terms}
            roots_of: dict[Weight, set] = {}
            for term in terms:
                c = term.level + term.t
                mirror = at.get((term.root, c - term.level))
                assert (mirror is not None) == (c % p == 0), (lam, p, levi, term)
                if mirror is term:
                    assert term.outcome.is_singular, (lam, p, levi, term)
                elif mirror is not None:
                    pairs[term.outcome.is_singular] += term.level < mirror.level
                    if term.outcome.is_singular:
                        assert mirror.outcome.is_singular, (lam, p, levi, term)
                    else:
                        assert mirror.outcome.dominant == term.outcome.dominant, (lam, p, levi, term)
                        assert mirror.outcome.sign == -term.outcome.sign, (lam, p, levi, term)
                if not term.outcome.is_singular:
                    roots_of.setdefault(term.outcome.dominant, set()).add(term.root)
            assert all(len(roots) == 1 for roots in roots_of.values()), (lam, p, levi)
        assert pairs[False] >= 500 and pairs[True] >= 500


class TestWorkCount:
    # How much the sum does, counted without a clock: every level of every
    # root goes through jantzen._terms_at, which a wrapper counts
    @staticmethod
    def _count_levels(monkeypatch) -> Counter:
        import jansum.jantzen as jantzen_mod

        visits: Counter = Counter()
        terms_at = jantzen_mod._terms_at

        def counted(x, lo, hi, levels):
            for term in terms_at(x, lo, hi, levels):
                visits[lo, hi] += 1
                yield term

        monkeypatch.setattr(jantzen_mod, "_terms_at", counted)
        return visits

    def test_sum_visits_each_mirror_pair_once(self, monkeypatch):
        visits = self._count_levels(monkeypatch)
        report = jantzen_sum(Weight((20000, 0)), 2, LeviDatum.full(2))
        # a[1,1] pairs to c = 20001, which p does not divide: each of its
        # 10 000 levels; a[1,2] to c = 20002: the 5 000 levels below c/2,
        # each for its mirror too; a[2,2] pairs to 1 and has none
        assert visits == {(1, 1): 10000, (1, 2): 5000}
        assert len(report.total.terms) == 15000

    def test_traced_json_visits_the_sum_and_every_term(self, monkeypatch):
        visits = self._count_levels(monkeypatch)
        code, out, _ = run_cli(["jantzen", "--p", "2", "--d", "2", "--lambda", "20000,0", "--trace", "--json"])
        assert code == 0
        assert out.count('"level":') == 20000
        assert sum(visits.values()) == 15000 + 20000

    def test_sum_never_walks_the_trace(self, monkeypatch):
        import jansum.jantzen as jantzen_mod

        def refuse(*args):
            raise AssertionError("jantzen_sum walked the trace")

        cases = _fast_path_cases()[::8]
        expected = [reference_jantzen(lam, p, levi)[1] for lam, p, levi in cases]
        monkeypatch.setattr(jantzen_mod, "_walk", refuse)
        for (lam, p, levi), total in zip(cases, expected):
            assert jantzen_sum(lam, p, levi).total.terms == total, (lam, p, levi)
        assert len(jantzen_sum(Weight((20000, 0)), 2, LeviDatum.full(2)).total.terms) == 15000


class TestLambdaSequence:
    def test_p5_d5(self):
        assert [w.coords for w in lambda_sequence(5, 5)] == [
            (0, 3, 1, 0, 0),
            (1, 2, 0, 1, 0),
            (2, 1, 0, 0, 1),
            (3, 0, 0, 0, 0),
        ]

    def test_p2_single_entry(self):
        for d in (3, 4, 6):
            seq = lambda_sequence(2, d)
            assert len(seq) == 1
            assert seq[0].coords == tuple(1 if i == 2 else 0 for i in range(d))

    def test_p5_d3_truncates(self):
        seq = lambda_sequence(5, 3)
        assert [w.coords for w in seq] == [(0, 3, 1), (1, 2, 0)]

    def test_d_too_small(self):
        with pytest.raises(ValueError):
            lambda_sequence(5, 2)

    def test_p_refused(self):
        with pytest.raises(ValueError, match="p >= 2"):
            lambda_sequence(1, 4)
        with pytest.raises(TypeError):
            lambda_sequence(5.0, 3)


class TestExpectedSum:
    # what check i of verify_prop_char expects: the tail from lambda_{i+1}
    @staticmethod
    def expected(p, d, i, levi):
        (check,) = [c for c in verify_prop_char(p, d).checks if (c.i, c.levi) == (i, levi)]
        return check.expected

    def test_empty_at_top(self):
        assert self.expected(5, 5, 3, LeviDatum.full(5)).is_zero

    def test_alternating_tail(self):
        seq = lambda_sequence(5, 5)
        full = LeviDatum.full(5)
        assert self.expected(5, 5, 1, full) == FormalCharacter(
            BASIS_WEYL, full, {seq[2]: 1, seq[3]: -1}
        )

    def test_levi_single_term(self):
        levi = LeviDatum(4, (2, 3, 4))
        seq = lambda_sequence(3, 4)
        assert self.expected(3, 4, 0, levi) == FormalCharacter(
            BASIS_WEYL, levi, {seq[1]: 1}
        )


class TestVerifyPropChar:
    @pytest.mark.parametrize("p,d", TEST_MATRIX)
    def test_matrix_passes(self, p, d):
        report = verify_prop_char(p, d)
        assert report.passed
        r = min(p, d)
        assert len(report.checks) == 2 * (r - 1)

    def test_wider_matrix_also_passes(self):
        # cheap extra net beyond the headline matrix
        for p, d in [(11, 7), (7, 13), (13, 5), (17, 6), (2, 8), (3, 9)]:
            assert verify_prop_char(p, d).passed, (p, d)

    def test_vacuous_at_p2_d3(self):
        # the sum of lambda_0 is empty, so its Weyl module is simple
        report = verify_prop_char(2, 3)
        assert report.passed
        for check in report.checks:
            assert check.total.is_zero
            assert check.expected.is_zero

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            verify_prop_char(6, 4)

    @pytest.mark.parametrize("p,d", TEST_MATRIX)
    def test_case_analysis_shadow(self, p, d):
        # every non-singular term comes from a root starting at 2 with m = 1,
        # and normalizes to (-1)^(t-1) times lambda_{i+t}; everything else
        # (lo >= 3, or lo = 1) is singular
        seq = lambda_sequence(p, d)
        for levi in (LeviDatum.full(d), LeviDatum(d, range(2, d + 1))):
            for i, lam in enumerate(seq):
                for term in jantzen_sum(lam, p, levi).terms:
                    if term.outcome.is_singular:
                        continue
                    assert term.root.lo == 2
                    assert term.m == 1
                    assert i + term.t < len(seq)
                    expected = SignedDominant(
                        1 if (term.t - 1) % 2 == 0 else -1, seq[i + term.t]
                    )
                    assert term.outcome == expected


class TestDerivedSimpleChars:
    def test_top_of_sequence_is_simple(self):
        for p, d in [(3, 4), (5, 5), (7, 6)]:
            chars = derived_simple_chars(p, d)
            seq = lambda_sequence(p, d)
            assert chars[-1] == FormalCharacter(BASIS_WEYL, LeviDatum.full(d), {seq[-1]: 1})

    def test_head_at_p3_d4(self):
        chars = derived_simple_chars(3, 4)
        seq = lambda_sequence(3, 4)
        assert chars[0] == FormalCharacter(
            BASIS_WEYL, LeviDatum.full(4), {seq[0]: 1, seq[1]: -1}
        )

    def test_telescoping(self):
        # ch L_i + ch L_{i+1} = [lambda_i]
        for p, d in [(3, 4), (5, 5), (5, 7)]:
            chars = derived_simple_chars(p, d)
            seq = lambda_sequence(p, d)
            full = LeviDatum.full(d)
            for i in range(len(seq)):
                nxt = chars[i + 1] if i + 1 < len(chars) else FormalCharacter(BASIS_WEYL, full, {})
                assert chars[i] + nxt == FormalCharacter(BASIS_WEYL, full, {seq[i]: 1})


def _tail_reference(seq, i, levi):
    """[seq_i] - [seq_{i+1}] + ..., built by the validating constructor."""
    return FormalCharacter(BASIS_WEYL, levi, {seq[j]: (-1) ** (j - i) for j in range(i, len(seq))})


class TestTailsAgainstTheDefinition:
    # each alternating tail, made by one recurrence, against its sum written out
    CASES = [(p, d) for p in (2, 3, 5, 7, 11, 13) for d in sorted({3, p, p + 3}) if d >= 3]

    @pytest.mark.parametrize("p,d", CASES)
    def test_derived_simple_chars(self, p, d):
        seq = lambda_sequence(p, d)
        chars = derived_simple_chars(p, d)
        assert len(chars) == len(seq)
        full = LeviDatum.full(d)
        for i, ch in enumerate(chars):
            assert ch == _tail_reference(seq, i, full), (p, d, i)

    @pytest.mark.parametrize("p,d", CASES)
    def test_prop_char_expected(self, p, d):
        seq = lambda_sequence(p, d)
        levis = (LeviDatum.full(d), LeviDatum(d, range(2, d + 1)))
        checks = verify_prop_char(p, d).checks
        assert [(c.i, c.levi) for c in checks] == [(i, levi) for i in range(len(seq)) for levi in levis]
        for check in checks:
            assert check.expected == _tail_reference(seq, check.i + 1, check.levi), (p, d, check.i)
