import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from helpers import coroot_sum, levi_roots, random_dominant, row_terms, run_cli
from jansum.jantzen import (
    TERM_LIMIT,
    is_prime,
    jantzen_sum,
    lambda_sequence,
    p_adic_valuation,
    verify_prop_char,
)
from jansum.lattice import Weight, rho
from jansum.oracle import _dot_reflect, reference_jantzen
from jansum.weyl import LeviDatum, SignedDominant, dot_orbit_oracle, to_epsilon

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
        assert report.rows == [(0, 1, 1)]
        nonsingular = [t for t in report.terms if not t.outcome.is_singular]
        assert len(nonsingular) == 1
        assert nonsingular[0].root == (1, 1)
        assert nonsingular[0].level == 2

    def test_small_weight_gives_empty_sum(self):
        # all pairings <= p means no admissible level at all
        report = jantzen_sum(Weight((0, 1)), 5, LeviDatum.full(2))
        assert report.terms == ()
        assert not report.rows

    def test_matches_alternating_tail_at_p5_d5(self):
        seq = lambda_sequence(5, 5)
        full = LeviDatum.full(5)
        report = jantzen_sum(seq[1], 5, full)
        assert row_terms(report.rows) == {seq[2]: 1, seq[3]: -1}

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
            c = coroot_sum(shifted.coords, *term.root)
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
            shifted = (lam + rho(d)).coords
            for term in report.terms:
                lo, hi = term.root
                assert coroot_sum((term.image + rho(d)).coords, lo, hi) == (
                    2 * term.level - coroot_sum(shifted, lo, hi)
                )

    def test_total_equals_valuation_weighted_outcomes(self):
        rng = random.Random(52)
        for _ in range(20):
            d = rng.randint(2, 5)
            lam = random_dominant(rng, d, hi=5)
            levi = LeviDatum.full(d)
            report = jantzen_sum(lam, rng.choice([2, 3]), levi)
            rebuilt: dict = {}
            for term in report.terms:
                outcome = term.outcome
                if not outcome.is_singular:
                    key = outcome.dominant
                    rebuilt[key] = rebuilt.get(key, 0) + outcome.sign * term.valuation
            assert row_terms(report.rows) == {k: v for k, v in rebuilt.items() if v}

    def test_vanishing_on_small_weights(self):
        rng = random.Random(53)
        checked = 0
        while checked < 200:
            d = rng.randint(2, 4)
            p = rng.choice([5, 7, 11])
            lam = random_dominant(rng, d, hi=max(0, (p - d) // d))
            shifted = (lam + rho(d)).coords
            if coroot_sum(shifted, 1, d) > p:
                continue
            assert all(coroot_sum(shifted, lo, hi) <= p for lo, hi in levi_roots(range(1, d + 1), d))
            assert not jantzen_sum(lam, p, LeviDatum.full(d)).rows
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
            for lo, hi in levi_roots(range(1, d + 1), d):
                c = coroot_sum((lam + rho(d)).coords, lo, hi)
                for level in range(p, c, p):
                    out = dot_orbit_oracle(_dot_reflect(lam, lo, hi, level))
                    if not out.is_singular:
                        key = out.dominant
                        rebuilt[key] = rebuilt.get(key, 0) + out.sign * p_adic_valuation(
                            p, level
                        )
            assert row_terms(report.rows) == {k: v for k, v in rebuilt.items() if v}

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
                assert all(j in sub.simples for j in range(term.root[0], term.root[1] + 1))
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
            assert row_terms(report.rows) == total, (lam, p, levi)
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
            jantzen_mod.SumReport(lam, 2, full, []).terms

    def test_huge_sum_refused_before_epsilon(self, monkeypatch):
        # the Levi's block sizes alone show more than TERM_LIMIT terms
        import jansum.jantzen as jantzen_mod

        def refuse(*args):
            raise AssertionError("epsilon coordinates built")

        monkeypatch.setattr(jantzen_mod, "to_epsilon", refuse)
        with pytest.raises(ValueError) as refused:
            jantzen_sum(Weight((0,) * 300_000), 3, LeviDatum.full(300_000))
        assert str(refused.value) == (
            "the Jantzen sum at rank d=300000, p=3, levi=full has more than 100000 terms; refused"
        )

    def test_block_bound_never_refuses_an_admitted_sum(self, monkeypatch):
        # with the limit at a sum's exact term count it is evaluated, and one
        # below it is refused: the bound from block sizes is a lower bound
        import jansum.jantzen as jantzen_mod

        for lam, p, levi in _fast_path_cases()[::3] + [(Weight((0,) * 40), 3, LeviDatum.full(40))]:
            count = len(reference_jantzen(lam, p, levi)[0])
            monkeypatch.setattr(jantzen_mod, "TERM_LIMIT", count)
            jantzen_sum(lam, p, levi)
            if count:
                monkeypatch.setattr(jantzen_mod, "TERM_LIMIT", count - 1)
                with pytest.raises(ValueError, match="refused"):
                    jantzen_sum(lam, p, levi)

    def test_huge_term_count_refused_at_once(self):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"more than {TERM_LIMIT} terms"):
            jantzen_sum(Weight((10**8, 0)), 2, LeviDatum.full(2))
        with pytest.raises(ValueError, match=f"more than {TERM_LIMIT} terms"):
            jantzen_sum(Weight((10**6,) * 40), 7, LeviDatum(40, range(2, 41)))
        assert time.perf_counter() - started < 0.5


class TestMirrorLevels:
    # The two facts jantzen_sum's coefficient rule rests on, read from the
    # slow reference's terms alone: at one root, the levels l and c - l (both
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


class TestCoefficientRule:
    # At a root of pairing c with e = v_p(c), jantzen_sum visits only the
    # levels l that q = p^(e + 1) divides, each weighted v_p(l) - e; its
    # rows must be the slow reference's total, at weights made so that p^e
    # divides the pairing of a chosen root
    def test_rows_match_reference_where_p_powers_divide_pairings(self):
        rng = random.Random(91)
        high = Counter()  # roots with a term, by e = v_p(c) capped at 3
        cancelled = 0  # roots with c = p^e * u, u < p: no multiple of q below c
        for k in range(160):
            p, e = (2, 3, 5, 7)[k % 4], 1 + k // 4 % 4
            d = rng.randint(2, 4)
            if k % 3 == 0:
                simples = set(range(1, d + 1))
            else:
                simples = {s for s in range(1, d + 1) if rng.random() < 0.7} or {rng.randint(1, d)}
            coords = [
                rng.randint(0, 6) if s in simples else rng.randint(-6, 6) for s in range(1, d + 1)
            ]
            levi = LeviDatum(d, simples)
            lo, hi = rng.choice(levi_roots(simples, d))
            # make the root's pairing, rest + coords[hi - 1] + 1, p^e * u by
            # setting its last coordinate, which must stay at least 0; with
            # u < p no multiple of p^(e + 1) lies below it
            rest = sum(coords[lo - 1 : hi - 1]) + hi - lo
            if rng.random() < 0.3:
                u = rng.randint(1, p - 1)
            else:
                u = rng.randint(1, max(p + 1, 600 // p**e))
            u = max(u, -(-(rest + 1) // p**e))
            coords[hi - 1] = p**e * u - rest - 1
            lam = Weight(coords)
            _, total = reference_jantzen(lam, p, levi)
            expected = sorted(((*key.coords, coeff) for key, coeff in total.items()), reverse=True)
            assert jantzen_sum(lam, p, levi).rows == expected, (lam, p, levi)
            shifted = (lam + rho(d)).coords
            for c in (coroot_sum(shifted, a, b) for a, b in levi_roots(simples, d)):
                if c > p:
                    v = p_adic_valuation(p, c)
                    high[min(v, 3)] += 1
                    cancelled += v >= 1 and c // p**v < p
        assert high[2] + high[3] >= 100
        assert high[3] >= 30
        assert cancelled >= 10

    def test_valuations_of_a_run_match_each_level(self):
        # jantzen_sum hands _valuations a run's first level, a multiple of
        # its step q = p^k, and the run's level count
        from jansum.jantzen import _valuations

        rng = random.Random(254)
        for p in (2, 3, 5, 7):
            for k in (1, 2, 3):
                step = p**k
                for _ in range(40):
                    level, count = step * rng.randint(1, 3 * p**3), rng.randint(1, 60)
                    expected = [p_adic_valuation(p, level + i * step) for i in range(count)]
                    assert _valuations(p, level, count, step) == expected, (p, level, count, step)


def _long_run_cases():
    """Seeded (lam, p, levi) at ranks 2..4 with coordinates up to 300 on the
    Levi's simple roots, over the full group and random Levis, so that most
    roots have runs of many levels."""
    rng = random.Random(73)
    cases = []
    for k in range(300):
        d = rng.randint(2, 4)
        p = (2, 3, 5, 7)[k % 4]
        if k % 3 == 0:
            simples = set(range(1, d + 1))
        else:
            simples = {s for s in range(1, d + 1) if rng.random() < 0.7}
        top = rng.choice((6, 60, 300))
        lam = Weight(
            [rng.randint(0, top) if s in simples else rng.randint(-40, 40) for s in range(1, d + 1)]
        )
        cases.append((lam, p, LeviDatum(d, simples)))
    return cases


class TestLongRuns:
    # Between two levels where u or v meets a value of the block, or where
    # u and v pass each other, a root's terms form one run that jantzen_sum
    # sums whole and _walk spreads back into levels; the slow reference
    # normalizes every term on its own
    @staticmethod
    def _record_runs(monkeypatch, places=None) -> list:
        """[(lo, hi, step, level, count, sign)] of every run _terms_at yields;
        places, if given, gets each run's place (i, A, j, B) in turn."""
        import jansum.jantzen as jantzen_mod

        seen = []
        terms_at = jantzen_mod._terms_at

        def recorded(x, lo, hi, levels):
            for run in terms_at(x, lo, hi, levels):
                seen.append((lo, hi, levels.step, *run[:3]))
                if places is not None:
                    places.append(run[3])
                yield run

        monkeypatch.setattr(jantzen_mod, "_terms_at", recorded)
        return seen

    @staticmethod
    def _check(lam, p, levi):
        report = jantzen_sum(lam, p, levi)
        terms, total = reference_jantzen(lam, p, levi)
        assert row_terms(report.rows) == total, (lam, p, levi)
        assert report.terms == terms, (lam, p, levi)
        return terms

    def test_matches_slow_reference(self, monkeypatch):
        places = []
        seen = self._record_runs(monkeypatch, places)
        cases = _long_run_cases()
        runs, neighbours = [], 0
        for lam, p, levi in cases:
            seen.clear()
            places.clear()
            dominant = {
                (*term.root, term.level): term.outcome.dominant.coords
                for term in self._check(lam, p, levi)
                if term.outcome.sign
            }
            runs += seen
            # where u and v are neighbours in the sorted block (i = j), the
            # coordinate between them, 0-based i - 1, moves by twice the
            # level step
            for (lo, hi, step, level, count, _), place in zip(seen, places):
                if count > 1 and place[0] == place[2]:
                    first, second = dominant[lo, hi, level], dominant[lo, hi, level + step]
                    assert abs(second[place[0] - 1] - first[place[0] - 1]) == 2 * step
                    neighbours += 1
        assert sum(1 for run in runs if run[4] >= 10) >= 1000
        assert max(run[4] for run in runs) >= 100
        assert sum(1 for lam, p, levi in cases if not levi.is_full) >= 100
        assert neighbours >= 500

    def test_u_and_v_pass_between_two_levels(self, monkeypatch):
        # where no level is c/2, u and v pass each other between two
        # regular levels, and nothing singular ends the run there
        seen = self._record_runs(monkeypatch)
        rng = random.Random(74)
        cases = [(Weight((20, 0)), 2), (Weight((0, 33, 5)), 3)]
        for k in range(40):
            lam = random_dominant(rng, rng.randint(2, 4), rng.choice((9, 90)))
            cases.append((lam, (2, 3, 5, 7)[k % 4]))
        unmarked = 0
        for lam, p in cases:
            seen.clear()
            self._check(lam, p, LeviDatum.full(lam.rank))
            shifted = (lam + rho(lam.rank)).coords
            for (lo, hi, step, level, count, sign), after in zip(seen, seen[1:]):
                end = level + (count - 1) * step
                if (
                    after[:4] == (lo, hi, step, end + step)
                    and sign
                    and after[5]
                    and 2 * end < coroot_sum(shifted, lo, hi) < 2 * (end + step)
                ):
                    unmarked += 1
        assert unmarked >= 20

    def test_mirrored_runs_hold_higher_valuations(self, monkeypatch):
        # at a root whose pairing c is a multiple of p, a run of the
        # progression of the multiples of q = p^(v_p(c) + 1) holds levels
        # where v_p(l) - v_p(c - l), which is v_p(l) - v_p(c), is at least 2
        seen = self._record_runs(monkeypatch)
        rng = random.Random(75)
        heavy = 0
        for p in (2, 3, 5, 7):
            for _ in range(6):
                coords = [rng.randint(0, 100 * p) for _ in range(rng.randint(2, 3))]
                # the longest root pairs to sum(coords) + d: make p divide it
                coords[-1] += -(sum(coords) + len(coords)) % p
                lam = Weight(coords)
                seen.clear()
                self._check(lam, p, LeviDatum.full(lam.rank))
                shifted = (lam + rho(lam.rank)).coords
                for lo, hi, step, level, count, sign in seen:
                    c = coroot_sum(shifted, lo, hi)
                    if count > 1 and step > p:  # a progression of step q > p
                        heavy += any(
                            abs(p_adic_valuation(p, l) - p_adic_valuation(p, c - l)) >= 2
                            for l in range(level, level + count * step, step)
                        )
        assert heavy >= 20


def _placement_cases():
    """Seeded (lam, p, levi) at ranks 2..8, over the full group and random
    Levis, coordinates up to 3 or 9 on the Levi's simple roots and of
    either sign off them."""
    rng = random.Random(37)
    cases = []
    for k in range(240):
        d = rng.randint(2, 8)
        p = (2, 3, 5, 7)[k % 4]
        if k % 3 == 0:
            simples = set(range(1, d + 1))
        else:
            simples = {s for s in range(1, d + 1) if rng.random() < 0.7}
        top = rng.choice((3, 9))
        lam = Weight([rng.randint(0 if s in simples else -top, top) for s in range(1, d + 1)])
        cases.append((lam, p, LeviDatum(d, simples)))
    return cases


class TestPlacement:
    # a regular term's dominant weight is lam with two slices moved one
    # place and at most six new coordinates put in, read off the places i
    # <= j where the larger and the smaller moved value land
    # (jantzen._placed); the rows, the terms and the trace all take it
    @staticmethod
    def _edges(x, levi, term) -> list[str]:
        """The edges of the closed form that a regular term meets, its
        places worked out here from x = epsilon(lam + rho)."""
        d, (lo, hi) = levi.rank, term.root
        u, v = x[hi] + term.level, x[lo - 1] - term.level
        mid = x[lo:hi]
        i = lo + sum(m > max(u, v) for m in mid)
        j = lo + sum(m > min(u, v) for m in mid)
        block = next(block for block in levi.blocks if lo in block)
        edges = {
            "lo = 1": lo == 1,
            "hi = d": hi == d,
            "i = lo": i == lo,
            "j = hi": j == hi,
            "i = j": i == j,
            "block inside the rank": block[0] > 1 and block[-1] <= d,
            "all six coordinates new": 1 < lo < i < j < hi < d,
        }
        return [edge for edge, met in edges.items() if met]

    def test_rows_and_terms_match_the_reference(self):
        cases = _placement_cases()
        edges = Counter()
        for lam, p, levi in cases:
            report = jantzen_sum(lam, p, levi)
            terms, total = reference_jantzen(lam, p, levi)
            assert report.terms == terms, (lam, p, levi)
            rows = sorted(((*mu.coords, k) for mu, k in total.items()), reverse=True)
            assert report.rows == rows, (lam, p, levi)
            x = to_epsilon(lam + rho(lam.rank))
            for term in terms:
                if term.outcome.sign:
                    edges.update(self._edges(x, levi, term))
        assert sum(1 for lam, p, levi in cases if not levi.is_full) >= 100
        assert len(edges) == 7 and min(edges.values()) >= 100, edges


class TestRows:
    # jantzen_sum keeps its total as rows (*coords, coeff), sorted once; a
    # dict would overwrite a repeated weight where rows would write it twice
    def test_rows_are_distinct_sorted_and_nonzero(self, monkeypatch):
        seen = TestLongRuns._record_runs(monkeypatch)
        rng = random.Random(81)
        cases = _fast_path_cases() + _long_run_cases()
        for k in range(60):
            # long d = 2 runs, and a longest root whose pairing p divides
            p = (2, 3, 5, 7)[k % 4]
            coords = [rng.randint(0, 100 * p) for _ in range(rng.randint(2, 3))]
            coords[-1] += -(sum(coords) + len(coords)) % p
            cases.append((Weight(coords), p, LeviDatum.full(len(coords))))
        mirrored = 0
        for lam, p, levi in cases:
            seen.clear()
            rows = jantzen_sum(lam, p, levi).rows
            _, total = reference_jantzen(lam, p, levi)
            assert all(len(row) == lam.rank + 1 and row[-1] for row in rows), (lam, p, levi)
            assert all(a[:-1] > b[:-1] for a, b in zip(rows, rows[1:])), (lam, p, levi)
            assert row_terms(rows) == total, (lam, p, levi)
            mirrored += any(count > 1 and step > p for _, _, step, _, count, _ in seen)
        assert sum(1 for lam, p, levi in cases if lam.rank == 2) >= 100
        assert sum(1 for lam, p, levi in cases if not levi.is_full) >= 100
        assert mirrored >= 50

    def test_rows_are_levi_dominant(self):
        # each row is a Weyl character's key: dominant for the sum's Levi,
        # while a coordinate off the Levi's simple roots may be negative
        negative_off_levi = 0
        for lam, p, levi in _fast_path_cases():
            for row in jantzen_sum(lam, p, levi).rows:
                key = Weight(row[:-1])
                assert levi.is_dominant(key), (lam, p, levi, row)
                negative_off_levi += min(key.coords) < 0
        assert negative_off_levi >= 100

    def test_rows_are_the_only_total(self):
        # no second, checked copy of the rows: a report has no total, and
        # charring builds no Weyl-basis character
        from jansum import charring

        report = jantzen_sum(Weight((2, 0)), 2, LeviDatum.full(2))
        assert report.rows == [(0, 1, 1)]
        assert not hasattr(report, "total")
        assert not hasattr(charring, "_weyl_character")


class TestWorkCount:
    # How much the sum does, counted without a clock: every level of every
    # root goes through jantzen._terms_at, one run of levels at a time,
    # which a wrapper counts
    @staticmethod
    def _count(monkeypatch) -> tuple[Counter, Counter]:
        """(levels, runs) that _terms_at yields from now on, per root (lo, hi)."""
        import jansum.jantzen as jantzen_mod

        levels: Counter = Counter()
        runs: Counter = Counter()
        terms_at = jantzen_mod._terms_at

        def counted(x, lo, hi, progression):
            for run in terms_at(x, lo, hi, progression):
                levels[lo, hi] += run[1]  # the run's level count
                runs[lo, hi] += 1
                yield run

        monkeypatch.setattr(jantzen_mod, "_terms_at", counted)
        return levels, runs

    @classmethod
    def _count_levels(cls, monkeypatch) -> Counter:
        return cls._count(monkeypatch)[0]

    def test_sum_visits_each_mirror_pair_once(self, monkeypatch):
        visits = self._count_levels(monkeypatch)
        report = jantzen_sum(Weight((20000, 0)), 2, LeviDatum.full(2))
        # a[1,1] pairs to c = 20001, which p does not divide: each of its
        # 10 000 levels; a[1,2] to c = 20002 = 2 * 10001, so q = 4: the
        # 5 000 multiples of 4, each for its mirror too, which is no
        # multiple of 4; a[2,2] pairs to 1 and has none
        assert visits == {(1, 1): 10000, (1, 2): 5000}
        assert len(report.rows) == 15000

    def test_sum_skips_cancelled_mirror_levels(self, monkeypatch):
        visits = self._count_levels(monkeypatch)
        seen = TestLongRuns._record_runs(monkeypatch)
        lam, full = Weight((128, 0)), LeviDatum.full(2)
        report = jantzen_sum(lam, 5, full)
        # a[1,1] pairs to c = 129: each of its 25 levels; a[1,2] to
        # c = 130 = 5 * 26, so q = 25: of its 25 levels only the multiples
        # of 25 are visited, each the member of its pair {l, 130 - l} whose
        # valuation exceeds v_5(130) = 1; every other pair cancels
        assert visits == {(1, 1): 25, (1, 2): 5}
        assert [
            level
            for lo, hi, step, first, count, _ in seen
            if (lo, hi) == (1, 2)
            for level in range(first, first + count * step, step)
        ] == [25, 50, 75, 100, 125]
        assert row_terms(report.rows) == reference_jantzen(lam, 5, full)[1]

    def test_traced_json_visits_the_sum_and_every_term(self, monkeypatch):
        visits = self._count_levels(monkeypatch)
        code, out, _ = run_cli(["jantzen", "--p", "2", "--d", "2", "--lambda", "20000,0", "--trace", "--json"])
        assert code == 0
        assert out.count('"level":') == 20000
        assert sum(visits.values()) == 15000 + 20000

    def test_long_runs_are_summed_whole(self, monkeypatch):
        levels, runs = self._count(monkeypatch)
        report = jantzen_sum(Weight((20000, 0)), 2, LeviDatum.full(2))
        # a[1,1] (c = 20001): u below v up to level 10000, above it from
        # 10002 on, with no singular level between; a[1,2] (c = 20002):
        # the multiples of 4, u below v up to level 10000, above it from
        # 10004 on: one run each side of c/2
        assert levels == {(1, 1): 10000, (1, 2): 5000}
        assert runs == {(1, 1): 2, (1, 2): 2}
        assert len(report.rows) == 15000

    def test_every_run_is_one_level_at_d30(self, monkeypatch):
        # a weight of the benchmark's d = 30 workload: with coordinates at
        # most 3, neighbouring values of x lie at most 4 apart, so at the
        # next level, 3 on, u has met or passed the value above it: no run
        # has two levels
        levels, runs = self._count(monkeypatch)
        lam = Weight(
            (0, 1, 1, 1, 3, 1, 1, 1, 1, 1, 3, 1, 3, 1, 1, 3, 3, 0, 3, 1, 0, 0, 3, 1, 0, 2, 3, 0, 2, 0)
        )
        report = jantzen_sum(lam, 3, LeviDatum.full(30))
        assert runs == levels
        # one root of this weight has fewer than two holes and is skipped
        assert sum(runs.values()) == 2881
        assert len(report.rows) == 1193  # the regular levels, one row each

    def test_sum_never_walks_the_trace(self, monkeypatch):
        import jansum.jantzen as jantzen_mod

        def refuse(*args):
            raise AssertionError("jantzen_sum walked the trace")

        cases = _fast_path_cases()[::8]
        expected = [reference_jantzen(lam, p, levi)[1] for lam, p, levi in cases]
        monkeypatch.setattr(jantzen_mod, "_walk", refuse)
        for (lam, p, levi), total in zip(cases, expected):
            assert row_terms(jantzen_sum(lam, p, levi).rows) == total, (lam, p, levi)
        assert len(jantzen_sum(Weight((20000, 0)), 2, LeviDatum.full(2)).rows) == 15000


class TestHoles:
    # a regular term puts the two moved values on two distinct holes of the
    # root's block, so jantzen_sum skips a root with fewer than two; the
    # trace's walk still visits every root with a term
    @staticmethod
    def _cases():
        seq = lambda_sequence(13, 40)
        levis = (LeviDatum.full(40), LeviDatum(40, range(2, 41)))
        return [(lam, levi) for lam in seq for levi in levis]

    @staticmethod
    def _pairings(lam, p, levi):
        """[(lo, hi, c)] of every root of the Levi with c > p, in root order."""
        shifted = (lam + rho(lam.rank)).coords
        return [
            (lo, hi, c)
            for block in levi.blocks
            for lo in range(block[0], block[-1])
            for hi in range(lo, block[-1])
            if (c := sum(shifted[lo - 1 : hi])) > p
        ]

    def test_the_sum_visits_only_roots_with_two_holes(self, monkeypatch):
        import jansum.jantzen as jantzen_mod

        visited = []
        terms_at = jantzen_mod._terms_at

        def recorded(x, lo, hi, levels):
            visited.append(x[lo - 1] - x[hi] - (hi - lo + 1))  # the root's holes
            return terms_at(x, lo, hi, levels)

        monkeypatch.setattr(jantzen_mod, "_terms_at", recorded)
        for lam, levi in self._cases():
            jantzen_sum(lam, 13, levi)
        assert visited and min(visited) >= 2

    def test_the_walk_still_yields_every_root(self):
        from jansum.jantzen import _walk

        skipped = 0
        for lam, levi in self._cases():
            expected = self._pairings(lam, 13, levi)
            assert [(lo, hi, c) for lo, hi, c, _ in _walk(lam, 13, levi, int)] == expected
            skipped += sum(c - (hi - lo + 1) < 2 for lo, hi, c in expected)
        assert skipped > 0


class TestStabilityInD:
    # an observation, pinned: from d = p + 1 on, the rows of the sum of each
    # lambda_i at rank d + 1 are those at rank d with a 0 put before the
    # coefficient; no code assumes it
    @pytest.mark.parametrize("p", [5, 7])
    def test_rows_gain_a_zero_coordinate(self, p):
        compared = 0
        for d in range(p + 1, 3 * p - 1):
            low, high = lambda_sequence(p, d), lambda_sequence(p, d + 1)
            for lam, lifted in zip(low, high, strict=True):
                for first in (1, 2):
                    rows = jantzen_sum(lam, p, LeviDatum(d, range(first, d + 1))).rows
                    lifted_rows = jantzen_sum(lifted, p, LeviDatum(d + 1, range(first, d + 2))).rows
                    assert lifted_rows == [(*r[:-1], 0, r[-1]) for r in rows], (p, d, lam, first)
                    compared += 1
        assert compared == {5: 64, 7: 144}[p]


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

    def test_coordinate_bound(self, monkeypatch):
        # (r - 1) * d coordinates, r = min(d, p), are admitted up to
        # COORD_LIMIT; past it the call is refused before any weight is built
        import jansum.jantzen as jantzen_mod

        monkeypatch.setattr(jantzen_mod, "COORD_LIMIT", 20)
        assert len(lambda_sequence(5, 5)) == 4  # 4 * 5 coordinates
        assert len(lambda_sequence(7, 5)) == 4  # 4 * 5
        assert len(lambda_sequence(3, 10)) == 2  # 2 * 10
        monkeypatch.setattr(jantzen_mod, "Weight", None)
        for p, d in ((5, 6), (7, 6), (3, 11)):
            with pytest.raises(ValueError) as refused:
                lambda_sequence(p, d)
            assert str(refused.value) == (
                f"the lambda sequence at p={p}, d={d} has more than 20 coordinates; refused"
            )


class TestExpectedSum:
    # what check i of verify_prop_char expects: the tail from lambda_{i+1}
    @staticmethod
    def expected(p, d, i, levi):
        (check,) = [c for c in verify_prop_char(p, d).checks if (c.i, c.levi) == (i, levi)]
        return row_terms(check.tail)

    def test_empty_at_top(self):
        assert not self.expected(5, 5, 3, LeviDatum.full(5))

    def test_alternating_tail(self):
        seq = lambda_sequence(5, 5)
        full = LeviDatum.full(5)
        assert self.expected(5, 5, 1, full) == {seq[2]: 1, seq[3]: -1}

    def test_levi_single_term(self):
        levi = LeviDatum(4, (2, 3, 4))
        seq = lambda_sequence(3, 4)
        assert self.expected(3, 4, 0, levi) == {seq[1]: 1}


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
            assert not check.report.rows
            assert not check.tail

    def test_checks_build_no_total(self):
        # each check compares its sum's rows with the tail's, and a sum
        # keeps its total as rows only
        report = verify_prop_char(7, 12)
        assert report.passed and len(report.checks) == 12
        assert not any(hasattr(check.report, "total") for check in report.checks)
        assert all(
            row_terms(check.report.rows) == row_terms(check.tail) for check in report.checks
        )

    def test_a_changed_tail_fails_its_check(self, monkeypatch):
        # every nonzero tail gains one more of its last weight, or loses its
        # first row; the verdict on rows agrees with the characters'
        import jansum.jantzen as jantzen_mod

        real = jantzen_mod._tails

        def changed(seq):
            tails = real(seq)
            last = seq[-1].coords
            for k, tail in enumerate(tails):
                if tail and not k % 2:
                    terms = {row[:-1]: row[-1] for row in tail}
                    terms[last] = terms.get(last, 0) + 1
                    tails[k] = sorted(((*key, c) for key, c in terms.items() if c), reverse=True)
                elif tail:
                    tails[k] = tail[1:]
            return tails

        monkeypatch.setattr(jantzen_mod, "_tails", changed)
        for p, d in TEST_MATRIX:
            report = verify_prop_char(p, d)
            assert [check.passed for check in report.checks] == [
                row_terms(check.report.rows) == row_terms(check.tail) for check in report.checks
            ]
            assert not report.passed or (p, d) == (2, 3)

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            verify_prop_char(6, 4)

    def test_refusals_keep_their_order(self):
        # the sequence's checks, then the first sum's: primality, then its
        # term count, which comes from the full group's one block of d roots
        bound = 318665857834031151167461
        cases = {
            (bound, 2): "the sequence needs d >= 3, got 2",
            (1, 10**6): "need p >= 2, got 1",
            (6, 40): "p must be prime, got 6",
            (4, 10**6): "p must be prime, got 4",
            (bound, 3): f"primality is decided exactly only below {bound}, got {bound}",
            (3, 10**6): "the Jantzen sum at rank d=1000000, p=3, levi=full has more than 100000 terms; refused",
            (2, 1000): "the Jantzen sum at rank d=1000, p=2, levi=full has more than 100000 terms; refused",
            (1009, 1009): "the telescope at p=1009, d=1009 has more than 2500000 coordinates; refused",
            (3, 2_500_000): "the Jantzen sum at rank d=2500000, p=3, levi=full has more than 100000 terms; refused",
        }
        for (p, d), message in cases.items():
            with pytest.raises(ValueError) as refused:
                verify_prop_char(p, d)
            assert str(refused.value) == message, (p, d)

    def test_coordinate_bound(self, monkeypatch):
        # about (r - 1)^2 * (d + 1) coordinates of sums and tails, r =
        # min(d, p), are admitted up to COORD_LIMIT, prop-char --p 101
        # --d 202 among them; past it the call is refused before the
        # sequence is built
        import jansum.jantzen as jantzen_mod

        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(jantzen_mod, "jantzen_sum", reached)
        for p, d in ((61, 122), (101, 202), (131, 146)):
            with pytest.raises(Reached):
                verify_prop_char(p, d)
        monkeypatch.setattr(jantzen_mod, "COORD_LIMIT", 96)
        for p, d in ((5, 5), (7, 5)):  # 4^2 * 6 coordinates each
            with pytest.raises(Reached):
                verify_prop_char(p, d)
        monkeypatch.setattr(jantzen_mod, "lambda_sequence", reached)
        for p, d in ((5, 6), (7, 6), (3, 31)):
            with pytest.raises(ValueError) as refused:
                verify_prop_char(p, d)
            assert str(refused.value) == (
                f"the telescope at p={p}, d={d} has more than 96 coordinates; refused"
            )

    def test_huge_d_refused_before_the_sequence(self, monkeypatch):
        import jansum.jantzen as jantzen_mod

        def refuse(*args):
            raise AssertionError("built before the refusal")

        for name in ("lambda_sequence", "to_epsilon"):
            monkeypatch.setattr(jantzen_mod, name, refuse)
        with pytest.raises(ValueError, match="more than 100000 terms; refused"):
            verify_prop_char(3, 10**6)

    def test_composite_p_refused_before_the_sequence(self):
        # a composite p is refused next to the block check, before the
        # sequence and the Levis of rank d: at d = 1 000 000 those took
        # 0.15 s and 115 MB before the first sum refused p = 4.  The call
        # runs in a child of a small wrapper, whose RUSAGE_CHILDREN sees
        # that child's peak alone.
        refusal = (
            "import time\n"
            "from jansum.jantzen import verify_prop_char\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    verify_prop_char(4, 10**6)\n"
            "except ValueError as refused:\n"
            "    print(refused)\n"
            "print(time.perf_counter() - start)\n"
        )
        wrapper = (
            "import resource, subprocess, sys\n"
            "subprocess.call([sys.executable, '-c', sys.argv[1]])\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, refusal],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        message, seconds, peak_kib = proc.stdout.splitlines()
        assert message == "p must be prime, got 4"
        assert float(seconds) < 0.05
        assert int(peak_kib) < 40 * 1024

    def test_early_refusal_is_the_first_sums(self):
        # from the least d at which the full group's block refuses, the
        # first sum (lambda_0, full group) refuses with the same message
        import jansum.jantzen as jantzen_mod

        for p in (2, 3, 5, 7):
            d = 3
            while True:
                try:
                    jantzen_mod._check_blocks([d], p, LeviDatum.full(d))
                except ValueError:
                    break
                d += 1
            for dd in (d, d + 1, 2 * d):
                with pytest.raises(ValueError) as early:
                    verify_prop_char(p, dd)
                with pytest.raises(ValueError) as first:
                    jantzen_sum(lambda_sequence(p, dd)[0], p, LeviDatum.full(dd))
                assert str(early.value) == str(first.value), (p, dd)

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
                    assert term.root[0] == 2
                    assert term.m == 1
                    assert i + term.t < len(seq)
                    expected = SignedDominant(
                        1 if (term.t - 1) % 2 == 0 else -1, seq[i + term.t]
                    )
                    assert term.outcome == expected


def _tail_reference(seq, k, levi):
    """[seq_k] - [seq_{k+1}] + ..., as {Weight: coeff}, each weight
    dominant for the Levi."""
    assert all(levi.is_dominant(w) for w in seq[k:])
    return {seq[j]: (-1) ** (j - k) for j in range(k, len(seq))}


def _tail_characters(seq):
    """The tails of jantzen._tails(seq) as {Weight: coeff}, from their rows
    (*coords, coeff), which must be distinct, nonzero and sorted as
    jantzen_sum sorts its own."""
    import jansum.jantzen as jantzen_mod

    tails = jantzen_mod._tails(seq)
    assert all(all(a[:-1] > b[:-1] for a, b in zip(rows, rows[1:])) for rows in tails)
    assert all(row[-1] for rows in tails for row in rows)
    return [row_terms(rows) for rows in tails]


class TestTails:
    # _tails(seq)[k - 1] is the tail from seq_k, which the sum of seq_{k-1}
    # telescopes to
    def test_top_of_sequence_is_simple(self):
        for p, d in [(3, 4), (5, 5), (7, 6)]:
            seq = lambda_sequence(p, d)
            tails = _tail_characters(seq)
            assert not tails[-1]
            assert tails[-2] == {seq[-1]: 1}

    def test_first_tail_at_p5_d5(self):
        seq = lambda_sequence(5, 5)
        assert _tail_characters(seq)[0] == {seq[1]: 1, seq[2]: -1, seq[3]: 1}

    def test_telescoping(self):
        # the tail from seq_k plus the tail from seq_{k+1} is [seq_k]
        for p, d in [(3, 4), (5, 5), (5, 7)]:
            seq = lambda_sequence(p, d)
            tails = _tail_characters(seq)
            assert len(tails) == len(seq)
            for k in range(1, len(seq)):
                summed = Counter(tails[k - 1])
                summed.update(tails[k])
                assert {w: c for w, c in summed.items() if c} == {seq[k]: 1}


class TestTailsAgainstTheDefinition:
    # each alternating tail, made as sorted rows, against its sum written out
    CASES = [(p, d) for p in (2, 3, 5, 7, 11, 13) for d in sorted({3, p, p + 3}) if d >= 3]

    @pytest.mark.parametrize("p,d", CASES)
    def test_tails(self, p, d):
        seq = lambda_sequence(p, d)
        tails = _tail_characters(seq)
        assert len(tails) == len(seq)
        for k, ch in enumerate(tails, 1):
            assert ch == _tail_reference(seq, k, LeviDatum.full(d)), (p, d, k)

    @pytest.mark.parametrize("p,d", CASES)
    def test_prop_char_expected(self, p, d):
        seq = lambda_sequence(p, d)
        levis = (LeviDatum.full(d), LeviDatum(d, range(2, d + 1)))
        checks = verify_prop_char(p, d).checks
        assert [(c.i, c.levi) for c in checks] == [(i, levi) for i in range(len(seq)) for levi in levis]
        for check in checks:
            expected = _tail_reference(seq, check.i + 1, check.levi)
            assert row_terms(check.tail) == expected, (p, d, check.i)
