"""Acceptance suite: every criterion is exact (zero tolerance), and each test
prints one PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to
see them live)."""

import random
import time

from helpers import brute_partitions, coroot_sum, levi_roots, omega_sum, run_cli
from jansum.charring import kostka, schur_to_monomial
from jansum.identities import multiplicity_one_report
from jansum.jantzen import jantzen_sum, lambda_sequence
from jansum.lattice import Partition, Weight, dominance_leq, rho
from jansum.oracle import _dot_reflect, enumerate_ssyt, eval_monomial, eval_schur_bialternant
from jansum.weyl import LeviDatum, SignedDominant, dot_normalize, dot_orbit_oracle

PROP_CHAR_MATRIX = [(2, 3), (3, 3), (3, 4), (5, 5), (5, 7), (7, 6)]


def _verdict(number: int, description: str, ok: bool, started: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {state} ({time.monotonic() - started:.1f}s): {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_first_identity_sweep():
    started = time.monotonic()
    code, out, _ = run_cli(["sweep", "2", "12", "--which", "first"])
    lines = out.strip().splitlines()
    ok = code == 0 and len(lines) == 11 and all("EQUAL" in line for line in lines)
    _verdict(1, "sweep 2 12 --which first reports EQUAL for every n", ok, started)


def test_criterion_2_second_identity_sweep():
    started = time.monotonic()
    code, out, _ = run_cli(["sweep", "2", "30", "--which", "second"])
    lines = out.strip().splitlines()
    ok = code == 0 and len(lines) == 29 and all("EQUAL" in line for line in lines)
    _verdict(2, "sweep 2 30 --which second reports EQUAL for every n", ok, started)


def test_criterion_3_jantzen_telescope_matrix():
    started = time.monotonic()
    ok = True
    for p, d in PROP_CHAR_MATRIX:
        code, out, _ = run_cli(["prop-char", "--p", str(p), "--d", str(d)])
        ok = ok and code == 0 and "FAIL" not in out
    _verdict(
        3,
        "prop-char passes (full and Levi sums) for the whole (p, d) matrix",
        ok,
        started,
    )


def test_criterion_4_case_analysis_shadow():
    started = time.monotonic()
    ok = True
    for p, d in PROP_CHAR_MATRIX:
        seq = lambda_sequence(p, d)
        for levi in (LeviDatum.full(d), LeviDatum(d, range(2, d + 1))):
            for i, lam in enumerate(seq):
                for term in jantzen_sum(lam, p, levi).terms:
                    if term.outcome.is_singular:
                        continue
                    sign = 1 if (term.t - 1) % 2 == 0 else -1
                    ok = ok and term.root[0] == 2 and term.m == 1
                    ok = ok and i + term.t < len(seq)
                    ok = ok and term.outcome == SignedDominant(sign, seq[i + term.t])
                    if not ok:
                        break
    _verdict(
        4,
        "every non-singular term has root lo=2, m=1 and outcome "
        "(-1)^(t-1) * [lambda_{i+t}]",
        ok,
        started,
    )


def test_criterion_5_hand_derived_instance():
    started = time.monotonic()
    report = jantzen_sum(Weight((2, 0)), 2, LeviDatum.full(2))
    nonsingular = [t for t in report.terms if not t.outcome.is_singular]
    ok = (
        report.rows == [(0, 1, 1)]
        and len(nonsingular) == 1
    )
    _verdict(5, "jantzen_sum(2w1, p=2, SL3) = +chi(w2) with one surviving term", ok, started)


def test_criterion_6_multiplicity_one():
    started = time.monotonic()
    ok = True
    for p in (2, 3, 5, 7):
        d = 3 if p == 2 else 2 * p - 2
        report = multiplicity_one_report(p, d)
        ok = ok and report.passed
        first, second = report.families
        ok = ok and first.target == Partition((p - 1, p - 1, 1))
        ok = ok and second.target == Partition((p - 1, 1))
    _verdict(
        6,
        "derived head characters are exactly the dominance ideals, all "
        "coefficients 1, for p in {2,3,5,7}",
        ok,
        started,
    )


def test_criterion_7_oracle_equivalence():
    started = time.monotonic()
    ok = True
    for n in range(0, 9):
        shapes = [Partition(t) for t in brute_partitions(n)]
        for lam in shapes:
            for mu in shapes:
                value = kostka(lam, mu)
                ok = ok and value == enumerate_ssyt(lam, mu)
                ok = ok and (value > 0) == dominance_leq(mu, lam)
                ok = ok and (lam != mu or value == 1)
        if not ok:
            break
    rng = random.Random(77)
    for n in range(1, 8):
        for parts in brute_partitions(n):
            lam = Partition(parts)
            expansion = schur_to_monomial(lam)
            for _ in range(20):
                nvars = rng.randint(lam.length, n)
                point = rng.sample(range(1, 40), nvars)
                direct = eval_schur_bialternant(lam, point)
                expanded = sum(k * eval_monomial(mu, point) for mu, k in expansion.items())
                ok = ok and direct == expanded
            if not ok:
                break
    _verdict(
        7,
        "kostka = ssyt enumeration and is unitriangular (size <= 8); "
        "bialternant = Kostka expansion at 20 points (size <= 7)",
        ok,
        started,
    )


def test_criterion_8_dot_action_suite():
    started = time.monotonic()
    rng = random.Random(88)
    ok = True
    for d in (2, 3, 4, 5):
        full = LeviDatum.full(d)
        for _ in range(125):
            mu = Weight([rng.randint(-7, 7) for _ in range(d)])
            ok = ok and dot_normalize(mu, full) == dot_orbit_oracle(mu)
    for n in range(2, 11):
        for k in range(2, n + 1):
            theta_k = Weight(omega_sum(n, (1, 1), (-k, k), (k - 1, k + 1)))
            theta_prev = Weight(omega_sum(n, (1, 1), (1 - k, k - 1), (k - 2, k)))
            ok = ok and _dot_reflect(theta_k, k, k, 0) == theta_prev
            word = Weight(omega_sum(n, (1, k + 1)))
            for j in range(2, k + 1):
                word = _dot_reflect(word, j, j, 0)
            ok = ok and word == Weight(omega_sum(n, (1, 1), (-k, k), (k, k + 1)))
    checked = 0
    while checked < 200:
        d = rng.randint(2, 4)
        p = rng.choice([5, 7, 11, 13])
        lam = Weight([rng.randint(0, max(0, (p - d) // d)) for _ in range(d)])
        shifted = (lam + rho(d)).coords
        if any(coroot_sum(shifted, lo, hi) > p for lo, hi in levi_roots(range(1, d + 1), d)):
            continue
        ok = ok and not jantzen_sum(lam, p, LeviDatum.full(d)).rows
        checked += 1
    _verdict(
        8,
        "normalization matches the orbit oracle (500 weights); the theta "
        "ladder holds for 2 <= k <= n <= 10; 200 small-pairing sums vanish",
        ok,
        started,
    )
