"""Brute-force helpers shared across the test suite.

Deliberately independent re-derivations (plain enumeration and prefix-sum
arithmetic on raw tuples) used as oracles against the library proper.
"""

from __future__ import annotations

import contextlib
import io
import random
from functools import lru_cache
from math import factorial

from jansum.charring import BASIS_MONOMIAL, BASIS_WEYL, kostka
from jansum.jantzen import JantzenTerm, p_adic_valuation
from jansum.lattice import Partition, Weight, pairing, rho
from jansum.weyl import LeviDatum, affine_dot_reflect, dot_normalize


def brute_partitions(n: int, max_part: int | None = None):
    """All partitions of n as tuples, largest part first, reverse-lex order."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in brute_partitions(n - first, first):
            yield (first,) + rest


def partition_count(n: int, max_part: int) -> int:
    """Partitions of n with parts <= max_part, by the coin-change recurrence."""
    counts = [1] + [0] * n
    for part in range(1, max_part + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts[n]


def prefix_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Dominance by raw prefix sums (equal totals assumed)."""
    sa = sb = 0
    for t in range(max(len(a), len(b))):
        sa += a[t] if t < len(a) else 0
        sb += b[t] if t < len(b) else 0
        if sa > sb:
            return False
    return True


_kostka = lru_cache(maxsize=None)(kostka)


def schur_sum_by_kostka(coeffs, top) -> dict:
    """{mu: sum of coeff * K(shape, mu)} for every mu below top, zeros
    included, in reverse-lexicographic order: one Kostka number per (shape,
    mu), over the ideal that brute_partitions and prefix_leq find, so no
    walk of the ideal is used.  K(shape, mu) is 0 unless mu <= shape, and
    each of the others is computed once per test session."""
    out = {}
    for parts in brute_partitions(top.size):
        if prefix_leq(parts, top.parts):
            mu = Partition(parts)
            out[mu] = sum(
                c * _kostka(shape, mu) for shape, c in coeffs.items() if prefix_leq(parts, shape.parts)
            )
    return out


def hook_length_count(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux of the shape, by the hook length formula."""
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            below = sum(1 for r in shape[i + 1:] if r > j)
            hooks *= row - j + below
    return factorial(sum(shape)) // hooks


def inversions(vals) -> int:
    """Pairs i < j with vals[i] < vals[j], counted one pair at a time."""
    return sum(
        1 for i in range(len(vals)) for j in range(i + 1, len(vals)) if vals[i] < vals[j]
    )


def random_weight(rng: random.Random, d: int, lo: int = -6, hi: int = 6) -> Weight:
    return Weight([rng.randint(lo, hi) for _ in range(d)])


def random_dominant(rng: random.Random, d: int, hi: int = 5) -> Weight:
    return Weight([rng.randint(0, hi) for _ in range(d)])


def random_levi(rng: random.Random, d: int) -> LeviDatum:
    return LeviDatum(d, [s for s in range(1, d + 1) if rng.random() < 0.6])


def random_levi_dominant(rng: random.Random, levi: LeviDatum, hi: int = 5) -> Weight:
    """Dominant for the Levi: nonnegative on its simple roots, any sign off them."""
    return Weight([
        rng.randint(0, hi) if s in levi.simples else rng.randint(-hi, hi)
        for s in range(1, levi.rank + 1)
    ])


def reference_jantzen(lam: Weight, p: int, levi) -> tuple[tuple[JantzenTerm, ...], dict]:
    """The Jantzen sum the generic way: (trace, {dominant weight: coefficient}).

    Every (root, level) pair is dot-reflected and normalized in full, with
    no closed form: the slow reference for jantzen_sum and its trace.
    """
    shifted = lam + rho(lam.rank)
    terms = []
    total: dict = {}
    for root in levi.positive_roots():
        c = pairing(shifted, root)
        for level in range(p, c, p):
            image = affine_dot_reflect(lam, root, level)
            outcome = dot_normalize(image, levi)
            valuation = p_adic_valuation(p, level)
            terms.append(JantzenTerm(root, level // p, level, c - level, valuation, image, outcome))
            if not outcome.is_singular:
                key = outcome.dominant
                total[key] = total.get(key, 0) + outcome.sign * valuation
    return tuple(terms), {k: c for k, c in total.items() if c}


def jantzen_term_text(term: JantzenTerm) -> str:
    """A term's line of the text `jantzen --trace`, without its two-space
    indent: formatted field by field from the term, the slow oracle for the
    CLI's template writer (jantzen._trace)."""
    if term.outcome.is_singular:
        result = "singular"
    else:
        result = f"{term.outcome.sign:+d}·{term.outcome.dominant}"
    return (
        f"{term.root} m={term.m} level={term.level} v={term.valuation} "
        f"t={term.t} image={term.image} -> {result}"
    )


# The JSON forms as dicts and lists: the slow oracle for jansum.serialize,
# whose writers must give json.dumps(form, separators=(",", ":")) of these.

def partition_to_json(p: Partition) -> list[int]:
    return list(p.parts)


def weight_to_json(w: Weight) -> dict:
    return {"d": w.rank, "coords": list(w.coords)}


def levi_to_json(levi) -> dict:
    return {"d": levi.rank, "simples": sorted(levi.simples)}


def signed_dominant_to_json(sd) -> dict:
    if sd.is_singular:
        return {"singular": True}
    return {"sign": sd.sign, "dominant": weight_to_json(sd.dominant)}


def character_to_json(ch) -> dict:
    if ch.basis == BASIS_MONOMIAL:
        terms = [
            {"key": partition_to_json(key), "coeff": str(coeff)}
            for key, coeff in ch.items_sorted()
        ]
        return {"basis": BASIS_MONOMIAL, "terms": terms}
    terms = [
        {"key": weight_to_json(key), "coeff": str(coeff)}
        for key, coeff in ch.items_sorted()
    ]
    return {"basis": BASIS_WEYL, "levi": levi_to_json(ch.levi), "terms": terms}


def jantzen_term_to_json(term: JantzenTerm) -> dict:
    return {
        "root": [term.root.lo, term.root.hi],
        "m": term.m,
        "level": term.level,
        "t": term.t,
        "valuation": term.valuation,
        "image": weight_to_json(term.image),
        "outcome": signed_dominant_to_json(term.outcome),
    }


def sum_report_to_json(report, include_terms: bool = False) -> dict:
    out = {
        "lambda": weight_to_json(report.lam),
        "p": report.p,
        "levi": levi_to_json(report.levi),
        "total": character_to_json(report.total),
    }
    if include_terms:
        out["terms"] = [jantzen_term_to_json(t) for t in report.terms]
    return out


def identity_report_to_json(report) -> dict:
    return {
        "n": report.n,
        "which": report.which,
        "prime": report.prime,
        "label": report.label,
        "equal": report.equal,
        "lhs": character_to_json(report.lhs),
        "rhs": character_to_json(report.rhs),
        "diff": character_to_json(report.diff),
    }


def prop_char_report_to_json(report) -> dict:
    checks = []
    for check in report.checks:
        entry = {
            "i": check.i,
            "levi": check.levi.describe(),
            "passed": check.passed,
            "total": character_to_json(check.total),
            "expected": character_to_json(check.expected),
        }
        if not check.passed:
            entry["terms"] = [jantzen_term_to_json(t) for t in check.report.terms]
        checks.append(entry)
    return {"p": report.p, "d": report.d, "passed": report.passed, "checks": checks}


def multiplicity_report_to_json(report) -> dict:
    families = []
    for fam in report.families:
        families.append(
            {
                "target": partition_to_json(fam.target),
                "passed": fam.passed,
                "missing": [partition_to_json(m) for m in fam.missing],
                "unexpected": [partition_to_json(m) for m in fam.unexpected],
                "wrong_multiplicity": [
                    [partition_to_json(m), c] for m, c in fam.wrong_multiplicity
                ],
            }
        )
    return {"p": report.p, "d": report.d, "passed": report.passed, "families": families}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from jansum.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
    return code, out.getvalue(), err.getvalue()
