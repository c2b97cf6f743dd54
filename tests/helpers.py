"""Brute-force helpers shared across the test suite.

Deliberately independent re-derivations (plain enumeration and prefix-sum
arithmetic on raw tuples) used as oracles against the library proper.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from functools import lru_cache
from math import factorial

from jansum.charring import (
    BASIS_MONOMIAL,
    BASIS_WEYL,
    _monomial_character,
    _weyl_character,
    kostka,
)
from jansum.jantzen import JantzenTerm
from jansum.lattice import Partition, Weight
from jansum.weyl import LeviDatum


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


def brute_strips(shape: tuple[int, ...], cap: int) -> list[list[tuple[int, ...]]]:
    """Every nu with shape_{i+1} <= nu_i <= shape_i for each row i (so that
    shape/nu is a horizontal strip), grouped by |shape| - |nu|: entry k
    lists, sorted, those with k = 0..cap.  One product of row ranges,
    filtered, with no corner reasoning."""
    ranges = [range(below, row + 1) for row, below in zip(shape, shape[1:] + (0,))]
    out: list[list[tuple[int, ...]]] = [[] for _ in range(cap + 1)]
    for rows in itertools.product(*ranges):
        size = sum(shape) - sum(rows)
        if size <= cap:
            out[size].append(tuple(r for r in rows if r))
    return [sorted(found) for found in out]


def run_parts(runs: tuple[int, ...]) -> tuple[int, ...]:
    """The parts of a shape held by its runs (v1, m1, v2, m2, ...), which
    must be canonical: values strictly decreasing and positive, and each
    count at least 1."""
    values, counts = runs[::2], runs[1::2]
    assert len(values) == len(counts), runs
    assert all(a > b for a, b in zip(values, values[1:])), runs
    assert all(v >= 1 for v in values) and all(m >= 1 for m in counts), runs
    return tuple(v for v, m in zip(values, counts) for _ in range(m))


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


def coroot_sum(coords: tuple[int, ...], lo: int, hi: int) -> int:
    """The pairing of a weight, by its raw coordinates, with the coroot of
    alpha_{lo,hi}: the sum of coordinates lo..hi (1-based)."""
    if not 1 <= lo <= hi <= len(coords):
        raise ValueError(f"root ({lo}, {hi}) out of range for rank {len(coords)}")
    return sum(coords[lo - 1 : hi])


def levi_roots(simples, d: int) -> list[tuple[int, int]]:
    """(lo, hi) of every alpha_{lo,hi} of rank d whose simple roots lo..hi
    all lie in simples, in root order: by lo, then by hi."""
    return [
        (lo, hi)
        for lo in range(1, d + 1)
        for hi in range(lo, d + 1)
        if all(s in simples for s in range(lo, hi + 1))
    ]


def omega_sum(d: int, *terms: tuple[int, int]) -> tuple[int, ...]:
    """The coordinates of the sum of k * omega_i over the (k, i) of terms,
    at rank d, with omega_{d+1} = 0."""
    coords = [0] * (d + 1)
    for k, i in terms:
        if not 1 <= i <= d + 1:
            raise ValueError(f"omega_{i} out of range for rank {d}")
        coords[i - 1] += k
    return tuple(coords[:d])


_kostka = lru_cache(maxsize=None)(kostka)


def schur_sum_by_kostka(coeffs, top) -> dict:
    """{mu: sum of coeff * K(shape, mu)} for every mu below top, zeros
    included, in reverse-lexicographic order: one Kostka number per (shape,
    mu), over the ideal that brute_partitions and prefix_leq find, so no
    walk of the ideal is used.  K(shape, mu) is 0 unless mu <= shape, and
    each of the others is computed once per test session."""
    out = {}
    # no partition below top has a part larger than top's first
    for parts in brute_partitions(top.size, top.parts[0] if top.parts else None):
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


def sorted_terms(ch) -> list:
    """A character's (key, coeff) pairs in reverse-lexicographic key order,
    sorted here by a key function, apart from the writers' own listing."""
    if ch.basis == BASIS_MONOMIAL:
        return sorted(ch.terms.items(), key=lambda item: list(item[0].parts), reverse=True)
    return sorted(ch.terms.items(), key=lambda item: list(item[0].coords), reverse=True)


def character_to_text(ch) -> str:
    """The text form of a character, term by term from its rules: "0" for
    zero; each key through its own str after "m" or "χ", with "|c|·" in
    front when |c| >= 2; the first monomial term signed "" or "-" and the
    others "+ " or "- "; every Weyl term "+" or "-"."""
    pieces = []
    for key, coeff in sorted_terms(ch):
        body = ("m" if ch.basis == BASIS_MONOMIAL else "χ") + str(key)
        if abs(coeff) != 1:
            body = f"{abs(coeff)}·{body}"
        if ch.basis == BASIS_WEYL:
            sign = "+" if coeff > 0 else "-"
        elif not pieces:
            sign = "" if coeff > 0 else "-"
        else:
            sign = "+ " if coeff > 0 else "- "
        pieces.append(sign + body)
    return " ".join(pieces) if pieces else "0"


def character_to_json(ch) -> dict:
    if ch.basis == BASIS_MONOMIAL:
        terms = [
            {"key": partition_to_json(key), "coeff": str(coeff)}
            for key, coeff in sorted_terms(ch)
        ]
        return {"basis": BASIS_MONOMIAL, "terms": terms}
    terms = [
        {"key": weight_to_json(key), "coeff": str(coeff)}
        for key, coeff in sorted_terms(ch)
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
        "diff": character_to_json(_monomial_character(report.diff_leaves)),
    }


def prop_char_report_to_json(report) -> dict:
    checks = []
    for check in report.checks:
        entry = {
            "i": check.i,
            "levi": check.levi.describe(),
            "passed": check.passed,
            "total": character_to_json(check.report.total),
            "expected": character_to_json(_weyl_character(check.levi, check.tail)),
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
                "unexpected": [],
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
