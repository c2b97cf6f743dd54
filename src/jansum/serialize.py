"""Canonical JSON forms for the library's value types.

All emitters are deterministic: term lists come out in reverse-lexicographic
key order and coefficients are rendered as decimal strings, so equal values
always serialize to identical bytes and parsing-then-reserializing is the
identity on the text.
"""

from __future__ import annotations

from .charring import BASIS_MONOMIAL, BASIS_WEYL, FormalCharacter
from .identities import IdentityReport, MultiplicityOneReport
from .jantzen import JantzenTerm, PropCharReport, SumReport
from .lattice import Partition, Weight
from .weyl import LeviDatum, SignedDominant


def canonical_dumps(obj) -> str:
    import json  # here, not at the top: a command that prints no JSON never loads it

    return json.dumps(obj, separators=(",", ":"))


def partition_to_json(p: Partition) -> list[int]:
    return list(p.parts)


def weight_to_json(w: Weight) -> dict:
    return {"d": w.rank, "coords": list(w.coords)}


def levi_to_json(levi: LeviDatum) -> dict:
    return {"d": levi.rank, "simples": sorted(levi.simples)}


def signed_dominant_to_json(sd: SignedDominant) -> dict:
    if sd.is_singular:
        return {"singular": True}
    return {"sign": sd.sign, "dominant": weight_to_json(sd.dominant)}


def character_to_json(ch: FormalCharacter) -> dict:
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


def sum_report_to_json(report: SumReport, include_terms: bool = False) -> dict:
    out = {
        "lambda": weight_to_json(report.lam),
        "p": report.p,
        "levi": levi_to_json(report.levi),
        "total": character_to_json(report.total),
    }
    if include_terms:
        out["terms"] = [jantzen_term_to_json(t) for t in report.terms]
    return out


def identity_report_to_json(report: IdentityReport) -> dict:
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


def prop_char_report_to_json(report: PropCharReport) -> dict:
    """A failing check lists its terms; a passing one does not."""
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


def multiplicity_report_to_json(report: MultiplicityOneReport) -> dict:
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
