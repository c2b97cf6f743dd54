"""Canonical JSON text for the library's value types, written directly.

Each writer gives the text that json.dumps(form, separators=(",", ":"))
gives for the value's JSON form, without building that form: integers,
booleans and the fixed keys are formatted here, and only free-text strings
(an identity's `which` and `label`, a Levi's description) go through
json.dumps, so their escaping is exactly its own.  Term lists come out in
reverse-lexicographic key order and coefficients are decimal strings, so
equal values always give identical bytes, and parsing then re-serializing
is the identity on the text.

Scalars and characters are written as one string, and a report as an
iterator of pieces, so that a caller can print it as it is made.  A Jantzen
trace comes one term per piece from jantzen._trace, the writer the text
trace shares, given this module's forms of a term, a weight and an outcome;
it is never held whole.
"""

from __future__ import annotations

from itertools import chain

from .charring import BASIS_MONOMIAL
from .jantzen import _trace


def canonical_dumps(obj) -> str:
    import json  # here, not at the top: a command that prints no free text never loads it

    return json.dumps(obj, separators=(",", ":"))


def _ints(values) -> str:
    return ",".join(map(str, values))


def _bool(value: bool) -> str:
    return "true" if value else "false"


def partition_json(p) -> str:
    return f"[{_ints(p.parts)}]"


# the forms of a weight (rank, coordinates) and of the two outcomes, which
# the Jantzen trace shares (see jantzen._trace)
_WEIGHT = '{"d":%d,"coords":[%s]}'
_REGULAR = '{"sign":%d,"dominant":%s}'
_SINGULAR = '{"singular":true}'


def weight_json(w) -> str:
    return _WEIGHT % (len(w.coords), _ints(w.coords))


def levi_json(levi) -> str:
    return f'{{"d":{levi.rank},"simples":[{_ints(sorted(levi.simples))}]}}'


def signed_dominant_json(sd) -> str:
    return _SINGULAR if sd.is_singular else _REGULAR % (sd.sign, weight_json(sd.dominant))


_MONOMIAL = '{"basis":"monomial","terms":['


def character_json(ch) -> str:
    if ch.basis == BASIS_MONOMIAL:
        head = _MONOMIAL
        terms = [f'{{"key":[{_ints(k.parts)}],"coeff":"{c}"}}' for k, c in ch.items_sorted()]
    else:
        head = f'{{"basis":"weyl","levi":{levi_json(ch.levi)},"terms":['
        d = ch.levi.rank  # every key is a weight of the Levi's rank
        term = '{"key":{"d":%d,"coords":[%s]},"coeff":"%%d"}' % (d, ",".join(["%d"] * d))
        # reverse-lexicographic by key: keys are distinct, so no two
        # coefficients are ever compared
        pairs = sorted([(k.coords, c) for k, c in ch.terms.items()], reverse=True)
        terms = [term % (*coords, c) for coords, c in pairs]
    return head + ",".join(terms) + "]}"


# a term of a Jantzen trace, after a comma (see jantzen._trace)
_TERM = (
    ',{"root":[%(lo)d,%(hi)d],"m":%%d,"level":%%d,"t":%%d,"valuation":%(valuation)d,'
    '"image":%(image)s,"outcome":%%s}'
)


def jantzen_terms_json(report):
    """The JSON array of every term of a Jantzen sum, in pieces, one term per
    piece as the sum's walk makes it: each term comes after a comma, so that
    no separator is joined per term, and the first one's is dropped."""
    terms = _trace(report, _TERM, _WEIGHT % (report.lam.rank, "%s"), _REGULAR, _SINGULAR)
    return chain(["[" + next(terms, ",")[1:]], terms, ["]"])


def sum_report_json(report, trace: bool = False):
    """Yield the pieces of a Jantzen sum report; with trace, every term too."""
    yield (
        f'{{"lambda":{weight_json(report.lam)},"p":{report.p},"levi":{levi_json(report.levi)},'
        f'"total":{character_json(report.total)}'
    )
    if trace:
        yield ',"terms":'
        yield from jantzen_terms_json(report)
    yield "}"


def identity_report_json(report):
    """Both sides from the leaves of the report's check, which come in
    reverse-lexicographic order, each key formatted once: the left side
    has every leaf with coefficient 1, the right side the nonzero ones with
    theirs, so an EQUAL report's right side is its left side's text."""
    leaves = report.check.leaves
    keys = [f'{{"key":[{_ints(mu.parts)}],"coeff":"' for mu, _ in leaves]
    lhs = _MONOMIAL + ",".join([key + '1"}' for key in keys]) + "]}"
    if report.equal:
        rhs = lhs
    else:
        terms = [f'{key}{c}"}}' for key, (_, c) in zip(keys, leaves) if c]
        rhs = _MONOMIAL + ",".join(terms) + "]}"
    yield (
        f'{{"n":{report.n},"which":{canonical_dumps(report.which)},"prime":{_bool(report.prime)},'
        f'"label":{canonical_dumps(report.label)},"equal":{_bool(report.equal)},"lhs":{lhs}'
    )
    yield f',"rhs":{rhs}'
    yield f',"diff":{character_json(report.diff)}}}'


def prop_char_report_json(report):
    """A failing check lists its terms; a passing one does not."""
    yield f'{{"p":{report.p},"d":{report.d},"passed":{_bool(report.passed)},"checks":['
    sep = ""
    for check in report.checks:
        yield (
            f'{sep}{{"i":{check.i},"levi":{canonical_dumps(check.levi.describe())},'
            f'"passed":{_bool(check.passed)},"total":{character_json(check.total)},'
            f'"expected":{character_json(check.expected)}'
        )
        if not check.passed:
            yield ',"terms":'
            yield from jantzen_terms_json(check.report)
        yield "}"
        sep = ","
    yield "]}"


def multiplicity_report_json(report):
    families = []
    for fam in report.families:
        wrong = ",".join(f"[{partition_json(m)},{c}]" for m, c in fam.wrong_multiplicity)
        families.append(
            f'{{"target":{partition_json(fam.target)},"passed":{_bool(fam.passed)},'
            f'"missing":[{",".join(map(partition_json, fam.missing))}],'
            '"unexpected":[],'
            f'"wrong_multiplicity":[{wrong}]}}'
        )
    yield (
        f'{{"p":{report.p},"d":{report.d},"passed":{_bool(report.passed)},'
        f'"families":[{",".join(families)}]}}'
    )
