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
iterator of pieces, so that a caller can print it as it is made; a Jantzen
trace comes one term per piece, straight from the sum's walk, and is never
held whole.
"""

from __future__ import annotations

from .charring import BASIS_MONOMIAL
from .jantzen import _walk


def canonical_dumps(obj) -> str:
    import json  # here, not at the top: a command that prints no free text never loads it

    return json.dumps(obj, separators=(",", ":"))


def _ints(values) -> str:
    return ",".join(map(str, values))


def _bool(value: bool) -> str:
    return "true" if value else "false"


def partition_json(p) -> str:
    return f"[{_ints(p.parts)}]"


def weight_json(w) -> str:
    return f'{{"d":{len(w.coords)},"coords":[{_ints(w.coords)}]}}'


def levi_json(levi) -> str:
    return f'{{"d":{levi.rank},"simples":[{_ints(sorted(levi.simples))}]}}'


_SINGULAR = '{"singular":true}'


def signed_dominant_json(sd) -> str:
    if sd.is_singular:
        return _SINGULAR
    return f'{{"sign":{sd.sign},"dominant":{weight_json(sd.dominant)}}}'


def character_json(ch) -> str:
    if ch.basis == BASIS_MONOMIAL:
        head = '{"basis":"monomial","terms":['
        terms = [f'{{"key":[{_ints(k.parts)}],"coeff":"{c}"}}' for k, c in ch.items_sorted()]
    else:
        head = f'{{"basis":"weyl","levi":{levi_json(ch.levi)},"terms":['
        d = ch.levi.rank  # every key is a weight of the Levi's rank
        terms = [
            f'{{"key":{{"d":{d},"coords":[{_ints(k.coords)}]}},"coeff":"{c}"}}'
            for k, c in ch.items_sorted()
        ]
    return head + ",".join(terms) + "]}"


def jantzen_terms_json(report):
    """Yield the JSON array of every term of a Jantzen sum, one term per
    piece, in the order of jantzen._walk (that of SumReport.terms).

    A term at the root (lo, hi) changes lam only near lo and hi: its image
    lam - t * root differs from lam at most at coordinates lo-1, lo, hi and
    hi+1, and its dominant weight at most at lo-1..hi+1, because _walk's key
    differs from epsilon(lam + rho) only at positions lo..hi+1.  So each root
    gets one template with lam's other coordinates already written out; a
    term fills in m, level, t, valuation, the changed image coordinates and
    its outcome, whose text is made once per distinct sign and key.
    """
    lam, p = report.lam, report.p
    coords, d = lam.coords, lam.rank
    written = [str(c) for c in coords]
    outcomes: dict[int, dict[tuple, str]] = {1: {}, -1: {}}  # sign -> key -> text
    current = None
    sep = "["
    for root, level, c, valuation, sign, key in _walk(lam, p, report.levi):
        if root is not current:
            current = root
            template, slots = _term_template(root.lo, root.hi, coords, written)
            # the dominant coordinates that may differ from lam's, 0-based
            changed = range(max(root.lo - 2, 0), min(root.hi + 1, d))
            head = "".join(w + "," for w in written[: changed.start])
            tail = "".join("," + w for w in written[changed.stop :])
        t = c - level
        if sign:
            known = outcomes[sign]
            outcome = known.get(key)
            if outcome is None:
                # mu with epsilon(mu + rho) = key, as in jantzen._weight
                mid = ",".join([str(key[i] - key[i + 1] - 1) for i in changed])
                outcome = known[key] = (
                    f'{{"sign":{sign},"dominant":{{"d":{d},"coords":[{head}{mid}{tail}]}}}}'
                )
        else:
            outcome = _SINGULAR
        yield sep + template % (level // p, level, t, valuation, *[b + k * t for b, k in slots], outcome)
        sep = ","
    yield "[]" if sep == "[" else "]"


def _term_template(lo: int, hi: int, coords: tuple[int, ...], written: list[str]) -> tuple[str, list]:
    """The %-template of a term at the root (lo, hi), and (value, multiple of
    t) for each coordinate of lam it fills in, written being lam's
    coordinates as text: the root is -1, +1, +1, -1 at coordinates lo-1,
    lo, hi, hi+1 (those that exist; lo = hi adds up to +2), and the image is
    lam - t * root."""
    change = {}
    if lo > 1:
        change[lo - 2] = 1
    change[lo - 1] = -1
    change[hi - 1] = change.get(hi - 1, 0) - 1
    if hi < len(coords):
        change[hi] = 1
    pieces = written[:]
    for i in change:
        pieces[i] = "%d"
    template = (
        f'{{"root":[{lo},{hi}],"m":%d,"level":%d,"t":%d,"valuation":%d,'
        f'"image":{{"d":{len(coords)},"coords":[{",".join(pieces)}]}},"outcome":%s}}'
    )
    return template, [(coords[i], k) for i, k in sorted(change.items())]


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
    yield (
        f'{{"n":{report.n},"which":{canonical_dumps(report.which)},"prime":{_bool(report.prime)},'
        f'"label":{canonical_dumps(report.label)},"equal":{_bool(report.equal)},'
        f'"lhs":{character_json(report.lhs)}'
    )
    yield f',"rhs":{character_json(report.rhs)}'
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
            f'"unexpected":[{",".join(map(partition_json, fam.unexpected))}],'
            f'"wrong_multiplicity":[{wrong}]}}'
        )
    yield (
        f'{{"p":{report.p},"d":{report.d},"passed":{_bool(report.passed)},'
        f'"families":[{",".join(families)}]}}'
    )
