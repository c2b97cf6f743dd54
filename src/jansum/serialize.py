"""Text and canonical JSON for the library's value types, written directly.

A character is written only here, in either form, in reverse-lexicographic
order of its keys; a Weyl character from (*coords, coeff) rows, through one
term formatter per form (weyl_json, weyl_text): a Jantzen total's rows come
sorted from jantzen_sum, any other's keys from _ordered.  Each JSON writer
gives the text that json.dumps(form, separators=(",", ":")) gives for the
value's JSON form, without building that form or loading json: integers,
booleans and the fixed keys are formatted here, and the only strings (an
identity's `which` and `label`, a Levi's description) come from a fixed
ASCII vocabulary with nothing to escape, so they are written between
quotes as they are.  Coefficients are decimal strings, so equal values
always give identical bytes, and parsing then re-serializing is the
identity on the text.

A scalar is written as one string.  A character is written as an iterator
of pieces, each of at most _PIECE terms, and a report as an iterator of
pieces that takes in its characters' pieces, so that a caller can write it
as it is made and no character is ever held as one string.  A Jantzen
trace comes one term per piece from jantzen._trace, given this module's
text or JSON forms of a term, a weight and an outcome; it is never held
whole.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import attrgetter, itemgetter

from .charring import BASIS_MONOMIAL
from .jantzen import _trace


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


def _ordered(ch) -> list:
    """The character's keys in reverse-lexicographic order of their parts or
    coordinates: keys are distinct, so no two coefficients are ever
    compared.  Only jantzen_sum orders a total otherwise, as its rows."""
    key = attrgetter("parts" if ch.basis == BASIS_MONOMIAL else "coords")
    return sorted(ch.terms, key=key, reverse=True)


# terms of a character per written piece: no piece, and nothing held while
# the pieces are written but the ordered keys, grows with the character
_PIECE = 128


def _pieces(terms, sep: str = ","):
    """The texts of the terms, none empty, joined by sep, _PIECE to a piece;
    every piece but the first starts with its sep."""
    lead = ""
    while chunk := sep.join(islice(terms, _PIECE)):
        yield lead + chunk
        lead = sep


_MONOMIAL = '{"basis":"monomial","terms":['
_MONOMIAL_TERM = '{"key":[%s],"coeff":"%d"}'
# a left side's term of an identity from a (key, coeff) leaf; %.0s drops coeff
_LEFT_TERM = '{"key":[%s],"coeff":"1"}%.0s'


def weyl_json(levi, rows):
    """Yield the JSON of a character in the Weyl basis of the Levi, in pieces
    of at most _PIECE terms, from its (*coords, coeff) rows in order."""
    yield f'{{"basis":"weyl","levi":{levi_json(levi)},"terms":['
    term = '{"key":%s,"coeff":"%%d"}' % (_WEIGHT % (levi.rank, ",".join(["%d"] * levi.rank)))
    yield from _pieces(map(term.__mod__, rows))
    yield "]}"


def character_json(ch):
    """Yield the JSON of a character in pieces of at most _PIECE terms."""
    if ch.basis != BASIS_MONOMIAL:
        yield from weyl_json(ch.levi, ((*w.coords, ch.terms[w]) for w in _ordered(ch)))
        return
    yield _MONOMIAL
    yield from _pieces(_MONOMIAL_TERM % (_ints(mu.parts), ch.terms[mu]) for mu in _ordered(ch))
    yield "]}"


def weyl_text(levi, rows):
    """Yield the human form, '+χ(1,0) -2·χ(0,1)' or "0", of a character in
    the Weyl basis of the Levi as weyl_json does, from the same rows."""
    # a form per coefficient: sign, |coeff|· unless 1, symbol; %.0s drops coeff
    symbol = "χ(%s)%%.0s" % ",".join(["%d"] * levi.rank)
    forms = {1: "+" + symbol, -1: "-" + symbol}
    get, put = forms.get, forms.setdefault
    written = ((get(r[-1]) or put(r[-1], "%+d·" % r[-1] + symbol)) % r for r in rows)
    pieces = _pieces(written, " ")
    yield next(pieces, "0")
    yield from pieces


def character_text(ch):
    """Yield the human form of a character in pieces of at most _PIECE
    terms, "0" for zero: 'm[2,1] + 2·m[1,1,1]', whose first term alone has
    no space after its sign, or as weyl_text writes it."""
    if ch.basis != BASIS_MONOMIAL:
        yield from weyl_text(ch.levi, ((*w.coords, ch.terms[w]) for w in _ordered(ch)))
        return
    keys = _ordered(ch)
    written = (
        ("+ ", "- ")[c < 0] + ("" if c in (1, -1) else f"{abs(c)}·") + f"m[{_ints(mu.parts)}]"
        for mu, c in zip(keys, map(ch.terms.__getitem__, keys))
    )
    first = next(written, "+ 0")  # "m[..]" or "-m[..]", or "0" for zero
    yield from _pieces(chain([first[2:] if first[0] == "+" else "-" + first[2:]], written), " ")


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


def jantzen_terms_text(report):
    """The text line of every term of a Jantzen sum, with its newline, one
    per piece."""
    term = "  a[%(lo)d,%(hi)d] m=%%d level=%%d v=%(valuation)d t=%%d image=%(image)s -> %%s\n"
    return _trace(report, term, "(%s)", "%+d·%s", "singular")


def sum_report_json(report, trace: bool = False):
    """Yield the pieces of a Jantzen sum report; with trace, every term too."""
    yield (
        f'{{"lambda":{weight_json(report.lam)},"p":{report.p},"levi":{levi_json(report.levi)},'
        '"total":'
    )
    yield from weyl_json(report.levi, report.rows)
    if trace:
        yield ',"terms":'
        yield from jantzen_terms_json(report)
    yield "}"


def identity_report_json(report):
    """Both sides from the leaves of the report's check, which come in
    reverse-lexicographic order keyed by the text of their parts, so each
    term is one %: the left side has every leaf with coefficient 1, written
    into pieces that are kept until the right side is written, and the right
    side the nonzero leaves with theirs, so an EQUAL report's right side is
    those pieces, and any other's is written from the leaves.  The
    difference is written from the leaves whose coefficient is not 1."""
    check = report.check
    lhs = list(_pieces(map(_LEFT_TERM.__mod__, check.leaves)))
    yield (
        f'{{"n":{report.n},"which":"{report.which}","prime":{_bool(report.prime)},'
        f'"label":"{report.label}","equal":{_bool(report.equal)},"lhs":{_MONOMIAL}'
    )
    yield from lhs
    yield f']}},"rhs":{_MONOMIAL}'
    yield from lhs if report.equal else _pieces(
        map(_MONOMIAL_TERM.__mod__, filter(itemgetter(1), check.leaves))
    )
    yield f']}},"diff":{_MONOMIAL}'
    yield from _pieces(_MONOMIAL_TERM % (key, 1 - c) for key, c in check._broken)
    yield "]}}"


def prop_char_report_json(report):
    """A failing check lists its terms; a passing one does not.  Each
    check's total is written from its sum's rows."""
    yield f'{{"p":{report.p},"d":{report.d},"passed":{_bool(report.passed)},"checks":['
    sep = ""
    for check in report.checks:
        yield (
            f'{sep}{{"i":{check.i},"levi":"{check.levi.describe()}",'
            f'"passed":{_bool(check.passed)},"total":'
        )
        yield from weyl_json(check.levi, check.report.rows)
        yield ',"expected":'
        yield from character_json(check.expected)
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
