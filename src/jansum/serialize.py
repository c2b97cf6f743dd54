"""Text and canonical JSON for the library's value types, written directly.

A character is written only here, in either form, as its computation
made it, in reverse-lexicographic order of its keys, by one writer per
form and basis: a Weyl character from its (*coords, coeff) rows, which
jantzen_sum and jantzen._tails sort (weyl_json, weyl_text), and a
monomial one from the (text key, coeff) leaves that its walk lists in
order (monomial_json, monomial_text).  No writer sorts a character or
reads a key as a Partition.  Each JSON writer gives the text that
json.dumps(form, separators=(",", ":")) gives for the value's JSON form,
without building that form or loading json: integers, booleans and the
fixed keys are formatted here, and the only strings (an identity's
`which` and `label`, a Levi's description) come from a fixed ASCII
vocabulary with nothing to escape, so they are written between quotes as
they are.  Coefficients are decimal strings, so equal values always give
identical bytes, and parsing then re-serializing is the identity on the
text.

A scalar is written as one string.  A character is written as an iterator
of pieces, each of at most _PIECE terms, and a report as an iterator of
pieces that takes in its characters' pieces, so that a caller can write it
as it is made and no character is ever held as one string.  A Jantzen
trace comes one term per piece from jantzen._trace, given this module's
text or JSON forms of a term, a weight and an outcome; it is never held
whole.
"""

from itertools import chain, islice
from operator import itemgetter

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


# terms of a character per written piece: no piece, and nothing held while
# the pieces are written but the rows or leaves, grows with the character
_PIECE = 128


def _pieces(terms, sep: str = ","):
    """The texts of the terms, none empty, joined by sep, _PIECE to a piece;
    every piece but the first starts with its sep."""
    lead = ""
    while chunk := sep.join(islice(terms, _PIECE)):
        yield lead + chunk
        lead = sep


_MONOMIAL_TERM = '{"key":[%s],"coeff":"%d"}'


def weyl_json(levi, rows):
    """Yield the JSON of a character in the Weyl basis of the Levi, in pieces
    of at most _PIECE terms, from its (*coords, coeff) rows in order."""
    yield f'{{"basis":"weyl","levi":{levi_json(levi)},"terms":['
    term = '{"key":%s,"coeff":"%%d"}' % (_WEIGHT % (levi.rank, ",".join(["%d"] * levi.rank)))
    yield from _pieces(map(term.__mod__, rows))
    yield "]}"


def monomial_json(leaves):
    """Yield the JSON of a character in the monomial basis, in pieces of at
    most _PIECE terms, from its (text key, coeff) leaves in order, none
    zero."""
    yield '{"basis":"monomial","terms":['
    yield from _pieces(map(_MONOMIAL_TERM.__mod__, leaves))
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


def monomial_text(leaves):
    """Yield the human form, 'm[2,1] + 2·m[1,1,1]' or "0", of a character
    in the monomial basis as monomial_json does, from the same leaves: the
    first term alone has no space after its sign."""
    # a form per coefficient: sign, |coeff|· unless 1, symbol; %.0s drops coeff
    forms = {1: "+ m[%s]%.0s", -1: "- m[%s]%.0s"}
    get, put = forms.get, forms.setdefault
    written = (
        (get(c) or put(c, "%s %d·m[%%s]%%.0s" % ("+-"[c < 0], abs(c)))) % (key, c)
        for key, c in leaves
    )
    first = next(written, "+ 0")  # "+ m[..]" or "- m[..]", or "+ 0" for zero
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
    """Both sides and the difference from the report's leaves, which come
    in reverse-lexicographic order keyed by the text of their parts,
    through monomial_json: the left side has every leaf with
    coefficient 1, written into pieces that are kept until the right side
    is written, and the right side the nonzero leaves with theirs, so an
    EQUAL report's right side is those pieces, and any other's is written
    from the leaves."""
    lhs = list(monomial_json((key, 1) for key, _ in report.leaves))
    yield (
        f'{{"n":{report.n},"which":"{report.which}","prime":{_bool(report.prime)},'
        f'"label":"{report.label}","equal":{_bool(report.equal)},"lhs":'
    )
    yield from lhs
    yield ',"rhs":'
    yield from lhs if report.equal else monomial_json(filter(itemgetter(1), report.leaves))
    yield ',"diff":'
    yield from monomial_json(report.diff_leaves)
    yield "}"


def prop_char_report_json(report):
    """A failing check lists its terms; a passing one does not.  Each
    check's total is written from its sum's rows, and its expected side
    from its tail's."""
    yield f'{{"p":{report.p},"d":{report.d},"passed":{_bool(report.passed)},"checks":['
    sep = ""
    for check in report.checks:
        yield (
            f'{sep}{{"i":{check.i},"levi":"{check.levi.describe()}",'
            f'"passed":{_bool(check.passed)},"total":'
        )
        yield from weyl_json(check.levi, check.report.rows)
        yield ',"expected":'
        yield from weyl_json(check.levi, check.tail)
        if not check.passed:
            yield ',"terms":'
            yield from jantzen_terms_json(check.report)
        yield "}"
        sep = ","
    yield "]}"


def multiplicity_report_json(report):
    families = []
    for fam in report.families:
        missing = ",".join(f"[{key}]" for key, c in fam.broken if not c)
        wrong = ",".join(f"[[{key}],{c}]" for key, c in fam.broken if c)
        families.append(
            f'{{"target":{partition_json(fam.target)},"passed":{_bool(fam.equal)},'
            f'"missing":[{missing}],"unexpected":[],"wrong_multiplicity":[{wrong}]}}'
        )
    yield (
        f'{{"p":{report.p},"d":{report.d},"passed":{_bool(report.passed)},'
        f'"families":[{",".join(families)}]}}'
    )
