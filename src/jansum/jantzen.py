"""The Jantzen sum formula for SL(d+1) and its standard Levi subgroups.

For a dominant weight lambda, the characters of the Jantzen filtration
layers of the Weyl module V(lambda) add up to

    sum over positive roots alpha, and 0 < m*p < (lambda+rho, alpha^vee), of
        v_p(m*p) * chi(dot reflection of lambda at (alpha, m*p))

where v_p is the p-adic valuation and chi the Weyl character (zero on
singular weights, otherwise a sign times a dominant symbol).  The same
formula over a Levi's positive roots computes the Levi analogue.  Each term
is evaluated in closed form on the epsilon coordinates of lambda + rho (see
_walk), without building the reflected weight.  A report carries the total.
The trace of its terms, singular ones included, is written as text, one term
at a time, by _trace, which the CLI's text and JSON traces share; the
JantzenTerm records of SumReport.terms are built only when read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from typing import NamedTuple

from .charring import BASIS_WEYL, FormalCharacter, _trusted_character
from .lattice import Root, Weight, _trusted_root, _trusted_weight, lambda_i_weight, rho
from .weyl import LeviDatum, SignedDominant, _trusted_signed, to_epsilon


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least composite that is a strong probable prime to every base above
# (Sorenson and Webster, Math. Comp. 86 (2017)); below it the test is exact
_PRIMALITY_BOUND = 318665857834031151167461

# Most (root, m) terms one Jantzen sum may have.  Time and memory grow with
# the count: on a 2-CPU machine (Python 3.11, best of 5 on one CPU) `jantzen
# --p 2 --d 2 --lambda 100000,0`, the largest such call admitted (100 000
# terms), takes 0.71 s and 47 MB, 0.55 s and 53 MB with --json, 1.41 s and
# 60 MB with --trace, 1.33 s and 61 MB with --trace --json (either trace
# writes each term as the walk makes it).
# The largest benchmark call has 20 000 terms; at d = 30 with every
# coordinate 15 there are about 40 000 at p = 2.
TERM_LIMIT = 100_000


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin over the first 12 prime bases.

    Exact for p < _PRIMALITY_BOUND; larger p is refused with ValueError
    rather than answered with a guess.
    """
    if p >= _PRIMALITY_BOUND:
        raise ValueError(f"primality is decided exactly only below {_PRIMALITY_BOUND}, got {p}")
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def p_adic_valuation(p: int, x: int) -> int:
    """Largest e with p^e dividing x; x must be nonzero."""
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


class JantzenTerm(NamedTuple):
    """One (root, m) contribution, kept even when singular for traceability."""

    root: Root
    m: int
    level: int  # m * p, the reflection level
    t: int  # (lam+rho, root^vee) - level; the reflection drops t copies of the root
    valuation: int  # v_p(level) >= 1
    image: Weight  # the reflected weight, before normalization
    outcome: SignedDominant


class SumReport:
    """Evaluation record of one Jantzen sum: the total, and the trace on demand."""

    def __init__(self, lam: Weight, p: int, levi: LeviDatum, total: FormalCharacter):
        self.lam = lam
        self.p = p
        self.levi = levi
        self.total = total

    @cached_property
    def terms(self) -> tuple[JantzenTerm, ...]:
        """Every (root, m) term, singular ones included, in root then m order.

        Built on first read by walking the sum again, and kept.  The CLI's
        traces stream from _trace instead; only perfbench/tracer.py (which
        counts terms) and the tests read it.
        """
        lam, d = self.lam, self.lam.rank
        singular = SignedDominant.singular()
        dominant: dict[tuple[int, ...], Weight] = {}
        terms = []
        for root, level, c, valuation, sign, key in _walk(lam, self.p, self.levi):
            t = c - level
            coords = list(lam.coords)
            for i, k in _image_change(root, d).items():
                coords[i] += k * t
            if sign:
                if key not in dominant:
                    dominant[key] = _trusted_weight(_dominant(key))
                outcome = _trusted_signed(sign, dominant[key])
            else:
                outcome = singular
            image = _trusted_weight(tuple(coords))
            terms.append(JantzenTerm(root, level // self.p, level, t, valuation, image, outcome))
        return tuple(terms)


def jantzen_sum(lam: Weight, p: int, levi: LeviDatum) -> SumReport:
    """Evaluate the Jantzen sum of lam over the Levi's positive roots.

    Accumulates the valuation-weighted signed dominant symbols of every
    admissible (root, m) pair; singular terms contribute nothing.  The
    report's trace of terms is built only when it is read.  Raises
    ValueError for a p that is not prime, a rank mismatch, a weight that is
    not dominant for the Levi, or a sum of more than TERM_LIMIT terms.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not levi.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant for {levi.describe()}")
    total: dict[tuple[int, ...], int] = {}
    for _, _, _, valuation, sign, key in _walk(lam, p, levi):
        if sign:
            total[key] = total.get(key, 0) + sign * valuation
    # every key is dominant for the Levi, and distinct keys give distinct weights
    terms = {_trusted_weight(_dominant(k)): c for k, c in total.items() if c}
    return SumReport(lam, p, levi, _trusted_character(BASIS_WEYL, levi, terms))


def _walk(lam: Weight, p: int, levi: LeviDatum):
    """Yield (root, level, c, valuation, sign, key) for every term of the sum.

    Terms come in root order, then level order.  c is (lam + rho, root^vee).
    sign is 0 for a singular term, whose key is None; otherwise it is the
    sign of the dot normalization and key the epsilon vector of the
    normalized image plus rho.  lam must be dominant for the Levi.  Raises
    ValueError, before the first term, when there are more than TERM_LIMIT.

    Let x = epsilon(lam + rho), strictly decreasing within each block.  The
    reflection at the root e_lo - e_{hi+1} and level l, 0 < l < c =
    x_lo - x_{hi+1}, changes x in two places only: u = x_{hi+1} + l at lo and
    v = x_lo - l at hi+1, both strictly between x_{hi+1} and x_lo.  So the
    image is singular exactly when u = v or u or v is a value of the block.
    Otherwise sorting the block moves u past #{mid > u} values and v past
    #{mid < v}, mid being x_{lo+1..hi}, and the two past each other when
    u < v: the sign is -1 to the number of these transpositions.
    """
    x = to_epsilon(lam + rho(lam.rank))  # x[i - 1] is x_i
    neg = [-e for e in x]  # ascending within each block, for bisect
    roots = []  # (lo, hi, c, block values) of every root with a term
    count = 0
    for block in levi.blocks:
        a, b = block[0], block[-1]
        values = frozenset(x[a - 1 : b])
        for lo in range(a, b):
            xl = x[lo - 1]
            # c = xl - x[hi] grows with hi, and a root with c <= p has no term
            for hi in range(bisect_right(neg, p - xl, lo, b), b):
                c = xl - x[hi]
                roots.append((lo, hi, c, values))
                count += (c - 1) // p
            if count > TERM_LIMIT:
                raise ValueError(
                    f"the Jantzen sum at rank d={lam.rank}, p={p}, levi={levi.describe()} "
                    f"has more than {TERM_LIMIT} terms; refused"
                )
    p_squared = p * p
    for lo, hi, c, values in roots:
        root = _trusted_root(lo, hi)
        xl, xh = x[lo - 1], x[hi]
        head, tail = x[: lo - 1], x[hi + 1 :]
        for level in range(p, c, p):
            valuation = p_adic_valuation(p, level) if level % p_squared == 0 else 1
            u, v = xh + level, xl - level
            if u == v or u in values or v in values:
                yield root, level, c, valuation, 0, None
                continue
            # x[lo:iu] are the values of mid above u, x[lo:iv] those above v
            iu = bisect_left(neg, -u, lo, hi)
            iv = bisect_left(neg, -v, lo, hi)
            if u > v:
                key = head + x[lo:iu] + (u,) + x[iu:iv] + (v,) + x[iv:hi] + tail
            else:
                key = head + x[lo:iv] + (v,) + x[iv:iu] + (u,) + x[iu:hi] + tail
            sign = -1 if (iu - lo + hi - iv + (u < v)) % 2 else 1
            yield root, level, c, valuation, sign, key


def _image_change(root: Root, d: int) -> dict[int, int]:
    """{i: k}, in increasing i: the image lam - t * root of a term at the root
    is lam plus k * t at each 0-based coordinate i and lam elsewhere, as the
    root is -1, +1, +1, -1 at lo-1, lo, hi, hi+1 (lo = hi adds up to +2)."""
    lo, hi = root.lo, root.hi
    change = {lo - 2: 1} if lo > 1 else {}
    change[lo - 1] = -1
    change[hi - 1] = change.get(hi - 1, 0) - 1
    if hi < d:
        change[hi] = 1
    return change


def _dominant(key: tuple[int, ...], indices: range | None = None) -> tuple[int, ...]:
    """The coordinates at the 0-based indices (all by default) of the weight
    mu with epsilon(mu + rho) = key, up to adding a constant.  key comes from
    _walk, so mu is a weight by construction and is not checked."""
    return tuple([key[i] - key[i + 1] - 1 for i in indices or range(len(key) - 1)])


def _trace(report: SumReport, term: str, weight: str, regular: str, singular: str):
    """Yield the text of every term of the report's sum, one per piece, in
    _walk order (that of SumReport.terms), in the %-template forms given:
    weight takes comma-separated coordinates, regular a sign and a weight,
    and singular is the singular outcome; term is filled once per root and
    valuation from the named fields root, lo, hi, valuation and image, and
    then takes m, level, t, the image coordinates _image_change names, and
    the outcome.  Image and dominant weight differ from lam only at
    coordinates lo-1..hi+1 (_walk's key from epsilon(lam + rho) only at
    lo..hi+1), so each root writes the rest once.
    """
    lam, p = report.lam, report.p
    coords, d = lam.coords, lam.rank
    written = [str(c) for c in coords]
    outcomes: dict[int, dict[tuple, str]] = {1: {}, -1: {}}  # sign -> key -> text
    current = None
    for root, level, c, valuation, sign, key in _walk(lam, p, report.levi):
        if root is not current:
            current, change = root, _image_change(root, d)
            slots = [(coords[i], k) for i, k in change.items()]
            # the coordinates that may differ from lam's, 0-based
            changed = range(max(root.lo - 2, 0), min(root.hi + 1, d))
            head, tail = written[: changed.start], written[changed.stop :]
            image = head + ["%d" if i in change else written[i] for i in changed] + tail
            fields = {"root": root, "lo": root.lo, "hi": root.hi, "image": weight % ",".join(image)}
            # by valuation (at most 1 + log_p(TERM_LIMIT)), which the template
            # holds so that a form may place it anywhere among m, level and t
            templates = [None] * 64
            dominant = weight % ",".join(head + ["%d"] * len(changed) + tail)
            forms = {1: regular % (1, dominant), -1: regular % (-1, dominant)}
        template = templates[valuation]
        if template is None:
            fields["valuation"] = valuation
            template = templates[valuation] = term % fields
        t = c - level
        if sign:
            known = outcomes[sign]
            outcome = known.get(key)
            if outcome is None:
                outcome = known[key] = forms[sign] % _dominant(key, changed)
        else:
            outcome = singular
        yield template % (level // p, level, t, *[b + k * t for b, k in slots], outcome)


def lambda_sequence(p: int, d: int) -> list[Weight]:
    """The telescope weights lambda_0, ..., lambda_{r-2}, r = min(d, p)."""
    if d < 3:
        raise ValueError(f"the sequence needs d >= 3, got {d}")
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    r = min(d, p)
    return [lambda_i_weight(p, d, i) for i in range(r - 1)]


def expected_sum(i: int, p: int, d: int, levi: LeviDatum) -> FormalCharacter:
    """The alternating tail sum over lambda_{i+1}, ..., lambda_{r-2}.

    This is what the Jantzen sum of lambda_i is expected to equal, both for
    the full group and for a Levi containing the relevant roots; the sum is
    empty for i = r-2.
    """
    seq = lambda_sequence(p, d)
    if not 0 <= i <= len(seq) - 1:
        raise ValueError(f"need 0 <= i <= {len(seq) - 1}, got {i}")
    return _alternating_tail(seq, i + 1, levi)


def derived_simple_chars(p: int, d: int) -> list[FormalCharacter]:
    """Characters of the simple heads, as alternating tails of Weyl symbols.

    ch L_i = sum over j >= i of (-1)^(j-i) [lambda_j]: the unique solution of
    ch V(lambda_i) = ch L_i + ch L_{i+1} with ch L_{r-1} = 0.
    """
    seq = lambda_sequence(p, d)
    return [_alternating_tail(seq, i, LeviDatum.full(d)) for i in range(len(seq))]


def _alternating_tail(seq: list[Weight], i: int, levi: LeviDatum) -> FormalCharacter:
    """[seq_i] - [seq_{i+1}] + [seq_{i+2}] - ... in the Weyl basis of the Levi."""
    return FormalCharacter(BASIS_WEYL, levi, {seq[j]: (-1) ** (j - i) for j in range(i, len(seq))})


class PropCharCheck(NamedTuple):
    """One (i, Levi) comparison of a Jantzen sum against its alternating tail."""

    i: int
    levi: LeviDatum
    passed: bool
    total: FormalCharacter
    expected: FormalCharacter
    report: SumReport


class PropCharReport(NamedTuple):
    p: int
    d: int
    checks: list[PropCharCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_prop_char(p: int, d: int) -> PropCharReport:
    """Check the telescoping of Jantzen sums along the lambda sequence.

    For every i, the Jantzen sum of lambda_i over the full group must equal
    the alternating tail of Weyl symbols, and the same must hold over the
    Levi generated by the simple roots 2..d.  Failures are recorded, not
    raised; each check keeps its sum's report, and with it the term trace.
    The first jantzen_sum refuses a p that is not prime.
    """
    seq = lambda_sequence(p, d)
    full = LeviDatum.full(d)
    sub = LeviDatum(d, range(2, d + 1))
    checks = []
    for i, lam in enumerate(seq):
        for levi in (full, sub):
            report = jantzen_sum(lam, p, levi)
            expected = expected_sum(i, p, d, levi)
            checks.append(
                PropCharCheck(
                    i=i,
                    levi=levi,
                    passed=report.total == expected,
                    total=report.total,
                    expected=expected,
                    report=report,
                )
            )
    return PropCharReport(p=p, d=d, checks=checks)
