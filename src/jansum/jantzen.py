"""The Jantzen sum formula for SL(d+1) and its standard Levi subgroups.

For a dominant weight lambda, the characters of the Jantzen filtration
layers of the Weyl module V(lambda) add up to

    sum over positive roots alpha, and 0 < m*p < (lambda+rho, alpha^vee), of
        v_p(m*p) * chi(dot reflection of lambda at (alpha, m*p))

where v_p is the p-adic valuation and chi the Weyl character (zero on
singular weights, otherwise a sign times a dominant symbol).  The same
formula over a Levi's positive roots computes the Levi analogue.  The terms
of one root are evaluated together, in closed form on the epsilon
coordinates of lambda + rho, building only the coordinates a term changes
(_terms_at); the total folds mirror levels and sets each coefficient once
(jantzen_sum).  A report carries the total.  The trace of every term,
singular ones included, is written as text, one term at a time, by _trace,
which the CLI's text and JSON traces share; the JantzenTerm records of
SumReport.terms are built only when read.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import pairwise
from typing import NamedTuple

from .charring import BASIS_WEYL, FormalCharacter, _trusted_character
from .lattice import Root, Weight, _trusted_root, _trusted_weight, rho
from .weyl import LeviDatum, SignedDominant, _trusted_signed, to_epsilon


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least composite that is a strong probable prime to every base above
# (Sorenson and Webster, Math. Comp. 86 (2017)); below it the test is exact
_PRIMALITY_BOUND = 318665857834031151167461

# Most (root, m) terms one Jantzen sum may have.  Time and memory grow with
# the count: on a 2-CPU machine (Python 3.11, best of 5 on one CPU) `jantzen
# --p 2 --d 2 --lambda 100000,0`, the largest such call admitted (100 000
# terms), takes 0.49 s and 43 MB, 0.48 s and 50 MB with --json, 1.28 s and
# 43 MB with --trace, 0.68 s and 50 MB with --trace --json (either trace
# writes each term as the walk makes it and keeps none, so it costs no
# memory over the untraced call).
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
    """Largest e with p^e dividing x; p must be at least 2, x nonzero."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
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

        Built on first read by walking the sum again (_walk, every level of
        every root, each term's dominant weight as lam with its changed
        window put in), and kept.  The CLI's traces stream from _trace
        instead; only perfbench/tracer.py (which counts terms) and the tests
        read it.
        """
        lam, p = self.lam, self.p
        coords, d = lam.coords, lam.rank
        singular = SignedDominant.singular()
        terms = []
        current = None
        for root, level, c, valuation, sign, window in _walk(lam, p, self.levi):
            if root is not current:
                current, change = root, _image_change(root, d)
                changed = _changed(root.lo, root.hi, d)
                head, tail = coords[: changed.start], coords[changed.stop :]
            t = c - level
            image = list(coords)
            for i, k in change.items():
                image[i] += k * t
            if sign:
                outcome = _trusted_signed(sign, _trusted_weight(head + window + tail))
            else:
                outcome = singular
            image = _trusted_weight(tuple(image))
            terms.append(JantzenTerm(root, level // p, level, t, valuation, image, outcome))
        return tuple(terms)


def jantzen_sum(lam: Weight, p: int, levi: LeviDatum) -> SumReport:
    """Evaluate the Jantzen sum of lam over the Levi's positive roots.

    Accumulates the valuation-weighted signed dominant symbols of every
    admissible (root, m) pair; singular terms contribute nothing.  The
    report's trace of terms is built only when it is read.  Raises
    ValueError for a p that is not prime, a rank mismatch, a weight that is
    not dominant for the Levi, or a sum of more than TERM_LIMIT terms.

    The sum goes root by root through _terms_at and sets each nonzero
    coefficient once, adding nothing up.  At a root whose pairing c is a
    multiple of p, the levels l and c - l give one dominant weight with
    opposite signs (see _terms_at), so only the levels below c/2 are
    visited, each weighted v_p(l) - v_p(c - l); level c/2 is singular.
    Elsewhere c - l is no level, and each level is a weight of its own.  No
    dominant weight comes from two roots: its block is the root's block
    with x_lo and x_{hi+1} taken out and two values not in the block put
    in, so the two taken out name the root.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not levi.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant for {levi.describe()}")
    x, roots = _roots(lam, p, levi)
    coords, d = lam.coords, lam.rank
    total: dict[Weight, int] = {}
    for lo, hi, c in roots:
        changed = _changed(lo, hi, d)
        head, tail = coords[: changed.start], coords[changed.stop :]
        mirrored = c % p == 0
        levels = range(p, (c + 1) // 2 if mirrored else c, p)
        for level, sign, window in _terms_at(x, lo, hi, levels):
            if sign:
                coeff = _valuation(p, level)
                if mirrored:
                    coeff -= _valuation(p, c - level)
                if coeff:
                    # every key is dominant for the Levi
                    total[_trusted_weight(head + window + tail)] = sign * coeff
    return SumReport(lam, p, levi, _trusted_character(BASIS_WEYL, levi, total))


def _roots(lam: Weight, p: int, levi: LeviDatum) -> tuple[tuple[int, ...], list]:
    """(x, [(lo, hi, c) of every root with a term, in root order]), x being
    epsilon(lam + rho) and c = (lam + rho, root^vee) = x_lo - x_{hi+1}.
    Raises ValueError, before any level is met, when the sum has more than
    TERM_LIMIT terms."""
    x = to_epsilon(lam + rho(lam.rank))  # x[i - 1] is x_i
    neg = [-e for e in x]  # ascending within each block, for bisect
    roots = []
    count = 0
    for block in levi.blocks:
        a, b = block[0], block[-1]
        for lo in range(a, b):
            xl = x[lo - 1]
            # c = xl - x[hi] grows with hi, and a root with c <= p has no term
            for hi in range(bisect_right(neg, p - xl, lo, b), b):
                c = xl - x[hi]
                roots.append((lo, hi, c))
                count += (c - 1) // p
                if count > TERM_LIMIT:
                    raise ValueError(
                        f"the Jantzen sum at rank d={lam.rank}, p={p}, levi={levi.describe()} "
                        f"has more than {TERM_LIMIT} terms; refused"
                    )
    return x, roots


def _terms_at(x: tuple[int, ...], lo: int, hi: int, levels: range):
    """Yield (level, sign, window) for each of the rising levels at the root
    e_lo - e_{hi+1}, x being epsilon(lam + rho).  sign is 0 for a singular
    term, whose window is None; otherwise it is the sign of the dot
    normalization, and window the coordinates at _changed(lo, hi, d) of the
    normalized image, which elsewhere equals lam.

    x is strictly decreasing within the block; let c = x_lo - x_{hi+1}.  The
    reflection at level l, 0 < l < c, changes x in two places only:
    u = x_{hi+1} + l at lo and v = x_lo - l at hi+1, both strictly between
    x_{hi+1} and x_lo.  So the image is singular exactly when u = v or u or
    v is a value of mid = x_{lo+1..hi}.  Otherwise sorting the block moves u
    past #{mid > u} values and v past #{mid < v}, and the two past each
    other when u < v: the sign is -1 to the number of these transpositions.
    The levels l and c - l give the pair {u, v} swapped, one transposition
    apart: one dominant weight of opposite signs.  As l rises u rises and v
    falls, so the insertion points iu and iv each move one way.  Sorting
    changes epsilon only at lo..hi+1, so the weight only at lo-2..hi (0-based):
    window is the differences, less 1, of epsilon at lo-1..hi+2 (1-based) as
    far as they exist.
    """
    xl, xh = x[lo - 1], x[hi]
    left, right = x[max(lo - 2, 0) : lo - 1], x[hi + 1 : hi + 2]
    # x[lo:iu] are the values of mid above u, x[lo:iv] those above v; as
    # xl > u, v > xh, neither pointer runs past mid, and x[iu] = u or
    # x[iv] = v only at a value of mid
    iu, iv = hi, lo
    for level in levels:
        u, v = xh + level, xl - level
        while x[iu - 1] <= u:
            iu -= 1
        while x[iv] > v:
            iv += 1
        if u == v or x[iu] == u or x[iv] == v:
            yield level, 0, None
            continue
        if u > v:
            eps = left + x[lo:iu] + (u,) + x[iu:iv] + (v,) + x[iv:hi] + right
        else:
            eps = left + x[lo:iv] + (v,) + x[iv:iu] + (u,) + x[iu:hi] + right
        sign = -1 if (iu - lo + hi - iv + (u < v)) % 2 else 1
        yield level, sign, tuple([a - b - 1 for a, b in pairwise(eps)])


def _walk(lam: Weight, p: int, levi: LeviDatum):
    """Yield (root, level, c, valuation, sign, window) for every term of the
    sum, singular ones included, in root order, then level order: c is
    (lam + rho, root^vee), and sign and window are _terms_at's.  lam must
    be dominant for the Levi.  Raises ValueError, before the first term,
    when there are more than TERM_LIMIT."""
    x, roots = _roots(lam, p, levi)
    for lo, hi, c in roots:
        root = _trusted_root(lo, hi)
        for level, sign, window in _terms_at(x, lo, hi, range(p, c, p)):
            yield root, level, c, _valuation(p, level), sign, window


def _valuation(p: int, level: int) -> int:
    """v_p(level) of a level, a multiple of p: 1 unless p^2 divides it."""
    return p_adic_valuation(p, level) if level % (p * p) == 0 else 1


def _changed(lo: int, hi: int, d: int) -> range:
    """The 0-based coordinates at which the image and dominant weight of a
    term at the root alpha_{lo,hi} may differ from lam's."""
    return range(max(lo - 2, 0), min(hi + 1, d))


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


def _trace(report: SumReport, term: str, weight: str, regular: str, singular: str):
    """Yield the text of every term of the report's sum, one per piece, in
    _walk order (that of SumReport.terms), in the %-template forms given:
    weight takes comma-separated coordinates, regular a sign and a weight,
    and singular is the singular outcome; term is filled once per root and
    valuation from the named fields root, lo, hi, valuation and image, and
    then takes m, level, t, the image coordinates _image_change names, and
    the outcome.  Image and dominant weight differ from lam only at
    _changed, so each root writes the rest once, and each term only
    its window.
    """
    lam, p = report.lam, report.p
    coords, d = lam.coords, lam.rank
    written = [str(c) for c in coords]
    current = None
    for root, level, c, valuation, sign, window in _walk(lam, p, report.levi):
        if root is not current:
            current, change = root, _image_change(root, d)
            slots = [(coords[i], k) for i, k in change.items()]
            changed = _changed(root.lo, root.hi, d)
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
        outcome = forms[sign] % window if sign else singular
        yield template % (level // p, level, t, *[b + k * t for b, k in slots], outcome)


def lambda_sequence(p: int, d: int) -> list[Weight]:
    """The telescope weights lambda_0, ..., lambda_{r-2}, r = min(d, p):
    lambda_i = i*omega_1 + (p-2-i)*omega_2 + omega_{3+i}, with omega_{d+1} = 0.

    These are the weights whose Jantzen sums telescope into each other.
    Raises ValueError for d < 3 or p < 2.
    """
    if d < 3:
        raise ValueError(f"the sequence needs d >= 3, got {d}")
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    # omega_{3+i} is coordinate 2+i, which the slice to d drops at 3+i = d+1
    return [Weight(([i, p - 2 - i] + [0] * i + [1] + [0] * d)[:d]) for i in range(min(d, p) - 1)]


def derived_simple_chars(p: int, d: int) -> list[FormalCharacter]:
    """Characters of the simple heads, as alternating tails of Weyl symbols.

    ch L_i = sum over j >= i of (-1)^(j-i) [lambda_j]: the unique solution of
    ch V(lambda_i) = ch L_i + ch L_{i+1} with ch L_{r-1} = 0.
    """
    return _tails(lambda_sequence(p, d), LeviDatum.full(d))[:-1]


def _tails(seq: list[Weight], levi: LeviDatum) -> list[FormalCharacter]:
    """[seq_i] - [seq_{i+1}] + [seq_{i+2}] - ... for i = 0, ..., len(seq),
    in the Weyl basis of the Levi, by tail_i = [seq_i] - tail_{i+1}; the
    last is 0.  The weights of seq are distinct and dominant."""
    tails = [_trusted_character(BASIS_WEYL, levi, {})]
    for lam in reversed(seq):
        terms = {lam: 1}
        terms.update((key, -c) for key, c in tails[-1].terms.items())
        tails.append(_trusted_character(BASIS_WEYL, levi, terms))
    return tails[::-1]


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
    levis = (LeviDatum.full(d), LeviDatum(d, range(2, d + 1)))
    tails = [_tails(seq, levi) for levi in levis]
    checks = []
    for i, lam in enumerate(seq):
        for levi, tail in zip(levis, tails):
            report = jantzen_sum(lam, p, levi)
            total, expected = report.total, tail[i + 1]
            checks.append(PropCharCheck(i, levi, total == expected, total, expected, report))
    return PropCharReport(p=p, d=d, checks=checks)
