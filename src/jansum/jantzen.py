"""The Jantzen sum formula for SL(d+1) and its standard Levi subgroups.

For a dominant weight lambda, the characters of the Jantzen filtration
layers of the Weyl module V(lambda) add up to

    sum over positive roots alpha, and 0 < m*p < (lambda+rho, alpha^vee), of
        v_p(m*p) * chi(dot reflection of lambda at (alpha, m*p))

where v_p is the p-adic valuation and chi the Weyl character (zero on
singular weights, otherwise a sign times a dominant symbol).  The same
formula over a Levi's positive roots computes the Levi analogue.  Each term
is evaluated in closed form on the epsilon coordinates of lambda + rho (see
_walk), without building the reflected weight.  A report carries the total;
its trace of terms, singular ones included, is built when first read.  The
JSON trace (serialize.jantzen_terms_json) reads _walk instead and builds no
term.
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
# the count: on a 2-CPU machine (Python 3.11, best of 3 on one CPU) `jantzen
# --p 2 --d 2 --lambda 100000,0`, the largest such call admitted (100 000
# terms), takes 0.69 s and 47 MB, 0.57 s and 53 MB with --json, 2.3 s and
# 106 MB with --trace (which keeps every term), 1.1 s and 61 MB with --trace
# --json (which writes each term as the walk makes it).
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

        Built on first read by walking the sum again, and kept.
        """
        lam, d = self.lam, self.lam.rank
        singular = SignedDominant.singular()
        dominant: dict[tuple[int, ...], Weight] = {}
        terms = []
        for root, level, c, valuation, sign, key in _walk(lam, self.p, self.levi):
            t = c - level
            # lam - t * root: the root is -1, +1, +1, -1 at coordinates
            # lo-1, lo, hi, hi+1 (those that exist; lo = hi adds up to +2)
            coords = list(lam.coords)
            if root.lo > 1:
                coords[root.lo - 2] += t
            coords[root.lo - 1] -= t
            coords[root.hi - 1] -= t
            if root.hi < d:
                coords[root.hi] += t
            if sign:
                if key not in dominant:
                    dominant[key] = _weight(key)
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
    terms = {_weight(k): c for k, c in total.items() if c}
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
                    f"the Jantzen sum of {lam} at p={p} for {levi.describe()} has "
                    f"more than {TERM_LIMIT} terms; refused"
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


def _weight(key: tuple[int, ...]) -> Weight:
    """The weight mu with epsilon(mu + rho) = key, up to adding a constant.

    key comes from _walk, so mu is a weight by construction and is not checked.
    """
    return _trusted_weight(tuple([a - b - 1 for a, b in zip(key, key[1:])]))


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
