"""The Jantzen sum formula for SL(d+1) and its standard Levi subgroups.

For a dominant weight lambda, the characters of the Jantzen filtration
layers of the Weyl module V(lambda) add up to

    sum over positive roots alpha, and 0 < m*p < (lambda+rho, alpha^vee), of
        v_p(m*p) * chi(dot reflection of lambda at (alpha, m*p))

where v_p is the p-adic valuation and chi the Weyl character (zero on
singular weights, otherwise a sign times a dominant symbol).  The same
formula over a Levi's positive roots computes the Levi analogue.  Every
evaluation returns a full trace of terms, singular ones included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charring import BASIS_WEYL, FormalCharacter
from .lattice import Root, Weight, lambda_i_weight, pairing, rho
from .weyl import LeviDatum, SignedDominant, affine_dot_reflect, dot_normalize


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least composite that is a strong probable prime to every base above
# (Sorenson and Webster, Math. Comp. 86 (2017)); below it the test is exact
_PRIMALITY_BOUND = 318665857834031151167461


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


@dataclass(frozen=True)
class JantzenTerm:
    """One (root, m) contribution, kept even when singular for traceability."""

    root: Root
    m: int
    level: int  # m * p, the reflection level
    t: int  # (lam+rho, root^vee) - level; the reflection drops t copies of the root
    valuation: int  # v_p(level) >= 1
    image: Weight  # the reflected weight, before normalization
    outcome: SignedDominant


@dataclass
class SumReport:
    """Full evaluation record of one Jantzen sum."""

    lam: Weight
    p: int
    levi: LeviDatum
    terms: tuple[JantzenTerm, ...]
    total: FormalCharacter


def jantzen_sum(lam: Weight, p: int, levi: LeviDatum) -> SumReport:
    """Evaluate the Jantzen sum of lam over the Levi's positive roots.

    Iterates every admissible (root, m) pair, dot-reflects, normalizes for
    the Levi, and accumulates valuation-weighted signed symbols.  Singular
    terms are retained in the trace but contribute nothing to the total.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if lam.rank != levi.rank:
        raise ValueError(f"rank mismatch: weight {lam.rank}, Levi {levi.rank}")
    if not levi.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant for {levi.describe()}")
    shifted = lam + rho(lam.rank)
    terms: list[JantzenTerm] = []
    total: dict[Weight, int] = {}
    for root in levi.positive_roots():
        c = pairing(shifted, root)
        for level in range(p, c, p):
            image = affine_dot_reflect(lam, root, level)
            outcome = dot_normalize(image, levi)
            valuation = p_adic_valuation(p, level)
            terms.append(
                JantzenTerm(
                    root=root,
                    m=level // p,
                    level=level,
                    t=c - level,
                    valuation=valuation,
                    image=image,
                    outcome=outcome,
                )
            )
            if not outcome.is_singular:
                key = outcome.dominant
                total[key] = total.get(key, 0) + outcome.sign * valuation
    return SumReport(
        lam=lam,
        p=p,
        levi=levi,
        terms=tuple(terms),
        total=FormalCharacter(BASIS_WEYL, levi, total),
    )


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
    terms: dict[Weight, int] = {}
    for j in range(i + 1, len(seq)):
        terms[seq[j]] = 1 if (j - i - 1) % 2 == 0 else -1
    return FormalCharacter(BASIS_WEYL, levi, terms)


def derived_simple_chars(p: int, d: int) -> list[FormalCharacter]:
    """Characters of the simple heads, as alternating tails of Weyl symbols.

    ch L_i = sum over j >= i of (-1)^(j-i) [lambda_j]: the unique solution of
    ch V(lambda_i) = ch L_i + ch L_{i+1} with ch L_{r-1} = 0.
    """
    seq = lambda_sequence(p, d)
    levi = LeviDatum.full(d)
    out = []
    for i in range(len(seq)):
        terms = {seq[j]: (1 if (j - i) % 2 == 0 else -1) for j in range(i, len(seq))}
        out.append(FormalCharacter(BASIS_WEYL, levi, terms))
    return out


@dataclass
class PropCharCheck:
    """One (i, Levi) comparison of a Jantzen sum against its alternating tail."""

    i: int
    levi: LeviDatum
    passed: bool
    total: FormalCharacter
    expected: FormalCharacter
    report: SumReport


@dataclass
class PropCharReport:
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
    raised; each check keeps its full term trace.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
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
