"""Verification of two families of alternating Schur-function identities.

For an integer n >= 2, the first identity says that the sum of the monomial
symmetric functions m_lambda, over all partitions lambda of 2n-1 below
(n-1, n-1, 1) in dominance order, equals the alternating sum of the Schur
functions of shapes (n-1, n-1-i, 1^(i+1)) for i = 0..n-2.  The second says
the same with (n-1, 1) and the hooks (n-1-i, 1^(i+1)).

Both are theorems for every n, prime or not.  The ideal below (n-1, 1) is
every partition of n but (n), so the second left side is h_n - m_(n) =
h_n - p_n, and the Murnaghan-Nakayama rule p_n = sum over k = 0..n-1 of
(-1)^k s_(n-k, 1^k) makes it the alternating hook sum.  The ideal below
(n-1, n-1, 1) is every partition of 2n-1 with parts <= n-1.  A monomial of
degree 2n-1 has at most one exponent >= n, so p_n h_(n-1) is the sum of
m_lambda over the other partitions, and the first left side is h_(2n-1) -
p_n h_(n-1).  By the same rule p_n s_(n-1) is s_(2n-1) plus the sum over i
of (-1)^(i+1) s_(n-1, n-1-i, 1^(i+1)): an n-strip added to one row of n-1
is either that row extended or the hook (n-1-i, 1^(i+1)) below it, of
height i+1.  (Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed.,
I.3 Example 11; Stanley, Enumerative Combinatorics 2, 7.17.)  Reports still
label composite n a "conjecture instance": that text is part of the output
contract, and changing it is a change of its own.

The paper's f = 0 by-product is the first identity at a prime p read off
the lambda sequence: its weights lambda_i, lifted to partitions, are the
shapes (p-1, p-1-i, 1^(i+1)), so the alternating sum of their Schur
functions, the head of the Jantzen-sum telescope, is multiplicity-free in
monomials on the ideal below (p-1, p-1, 1); the second identity gives the
same below (p-1, 1).  multiplicity_one_report checks each as one
SupportCheck of those shapes, built as an identity's is (_support).

A verdict, on an identity or on such a family, expands neither side: it
builds the memoized walk of the Schur sum over the ideal
(charring.schur_sum_dag), each state stepped once for all its part sizes,
and counts how often each coefficient occurs at its leaves by folding the
number of paths from the root to each (charring.coefficient_counts), and
the sum is the sum of m_mu over the ideal when every coefficient is 1
(SupportCheck).  The check keeps that walk and lists its leaves once, the
first time they are read, with no strip peeled again, each keyed by the
comma-joined text of its parts, which the walk grows from its parent's
key (lattice.ideal_leaves); an IdentityReport carries its check, and both
sides, and the leaves of their difference, come from that one listing.
Its JSON writes both sides and the difference, and its text the
difference, straight from the text keys, one % per term
(serialize.monomial_json, monomial_text).
A Partition is built from a key only when a library caller reads a side,
a character or a list of the check, and a side or a character from the
leaves by charring._monomial_character, whose constructor checks each key.

Every identity verdict comes from conjecture_sweep, which checks its range
and its largest ideal once; verify_first_identity and verify_second_identity
are the sweep over one n, and the CLI's identity and sweep commands call it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .charring import FormalCharacter, _monomial_character, coefficient_counts, schur_sum_dag
from .jantzen import _check_prime, is_prime
from .lattice import Partition, check_ideal_size, ideal_leaves, text_partition

FIRST = "first"
SECOND = "second"


class IdentityReport:
    """The verdict on one identity at n, read from the SupportCheck that
    gave it.  The right side is the check's character, the left side its
    leaves each with coefficient 1, and the difference, sum of (1 - c) * m_mu
    over the leaves whose coefficient c is not 1, is kept as those leaves
    (diff_leaves): one listing serves all three, and an EQUAL report's
    difference lists nothing."""

    def __init__(self, n: int, which: str, check: SupportCheck, prime: bool):
        self.n = n
        self.which = which
        self.check = check
        self.equal = check.passed
        self.prime = prime

    @property
    def label(self) -> str:
        return "theorem" if self.prime else "conjecture instance"

    @cached_property
    def lhs(self) -> FormalCharacter:
        return _monomial_character((key, 1) for key, _ in self.check.leaves)

    @cached_property
    def rhs(self) -> FormalCharacter:
        return self.check.character

    @cached_property
    def diff_leaves(self) -> list[tuple[str, int]]:
        """(text key, 1 - c) for each leaf whose coefficient c is not 1, in
        order: the difference as the writers write it."""
        return [(key, 1 - c) for key, c in self.check._broken]


def _alternating(shapes: list[Partition]) -> dict[Partition, int]:
    return {shape: (-1) ** i for i, shape in enumerate(shapes)}


def first_identity_shapes(n: int) -> list[Partition]:
    """Shapes (n-1, n-1-i, 1^(i+1)) for i = 0..n-2 (none for n < 2)."""
    return [Partition([n - 1, n - 1 - i] + [1] * (i + 1)) for i in range(n - 1)]


def second_identity_shapes(n: int) -> list[Partition]:
    """Hook shapes (n-1-i, 1^(i+1)) for i = 0..n-2 (none for n < 2)."""
    return [Partition([n - 1 - i] + [1] * (i + 1)) for i in range(n - 1)]


def _first_top(n: int) -> Partition:
    return Partition((n - 1, n - 1, 1))


def _second_top(n: int) -> Partition:
    return Partition((n - 1, 1))


def _family(which: str) -> tuple:
    """The top of the ideal at n, and the right side's shapes, of a family."""
    if which == FIRST:
        return _first_top, first_identity_shapes
    if which == SECOND:
        return _second_top, second_identity_shapes
    raise ValueError(f"which must be {FIRST!r} or {SECOND!r}, got {which!r}")


def _support(n: int, which: str) -> SupportCheck:
    """The SupportCheck of one family's right side at n, unchecked."""
    top, shapes = _family(which)
    return SupportCheck(top(n), _alternating(shapes(n)))


def conjecture_sweep(n_min: int, n_max: int, which: str):
    """Run one identity over a range of n; reports only, never asserts.

    Returns an iterator of IdentityReport in n order, each computed when it
    is asked for: the one path to every verdict.  The arguments are checked
    once, before anything runs, the largest ideal of the range included
    (lattice.check_ideal_size), so a refused range raises ValueError here,
    builds no shape and yields nothing.
    """
    top, _ = _family(which)
    if not 2 <= n_min <= n_max:
        raise ValueError(f"need 2 <= n_min <= n_max, got ({n_min}, {n_max})")
    check_ideal_size(top(n_max))
    return (IdentityReport(n, which, _support(n, which), is_prime(n))
            for n in range(n_min, n_max + 1))


def verify_first_identity(n: int) -> IdentityReport:
    """Compare both sides of the degree-(2n-1) identity below (n-1, n-1, 1)."""
    return next(conjecture_sweep(n, n, FIRST))


def verify_second_identity(n: int) -> IdentityReport:
    """Compare both sides of the degree-n identity below (n-1, 1)."""
    return next(conjecture_sweep(n, n, SECOND))


class SupportCheck:
    """Whether sum of coeff * S_shape is the sum of m_mu over the dominance
    ideal below target: one walk (charring.schur_sum_dag), and it is exactly
    when every leaf coefficient is 1 (charring.coefficient_counts), whose
    fold also gives `term_count`, the nonzero ones.  The walk refuses a
    shape not below the target, and S_shape has m_mu only for mu <= shape,
    so no term falls outside the ideal.  The walk's leaves are listed once,
    in reverse-lexicographic order, as (text key, coefficient) pairs
    (lattice.ideal_leaves), the first time the character or the leaves whose
    coefficient is not 1 are read; a check that passes finds none of the
    latter without listing.  `character`, `missing` and
    `wrong_multiplicity` build the Partitions of their keys when read.
    """

    def __init__(self, target: Partition, coeffs: dict[Partition, int]):
        self.target = target
        self.dag = schur_sum_dag(coeffs, target)
        counts = coefficient_counts(self.dag)
        self.passed = counts.keys() == {1}
        self.term_count = sum(k for c, k in counts.items() if c)

    @cached_property
    def leaves(self) -> list[tuple[str, int]]:
        return ideal_leaves(self.dag)

    @cached_property
    def character(self) -> FormalCharacter:
        return _monomial_character(self.leaves)

    @cached_property
    def _broken(self) -> list[tuple[str, int]]:
        return [] if self.passed else [(key, c) for key, c in self.leaves if c != 1]

    @cached_property
    def missing(self) -> list[Partition]:
        return [text_partition(key) for key, c in self._broken if not c]

    @cached_property
    def wrong_multiplicity(self) -> list[tuple[Partition, int]]:
        return [(text_partition(key), c) for key, c in self._broken if c]


class MultiplicityOneReport(namedtuple("MultiplicityOneReport", "p d families")):
    """The two SupportChecks of the f = 0 by-product at p and d."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.families)


def multiplicity_one_report(p: int, d: int) -> MultiplicityOneReport:
    """Check the f = 0 by-product: both alternating Schur sums are
    multiplicity-free dominance ideals in the monomial basis.

    The alternating sum of the Schur functions of the shapes
    (p-1, p-1-i, 1^(i+1)), the lambda sequence's weights lifted to
    partitions, must expand to exactly the partitions below (p-1, p-1, 1),
    all with coefficient 1; the alternating hook sum must do the same below
    (p-1, 1).  Each family is the SupportCheck of the identity at n = p.
    Needs d >= 3, the least rank of the lambda sequence, and d >= 2p-2 so that
    the longest partition in the first ideal still fits in d+1 rows; past
    that the answer does not depend on d, and only the report keeps it.
    A huge ideal is refused before any shape is built.
    """
    _check_prime(p)
    if d < max(2 * p - 2, 3):
        raise ValueError(
            f"need d >= 3 and d >= 2p-2 = {2 * p - 2}, got {d}: the lambda sequence "
            f"starts at omega_3, and partitions of {2 * p - 1} below {_first_top(p)} "
            f"can have up to {2 * p - 1} parts"
        )
    check_ideal_size(_first_top(p))
    return MultiplicityOneReport(p=p, d=d, families=[_support(p, FIRST), _support(p, SECOND)])
