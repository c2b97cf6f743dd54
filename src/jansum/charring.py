"""The formal character ring: sparse integer sums of basis symbols.

Two bases are supported.  The Weyl basis is keyed by Levi-dominant weights
(one symbol per Weyl module of the Levi); the monomial basis is keyed by
partitions (one symbol per orbit sum of monomial symmetric functions, i.e.
the GL picture with unboundedly many variables).  A signed sum of Schur
functions, S_lambda = sum over mu of K(lambda, mu) * m_mu, is expanded by
one memoized walk of the dominance ideal below a top shape (schur_sum_dag),
which peels a horizontal strip for each part: the expansion lists the
walk's leaves, and the coefficient counts that decide an identity or a
multiplicity-one family are one fold over its keys.  A Weyl-basis
character of the full group enters such a walk through the partitions of
its keys (lattice.weight_to_partition).
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from .lattice import (
    Partition,
    Weight,
    check_ideal_size,
    dominance_leq,
    ideal_dag,
    ideal_leaves,
)
from .weyl import LeviDatum

BASIS_WEYL = "weyl"
BASIS_MONOMIAL = "monomial"


class FormalCharacter:
    """Immutable sparse integer combination of basis symbols.

    Zero coefficients are never stored.  Arithmetic and equality insist on a
    matching basis and Levi context; equality is exact and independent of
    term insertion order.
    """

    __slots__ = ("basis", "levi", "terms")

    def __init__(self, basis: str, levi: LeviDatum | None, terms: Mapping):
        if basis == BASIS_WEYL:
            if levi is None:
                raise ValueError("Weyl-basis characters need a Levi context")
        elif basis == BASIS_MONOMIAL:
            if levi is not None:
                raise ValueError("monomial-basis characters carry no Levi context")
        else:
            raise ValueError(f"unknown basis {basis!r}")
        kept = {}
        for key, coeff in terms.items():
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient for {key} is not an integer: {coeff!r}")
            if coeff == 0:
                continue
            if basis == BASIS_WEYL:
                if not isinstance(key, Weight) or not levi.is_dominant(key):
                    raise ValueError(f"{key!r} is not a dominant weight for {levi!r}")
            elif not isinstance(key, Partition):
                raise ValueError(f"{key!r} is not a partition")
            kept[key] = coeff
        self.basis = basis
        self.levi = levi
        self.terms = kept

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _same_context(self, other: "FormalCharacter") -> None:
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")
        if self.levi != other.levi:
            raise ValueError(f"Levi mismatch: {self.levi!r} vs {other.levi!r}")

    def __add__(self, other: "FormalCharacter") -> "FormalCharacter":
        if not isinstance(other, FormalCharacter):
            return NotImplemented
        self._same_context(other)
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return FormalCharacter(self.basis, self.levi, merged)

    def __neg__(self) -> "FormalCharacter":
        return FormalCharacter(
            self.basis, self.levi, {k: -c for k, c in self.terms.items()}
        )

    def __sub__(self, other: "FormalCharacter") -> "FormalCharacter":
        if not isinstance(other, FormalCharacter):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalCharacter):
            return NotImplemented
        self._same_context(other)
        return self.terms == other.terms

    def items_sorted(self) -> list:
        """Terms in reverse-lexicographic key order (deterministic output)."""
        def sort_key(item):
            key = item[0]
            return key.parts if isinstance(key, Partition) else key.coords

        return sorted(self.terms.items(), key=sort_key, reverse=True)

    def __repr__(self) -> str:
        return f"FormalCharacter({self.basis}, {len(self.terms)} terms)"


def _trusted_character(basis: str, levi: LeviDatum | None, terms: dict) -> FormalCharacter:
    """The character of terms that the library built: every key valid for
    the basis and Levi, no coefficient zero.  The dict is kept, not copied."""
    ch = FormalCharacter.__new__(FormalCharacter)
    ch.basis = basis
    ch.levi = levi
    ch.terms = terms
    return ch


def kostka(shape: Partition, content: Partition) -> int:
    """The Kostka number: semistandard tableaux of this shape and content.

    The count is invariant under permuting the content, so its parts are
    peeled largest first: relabel values so that each part in turn is the
    largest entry, whose cells form a horizontal strip at the rim.  The
    state after a prefix of the content is the signed set of shapes left,
    so the cost follows the number of shapes inside `shape`, not the
    number of tableaux.
    """
    if shape.size != content.size:
        raise ValueError(f"size mismatch: |{shape}| != |{content}|")
    state = frozenset({(shape.parts, 1)})
    for part in content.parts:
        state = _peel(state, part)
    return _coefficient(state)


def _peel(state: frozenset, size: int) -> frozenset:
    """The state, a set of (shape, coeff), after peeling a horizontal strip
    of the given size from every shape in every possible way (the branching
    rule s_lam = sum over strips lam/nu of x_k^|lam/nu| s_nu); zeros
    dropped."""
    out: dict[tuple[int, ...], int] = {}
    for shape, coeff in state:
        for inner in _horizontal_strips(shape, size):
            out[inner] = out.get(inner, 0) + coeff
    return frozenset((inner, coeff) for inner, coeff in out.items() if coeff)


def _coefficient(state: frozenset) -> int:
    """The coefficient of the empty shape in a state: at the end of a walk,
    where every cell is peeled, the coefficient of its partition."""
    return dict(state).get((), 0)


def _horizontal_strips(shape: tuple[int, ...], size: int) -> list[tuple[int, ...]]:
    """Inner shapes nu with shape/nu a horizontal strip of the given size.

    Only a corner, a row longer than the next, can shed cells, at most the
    difference.  The cells shed at each corner are counted down like an
    odometer, the first corner most significant, so the strips come in the
    order of a depth-first search that sheds as much as it can first.
    """
    if not shape or size > shape[0]:
        return [] if size else [shape]
    below = shape[1:] + (0,)
    rows = [i for i, row in enumerate(shape) if row > below[i]]
    shed = [0] * len(rows)
    found = []
    left, start = size, 0
    while True:
        # shed as much as possible at each corner from start on
        for k in range(start, len(rows)):
            shed[k] = min(left, shape[rows[k]] - below[rows[k]])
            left -= shed[k]
        inner = list(shape)
        for i, r in zip(rows, shed):
            inner[i] -= r
        found.append(tuple(inner if inner[-1] else inner[:-1]))
        # the last corner that can pass a cell on to the corners after it,
        # which can shed at most the length of the row below it in all
        k = len(rows) - 1
        while k >= 0 and not (shed[k] and left < below[rows[k]]):
            left += shed[k]
            k -= 1
        if k < 0:
            return found
        shed[k] -= 1
        left += 1
        start = k + 1


def schur_sum_to_monomial(coeffs: Mapping[Partition, int], top: Partition) -> FormalCharacter:
    """Expand sum of coeff * S_shape in the monomial basis: the leaves of
    schur_sum_dag, listed, each mu below top with sum of coeff * K(shape,
    mu).  Raises ValueError, before walking, if check_ideal_size refuses."""
    check_ideal_size(top)
    leaves = dag_leaves(schur_sum_dag(coeffs, top))
    # every key is a partition that the walk built
    return _trusted_character(BASIS_MONOMIAL, None, {mu: c for mu, c in leaves if c})


def schur_sum_dag(coeffs: Mapping[Partition, int], top: Partition) -> dict[tuple, tuple]:
    """The lattice.ideal_dag below top whose state is the signed set of
    shapes of sum of coeff * S_shape left after peeling a horizontal strip
    for each part, so a leaf's state holds the coefficient of its
    partition.  `top` must dominate every shape; the size of the ideal is
    not checked here.  A branch whose state has cancelled is walked on."""
    for shape in coeffs:
        if not dominance_leq(shape, top):
            raise ValueError(f"{shape} is not below {top} in dominance order")
    return ideal_dag(top, frozenset((shape.parts, c) for shape, c in coeffs.items() if c), _peel)


def dag_leaves(dag: dict[tuple, tuple]) -> list[tuple[Partition, int]]:
    """(mu, coefficient) for every leaf of a schur_sum_dag, zeros included,
    in reverse-lexicographic order of mu."""
    return [(mu, _coefficient(state)) for mu, state in ideal_leaves(dag)]


def coefficient_counts(dag: dict[tuple, tuple]) -> Counter:
    """Counter{coefficient: number of leaves} of a schur_sum_dag, zeros
    included, in one pass over its keys, children first: each key's Counter
    is the sum of its children's, so the work follows the keys."""
    counts: dict[tuple, Counter] = {}
    for key, children in dag.items():
        total = Counter() if children else Counter({_coefficient(key[0]): 1})
        for child in children:
            total.update(counts[child])
        counts[key] = total
    return total


def schur_to_monomial(lam: Partition) -> FormalCharacter:
    """Expand the Schur function of lam in the monomial basis via Kostka numbers."""
    return schur_sum_to_monomial({lam: 1}, lam)
