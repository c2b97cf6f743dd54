"""The formal character ring: sparse integer sums of basis symbols.

Two bases are supported.  The Weyl basis is keyed by Levi-dominant weights
(one symbol per Weyl module of the Levi); the monomial basis is keyed by
partitions (one symbol per orbit sum of monomial symmetric functions, i.e.
the GL picture with unboundedly many variables).  Conversion from the full
Weyl basis to the monomial basis goes through Kostka numbers:
S_lambda = sum over mu of K(lambda, mu) * m_mu.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import Mapping

from .lattice import (
    Partition,
    Weight,
    dominance_leq,
    walk_below,
    weight_to_partition,
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
    state = {shape.parts: 1}
    for part in content.parts:
        state = _peel(state, part)
    return state.get((), 0)


def _peel(state: dict[tuple[int, ...], int], size: int) -> dict[tuple[int, ...], int]:
    """The state {shape: coeff} after peeling a horizontal strip of the
    given size from every shape in every possible way (the branching rule
    s_lam = sum over strips lam/nu of x_k^|lam/nu| s_nu); zeros dropped."""
    out: dict[tuple[int, ...], int] = {}
    for shape, coeff in state.items():
        for inner in _horizontal_strips(shape, size):
            out[inner] = out.get(inner, 0) + coeff
    return {inner: coeff for inner, coeff in out.items() if coeff}


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
    """Expand sum of coeff * S_shape in the monomial basis.

    `top` must dominate every shape.  One walk of the dominance ideal below
    top carries the state {shape: coeff}, peeling a horizontal strip for
    each part, so every mu gets sum of coeff * K(shape, mu) in one pass; a
    branch whose state has cancelled to zero is cut.
    """
    state = _state_below(coeffs, top)
    terms = {mu: leaf[()] for mu, leaf in walk_below(top, state, _peel)}
    return FormalCharacter(BASIS_MONOMIAL, None, terms)


def _state_below(coeffs: Mapping[Partition, int], top: Partition) -> dict[tuple[int, ...], int]:
    """The first state {shape: coeff} of a walk below top, which must
    dominate every shape."""
    for shape in coeffs:
        if not dominance_leq(shape, top):
            raise ValueError(f"{shape} is not below {top} in dominance order")
    return {shape.parts: c for shape, c in coeffs.items() if c}


def schur_sum_coefficient_counts(coeffs: Mapping[Partition, int], top: Partition) -> Counter:
    """How often each coefficient occurs in sum of coeff * S_shape, over
    every partition mu below top: Counter{coefficient: number of mu}, zeros
    included.  `top` must dominate every shape; the size of the ideal is
    not checked here.

    The walk of schur_sum_to_monomial, memoized.  Below a node, the walk
    depends only on the state {shape: coeff}, the size left, the largest
    part allowed and, while a prefix sum of top still binds, the depth.
    Each such key is counted once, not once per partition below it, as the
    partitions whose next part is the largest allowed plus those below the
    same key with a largest part one less.  So each (state, part, depth) is
    peeled once.  A branch whose state has cancelled is walked on, its
    partitions counted with coefficient 0.  The walk keeps its own stack.
    """
    state = _state_below(coeffs, top)
    n = top.size
    # the first k+1 parts add up to at most bounds[min(k, top.length)]
    bounds = list(accumulate(top.parts)) + [n]
    free = max(top.length - 1, 0)  # from this depth on, no prefix bound binds
    # a key: (state, size left, largest part allowed, depth up to free)
    root = (frozenset(state.items()), n, bounds[0], 0)
    counts: dict[tuple, Counter] = {}
    below: dict[tuple, list] = {}  # key -> the (key, state)s it is counted from
    stack = [(root, state)]
    while stack:
        key, state = stack[-1]
        if key in below:
            # every key below it is counted
            stack.pop()
            total = Counter()
            for child, _ in below.pop(key):
                total.update(counts[child])
            counts[key] = total
        elif key in counts:
            stack.pop()
        elif not key[1]:
            stack.pop()
            counts[key] = Counter({state.get((), 0): 1})
        else:
            whole, left, largest, depth = key
            new = _peel(state, largest)
            done = n - left + largest
            taken = (
                frozenset(new.items()),
                left - largest,
                min(largest, bounds[min(depth + 1, top.length)] - done),
                min(depth + 1, free),
            )
            below[key] = [(taken, new)]
            if largest > 1:
                below[key].append(((whole, left, largest - 1, depth), state))
            stack.extend(c for c in below[key] if c[0] not in counts)
    return counts[root]


def schur_to_monomial(lam: Partition) -> FormalCharacter:
    """Expand the Schur function of lam in the monomial basis via Kostka numbers."""
    return schur_sum_to_monomial({lam: 1}, lam)


def convert_weyl_to_monomial(x: FormalCharacter) -> FormalCharacter:
    """Rewrite a full-Levi Weyl-basis character in the monomial basis.

    Each key is lifted to its partition and expanded through Kostka numbers;
    coefficients are combined exactly.
    """
    if x.basis != BASIS_WEYL:
        raise ValueError(f"expected a Weyl-basis character, got {x.basis}")
    if not x.levi.is_full:
        raise ValueError("only full-Levi characters convert to the monomial basis")
    total: dict[Partition, int] = {}
    for key, coeff in x.terms.items():
        for mu, k in schur_to_monomial(weight_to_partition(key)).terms.items():
            total[mu] = total.get(mu, 0) + coeff * k
    return FormalCharacter(BASIS_MONOMIAL, None, total)
