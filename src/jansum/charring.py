"""The formal character ring: sparse integer sums of basis symbols.

Two bases are supported.  The Weyl basis is keyed by Levi-dominant weights
(one symbol per Weyl module of the Levi); the monomial basis is keyed by
partitions (one symbol per orbit sum of monomial symmetric functions, i.e.
the GL picture with unboundedly many variables).  A signed sum of Schur
functions, S_lambda = sum over mu of K(lambda, mu) * m_mu, is expanded by
one memoized walk of the dominance ideal below a top shape (schur_sum_dag),
which peels a horizontal strip for each part.  One enumerator (_strips)
finds the strips of a shape for every size up to a cap and adds each
inner shape's coefficient into its caller's per-size sums as it finds it;
the walk's step runs it once for each shape of a state, for all the
state's part sizes at once, into one set of sums per state, which it
keeps, while kostka runs it for the one size it peels, into one sum per
content part.  No list of inner shapes is built.  Where the parts left
are all 1 the walk ends at a leaf that holds a coefficient, which the
step's finish gives by peeling the ones through the same steps; the
partitions of one coefficient share a leaf.  The expansion lists the
walk's leaves, one per partition, each with its coefficient and keyed by
the text of its partition's parts (lattice.ideal_leaves), which the
writers write as it is.  The coefficient counts that decide an identity
or a multiplicity-one family are one fold over its keys, of the number of
paths from the root to each leaf.  A Weyl-basis character of the full
group enters such a walk through the partitions of its keys
(lattice.weight_to_partition).

A character that a library caller reads is built by FormalCharacter's
constructor, which checks every key, from the form its computation made:
a walk's text leaves (_monomial_character) or a Jantzen sum's sorted rows
(_weyl_character).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

from .lattice import (
    Partition,
    Weight,
    check_ideal_size,
    dominance_leq,
    ideal_dag,
    ideal_leaves,
    text_partition,
)
from .weyl import LeviDatum

BASIS_WEYL = "weyl"
BASIS_MONOMIAL = "monomial"


class FormalCharacter:
    """Sparse integer combination of basis symbols.

    No method changes a character once built: arithmetic returns a new one.
    It is not frozen, though: terms is a plain dict, and a caller that
    changes it, or reassigns an attribute, bypasses the constructor's checks.
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

    def __repr__(self) -> str:
        return f"FormalCharacter({self.basis}, {len(self.terms)} terms)"


def _monomial_character(leaves) -> FormalCharacter:
    """The monomial character of a walk's (text key, coeff) leaves."""
    return FormalCharacter(BASIS_MONOMIAL, None, {text_partition(k): c for k, c in leaves})


def _weyl_character(levi: LeviDatum, rows) -> FormalCharacter:
    """The character in the Weyl basis of the Levi of rows (*coords, coeff)."""
    return FormalCharacter(BASIS_WEYL, levi, {Weight(r[:-1]): r[-1] for r in rows})


def kostka(shape: Partition, content: Partition) -> int:
    """The Kostka number: semistandard tableaux of this shape and content.

    The count is invariant under permuting the content, so its parts are
    peeled largest first: relabel values so that each part in turn is the
    largest entry, whose cells form a horizontal strip at the rim.  The
    state after a prefix of the content is the set of shapes left, each
    with its number of ways, so the cost follows the number of shapes
    inside `shape`, not the number of tableaux.  Each state is peeled for
    one size only, so only strips of that size are enumerated, and each
    shape's ways are added into the next state as its strips are found.
    Once the parts left are all 1, peeling them counts the standard
    tableaux of each shape left, so the state is read off at once.
    """
    if shape.size != content.size:
        raise ValueError(f"size mismatch: |{shape}| != |{content}|")
    state = {shape.parts: 1}
    for part in content.parts:
        if part == 1:
            return sum(ways * _standard_count(outer) for outer, ways in state.items())
        peeled: dict[tuple[int, ...], int] = {}
        for outer, ways in state.items():
            _strips(outer, part, part, ways, [peeled])
        state = peeled
    return state.get((), 0)


def _standard_count(shape: tuple[int, ...]) -> int:
    """f^shape, the number of standard tableaux of a nonempty shape: |shape|!
    over the product of its hook lengths (Frame, Robinson and Thrall)."""
    from math import factorial, prod  # here: no command but kostka needs it

    columns = [sum(row > j for row in shape) for j in range(shape[0])]
    hooks = prod(row - j + columns[j] - i - 1 for i, row in enumerate(shape) for j in range(row))
    return factorial(sum(shape)) // hooks


def _stepper():
    """The step and the finish of one walk.  step(state, k) is the state, a
    set of (shape, coeff), left after peeling a horizontal strip of size k
    from every shape in every possible way (the branching rule s_lam = sum
    over strips lam/nu of x_k^|lam/nu| s_nu), with zeros dropped; size 0
    leaves the state itself.  finish(state, left) peels the left cells one
    at a time through the same steps and gives the coefficient of the empty
    shape: at the end of a walk, where every cell is peeled, the
    coefficient of its partition.

    The strips of a state's shapes are enumerated for every size up to k at
    once, each shape adding its coefficient into one sum per size, and the
    states after each of those sizes are kept, listed by size, for each
    state: a state is enumerated once for all its sizes, and
    again only when a size larger than any asked before is.
    """
    memo: dict[frozenset, list] = {}

    def step(state: frozenset, k: int) -> frozenset:
        out = memo.get(state)
        if out is None or len(out) <= k:
            sums: list[dict] = [{} for _ in range(k)]
            for shape, coeff in state:
                _strips(shape, k, 1, coeff, sums)
            out = [state]
            out += (frozenset((inner, c) for inner, c in total.items() if c) for total in sums)
            memo[state] = out
        return out[k]

    def finish(state: frozenset, left: int) -> int:
        for _ in range(left):
            state = step(state, 1)
        return dict(state).get((), 0)

    return step, finish


def _strips(shape: tuple[int, ...], cap: int, least: int, coeff: int, sums: list[dict]) -> None:
    """Add coeff to sums[k - least][nu] for each inner shape nu with shape/nu
    a horizontal strip of a size k from least to cap, as nu is found, into
    the caller's per-size sums, which many shapes may share; no list of
    inner shapes is built.

    shape/nu is a horizontal strip exactly when shape_{i+1} <= nu_i <=
    shape_i for every row i, so only a corner, a row longer than the next,
    can shed cells, at most the difference, and the rows below row i can
    shed shape_{i+1} cells in all.  The cells shed are chosen one corner at
    a time, and a choice that has shed more than cap cells, or that can no
    longer reach least, is not extended.
    """
    below = shape[1:] + (0,)
    # (the rows so far, the cells shed from them); all rows shed shape_1 at most
    partial = [((), 0)] if least <= (shape[0] if shape else 0) else []
    start = 0  # the rows before start are in partial
    for i, row in enumerate(shape):
        most = row - below[i]
        if most:
            kept = shape[start:i]
            # the rows below can shed below[i] cells in all, so the rows so
            # far must shed at least reach; the bounds are written out, as
            # min and max calls cost the walk a fifth of its enumeration
            reach = least - below[i]
            partial = [
                (rows + kept + (row - shed,), total + shed)
                for rows, total in partial
                for shed in range(
                    reach - total if total < reach else 0,
                    most + 1 if total + most <= cap else cap - total + 1,
                )
            ]
            start = i + 1
    for rows, total in partial:
        # the last row is a corner, and the only row that can be shed whole
        inner = rows if not rows or rows[-1] else rows[:-1]
        found = sums[total - least]
        found[inner] = found.get(inner, 0) + coeff


def schur_sum_to_monomial(coeffs: Mapping[Partition, int], top: Partition) -> FormalCharacter:
    """Expand sum of coeff * S_shape in the monomial basis: each mu below top
    with sum of coeff * K(shape, mu), from the leaves of schur_sum_leaves.
    Raises ValueError, before walking, if check_ideal_size refuses."""
    return _monomial_character(schur_sum_leaves(coeffs, top))


def schur_sum_leaves(coeffs: Mapping[Partition, int], top: Partition) -> list[tuple[str, int]]:
    """(key, coefficient) for each mu below top whose coefficient in sum of
    coeff * S_shape is not zero, in reverse-lexicographic order: the leaves
    of schur_sum_dag, each keyed by the comma-joined text of its parts
    (lattice.ideal_leaves).  Raises ValueError, before walking, if
    check_ideal_size refuses."""
    check_ideal_size(top)
    return [leaf for leaf in ideal_leaves(schur_sum_dag(coeffs, top)) if leaf[1]]


def schur_sum_dag(coeffs: Mapping[Partition, int], top: Partition) -> dict[tuple, tuple]:
    """The lattice.ideal_dag below top whose state is the signed set of
    shapes of sum of coeff * S_shape left after peeling a horizontal strip
    for each part, and whose leaves are the coefficients of their
    partitions (_stepper), so partitions of one coefficient share a leaf.
    `top` must dominate every shape; the size of the ideal is not checked
    here.  A branch whose state has cancelled is walked on."""
    for shape in coeffs:
        if not dominance_leq(shape, top):
            raise ValueError(f"{shape} is not below {top} in dominance order")
    return ideal_dag(
        top, frozenset((shape.parts, c) for shape, c in coeffs.items() if c), *_stepper()
    )


def coefficient_counts(dag: dict[tuple, tuple]) -> Counter:
    """Counter{coefficient: number of partitions} of a schur_sum_dag, zeros
    included, in one pass over its keys, root first: each key adds its
    number of paths from the root to its children's, and each leaf its own
    to the count of its coefficient, so the work is one int per key."""
    paths = dict.fromkeys(dag, 0)
    paths[next(reversed(dag))] = 1
    counts: Counter = Counter()
    for key in reversed(dag):
        count = paths[key]
        children = dag[key]
        if children:
            for child in children:
                paths[child] += count
        else:
            counts[key[0]] += count
    return counts


def schur_to_monomial(lam: Partition) -> FormalCharacter:
    """Expand the Schur function of lam in the monomial basis via Kostka numbers."""
    return schur_sum_to_monomial({lam: 1}, lam)
