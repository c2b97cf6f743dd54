"""Symmetric functions in the monomial basis: Kostka numbers and Schur sums.

A character here is a sparse integer sum of monomial symmetric functions
m_mu, keyed by partitions (the GL picture with unboundedly many variables);
a character in the Weyl basis, a Jantzen total or tail, is sorted rows
(*coords, coeff) in jansum.jantzen and is never built here.  A signed sum
of Schur functions, S_lambda = sum over mu of K(lambda, mu) * m_mu, is
expanded by one memoized walk of the dominance ideal below a top shape
(schur_sum_dag), which peels a horizontal strip for each part.  Inside a
walk's state, and inside kostka's, a shape is held by its runs (_runs): the
flat tuple (v1, m1, v2, m2, ...) of its distinct parts, largest first, each
with how often it occurs, so the shapes (p-1, p-1-i, 1^(i+1)) and the hooks
of the identities are short tuples however many rows they have; shapes are
converted only where they enter (schur_sum_dag's root state, kostka's
start) and where kostka reads hook lengths (_standard_count).  One
enumerator (_strips) finds the strips of a shape for every size up to a
cap, run by run, so at a cost per distinct part, not per row, and adds
each inner shape's coefficient into its caller's per-size sums as it
finds it; the walk's step runs it once for each shape of a state, for all
the state's part sizes at once, into one set of sums per state, which it
keeps, while kostka runs it for the one size it peels, into one sum per
content part.  No list of inner shapes is built.  Where the parts left
are all 1 the walk ends at a leaf that holds a coefficient, which the
step's finish gives by peeling the ones through the same steps; the
partitions of one coefficient share a leaf.  The expansion lists the
walk's leaves, one per partition, each with its coefficient and keyed by
the text of its partition's parts (lattice.ideal_leaves), which the
writers write as it is.  The coefficient counts that decide an identity
or a multiplicity-one family are one fold over its keys, of the number of
paths from the root to each leaf.  A library caller that reads a
monomial character gets a plain dict {Partition: coefficient}
(schur_to_monomial), each key read from a leaf's text by
lattice.text_partition.
"""

from collections import Counter
from collections.abc import Mapping
from operator import itemgetter

from .lattice import (
    Partition,
    check_ideal_size,
    dominance_leq,
    ideal_dag,
    ideal_leaves,
    text_partition,
)


def kostka(shape: Partition, content: Partition) -> int:
    """The Kostka number: semistandard tableaux of this shape and content.

    The count is invariant under permuting the content, so its parts are
    peeled largest first: relabel values so that each part in turn is the
    largest entry, whose cells form a horizontal strip at the rim.  The
    state after a prefix of the content is the set of shapes left, each
    held by its runs (_runs) with its number of ways, so the cost follows
    the number of shapes inside `shape`, not the number of tableaux.  Each
    state is peeled for one size only, so only strips of that size are
    enumerated, and each shape's ways are added into the next state as its
    strips are found.  Once the parts left are all 1, peeling them counts
    the standard tableaux of each shape left, so the state is read off at
    once.
    """
    if shape.size != content.size:
        raise ValueError(f"size mismatch: |{shape}| != |{content}|")
    state = {_runs(shape.parts): 1}
    for part in content.parts:
        if part == 1:
            return sum(ways * _standard_count(outer) for outer, ways in state.items())
        peeled: dict[tuple[int, ...], int] = {}
        for outer, ways in state.items():
            _strips(outer, part, part, ways, [peeled])
        state = peeled
    return state.get((), 0)


def _runs(parts: tuple[int, ...]) -> tuple[int, ...]:
    """A shape by its runs: the flat tuple (v1, m1, v2, m2, ...) of its
    distinct parts v1 > v2 > ... and how many times each occurs; () for the
    empty shape.  The form in which a walk's state and kostka's hold shapes."""
    runs: list[int] = []
    for part in dict.fromkeys(parts):
        runs += (part, parts.count(part))
    return tuple(runs)


def _standard_count(shape: tuple[int, ...]) -> int:
    """f^shape, the number of standard tableaux of a nonempty shape given by
    its runs: |shape|! over the product of its hook lengths (Frame, Robinson
    and Thrall).  In a column j the m rows of a run of value v that starts
    at row r have the hook lengths h, h - 1, ..., h - m + 1, where h = v - j
    + (the column's length) - r - 1, so their product is perm(h, m)."""
    from math import factorial, perm, prod  # here: no command but kostka needs it

    values, counts = shape[::2], shape[1::2]
    columns = [sum(m for v, m in zip(values, counts) if v > j) for j in range(values[0])]
    hooks = 1
    first = 0  # the run's first row
    for v, m in zip(values, counts):
        hooks *= prod(perm(v - j + columns[j] - first - 1, m) for j in range(v))
        first += m
    return factorial(sum(v * m for v, m in zip(values, counts))) // hooks


def _stepper():
    """The step and the finish of one walk.  step(state, k) is the state, a
    set of (shape, coeff) with each shape held by its runs (_runs), left
    after peeling a horizontal strip of size k from every shape in every
    possible way (the branching rule s_lam = sum over strips lam/nu of
    x_k^|lam/nu| s_nu), with zeros dropped; size 0 leaves the state itself.
    finish(state, left) peels the left cells one at a time through the same
    steps and gives the coefficient of the empty shape, (): at the end of a
    walk, where every cell is peeled, the coefficient of its partition.

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
            out += (frozenset(filter(itemgetter(1), total.items())) for total in sums)
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
    inner shapes is built.  Both shapes are held by their runs (_runs).

    shape/nu is a horizontal strip exactly when shape_{i+1} <= nu_i <=
    shape_i for every row i, so of a run of value v only its last row can
    shed cells, at most down to the next run's value w (0 below the last
    run), and the runs below can shed w cells in all.  The cells shed are
    chosen run by run, so a step costs per distinct part, not per row.  A
    row that sheds v - w cells joins the next run, and below the last run
    it is gone; a row that sheds fewer is a run of its own.  A choice that
    has shed more than cap cells, or that can no longer reach least, is not
    extended.
    """
    if not shape:
        if not least:
            sums[0][()] = sums[0].get((), 0) + coeff
        return
    # the choices so far, (runs, cells shed): those whose last row stays,
    # and those whose last row has shed down to the next run's value and
    # joins it; all rows shed shape_1 cells at most
    kept = [((), 0)] if least <= shape[0] else []
    joined = []
    last = len(shape) - 2
    for i in range(0, last, 2):
        v, m, below = shape[i], shape[i + 1], shape[i + 2]
        most = v - below
        # the runs below can shed below cells in all, so the runs so far
        # must shed at least reach; the bounds are written out, as min and
        # max calls cost the walk a fifth of its enumeration
        reach = least - below
        grown, ends = [], []
        for rows, choices in ((m, kept), (m + 1, joined)):
            for runs, total in choices:
                low = reach - total if total < reach else 0
                high = most if total + most <= cap else cap - total
                if low > high:
                    continue
                if not low:
                    grown.append((runs + (v, rows), total))
                # the rows of the run above its last row
                above = runs + (v, rows - 1) if rows > 1 else runs
                # the last row keeps more than the next run's value
                start, stop = low or 1, high + 1 if high < most else most
                if start < stop:
                    grown += [(above + (v - shed, 1), total + shed) for shed in range(start, stop)]
                if high == most:
                    ends.append((above, total + most))
        kept, joined = grown, ends
    # the last run, the same choices with no run below: its last row can
    # shed every cell, and each inner shape is added as it is found rather
    # than kept as a choice, which saves the walk a tenth of its enumeration
    v, m = shape[last], shape[last + 1]
    for rows, choices in ((m, kept), (m + 1, joined)):
        for runs, total in choices:
            low = least - total if total < least else 0
            high = v if total + v <= cap else cap - total
            if low > high:
                continue
            if not low:
                inner = runs + (v, rows)
                found = sums[total - least]
                found[inner] = found.get(inner, 0) + coeff
            above = runs + (v, rows - 1) if rows > 1 else runs
            for shed in range(low or 1, high + 1 if high < v else v):
                inner = above + (v - shed, 1)
                found = sums[total + shed - least]
                found[inner] = found.get(inner, 0) + coeff
            if high == v:
                found = sums[total + v - least]
                found[above] = found.get(above, 0) + coeff


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
        top, frozenset((_runs(shape.parts), c) for shape, c in coeffs.items() if c), *_stepper()
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


def schur_to_monomial(lam: Partition) -> dict[Partition, int]:
    """The Schur function of lam in the monomial basis: {mu: K(lam, mu)} for
    each mu below lam whose Kostka number is not zero, in reverse-
    lexicographic order, from the leaves of schur_sum_leaves.  Raises
    ValueError, before walking, if check_ideal_size refuses."""
    return {text_partition(key): c for key, c in schur_sum_leaves({lam: 1}, lam)}
