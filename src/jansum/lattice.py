"""Partitions, dominance order, and the SL(d+1) weight lattice.

Weights are stored in fundamental-weight coordinates.  A dominant weight is
identified with a partition, its minimal nonnegative GL(d+1) lift, by the
suffix sums of its coordinates (weyl.to_epsilon).
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate
from operator import le


class Partition:
    """Weakly decreasing positive integer parts; trailing zeros are stripped."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = list(parts)
        while ps and ps[-1] == 0:
            ps.pop()
        if not all(isinstance(a, int) for a in ps):
            raise TypeError(f"parts must be integers: {ps}")
        for a, b in zip(ps, ps[1:]):
            if b > a:
                raise ValueError(f"parts not weakly decreasing: {ps}")
        if ps and ps[-1] < 1:
            raise ValueError(f"parts must be positive: {ps}")
        self.parts = tuple(ps)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def __str__(self) -> str:
        return "[" + ",".join(str(a) for a in self.parts) + "]"


class Weight:
    """An SL(rank+1) weight in fundamental-weight coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        cs = tuple(coords)
        if len(cs) < 2:
            raise ValueError(f"rank must be at least 2, got coords {cs}")
        if not all(isinstance(c, int) for c in cs):
            raise TypeError(f"coordinates must be integers: {cs}")
        self.coords = cs

    @property
    def rank(self) -> int:
        return len(self.coords)

    def _same_rank(self, other: "Weight") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "Weight") -> "Weight":
        self._same_rank(other)
        return Weight(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Weight") -> "Weight":
        self._same_rank(other)
        return Weight(a - b for a, b in zip(self.coords, other.coords))

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Weight{self.coords}"

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def dominance_leq(a: Partition, b: Partition) -> bool:
    """True iff a <= b in the dominance order (prefix sums; equal sizes only).

    Past the end of b its prefix sum is the common size, which no prefix sum
    of a exceeds, so only the prefixes both have are compared."""
    if a.size != b.size:
        raise ValueError(f"dominance needs equal sizes: |{a}| != |{b}|")
    return all(map(le, accumulate(a.parts), accumulate(b.parts)))


def partitions_below(b: Partition) -> list[Partition]:
    """All partitions of |b| that are <= b in dominance order.

    The leaves of the walk of ideal_dag (never a filter over all partitions
    of |b|), in reverse-lexicographic order, so b itself comes first.  The
    walk carries no state: one no-op is both its step and its finish, so
    all its leaves share one key.  Raises ValueError, before walking, when
    check_ideal_size refuses b.
    """
    check_ideal_size(b)

    def nothing(state, k):
        return None

    dag = ideal_dag(b, None, nothing, nothing)
    return [_walked(parts) for parts, _ in ideal_leaves(dag, text=False)]


# Largest dominance ideal a walk accepts.  It bounds the listing of terms
# (partitions_below, schur_to_monomial, the sides of an identity report
# that --json prints and the lists of a failing multiplicity family), which
# grows with the ideal: with one listing of the walk, keyed by text, serving
# both sides and each side written in pieces, identity --json peaks at
# 37-38 MB of RSS (Python 3.11 on Linux) for the second identity at n=45
# (89 133 partitions) and for the first at n=23 (84 626), the largest n
# this limit admits.
# identities.conjecture_sweep, the one path to a verdict, checks it once,
# at the largest n of its range, so a verdict is given exactly where its
# terms can be listed; so does identities.multiplicity_one_report, before
# it builds any shape: multiplicity is admitted up to p = 23, where each
# of its two ideals is walked once, by the IdentityReport of its family.
# n=150, about 4e10 partitions, is refused at once, and so is multiplicity
# at p = 1009.
IDEAL_LIMIT = 100_000


def check_ideal_size(b: Partition) -> None:
    """Refuse b when the ideal below it may hold more than IDEAL_LIMIT partitions.

    The bound is the number of partitions of |b| with largest part at most
    b_1, which holds every partition below b; it is exact for (n-1, 1) and
    (n-1, n-1, 1).
    """
    n, k = b.size, (b.parts[0] if b.parts else 0)
    # n // 2 + 1 partitions of n have parts <= 2
    count = 1 if k < 2 else n // 2 + 1
    if k > 2 and count <= IDEAL_LIMIT:
        # counts[m] = partitions of m with parts <= a, for a = 1, 2, ..., k;
        # counts[n] only grows with a, so stop once it passes the limit
        counts = [1] * (n + 1)
        for a in range(2, min(k, n) + 1):
            for m in range(a, n + 1):
                counts[m] += counts[m - a]
            if counts[n] > IDEAL_LIMIT:
                break
        count = counts[n]
    if count > IDEAL_LIMIT:
        raise ValueError(
            f"the ideal below {b} may hold more than {IDEAL_LIMIT} partitions; refused"
        )


def ideal_dag(b: Partition, state, step, finish) -> dict[tuple, tuple]:
    """The memoized walk of the partitions below b, carrying a state.

    Each partition is built one part at a time, largest first, and
    `step(state, k)` gives the hashable state after a part of size k > 1.
    What lies below a node depends only on its key:
    (state, size left, largest part allowed, depth while a prefix sum of b
    still binds), so each key is stepped once, however many partitions
    pass through it.  Returns each key's children: the key after taking the
    largest part allowed, then the same key with a largest part one less.
    A key whose largest part allowed is at most 1, so whose parts left are
    all 1 or none, has one child, its leaf: the 1-tuple of the hashable
    `finish(state, size left)`, which no other key can equal, so leaves of
    one value share a key; a leaf has no children.  Keys are stored
    children first, so the root is the last.  The ideal's size is not
    checked here.  The walk keeps its own stack, so no partition is too
    long for it.

    The key after the largest part allowed is walked before its sibling, so
    a state is more often stepped first for the largest part it is allowed
    and then for the smaller ones: a step that finds the smaller parts'
    states while finding the largest one's can keep them for those calls.
    """
    n = b.size
    # the first k+1 parts add up to at most bounds[k]; a key's depth is
    # below b.length, so the bound after its part is always there
    bounds = list(accumulate(b.parts)) + [n]
    free = max(b.length - 1, 0)  # from this depth on, no prefix bound binds
    dag: dict[tuple, tuple] = {}
    waiting: dict[tuple, tuple] = {}  # key -> its children, not all stored yet
    stack = [(state, n, bounds[0], 0)]
    while stack:
        key = stack.pop()
        if key in waiting:
            # there is no cycle, so the children pushed above it are stored
            dag[key] = waiting.pop(key)
        if key in dag:
            continue
        state, left, largest, depth = key
        if largest <= 1:
            leaf = (finish(state, left),)
            dag.setdefault(leaf, ())
            dag[key] = (leaf,)
        else:
            # the child's largest part is at most this one and at most what
            # the next prefix bound leaves; written out, as min would cost a
            # call per key
            room = bounds[depth + 1] - (n - left + largest)
            nxt = room if room < largest else largest
            deeper = free if nxt == 1 or depth == free else depth + 1
            child = (step(state, largest), left - largest, nxt, deeper)
            sibling = (state, left, largest - 1, free if largest == 2 else depth)
            waiting[key] = (child, sibling)
            # the key is stored after both, and the child is walked first
            stack += (key, sibling, child)
    return dag


def ideal_leaves(dag: dict[tuple, tuple], text: bool = True) -> list[tuple[object, object]]:
    """(key, value) for every leaf of an ideal_dag, one per path from the
    root, in reverse-lexicographic order of the partitions: the value is
    the leaf's one entry, its walk's finish of the key above it.

    A leaf's key is its partition's parts: the comma-joined text that the
    JSON and text forms write ("3,1,1", and "" for the empty partition) or,
    with text=False, their tuple, from which partitions_below builds its
    Partitions.  Each key on a path is its parent's key and one piece
    more, cached: a piece per part size, and one per run of ones, which a
    key whose largest part allowed is at most 1 adds at once, as its one
    child is the leaf.  No partition is built.
    """
    if text:
        # pieces start with a comma, so a leaf's key drops its first character
        empty, part, ones, skip = "", ",%d".__mod__, ",1".__mul__, 1
    else:
        empty, part, ones, skip = (), (lambda k: (k,)), (1,).__mul__, 0
    root = next(reversed(dag))
    pieces = [part(k) for k in range(root[2] + 1)]  # no part exceeds the root's
    runs: dict[int, object] = {}  # length of a run of ones -> its piece
    out: list[tuple[object, object]] = []
    stack = [(root, empty)]  # (key, the parts above it)
    while stack:
        key, above = stack.pop()
        # down the first children, each sibling left on the stack
        while key[2] > 1:
            child, sibling = dag[key]
            stack.append((sibling, above))
            above += pieces[key[2]]
            key = child
        # the parts left are all ones, or none are left
        left = key[1]
        above += runs.get(left) or runs.setdefault(left, ones(left))
        out.append((above[skip:], dag[key][0][0]))
    return out


def _walked(parts: tuple[int, ...]) -> Partition:
    """The Partition of parts that ideal_leaves listed, so valid by construction.

    The package's one way round a constructor: Partition's checks would
    cost partitions_below about five times as much (126 against 26 ms for
    the 41 869 partitions below (20, 20, 1), Python 3.11 on a 2-CPU host).
    """
    mu = Partition.__new__(Partition)
    mu.parts = parts
    return mu


def text_partition(key: str) -> Partition:
    """The Partition of a text key of ideal_leaves."""
    return _walked(tuple(map(int, key.split(","))) if key else ())


def rho(d: int) -> Weight:
    """Half-sum of positive roots: the all-ones weight."""
    return Weight((1,) * d)
