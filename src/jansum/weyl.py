"""Weyl-group dot action for SL(d+1) and its standard Levi subgroups.

Everything runs through epsilon coordinates: a weight plus rho becomes a
vector of d+1 integers (suffix sums, last entry 0), on which the Weyl group
acts by permutation and a Levi subgroup by permutations within blocks.
The dot action w . mu = w(mu + rho) - rho is realized by shifting, acting,
and unshifting; only coordinate differences matter, so all operations are
invariant under adding a constant to every epsilon entry.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import accumulate, permutations

from .lattice import Weight, rho


class LeviDatum:
    """A standard Levi subgroup of SL(rank+1), given by a set of simple roots.

    The chosen simple roots glue the epsilon positions 1..rank+1 into maximal
    consecutive blocks (simple root i joins positions i and i+1); the Levi's
    Weyl group permutes positions within each block.  Choosing all simple
    roots recovers the full Weyl group.  All simple roots are kept as a
    range, and the blocks are built when first read, so a Levi costs nothing
    of size rank until it meets a weight of its rank.
    """

    __slots__ = ("rank", "simples", "_blocks")

    def __init__(self, rank: int, simples: Iterable[int]):
        if rank < 2:
            raise ValueError(f"rank must be at least 2, got {rank}")
        every = range(1, rank + 1)
        if simples != every:
            simples = frozenset(simples)
            if not all(isinstance(s, int) and 1 <= s <= rank for s in simples):
                raise ValueError(f"simple roots must lie in 1..{rank}: {sorted(simples)}")
        self.rank = rank
        self.simples = every if len(simples) == rank else simples
        self._blocks = None

    @classmethod
    def full(cls, rank: int) -> "LeviDatum":
        return cls(rank, range(1, rank + 1))

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        if self._blocks is None:
            blocks: list[tuple[int, ...]] = []
            current = [1]
            for i in range(1, self.rank + 1):
                if i in self.simples:
                    current.append(i + 1)
                else:
                    blocks.append(tuple(current))
                    current = [i + 1]
            blocks.append(tuple(current))
            self._blocks = tuple(blocks)
        return self._blocks

    @property
    def is_full(self) -> bool:
        return len(self.simples) == self.rank

    def is_dominant(self, w: Weight) -> bool:
        if w.rank != self.rank:
            raise ValueError(f"rank mismatch: weight {w.rank}, Levi {self.rank}")
        return all(w.coords[s - 1] >= 0 for s in self.simples)

    def describe(self) -> str:
        if self.is_full:
            return "full"
        return "levi{" + ",".join(str(s) for s in sorted(self.simples)) + "}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LeviDatum)
            and self.rank == other.rank
            and self.simples == other.simples
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.simples))

    def __repr__(self) -> str:
        return f"LeviDatum({self.rank}, {sorted(self.simples)})"


class SignedDominant:
    """Dot-normalization outcome: singular, or a sign and a dominant weight.

    Sign 0 encodes the singular case (the weight plus rho sits on a
    reflection wall); otherwise sign is +1/-1 and dominant is the unique
    dominant representative of the dot orbit.
    """

    __slots__ = ("sign", "dominant")

    def __init__(self, sign: int, dominant: Weight | None = None):
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {sign}")
        if (sign == 0) != (dominant is None):
            raise ValueError("singular outcomes carry no weight, regular ones must")
        self.sign = sign
        self.dominant = dominant

    @classmethod
    def singular(cls) -> "SignedDominant":
        return cls(0)

    @property
    def is_singular(self) -> bool:
        return self.sign == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedDominant)
            and self.sign == other.sign
            and self.dominant == other.dominant
        )

    def __hash__(self) -> int:
        return hash((self.sign, self.dominant))

    def __repr__(self) -> str:
        if self.is_singular:
            return "SignedDominant.singular()"
        return f"SignedDominant({self.sign:+d}, {self.dominant!r})"


def to_epsilon(w: Weight) -> tuple[int, ...]:
    """Epsilon coordinates (e_1, ..., e_{d+1}): e_i - e_{i+1} = coords[i], e_{d+1} = 0."""
    return tuple(accumulate(reversed(w.coords), initial=0))[::-1]


def from_epsilon(eps: Sequence[int]) -> Weight:
    """Weight recovered from epsilon differences; the all-ones shift is irrelevant."""
    return Weight(eps[i] - eps[i + 1] for i in range(len(eps) - 1))


def dot_normalize(mu: Weight, levi: LeviDatum) -> SignedDominant:
    """Normalize mu to the dominant chamber of the Levi under the dot action.

    Works on the epsilon coordinates of mu + rho: a repeated entry inside a
    block means mu is singular for the Levi; otherwise each block is sorted
    strictly decreasing, the sign is the parity of that permutation, and
    rho is subtracted back off.  Uses the full rho even for a proper Levi
    (the difference from the Levi's own rho is invariant under its Weyl
    group, so the normalized pair is unchanged).
    """
    if mu.rank != levi.rank:
        raise ValueError(f"rank mismatch: weight {mu.rank}, Levi {levi.rank}")
    eps = list(to_epsilon(mu + rho(mu.rank)))
    transpositions = 0
    for block in levi.blocks:
        vals = [eps[pos - 1] for pos in block]
        if len(set(vals)) < len(vals):
            return SignedDominant.singular()
        order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
        transpositions += len(order) - _cycle_count(order)
        for pos, i in zip(block, order):
            eps[pos - 1] = vals[i]
    sign = -1 if transpositions % 2 else 1
    return SignedDominant(sign, from_epsilon(eps) - rho(mu.rank))


def _cycle_count(perm: list[int]) -> int:
    """Cycles of a permutation of range(len(perm)); k - cycles has its parity."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def dot_orbit_oracle(mu: Weight) -> SignedDominant:
    """Brute-force dot normalization over the full Weyl group: the slow
    reference that selftest, the tests and the benchmark's checks hold
    dot_normalize to.

    Walks all (d+1)! permutations of the epsilon coordinates of mu + rho
    looking for a strictly decreasing arrangement.  None exists exactly when
    some entry repeats, i.e. when mu is singular.  Deliberately independent
    of the block-sorting code path in dot_normalize.
    """
    if mu.rank > 6:
        raise ValueError(f"orbit search refused for rank {mu.rank} > 6")
    eps = to_epsilon(mu + rho(mu.rank))
    idx = range(len(eps))
    for perm in permutations(idx):
        arranged = tuple(eps[p] for p in perm)
        if all(a > b for a, b in zip(arranged, arranged[1:])):
            inv = sum(
                1 for i in idx for j in idx if i < j and perm[i] > perm[j]
            )
            sign = -1 if inv % 2 else 1
            return SignedDominant(sign, from_epsilon(arranged) - rho(mu.rank))
    return SignedDominant.singular()
