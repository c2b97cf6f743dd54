"""Slow ground-truth implementations, used only by tests, selftest and the
benchmark's checks.

These are deliberately naive: explicit backtracking over tableau fillings,
bialternant determinants with exact integer division, orbit sums over
distinct permutations, and the Jantzen sum one (root, level) term at a
time, each reflected and normalized in full.  The first three share no
code with the fast paths they check.  reference_jantzen shares with
jantzen_sum only the epsilon coordinates and the valuation
(weyl.to_epsilon and jantzen.p_adic_valuation), and leans on
weyl.from_epsilon and weyl.dot_normalize, which jantzen_sum does not call;
selftest's normalize-vs-orbit check holds dot_normalize, to_epsilon and
from_epsilon to weyl.dot_orbit_oracle.
"""

from collections import Counter
from collections.abc import Sequence
from itertools import combinations_with_replacement

from .jantzen import JantzenTerm, p_adic_valuation
from .lattice import Partition, Weight, rho
from .weyl import LeviDatum, dot_normalize, from_epsilon, to_epsilon

# a specialization point: one integer per variable
IntegerPoint = Sequence[int]

SSYT_SIZE_CAP = 10


def enumerate_ssyt(shape: Partition, content: Partition) -> int:
    """Count semistandard tableaux by filling cells one by one.

    Rows must weakly increase, columns strictly increase, and value v must be
    used exactly content[v-1] times.  Refuses sizes above the cap; this is an
    oracle, not a library routine.
    """
    if shape.size != content.size:
        raise ValueError(f"size mismatch: |{shape}| != |{content}|")
    if shape.size > SSYT_SIZE_CAP:
        raise ValueError(f"size {shape.size} above oracle cap {SSYT_SIZE_CAP}")
    if shape.size == 0:
        return 1
    rows = shape.parts
    remaining = list(content.parts)
    nvals = len(remaining)
    cells = [(r, c) for r in range(len(rows)) for c in range(rows[r])]
    grid = [[0] * rows[r] for r in range(len(rows))]
    count = 0

    def fill(pos: int) -> None:
        nonlocal count
        if pos == len(cells):
            count += 1
            return
        r, c = cells[pos]
        left = grid[r][c - 1] if c > 0 else 1
        above = grid[r - 1][c] + 1 if r > 0 else 1
        for v in range(max(left, above), nvals + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            grid[r][c] = v
            fill(pos + 1)
            remaining[v - 1] += 1
        grid[r][c] = 0

    fill(0)
    return count


def _det(matrix: list[list[int]]) -> int:
    """Bareiss fraction-free elimination; exact for integer matrices."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def eval_schur_bialternant(lam: Partition, point: IntegerPoint) -> int:
    """Evaluate the Schur function as a ratio of alternants, exactly.

    Numerator det(x_i^(lam_j + n - j)) over the Vandermonde determinant,
    both computed in exact integer arithmetic; a nonzero remainder in the
    final division signals an arithmetic bug and is a hard failure.
    """
    xs = tuple(point)
    n = len(xs)
    if lam.length > n:
        raise ValueError(f"{lam} needs at least {lam.length} variables, got {n}")
    if len(set(xs)) < n:
        raise ValueError(f"coordinates must be distinct: {xs}")
    padded = lam.parts + (0,) * (n - lam.length)
    numerator = _det([[x ** (padded[j] + n - 1 - j) for j in range(n)] for x in xs])
    vandermonde = _det([[x ** (n - 1 - j) for j in range(n)] for x in xs])
    quotient, remainder = divmod(numerator, vandermonde)
    if remainder != 0:
        raise ArithmeticError(
            f"bialternant division left remainder {remainder} for {lam} at {xs}"
        )
    return quotient


def eval_monomial(lam: Partition, point: IntegerPoint) -> int:
    """Evaluate the monomial symmetric function: the orbit sum of x^lam.

    Sums over distinct permutations of lam padded with zeros; vanishes when
    there are fewer variables than parts.
    """
    xs = tuple(point)
    n = len(xs)
    if lam.length > n:
        return 0
    padded = lam.parts + (0,) * (n - lam.length)
    total = 0
    for exponents in _distinct_permutations(padded):
        product = 1
        for x, e in zip(xs, exponents):
            product *= x**e
        total += product
    return total


def _distinct_permutations(values: tuple[int, ...]):
    """Yield each distinct arrangement of values exactly once."""
    pool = sorted(set(values), reverse=True)
    counts = {v: values.count(v) for v in pool}
    current: list[int] = []

    def build():
        if len(current) == len(values):
            yield tuple(current)
            return
        for v in pool:
            if counts[v] == 0:
                continue
            counts[v] -= 1
            current.append(v)
            yield from build()
            current.pop()
            counts[v] += 1

    yield from build()


def reference_jantzen(lam: Weight, p: int, levi: LeviDatum) -> tuple[tuple[JantzenTerm, ...], dict]:
    """The Jantzen sum the generic way: (trace, {dominant weight: coefficient}).

    Every (root, level) term of the Levi's positive roots, in root then
    level order, singular ones included, is dot-reflected (_dot_reflect)
    and normalized in full by dot_normalize, with no closed form; the total
    drops zero coefficients.  No input is checked: lam should be dominant
    for the Levi and p prime.
    """
    d, x = lam.rank, to_epsilon(lam + rho(lam.rank))  # x[i - 1] is x_i
    terms, total = [], Counter()
    for lo, hi in combinations_with_replacement(range(1, d + 1), 2):  # lo <= hi
        if all(s in levi.simples for s in range(lo, hi + 1)):  # alpha_{lo,hi} is the Levi's
            c, root = x[lo - 1] - x[hi], (lo, hi)  # c = (lam + rho, root^vee)
            for level in range(p, c, p):
                image = _dot_reflect(lam, lo, hi, level)
                outcome, v = dot_normalize(image, levi), p_adic_valuation(p, level)
                terms.append(JantzenTerm(root, level // p, level, c - level, v, image, outcome))
                if outcome.sign:
                    total[outcome.dominant] += outcome.sign * v
    return tuple(terms), {mu: k for mu, k in total.items() if k}


def _dot_reflect(lam: Weight, lo: int, hi: int, level: int) -> Weight:
    """The dot image of lam under the reflection in the root alpha_{lo,hi}
    at the level: on the epsilon coordinates x of lam + rho, x_lo becomes
    x_{hi+1} + level and x_{hi+1} becomes x_lo - level; rho is then taken
    back off.  Level 0 is the plain reflection s_alpha."""
    x = list(to_epsilon(lam + rho(lam.rank)))
    x[lo - 1], x[hi] = x[hi] + level, x[lo - 1] - level
    return from_epsilon(x) - rho(lam.rank)
