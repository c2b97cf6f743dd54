"""The Jantzen sum formula for SL(d+1) and its standard Levi subgroups.

For a dominant weight lambda, the characters of the Jantzen filtration
layers of the Weyl module V(lambda) add up to

    sum over positive roots alpha, and 0 < m*p < (lambda+rho, alpha^vee), of
        v_p(m*p) * chi(dot reflection of lambda at (alpha, m*p))

where v_p is the p-adic valuation and chi the Weyl character (zero on
singular weights, otherwise a sign times a dominant symbol).  The same
formula over a Levi's positive roots computes the Levi analogue.  The terms
of one root are evaluated together, in closed form on the epsilon
coordinates of lambda + rho, one run of levels at a time: between two
levels where the order of the root's block changes, a term's sign stays
(_terms_at).  A term's dominant weight is read off lambda: sorting the
block moves only the two reflected values, so it is lambda with two slices
moved one place, D[lo-1 : i-2] = lambda[lo : i-1] and D[j+1 : hi] =
lambda[j : hi-1] (0-based, at the root alpha_{lo,hi}), and new coordinates
at most at lo-2, i-2, i-1, j-1, j and hi, given by where the two values
land, place = (i, A, j, B) (_terms_at states the closed form); _placed
puts them into lambda's coordinates, as ints or as texts.  Within a
run i and j stay and A and B move by the level step, so only those six
coordinates step.  The levels l and c - l of a root of pairing c give one
weight with opposite signs, so the total visits only the levels that
p^(v_p(c) + 1) divides, each weighted v_p(l) - v_p(c); it sums each run
whole into rows of coordinates and coefficient, and sorts them once
(jantzen_sum), skipping every root whose block has fewer than two holes
for the two moved values to land on.  The telescope's tails, each the one
that a sum along the lambda sequence must equal, are sorted rows too,
built once for both Levis (_tails); a FormalCharacter is built from rows
(charring._weyl_character) only when a library caller reads one.  The
trace of every term, singular ones included, comes from _walk, one frame
per root holding that root's levels, each run spread back into its
levels, each regular term's dominant weight placed into lambda's
coordinate texts or ints: _trace writes it as text, one term at a time,
for serialize's text and JSON traces, and SumReport.terms builds its
JantzenTerm records when first read.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import cached_property, partial
from itertools import repeat
from operator import sub

from .charring import FormalCharacter, _weyl_character
from .lattice import Root, Weight, rho
from .weyl import LeviDatum, SignedDominant, to_epsilon


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least composite that is a strong probable prime to every base above
# (Sorenson and Webster, Math. Comp. 86 (2017)); below it the test is exact
_PRIMALITY_BOUND = 318665857834031151167461

# Most (root, m) terms one Jantzen sum may have.  Time and memory grow with
# the count: `jantzen --p 2 --d 2 --lambda 100000,0`, the largest such call
# admitted (100 000 terms, a total of 75 000 rows), peaks at 24 MB of RSS
# (Python 3.11 on Linux) as text, --json, --trace and --trace --json alike,
# and takes 0.07, 0.07, 0.31 and 0.31 s in those forms (best of 7 on a
# 2-CPU host), of which the sum itself takes about 14 ms; its runs are
# long, and a traced level costs one placement of its dominant weight.
# The largest benchmark call has 20 000 terms; at d = 30 with every
# coordinate 15 there are about 40 000 at p = 2.  A sum that the Levi's
# block sizes alone show to be too large is refused before lam + rho is put
# in epsilon coordinates, and in prop-char before anything of rank d is
# built: `prop-char --p 3 --d 1000000` exits 2 in 0.04 s and 14 MB.
TERM_LIMIT = 100_000

# Most coordinates that the lambda sequence, (r - 1) * d of them, or a
# prop-char check's sums and tails, about (r - 1)^2 * (d + 1), may hold,
# r being min(d, p); more are refused before any weight is built.  Near
# the bound, `sequence --p 3 --d 1250000` peaks at 129 MB of RSS in 0.51 s
# and `prop-char --p 131 --d 146` at 35 MB in 0.72 s (best of 3, Python
# 3.11 on a 2-CPU host); unrefused, `prop-char --p 29983 --d 29983` died
# of MemoryError under a 2 GB address-space cap after 25 s.  The bound
# holds memory, not time: past d = p each sum has more terms, each within
# TERM_LIMIT, and `prop-char --p 89 --d 321` takes 1.6 s at 37 MB (best
# of 3), most of it listing and counting the roots that have no two holes.
COORD_LIMIT = 2_500_000


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
    """Largest e with p^e dividing x; p must be at least 2, x nonzero."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


class JantzenTerm(namedtuple("JantzenTerm", "root m level t valuation image outcome")):
    """One (root, m) contribution, kept even when singular for traceability:
    level is m * p, the reflection level; t is (lam+rho, root^vee) - level,
    as the reflection drops t copies of the root; valuation is v_p(level),
    at least 1; image is the reflected weight, before normalization, and
    outcome its SignedDominant."""

    __slots__ = ()


class SumReport:
    """Evaluation record of one Jantzen sum: the total, as the rows of
    jantzen_sum and as a FormalCharacter on demand, and the trace on demand."""

    def __init__(self, lam: Weight, p: int, levi: LeviDatum, rows: list[tuple[int, ...]]):
        self.lam = lam
        self.p = p
        self.levi = levi
        self.rows = rows

    @cached_property
    def total(self) -> FormalCharacter:
        return _weyl_character(self.levi, self.rows)

    @cached_property
    def terms(self) -> tuple[JantzenTerm, ...]:
        """Every (root, m) term, singular ones included, in root then m order.

        Built on first read by walking the sum again (_walk: for each root,
        its levels, each regular term's dominant weight as lam's
        coordinates with two slices moved one place and at most six new
        ones put in, _placed), and kept.  The written traces stream from _trace
        instead; selftest's jantzen-vs-reference check reads it, to compare
        it with the reference trace (oracle.reference_jantzen), and so do
        perfbench/tracer.py (which counts terms) and the tests.
        """
        lam, p = self.lam, self.p
        coords, d = lam.coords, lam.rank
        singular = SignedDominant.singular()
        terms = []
        for lo, hi, c, levels in _walk(lam, p, self.levi, int):
            root, change = Root(lo, hi), _image_change(lo, hi, d)
            for level, valuation, sign, dominant in levels:
                t = c - level
                image = list(coords)
                for i, k in change.items():
                    image[i] += k * t
                outcome = SignedDominant(sign, Weight(dominant)) if sign else singular
                image = Weight(image)
                terms.append(JantzenTerm(root, level // p, level, t, valuation, image, outcome))
        return tuple(terms)


def jantzen_sum(lam: Weight, p: int, levi: LeviDatum) -> SumReport:
    """Evaluate the Jantzen sum of lam over the Levi's positive roots.

    Accumulates the valuation-weighted signed dominant symbols of every
    admissible (root, m) pair; singular terms contribute nothing.  The
    report's trace of terms is built only when it is read.  Raises
    ValueError for a p that is not prime, a rank mismatch, a weight that is
    not dominant for the Levi, or a sum of more than TERM_LIMIT terms.

    The sum goes root by root through _terms_at, run by run, writes each
    nonzero coefficient once in a row (*coords, coeff), adding nothing up,
    and sorts the rows once, coordinates (distinct) in reverse-lexicographic
    order.  A row's coordinates are lam's with the run's place put in
    (_placed: two slices of lam moved one place and at most six new
    coordinates, see _terms_at), with no per-root head or tail.  A run of
    one level gives one row; a longer run's rows are zipped from a column
    per coordinate, a range where its dominant weight moves, stepping as
    from the run's first level to its second (A and B of the place one
    step on), and a repeat elsewhere, and one of coefficients from the
    valuations of its levels (_stepped, _valuations), so no row is worked
    out on its own.

    At a root of pairing c, let e = v_p(c) and q = p^(e + 1): the root's
    share of the sum is that of (v_p(l) - e) * chi(l) over the levels l in
    range(q, c, q).  The levels l and c - l give one dominant weight with
    opposite signs (see _terms_at), so take the levels in pairs {l, c - l}:
    if v_p(l) < e, then v_p(c - l) = v_p(l) and the pair
    cancels; if both valuations are e, it cancels; otherwise exactly one of
    the two, l, has v_p(l) > e, so q divides l, and its partner has
    valuation e, so the pair gives (v_p(l) - e) * chi(l).  Level c/2, if
    there is one, is no multiple of q.  When p does not divide c, e is 0
    and these are all the levels, each weighted v_p(l).  No key repeats
    within a root, as q divides l but not c - l; nor does a dominant weight
    come from two roots: its block is the root's block with x_lo and
    x_{hi+1} taken out and two values not in the block put in, so the two
    taken out name the root.

    A regular term puts u and v (see _terms_at) on two distinct holes: of
    the c - 1 integers strictly between x_{hi+1} and x_lo, the hi - lo
    values of mid leave c - (hi - lo + 1).  A root with fewer than two has
    only singular terms and is skipped; _roots still counts its terms
    against TERM_LIMIT, and _walk still traces them.
    """
    _check_prime(p)
    if not levi.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant for {levi.describe()}")
    x, z, roots = _roots(lam, p, levi)
    coords = list(lam.coords)
    rows: list[tuple[int, ...]] = []
    for lo, hi, c in roots:
        if c - (hi - lo + 1) < 2:  # fewer than two holes: every term singular
            continue
        e = p_adic_valuation(p, c)
        q = p ** (e + 1)
        # every key is dominant for the Levi
        for level, count, sign, place in _terms_at(x, lo, hi, range(q, c, q)):
            if not sign:
                continue
            dominant = _placed(coords, z, lo, hi, int, *place)
            if count == 1:
                rows.append((*dominant, sign * (_valuation(p, level) - e)))
                continue
            i, a, j, b = place
            step = q if 2 * level > c else -q
            following = _placed(coords, z, lo, hi, int, i, a + step, j, b - step)
            coeffs = _valuations(p, level, count, q)
            coeffs = map(sub, coeffs, repeat(e)) if sign > 0 else map(sub, repeat(e), coeffs)
            rows.extend(_stepped(dominant, following, count, coeffs))
    rows.sort(reverse=True)
    return SumReport(lam, p, levi, rows)


def _valuations(p: int, level: int, count: int, step: int) -> list[int]:
    """[v_p(level + k * step) for k < count], step being a power of p and
    level > 0 a multiple of step, as the first level of a run of jantzen_sum
    is: every level has valuation at least e while p^e divides step; past
    that, p^e divides level + k * step for k in one class mod p^e / step,
    or for none."""
    out = [0] * count
    e, power = 0, 1
    while True:
        e, power = e + 1, power * p
        if step % power == 0:
            out = [e] * count
            continue
        stride = power // step
        first = -(level // step) % stride
        if first >= count:
            return out
        out[first::stride] = [e] * len(range(first, count, stride))


def _roots(lam: Weight, p: int, levi: LeviDatum) -> tuple[tuple[int, ...], tuple, list]:
    """(x, z, [(lo, hi, c) of every root with a term, in root order]), x
    being epsilon(lam + rho), c = (lam + rho, root^vee) = x_lo - x_{hi+1},
    and z the three shifts of x that _placed builds dominant weights from.
    Raises ValueError, before any level is met, when the sum has more than
    TERM_LIMIT terms, and before x is built if _check_blocks shows it."""
    _check_blocks([len(block) - 1 for block in levi.blocks], p, levi)
    x = to_epsilon(lam + rho(lam.rank))  # x[i - 1] is x_i
    neg = [-e for e in x]  # ascending within each block, for bisect
    roots = []
    count = 0
    for block in levi.blocks:
        a, b = block[0], block[-1]
        for lo in range(a, b):
            xl = x[lo - 1]
            # c = xl - x[hi] grows with hi, and a root with c <= p has no term
            for hi in range(bisect_right(neg, p - xl, lo, b), b):
                c = xl - x[hi]
                roots.append((lo, hi, c))
                count += (c - 1) // p
                _check_term_count(count, p, levi)
    z = tuple(tuple(e + j + shift for j, e in enumerate(x)) for shift in (-1, 0, 1))
    return x, z, roots


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _check_blocks(sizes: list[int], p: int, levi: LeviDatum) -> None:
    """Refuse a sum over blocks of these numbers of simple roots that they
    alone show to have more than TERM_LIMIT terms: a root of k simple roots
    pairs with lam + rho to c >= k, so has at least (k - 1) // p terms, and
    a block of b simple roots has b - k + 1 roots of k, of which
    (b - mp)(b - mp + 1) / 2 have k > mp, for each m >= 1."""
    count = 0
    for rest in (rest for b in sizes for rest in range(b - p, 0, -p)):  # b - mp
        count += rest * (rest + 1) // 2
        _check_term_count(count, p, levi)


def _check_term_count(count: int, p: int, levi: LeviDatum) -> None:
    if count > TERM_LIMIT:
        raise ValueError(
            f"the Jantzen sum at rank d={levi.rank}, p={p}, levi={levi.describe()} "
            f"has more than {TERM_LIMIT} terms; refused"
        )


def _check_coords(what: str, count: int) -> None:
    if count > COORD_LIMIT:
        raise ValueError(f"{what} has more than {COORD_LIMIT} coordinates; refused")


def _terms_at(x: tuple[int, ...], lo: int, hi: int, levels: range):
    """Yield (level, count, sign, place) for each run of the rising
    progression of levels at the root e_lo - e_{hi+1}, x being
    epsilon(lam + rho): the count levels from level on, step levels.step
    apart, share sign and the order of their block.  sign is 0 for a
    singular term, always a run of one, whose place is None; otherwise it is
    the sign of the dot normalization, and place = (i, A, j, B) where the
    two moved values land at the run's first level, from which _placed
    builds the dominant weight.

    x is strictly decreasing within the block; let c = x_lo - x_{hi+1}.  The
    reflection at level l, 0 < l < c, changes x in two places only:
    u = x_{hi+1} + l at lo and v = x_lo - l at hi+1, both strictly between
    x_{hi+1} and x_lo.  So the image is singular exactly when u = v or u or
    v is a value of mid = x_{lo+1..hi}.  Otherwise sorting the block moves u
    past #{mid > u} values and v past #{mid < v}, and the two past each
    other when u < v: the sign is -1 to the number of these transpositions.
    The levels l and c - l give the pair {u, v} swapped, one transposition
    apart: one dominant weight of opposite signs.  As l rises u rises and v
    falls, so the insertion points iu and iv each move one way.

    Of u and v, the larger, a, put before x[i], takes the (0-based) place
    i - 1 of the sorted block, and the smaller, b, put before x[j], place j,
    with lo <= i <= j <= hi.  The weight's coordinates are the differences,
    less 1, of epsilon; with z[k][m] = x[m] + m + k - 1 (z from _roots,
    below, at and above for k = 0, 1, 2), the value x[m] plus the place it
    takes when sorting moves it k - 1 places on, they are the differences of
    the sorted block's z values.  The values of mid before place i - 1 move
    one place back (below), those past place j one on (above), and the rest
    stay (at); A = a + i - 1 and B = b + j are the z values of a and b.  So
    the dominant weight D equals lam but for two slices moved one place,
    D[lo-1 : i-2] = lam[lo : i-1] and D[j+1 : hi] = lam[j : hi-1], and at
    most six new coordinates (0-based, d the rank):
        D[lo-2] = at[lo-2] - (below[lo] if i > lo else A), when lo >= 2;
        D[i-2]  = below[i-1] - A, when i > lo;
        D[i-1]  = A - (at[i] if j > i else B);
        D[j-1]  = at[j-1] - B, when j > i;
        D[j]    = B - (above[j] if j < hi else at[hi+1]), when j < hi or hi < d;
        D[hi]   = above[hi-1] - at[hi+1], when j < hi and hi < d.

    Between two levels where u or v meets a value of mid, or where u and v
    pass each other, the order of the block stays, so i and j stay, and A
    and B move by the level step, A up and B down past c/2, where u is the
    larger, and the other way before it: only the six new coordinates step.
    A run so ends before the first level where u reaches x[iu - 1], v
    reaches x[iv], or u, below v, meets or passes v, or where the
    progression ends.
    """
    xl, xh = x[lo - 1], x[hi]
    # x[lo:iu] are the values of mid above u, x[lo:iv] those above v; as
    # xl > u, v > xh, neither pointer runs past mid, and x[iu] = u or
    # x[iv] = v only at a value of mid
    iu, iv = hi, lo
    level, stop, step = levels.start, levels.stop, levels.step
    while level < stop:
        u, v = xh + level, xl - level
        while x[iu - 1] <= u:
            iu -= 1
        while x[iv] > v:
            iv += 1
        if u == v or x[iu] == u or x[iv] == v:
            yield level, 1, 0, None
            level += step
            continue
        place = (iu, u + iu - 1, iv, v + iv) if u > v else (iv, v + iv - 1, iu, u + iu)
        sign = -1 if (iu - lo + hi - iv + (u < v)) % 2 else 1
        # most often u or v meets mid at the next level: test that first
        if not (u + step < x[iu - 1] and v - step > x[iv]):
            yield level, 1, sign, place
            level += step
            continue
        room = min(x[iu - 1] - u, v - x[iv], stop - level)
        if u < v:
            room = min(room, (v - u + 1) // 2)
        count = 1 + (room - 1) // step
        yield level, count, sign, place
        level += count * step


def _placed(base: list, z: tuple, lo: int, hi: int, form, i: int, a: int, j: int, b: int) -> list:
    """base, lam's coordinates as ints or as their texts, with the dominant
    weight of a regular term at the root alpha_{lo,hi} put in: the two
    slices that move one place copied from base, and the at most six new
    coordinates that _terms_at's place (i, a, j, b) = (i, A, j, B) gives
    made by form (int or str)."""
    below, at, above = z
    out = base.copy()
    if i > lo:
        out[lo - 1 : i - 2] = base[lo : i - 1]
        out[i - 2] = form(below[i - 1] - a)
        first = below[lo]
    else:
        first = a
    if lo > 1:
        out[lo - 2] = form(at[lo - 2] - first)
    if j > i:
        out[i - 1] = form(a - at[i])
        out[j - 1] = form(at[j - 1] - b)
    else:
        out[i - 1] = form(a - b)
    if j < hi:
        out[j + 1 : hi] = base[j : hi - 1]
        out[j] = form(b - above[j])
        if hi < len(base):
            out[hi] = form(above[hi - 1] - at[hi + 1])
    elif hi < len(base):
        out[j] = form(b - at[hi + 1])
    return out


def _stepped(first: list, following: list, count: int, coeffs):
    """The count rows of a run of _terms_at, zipped from one column per
    coordinate and then the coefficients: a coordinate that differs
    between first and following, the dominant weights at the run's first
    and second levels, steps by that difference from each row to the next."""
    columns = [
        range(a, a + count * (b - a), b - a) if a != b else repeat(a, count)
        for a, b in zip(first, following)
    ]
    return zip(*columns, coeffs)


def _walk(lam: Weight, p: int, levi: LeviDatum, form):
    """Yield (lo, hi, c, levels) once for each root alpha_{lo,hi} with a
    term, in root order: c is (lam + rho, root^vee), and levels yields
    (level, valuation, sign, dominant) for every level of the root, rising,
    singular ones included, with sign as _terms_at gives it and dominant
    the term's dominant weight as a list of coordinates made by form (int
    or str), None for a singular term, each run spread back into its
    levels.  lam must be dominant for the Levi.  Raises ValueError, before
    the first root, when the sum has more than TERM_LIMIT terms."""
    x, z, roots = _roots(lam, p, levi)
    base = [form(a) for a in lam.coords]
    for lo, hi, c in roots:
        runs = _terms_at(x, lo, hi, range(p, c, p))
        yield lo, hi, c, _levels(p, c, runs, partial(_placed, base, z, lo, hi, form))


def _levels(p: int, c: int, runs, put):
    """(level, valuation, sign, put(*place)) for every level of the runs of
    one root of pairing c, at step p, with None for put(*place) at a
    singular level: across a run, A of the place rises by p and B falls by
    p past c/2, and the other way before it (see _terms_at)."""
    for level, count, sign, place in runs:
        if count == 1:
            yield level, _valuation(p, level), sign, put(*place) if sign else None
            continue
        i, a, j, b = place
        step = p if 2 * level > c else -p
        for level, valuation, a, b in zip(
            range(level, level + count * p, p),
            _valuations(p, level, count, p),
            range(a, a + count * step, step),
            range(b, b - count * step, -step),
        ):
            yield level, valuation, sign, put(i, a, j, b)


def _valuation(p: int, level: int) -> int:
    """v_p(level) of a level, a multiple of p: 1 unless p^2 divides it."""
    return p_adic_valuation(p, level) if level % (p * p) == 0 else 1


def _image_change(lo: int, hi: int, d: int) -> dict[int, int]:
    """{i: k}, in increasing i: the image lam - t * root of a term at the root
    alpha_{lo,hi} is lam plus k * t at each 0-based coordinate i and lam
    elsewhere, as the root is -1, +1, +1, -1 at lo-1, lo, hi, hi+1 (lo = hi
    adds up to +2)."""
    change = {lo - 2: 1} if lo > 1 else {}
    change[lo - 1] = -1
    change[hi - 1] = change.get(hi - 1, 0) - 1
    if hi < d:
        change[hi] = 1
    return change


def _trace(report: SumReport, term: str, weight: str, regular: str, singular: str):
    """Yield the text of every term of the report's sum, one per piece, in
    _walk order (that of SumReport.terms), in the %-template forms given:
    weight takes comma-separated coordinates, regular a sign and a weight,
    and singular is the singular outcome; term is filled once per root and
    valuation from the named fields lo, hi, valuation and image, and then
    takes m, level, t, the image coordinates _image_change names, and the
    outcome.  Each root's frame writes the image but for those coordinates
    once; each regular term's dominant weight is the texts of lam's
    coordinates with two slices moved one place and at most six new
    coordinates written (_placed), joined once.
    """
    lam, p = report.lam, report.p
    coords, d = lam.coords, lam.rank
    written = [str(c) for c in coords]
    forms = {1: regular % (1, weight), -1: regular % (-1, weight)}
    for lo, hi, c, levels in _walk(lam, p, report.levi, str):
        change = _image_change(lo, hi, d)
        slots = [(coords[i], k) for i, k in change.items()]
        image = list(written)
        for i in change:
            image[i] = "%d"
        fields = {"lo": lo, "hi": hi, "image": weight % ",".join(image)}
        # by valuation (at most 1 + log_p(TERM_LIMIT)), which the template
        # holds so that a form may place it anywhere among m, level and t
        templates = [None] * 64
        for level, valuation, sign, dominant in levels:
            template = templates[valuation]
            if template is None:
                fields["valuation"] = valuation
                template = templates[valuation] = term % fields
            t = c - level
            outcome = forms[sign] % ",".join(dominant) if sign else singular
            yield template % (level // p, level, t, *[b + k * t for b, k in slots], outcome)


def lambda_sequence(p: int, d: int) -> list[Weight]:
    """The telescope weights lambda_0, ..., lambda_{r-2}, r = min(d, p):
    lambda_i = i*omega_1 + (p-2-i)*omega_2 + omega_{3+i}, with omega_{d+1} = 0.

    These are the weights whose Jantzen sums telescope into each other.
    Raises ValueError for d < 3, p < 2 or more than COORD_LIMIT
    coordinates, (r - 1) * d of them, before any weight is built.
    """
    if d < 3:
        raise ValueError(f"the sequence needs d >= 3, got {d}")
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    _check_coords(f"the lambda sequence at p={p}, d={d}", (min(d, p) - 1) * d)
    # omega_{3+i} is coordinate 2+i, which the slice to d drops at 3+i = d+1
    return [Weight(([i, p - 2 - i] + [0] * i + [1] + [0] * d)[:d]) for i in range(min(d, p) - 1)]


def _tails(seq: list[Weight]) -> list[list[tuple[int, ...]]]:
    """[seq_k] - [seq_{k+1}] + [seq_{k+2}] - ... for k = 1, ..., len(seq),
    each as rows (*coords, coeff) sorted as jantzen_sum sorts its own: the
    tail that the sum of seq_{k-1} telescopes to, at index k - 1; the last
    has none.  The weights of seq are distinct and dominant, so the rows
    are those of a character in the Weyl basis of any Levi.  Each weight
    has one row per sign, which every tail shares."""
    signed = [((*lam.coords, 1), (*lam.coords, -1)) for lam in seq]
    return [
        sorted((signed[j][(j - k) % 2] for j in range(k, len(seq))), reverse=True)
        for k in range(1, len(seq) + 1)
    ]


class PropCharCheck(namedtuple("PropCharCheck", "i levi passed tail report")):
    """One (i, Levi) comparison of a Jantzen sum, report, against its
    alternating tail, which it keeps as rows (*coords, coeff)."""

    __slots__ = ()


class PropCharReport(namedtuple("PropCharReport", "p d checks")):
    """The PropCharChecks of the telescope at p and d."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_prop_char(p: int, d: int) -> PropCharReport:
    """Check the telescoping of Jantzen sums along the lambda sequence.

    For every i, the Jantzen sum of lambda_i over the full group must equal
    the alternating tail of Weyl symbols, and the same must hold over the
    Levi generated by the simple roots 2..d.  Failures are recorded, not
    raised; each check keeps its sum's report, and with it the term trace.
    The tails are built once, as rows, for both Levis, and a check compares
    the sum's rows with its tail's, sorted the same way, so no character
    is built unless a caller reads one.
    lambda_sequence refuses d < 3 and p < 2.  Past those, a composite p, a
    first sum that the full group's block shows to have too many terms (the
    refusal that sum would give) and a check of more than COORD_LIMIT
    coordinates, about (r - 1)^2 * (d + 1) for its sums and tails, are
    refused in that order, before anything of rank d is built.
    """
    if d >= 3 and p >= 2:
        _check_prime(p)
        _check_blocks([d], p, LeviDatum.full(d))
        _check_coords(f"the telescope at p={p}, d={d}", (min(d, p) - 1) ** 2 * (d + 1))
    seq = lambda_sequence(p, d)
    levis = (LeviDatum.full(d), LeviDatum(d, range(2, d + 1)))
    tails = _tails(seq)
    checks = []
    for i, lam in enumerate(seq):
        for levi in levis:
            report, tail = jantzen_sum(lam, p, levi), tails[i]
            checks.append(PropCharCheck(i, levi, report.rows == tail, tail, report))
    return PropCharReport(p=p, d=d, checks=checks)
