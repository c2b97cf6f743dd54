"""Seeded command lines for the benchmark workloads.

Every command is an argv list for `python -m jansum`; the program receives
nothing but these lists.  The same seed always gives the same lists.  Where a
seed could change how much work a command does, the inputs are drawn so that
the work stays fixed and only the values change (see README.md): the
benchmark compares medians across seeds, so a seed must not pick the size.

`tiny=True` shrinks every workload to a few small commands with the same
shape, for the benchmark's own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("identity", "jantzen", "session")

# the cost every later command pays, timed after the workload in its cache state
PROBE = ("sequence", "--p", "5", "--d", "5")
PROBES_PER_PASS = 3

# Extra launches of the first command per pass, each on its own fresh empty
# cache and spread evenly through the pass, so that first_result_s is a mean
# over several moments of a run and not one short sample.  identity's first
# command runs for several seconds, which is sample enough.
FIRST_SAMPLES = {"identity": 0, "jantzen": 1, "session": 3}

PROP_CHAR_MATRIX = ((2, 3), (3, 3), (3, 4), (5, 5), (5, 7), (7, 6))


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    role: str  # "work" is timed as the workload, "probe" as set-up,
    # "first" as another sample of the first result


def build(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    """The commands of one pass: the workload's, with the extra first-result
    samples among them, then the set-up probes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    work = {"identity": _identity, "jantzen": _jantzen, "session": _session}[workload](
        rng, tiny
    )
    out = [Command(tuple(argv), "work") for argv in work]
    extra = FIRST_SAMPLES[workload]
    for k in range(extra, 0, -1):
        out.insert(k * len(work) // (extra + 1), Command(out[0].argv, "first"))
    return out + [Command(PROBE, "probe")] * PROBES_PER_PASS


def _identity(rng: random.Random, tiny: bool) -> list[list[str]]:
    # Acceptance criteria 2 and 1 (the latter on the JSON path), then the
    # stretch size.  These have no free input, and the stretch n is fixed:
    # n sets the size of the cache every later command loads, so drawing it
    # from the seed moved peak RSS and set-up time between seeds by more
    # than their bounds.
    top, first_top, stretch = (8, 4, 9) if tiny else (30, 12, 32)
    return [
        ["sweep", "2", str(top), "--which", "second", "--jobs", "1"],
        ["sweep", "2", str(first_top), "--which", "first", "--jsonl", "--jobs", "1"],
        ["identity", "--n", str(stretch), "--which", "second"],
    ]


def _jantzen(rng: random.Random, tiny: bool) -> list[list[str]]:
    # coordinates up to 3, not 15, and 20000 levels, not 40000..60000:
    # with those a pass took about 40 s on a slow 2-CPU machine; these sizes
    # keep it near 8 s, so that a run usually repeats it three times and
    # each command's mean time is a steady figure
    d, top, levels = (5, 4, 300) if tiny else (30, 3, 20000)
    # Many levels at low rank.  Its input is fixed: splitting the levels
    # between the two coordinates keeps the term count but moved its peak
    # RSS between 60 and 74 MB (at 50000 levels).  It runs first, so the first result is the
    # same work for every seed.
    out = [["jantzen", "--p", "2", "--d", "2", "--lambda", f"{levels},0", "--json"]]
    full = range(1, d + 1)
    levi = range(2, d + 1)
    for p in (3, 5, 7):
        for _ in range(2):
            lam = _fixed_size_weight(rng, d, top, p, (full, levi))
            base = ["jantzen", "--p", str(p), "--d", str(d), "--lambda", _join(lam)]
            for extra in ([], ["--levi", _join(levi)]):
                out.append(base + extra + ["--json"])
                out.append(base + extra + ["--trace", "--json"])
    for p, dd in PROP_CHAR_MATRIX[: 2 if tiny else None]:
        out.append(["prop-char", "--p", str(p), "--d", str(dd)])
    return out


def _term_count(lam, p: int, simples) -> int:
    """Number of (root, m) terms of the Jantzen sum of lam for a Levi."""
    d = len(lam)
    count = 0
    for lo in range(1, d + 1):
        c = 0
        for hi in range(lo, d + 1):
            if hi not in simples:
                break
            c += lam[hi - 1] + 1
            count += (c - 1) // p
    return count


def _fixed_size_weight(rng: random.Random, d: int, top: int, p: int, levis) -> list[int]:
    """A random dominant weight, coordinates in 0..top, whose term count for
    each Levi is within 0.5% of that of the middle weight.  Term counts
    (and so run time) of independent draws vary by about 10%; fixing them
    keeps each command's time, and the order statistics of a run, the same
    across seeds."""
    middle = [top // 2 + i % 2 for i in range(d)]
    targets = [_term_count(middle, p, set(s)) for s in levis]
    while True:
        lam = [rng.randint(0, top) for _ in range(d)]
        if all(abs(_term_count(lam, p, set(s)) - t) <= max(1, t // 200)
               for s, t in zip(levis, targets)):
            return lam


def _session(rng: random.Random, tiny: bool) -> list[list[str]]:
    # 32 short commands, not 40: a pass then takes about 8 s, and a run
    # usually repeats it three times
    kinds = {
        "kostka": 5,
        "schur": 5,
        "normalize": 5,
        "identity": 5,
        "jantzen": 5,
        "sequence": 3,
        "multiplicity": 3,
        "selftest": 1,
    }
    order = [kind for kind, count in kinds.items() for _ in range(1 if tiny else count)]
    rng.shuffle(order)
    out = [["sweep", "2", "8" if tiny else "20", "--which", "second", "--jobs", "1"]]
    seen = dict.fromkeys(kinds, 0)  # each kind's commands so far
    for kind in order:
        out.append(_SESSION_COMMANDS[kind](rng, seen[kind]))
        seen[kind] += 1
    return out


def _kostka(rng: random.Random, i: int) -> list[str]:
    lam = rng.choice(partitions(rng.randint(4, 10)))
    mu = rng.choice([m for m in partitions(sum(lam)) if dominated(m, lam)])
    return ["kostka", "--lambda", _join(lam), "--mu", _join(mu)]


def _schur(rng: random.Random, i: int) -> list[str]:
    return ["schur", "--lambda", _join(rng.choice(partitions(rng.randint(4, 10))))]


def _normalize(rng: random.Random, i: int) -> list[str]:
    d = rng.randint(2, 6)
    argv = ["normalize", "--d", str(d), "--coords", _join(rng.randint(-6, 6) for _ in range(d))]
    return argv + _maybe_levi(rng, d)


def _identity_short(rng: random.Random, i: int) -> list[str]:
    # alternate the families, so that every seed runs as many of each (the
    # first family grows the cache, the second's n are cached by the sweep);
    # the first is capped at n = 8 because n = 12 triples the cache, and
    # where it fell in the seeded order would then decide most of the run's time
    if i % 2:
        return ["identity", "--n", str(rng.randint(2, 8)), "--which", "first"]
    return ["identity", "--n", str(rng.randint(2, 12)), "--which", "second"]


def _jantzen_short(rng: random.Random, i: int) -> list[str]:
    d = rng.randint(2, 6)
    p = rng.choice([2, 3, 5, 7])
    lam = [rng.randint(0, 4) for _ in range(d)]
    argv = ["jantzen", "--p", str(p), "--d", str(d), "--lambda", _join(lam), "--trace"]
    return argv + _maybe_levi(rng, d)


def _sequence(rng: random.Random, i: int) -> list[str]:
    return ["sequence", "--p", str(rng.choice([3, 5, 7])), "--d", str(rng.randint(3, 6))]


def _multiplicity(rng: random.Random, i: int) -> list[str]:
    # the check needs d >= 2p - 2
    p, d = rng.choice([(3, rng.randint(4, 6)), (5, rng.randint(8, 9))])
    return ["multiplicity", "--p", str(p), "--d", str(d)]


def _selftest(rng: random.Random, i: int) -> list[str]:
    return ["selftest"]


_SESSION_COMMANDS = {
    "kostka": _kostka,
    "schur": _schur,
    "normalize": _normalize,
    "identity": _identity_short,
    "jantzen": _jantzen_short,
    "sequence": _sequence,
    "multiplicity": _multiplicity,
    "selftest": _selftest,
}


def _maybe_levi(rng: random.Random, d: int) -> list[str]:
    if rng.random() < 0.5:
        return []
    simples = [s for s in range(1, d + 1) if rng.random() < 0.5] or [1]
    return ["--levi", _join(simples)]


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n with parts at most `largest`, largest first."""
    if largest is None:
        largest = n
    if n == 0:
        return [()]
    return [
        (a,) + rest
        for a in range(min(n, largest), 0, -1)
        for rest in partitions(n - a, a)
    ]


def dominated(a, b) -> bool:
    """a <= b in dominance order, for partitions of the same size."""
    sa = sb = 0
    for i, x in enumerate(a):
        sa += x
        sb += b[i] if i < len(b) else 0
        if sa > sb:
            return False
    return True
