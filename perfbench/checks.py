"""Correctness checks for every command the benchmark runs.

A command fails when it exits with an unexpected code, times out, reports a
verdict other than EQUAL or PASS, or prints output that disagrees with an
oracle.  The oracles are this file's own code (a from-scratch Jantzen sum and
dot normalization by sorting epsilon coordinates, partition counts, the
lambda sequence) and the program's slow reference implementations
`jansum.oracle.enumerate_ssyt` and `jansum.weyl.dot_orbit_oracle`, which
share no code with the fast paths they check.

`check_pass` takes the outputs of one pass and returns a message for each
failed command, keyed by its index.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache

from jansum.lattice import Partition, Weight
from jansum.oracle import SSYT_SIZE_CAP, enumerate_ssyt
from jansum.weyl import dot_orbit_oracle

from workloads import dominated, partitions

ORBIT_ORACLE_MAX_RANK = 6

_IDENTITY_LINE = re.compile(
    r"^n=(\d+) (first|second) (EQUAL|DIFFER) \((prime|composite), "
    r"(theorem|conjecture instance)\)$"
)
_TRACE_LINE = re.compile(
    r"^  a\[(\d+),(\d+)\] m=(\d+) level=(\d+) v=(\d+) t=(-?\d+) "
    r"image=\(([-\d,]+)\) -> (?:singular|([+-]1)·\(([-\d,]+)\))$"
)
_WEYL_TERM = re.compile(r"^([+-])(?:(\d+)·)?χ\(([-\d,]+)\)$")


class CheckError(Exception):
    pass


def check_pass(results, memo: dict | None = None) -> dict[int, str]:
    """Failure messages by command index; `results` need `argv`, `code`,
    `stdout` and `timed_out`.  `memo` keeps verdicts on outputs already
    checked, for passes that repeat the same commands."""
    memo = {} if memo is None else memo
    failures = {}
    for i, res in enumerate(results):
        key = (tuple(res.argv), res.code, res.timed_out, res.stdout)
        if key not in memo:
            memo[key] = _check_one(res)
        if memo[key] is not None:
            failures[i] = memo[key]
    # each jantzen --json total must agree with its --trace --json twin
    by_argv = {tuple(r.argv): i for i, r in enumerate(results)}
    for i, res in enumerate(results):
        argv = tuple(res.argv)
        if argv[0] != "jantzen" or "--json" not in argv or "--trace" not in argv:
            continue
        twin = by_argv.get(tuple(a for a in argv if a != "--trace"))
        if twin is None or i in failures or twin in failures:
            continue
        if json.loads(results[twin].stdout)["total"] != json.loads(res.stdout)["total"]:
            failures[twin] = "--json total differs from the --trace --json total"
    return failures


def _check_one(res) -> str | None:
    if res.timed_out:
        return "timed out"
    if res.code != 0:
        return f"exit code {res.code}"
    try:
        check_output(tuple(res.argv), res.stdout)
    except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def check_output(argv: tuple[str, ...], stdout: str) -> None:
    """Raise CheckError unless `stdout` is the right answer for `argv`."""
    command, opts, flags = _parse_argv(argv)
    _CHECKERS[command](opts, flags, stdout)


def _parse_argv(argv):
    command = argv[0]
    opts, flags, positional = {}, set(), []
    i = 1
    while i < len(argv):
        tok = argv[i]
        if tok in ("--json", "--jsonl", "--trace", "--no-cache"):
            flags.add(tok)
            i += 1
        elif tok.startswith("--"):
            opts[tok] = argv[i + 1]
            i += 2
        else:
            positional.append(int(tok))
            i += 1
    opts["positional"] = positional
    return command, opts, flags


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _lines(stdout: str) -> list[str]:
    return stdout.rstrip("\n").split("\n") if stdout.strip() else []


# ---------------------------------------------------------------------------
# independent oracles

def is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))


def valuation(p: int, x: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def blocks(d: int, simples) -> list[list[int]]:
    """0-based epsilon positions glued by the chosen simple roots."""
    out, current = [], [0]
    for s in range(1, d + 1):
        if s in simples:
            current.append(s)
        else:
            out.append(current)
            current = [s]
    out.append(current)
    return out


def shifted_epsilon(coords) -> list[int]:
    """Epsilon coordinates of weight + rho, last entry 0."""
    eps = [0]
    for c in reversed(coords):
        eps.append(eps[-1] + c + 1)
    eps.reverse()
    return eps


def normalize(eps: list[int], blks) -> tuple[int, tuple[int, ...]] | None:
    """Sort each block decreasing; None if singular, else (sign, dominant)."""
    out = list(eps)
    odd = False
    for block in blks:
        vals = [eps[i] for i in block]
        if len(set(vals)) < len(vals):
            return None
        order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
        seen = [False] * len(order)
        for start in range(len(order)):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = order[j]
                length += 1
            odd ^= length % 2 == 0
        for pos, k in zip(block, order):
            out[pos] = vals[k]
    dominant = tuple(out[i] - out[i + 1] - 1 for i in range(len(out) - 1))
    return (-1 if odd else 1), dominant


@lru_cache(maxsize=64)
def jantzen_terms(coords: tuple[int, ...], p: int, simples: frozenset[int]) -> dict:
    """(lo, hi, m) -> (level, t, valuation, image, outcome) over the Levi's roots."""
    d = len(coords)
    blks = blocks(d, simples)
    x = shifted_epsilon(coords)
    terms = {}
    for block in blks:
        for j in block[:-1]:
            for k1 in block[block.index(j) + 1 :]:
                c = x[j] - x[k1]
                for level in range(p, c, p):
                    t = c - level
                    eps = list(x)
                    eps[j] -= t
                    eps[k1] += t
                    image = tuple(eps[i] - eps[i + 1] - 1 for i in range(d))
                    terms[(j + 1, k1, level // p)] = (
                        level, t, valuation(p, level), image, normalize(eps, blks)
                    )
    return terms


def jantzen_total(terms: dict) -> dict:
    total = {}
    for level, t, v, image, outcome in terms.values():
        if outcome is not None:
            sign, dominant = outcome
            total[dominant] = total.get(dominant, 0) + sign * v
    return {k: c for k, c in total.items() if c}


def _simples(opts, d: int) -> frozenset[int]:
    if "--levi" in opts:
        return frozenset(_ints(opts["--levi"]))
    return frozenset(range(1, d + 1))


@lru_cache(maxsize=None)
def _ideal(top: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    return frozenset(m for m in partitions(sum(top)) if dominated(m, top))


# ---------------------------------------------------------------------------
# per-command checkers

def _identity_verdicts(lines, which: str, ns) -> None:
    _expect(len(lines) == len(ns), f"{len(lines)} report lines for {len(ns)} values of n")
    for line, n in zip(lines, ns):
        match = _IDENTITY_LINE.match(line)
        _expect(match is not None, f"unparsable report line {line!r}")
        got_n, got_which, verdict, kind, label = match.groups()
        _expect(int(got_n) == n and got_which == which, f"expected n={n} {which}: {line!r}")
        _expect(verdict == "EQUAL", f"verdict {verdict} at n={n}")
        prime = is_prime(n)
        _expect(kind == ("prime" if prime else "composite"), f"wrong primality at n={n}")
        _expect(label == ("theorem" if prime else "conjecture instance"), f"wrong label at n={n}")


def _identity_json(line: str, which: str, n: int) -> None:
    report = json.loads(line)
    _expect(report["n"] == n and report["which"] == which, f"expected n={n} {which}")
    _expect(report["equal"] is True and report["diff"]["terms"] == [], f"not EQUAL at n={n}")
    _expect(report["prime"] == is_prime(n), f"wrong primality at n={n}")
    top = (n - 1, n - 1, 1) if which == "first" else (n - 1, 1)
    lhs = {tuple(t["key"]): t["coeff"] for t in report["lhs"]["terms"]}
    _expect(set(lhs) == _ideal(top), f"lhs is not the ideal below {top} at n={n}")
    _expect(set(lhs.values()) == {"1"}, f"lhs coefficients are not all 1 at n={n}")
    _expect(report["rhs"] == report["lhs"], f"rhs differs from lhs at n={n}")


def _check_sweep(opts, flags, stdout) -> None:
    lo, hi = opts["positional"]
    which = opts["--which"]
    lines = _lines(stdout)
    if "--jsonl" in flags:
        _expect(len(lines) == hi - lo + 1, f"{len(lines)} reports for n in {lo}..{hi}")
        for n, line in zip(range(lo, hi + 1), lines):
            _identity_json(line, which, n)
    else:
        _identity_verdicts(lines, which, list(range(lo, hi + 1)))


def _check_identity(opts, flags, stdout) -> None:
    _identity_verdicts(_lines(stdout), opts["--which"], [int(opts["--n"])])


def _check_jantzen(opts, flags, stdout) -> None:
    p, d = int(opts["--p"]), int(opts["--d"])
    coords = _ints(opts["--lambda"])
    simples = _simples(opts, d)
    expected = jantzen_terms(coords, p, simples)
    if "--json" in flags:
        report = json.loads(stdout)
        _expect(report["p"] == p and tuple(report["lambda"]["coords"]) == coords, "wrong header")
        _expect(frozenset(report["levi"]["simples"]) == simples, "wrong Levi")
        total = {
            tuple(t["key"]["coords"]): int(t["coeff"]) for t in report["total"]["terms"]
        }
        if "--trace" in flags:
            terms = {}
            for t in report["terms"]:
                out = t["outcome"]
                outcome = None if out.get("singular") else (
                    out["sign"], tuple(out["dominant"]["coords"])
                )
                terms[(t["root"][0], t["root"][1], t["m"])] = (
                    t["level"], t["t"], t["valuation"], tuple(t["image"]["coords"]), outcome
                )
            _expect(len(terms) == len(report["terms"]), "repeated (root, m) terms")
            _compare_terms(terms, expected)
            _expect(total == jantzen_total(terms), "total is not the sum of the regular terms")
        else:
            _expect(total == jantzen_total(expected), "total differs from the oracle")
        return
    lines = _lines(stdout)
    _expect(lines[0] == f"lambda=({opts['--lambda']}) p={p} levi={_describe(simples, d)}",
            f"wrong header {lines[0]!r}")
    _expect(lines[-1].startswith("total: "), "missing total line")
    terms = {}
    for line in lines[1:-1]:
        match = _TRACE_LINE.match(line)
        _expect(match is not None, f"unparsable trace line {line!r}")
        lo, hi, m, level, v, t, image, sign, dominant = match.groups()
        outcome = None if sign is None else (int(sign), _ints(dominant))
        terms[(int(lo), int(hi), int(m))] = (int(level), int(t), int(v), _ints(image), outcome)
        if len(simples) == d and d <= ORBIT_ORACLE_MAX_RANK:
            oracle = dot_orbit_oracle(Weight(_ints(image)))
            got = None if oracle.is_singular else (oracle.sign, oracle.dominant.coords)
            _expect(got == outcome, f"orbit oracle disagrees at {line.strip()!r}")
    if "--trace" in flags:
        _expect(len(terms) == len(lines) - 2, "repeated (root, m) terms")
        _compare_terms(terms, expected)
    else:
        _expect(not terms, "trace lines without --trace")
    _expect(_parse_weyl(lines[-1][len("total: "):]) == jantzen_total(expected),
            "total differs from the oracle")


def _compare_terms(got: dict, expected: dict) -> None:
    _expect(len(got) == len(expected), f"{len(got)} terms, oracle has {len(expected)}")
    for key, value in expected.items():
        _expect(got.get(key) == value, f"term {key}: {got.get(key)} != oracle {value}")


def _describe(simples, d: int) -> str:
    if len(simples) == d:
        return "full"
    return "levi{" + ",".join(str(s) for s in sorted(simples)) + "}"


def _parse_weyl(text: str) -> dict:
    if text == "0":
        return {}
    out = {}
    for piece in text.split(" "):
        match = _WEYL_TERM.match(piece)
        _expect(match is not None, f"unparsable character term {piece!r}")
        sign, mag, key = match.groups()
        out[_ints(key)] = (1 if sign == "+" else -1) * int(mag or 1)
    return out


def _parse_monomial(text: str) -> dict:
    out = {}
    sign = 1
    for tok in text.split(" "):
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        mag, _, key = tok.rpartition("·")
        _expect(key.startswith("m[") and key.endswith("]"), f"unparsable term {tok!r}")
        out[_ints(key[2:-1])] = sign * int(mag or 1)
        sign = 1
    return out


def _ssyt(shape, content) -> int:
    _expect(sum(shape) <= SSYT_SIZE_CAP, f"size {sum(shape)} above the oracle cap")
    return enumerate_ssyt(Partition(shape), Partition(content))


def _check_kostka(opts, flags, stdout) -> None:
    lam, mu = _ints(opts["--lambda"]), _ints(opts["--mu"])
    _expect(stdout.strip() == str(_ssyt(lam, mu)), f"K({lam},{mu}) = {stdout.strip()}")


def _check_schur(opts, flags, stdout) -> None:
    lam = _ints(opts["--lambda"])
    head, sep, body = stdout.strip().partition(" = ")
    _expect(sep == " = " and head == f"S[{opts['--lambda']}]", f"wrong header {head!r}")
    expected = {mu: k for mu in partitions(sum(lam)) if (k := _ssyt(lam, mu))}
    _expect(_parse_monomial(body) == expected, f"S{lam} differs from the tableau count")


def _check_normalize(opts, flags, stdout) -> None:
    d = int(opts["--d"])
    coords = _ints(opts["--coords"])
    simples = _simples(opts, d)
    outcome = normalize(shifted_epsilon(coords), blocks(d, simples))
    expected = "singular" if outcome is None else (
        f"sign={outcome[0]:+d} dominant=({','.join(map(str, outcome[1]))})"
    )
    _expect(stdout.strip() == expected, f"{stdout.strip()!r}, oracle says {expected!r}")
    if len(simples) == d and d <= ORBIT_ORACLE_MAX_RANK:
        oracle = dot_orbit_oracle(Weight(coords))
        got = None if oracle.is_singular else (oracle.sign, oracle.dominant.coords)
        _expect(got == outcome, "orbit oracle disagrees")


def lambda_sequence(p: int, d: int) -> list[tuple[int, ...]]:
    """i*omega_1 + (p-2-i)*omega_2 + omega_{3+i} for i < min(d, p) - 1."""
    out = []
    for i in range(min(d, p) - 1):
        c = [0] * d
        c[0] += i
        c[1] += p - 2 - i
        if 3 + i <= d:
            c[2 + i] += 1
        out.append(tuple(c))
    return out


def _check_sequence(opts, flags, stdout) -> None:
    p, d = int(opts["--p"]), int(opts["--d"])
    expected = [
        f"lambda_{i} = ({','.join(map(str, w))})" for i, w in enumerate(lambda_sequence(p, d))
    ]
    _expect(_lines(stdout) == expected, "lambda sequence differs")


def _check_prop_char(opts, flags, stdout) -> None:
    p, d = int(opts["--p"]), int(opts["--d"])
    lines = _lines(stdout)
    checks = 2 * (min(d, p) - 1)
    _expect(lines[-1] == f"PASS ({checks} checks)", f"verdict line {lines[-1]!r}")
    _expect(len(lines) == checks + 1, f"{len(lines) - 1} check lines, expected {checks}")
    _expect(all(line.endswith(" PASS") for line in lines[:-1]), "a check did not PASS")


def _check_multiplicity(opts, flags, stdout) -> None:
    p = int(opts["--p"])
    expected = [
        f"below [{','.join(map(str, top))}]: {len(_ideal(top))} terms PASS"
        for top in ((p - 1, p - 1, 1), (p - 1, 1))
    ]
    _expect(_lines(stdout) == expected, f"multiplicity report {_lines(stdout)}")


def _check_selftest(opts, flags, stdout) -> None:
    lines = _lines(stdout)
    _expect(lines and lines[-1] == "selftest passed", "selftest did not pass")
    _expect(all(line.startswith("ok ") for line in lines[:-1]), "selftest mismatch")


_CHECKERS = {
    "sweep": _check_sweep,
    "identity": _check_identity,
    "jantzen": _check_jantzen,
    "kostka": _check_kostka,
    "schur": _check_schur,
    "normalize": _check_normalize,
    "sequence": _check_sequence,
    "prop-char": _check_prop_char,
    "multiplicity": _check_multiplicity,
    "selftest": _check_selftest,
}
