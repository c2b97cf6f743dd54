"""Command-line surface.

Exit codes are a stable contract: 0 success (all checks equal/passed),
2 usage error, 3 verification failure, 4 internal oracle mismatch.
No command reads or writes a file.  `sweep` prints each report as soon as
it and every earlier n are done.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Iterator

from .charring import (
    FormalCharacter,
    BASIS_MONOMIAL,
    kostka,
    schur_to_monomial,
)
from .identities import (
    FIRST,
    SECOND,
    IdentityReport,
    first_identity_shapes,
    multiplicity_one_report,
    second_identity_shapes,
    verify_first_identity,
    verify_second_identity,
)
from .jantzen import JantzenTerm, is_prime, jantzen_sum, lambda_sequence, verify_prop_char
from .lattice import Partition, Weight, dominance_leq, partitions_below
from .oracle import enumerate_ssyt, eval_monomial, eval_schur_bialternant
from .serialize import (
    canonical_dumps,
    character_to_json,
    identity_report_to_json,
    multiplicity_report_to_json,
    partition_to_json,
    prop_char_report_to_json,
    signed_dominant_to_json,
    sum_report_to_json,
    weight_to_json,
)
from .weyl import LeviDatum, dot_normalize, dot_orbit_oracle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# parsing and formatting helpers

class _UsageError(Exception):
    pass


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",")]
    except ValueError:
        raise _UsageError(f"{what} must be a comma-separated integer list, got {text!r}")


def _parse_partition(text: str, what: str) -> Partition:
    try:
        return Partition(_parse_int_list(text, what))
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"bad {what}: {exc}")


def _require_prime(p: int) -> None:
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise _UsageError(f"--p: {exc}")
    if not prime:
        raise _UsageError(f"--p must be prime, got {p}")


def _parse_levi(text: str | None, d: int) -> LeviDatum:
    if text is None:
        return LeviDatum.full(d)
    try:
        return LeviDatum(d, _parse_int_list(text, "--levi"))
    except ValueError as exc:
        raise _UsageError(f"bad --levi: {exc}")


def format_character(ch: FormalCharacter) -> str:
    """Human form: 'm[2,1] + 2·m[1,1,1]' or '+χ(0,1) -χ(1,0)'."""
    if ch.is_zero:
        return "0"
    pieces = []
    for key, coeff in ch.items_sorted():
        mag = abs(coeff)
        if ch.basis == BASIS_MONOMIAL:
            body = f"m{key}" if mag == 1 else f"{mag}·m{key}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + body)
        else:
            body = f"χ{key}" if mag == 1 else f"{mag}·χ{key}"
            pieces.append(("+" if coeff > 0 else "-") + body)
    return " ".join(pieces)


def _format_term(term: JantzenTerm) -> str:
    if term.outcome.is_singular:
        result = "singular"
    else:
        result = f"{term.outcome.sign:+d}·{term.outcome.dominant}"
    return (
        f"{term.root} m={term.m} level={term.level} v={term.valuation} "
        f"t={term.t} image={term.image} -> {result}"
    )


def _identity_line(report: IdentityReport) -> str:
    kind = "prime" if report.prime else "composite"
    verdict = "EQUAL" if report.equal else "DIFFER"
    return f"n={report.n} {report.which} {verdict} ({kind}, {report.label})"


# ---------------------------------------------------------------------------
# command handlers

def _cmd_identity(args) -> int:
    if args.n < 2:
        raise _UsageError(f"--n must be at least 2, got {args.n}")
    check = verify_first_identity if args.which == FIRST else verify_second_identity
    report = check(args.n)
    if args.json:
        print(canonical_dumps(identity_report_to_json(report)))
    else:
        print(_identity_line(report))
        if not report.equal:
            print(f"diff: {format_character(report.diff)}")
    return EXIT_OK if report.equal else EXIT_VERIFY


def _sweep_one(task: tuple[int, str]) -> IdentityReport:
    n, which = task
    check = verify_first_identity if which == FIRST else verify_second_identity
    return check(n)


def _run_sweep(n_min: int, n_max: int, which: str, jobs: int) -> Iterator[IdentityReport]:
    """Reports in n order, each as soon as it and every earlier n are done."""
    tasks = [(n, which) for n in range(n_min, n_max + 1)]
    done = 0
    if jobs > 1 and len(tasks) > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
                for report in pool.map(_sweep_one, tasks):
                    done += 1
                    yield report
        except (OSError, PermissionError, NotImplementedError, ImportError):
            pass  # restricted environments: finish in-process
    for task in tasks[done:]:
        yield _sweep_one(task)


def _cmd_sweep(args) -> int:
    if not 2 <= args.n_min <= args.n_max:
        raise _UsageError(
            f"need 2 <= n_min <= n_max, got ({args.n_min}, {args.n_max})"
        )
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    if jobs < 1:
        raise _UsageError(f"--jobs must be positive, got {jobs}")
    all_equal = True
    for report in _run_sweep(args.n_min, args.n_max, args.which, jobs):
        if args.jsonl:
            print(canonical_dumps(identity_report_to_json(report)), flush=True)
        else:
            print(_identity_line(report), flush=True)
        all_equal = all_equal and report.equal
    return EXIT_OK if all_equal else EXIT_VERIFY


def _cmd_jantzen(args) -> int:
    _require_prime(args.p)
    if args.d < 2:
        raise _UsageError(f"--d must be at least 2, got {args.d}")
    coords = _parse_int_list(args.lam, "--lambda")
    if len(coords) != args.d:
        raise _UsageError(f"--lambda needs {args.d} coordinates, got {len(coords)}")
    lam = Weight(coords)
    levi = _parse_levi(args.levi, args.d)
    if not levi.is_dominant(lam):
        raise _UsageError(f"{lam} is not dominant for {levi.describe()}")
    report = jantzen_sum(lam, args.p, levi)
    if args.json:
        print(canonical_dumps(sum_report_to_json(report, include_terms=args.trace)))
        return EXIT_OK
    print(f"lambda={lam} p={args.p} levi={levi.describe()}")
    if args.trace:
        for term in report.terms:
            print("  " + _format_term(term))
    print(f"total: {format_character(report.total)}")
    return EXIT_OK


def _cmd_prop_char(args) -> int:
    _require_prime(args.p)
    if args.d < 3:
        raise _UsageError(f"--d must be at least 3, got {args.d}")
    report = verify_prop_char(args.p, args.d)
    if args.json:
        print(canonical_dumps(prop_char_report_to_json(report)))
        return EXIT_OK if report.passed else EXIT_VERIFY
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"p={report.p} d={report.d} i={check.i} {check.levi.describe()} {status}")
        if not check.passed:
            print(f"  expected: {format_character(check.expected)}")
            print(f"  got:      {format_character(check.total)}")
            for term in check.report.terms:
                print("  " + _format_term(term))
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict} ({len(report.checks)} checks)")
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_sequence(args) -> int:
    if args.p < 2:
        raise _UsageError(f"--p must be at least 2, got {args.p}")
    if args.d < 3:
        raise _UsageError(f"--d must be at least 3, got {args.d}")
    weights = lambda_sequence(args.p, args.d)
    if args.json:
        payload = {
            "p": args.p,
            "d": args.d,
            "weights": [weight_to_json(w) for w in weights],
        }
        print(canonical_dumps(payload))
    else:
        for i, w in enumerate(weights):
            print(f"lambda_{i} = {w}")
    return EXIT_OK


def _cmd_schur(args) -> int:
    lam = _parse_partition(args.lam, "--lambda")
    ch = schur_to_monomial(lam)
    if args.json:
        print(canonical_dumps(character_to_json(ch)))
    else:
        print(f"S{lam} = {format_character(ch)}")
    return EXIT_OK


def _cmd_kostka(args) -> int:
    lam = _parse_partition(args.lam, "--lambda")
    mu = _parse_partition(args.mu, "--mu")
    if lam.size != mu.size:
        raise _UsageError(f"sizes differ: |{lam}| = {lam.size}, |{mu}| = {mu.size}")
    value = kostka(lam, mu)
    if args.json:
        payload = {
            "shape": partition_to_json(lam),
            "content": partition_to_json(mu),
            "value": value,
        }
        print(canonical_dumps(payload))
    else:
        print(value)
    return EXIT_OK


def _cmd_normalize(args) -> int:
    if args.d < 2:
        raise _UsageError(f"--d must be at least 2, got {args.d}")
    coords = _parse_int_list(args.coords, "--coords")
    if len(coords) != args.d:
        raise _UsageError(f"--coords needs {args.d} entries, got {len(coords)}")
    levi = _parse_levi(args.levi, args.d)
    outcome = dot_normalize(Weight(coords), levi)
    if args.json:
        print(canonical_dumps(signed_dominant_to_json(outcome)))
    elif outcome.is_singular:
        print("singular")
    else:
        print(f"sign={outcome.sign:+d} dominant={outcome.dominant}")
    return EXIT_OK


def _cmd_multiplicity(args) -> int:
    _require_prime(args.p)
    try:
        report = multiplicity_one_report(args.p, args.d)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if args.json:
        print(canonical_dumps(multiplicity_report_to_json(report)))
        return EXIT_OK if report.passed else EXIT_VERIFY
    for family in report.families:
        status = "PASS" if family.passed else "FAIL"
        print(
            f"below {family.target}: {len(family.character.terms)} terms {status}"
        )
        for mu in family.missing:
            print(f"  missing {mu}")
        for mu in family.unexpected:
            print(f"  unexpected {mu}")
        for mu, coeff in family.wrong_multiplicity:
            print(f"  coefficient {coeff} at {mu}")
    return EXIT_OK if report.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# selftest: cross-check the fast paths against the oracles at capped sizes

def _selftest_checks():
    rng = random.Random(271828)

    def kostka_vs_ssyt():
        count = 0
        for n in range(0, 7):
            shapes = partitions_below(Partition((n,))) if n else [Partition()]
            for lam in shapes:
                for mu in shapes:
                    expected = enumerate_ssyt(lam, mu)
                    if kostka(lam, mu) != expected:
                        return count, f"kostka({lam},{mu}) != {expected}"
                    dominated = dominance_leq(mu, lam)
                    if (expected > 0) != dominated:
                        return count, f"unitriangularity broken at ({lam},{mu})"
                    count += 1
        return count, None

    def bialternant_vs_expansion():
        count = 0
        for n in range(1, 6):
            for lam in partitions_below(Partition((n,))):
                for _ in range(2):
                    nvars = rng.randint(max(2, lam.length), max(2, n))
                    point = rng.sample(range(1, 20), nvars)
                    direct = eval_schur_bialternant(lam, point)
                    expanded = sum(
                        k * eval_monomial(mu, point)
                        for mu, k in schur_to_monomial(lam).terms.items()
                    )
                    if direct != expanded:
                        return count, f"S{lam} at {point}: {direct} != {expanded}"
                    count += 1
        return count, None

    def normalize_vs_orbit():
        count = 0
        for d in (2, 3, 4):
            full = LeviDatum.full(d)
            for _ in range(40):
                w = Weight([rng.randint(-5, 5) for _ in range(d)])
                if dot_normalize(w, full) != dot_orbit_oracle(w):
                    return count, f"dot normalization differs at {w}"
                count += 1
        return count, None

    def identities_by_evaluation():
        count = 0
        for n in (2, 3, 4):
            for which, shapes, report in (
                (FIRST, first_identity_shapes(n), verify_first_identity(n)),
                (SECOND, second_identity_shapes(n), verify_second_identity(n)),
            ):
                for _ in range(3):
                    nvars = rng.randint(2, 5)
                    point = rng.sample(range(1, 15), nvars)
                    lhs = sum(
                        c * eval_monomial(mu, point)
                        for mu, c in report.lhs.terms.items()
                    )
                    rhs = sum(
                        (1 if i % 2 == 0 else -1) * eval_schur_bialternant(s, point)
                        for i, s in enumerate(shapes)
                        if s.length <= nvars
                    )
                    if lhs != rhs:
                        return count, f"{which} identity at n={n}, {point}"
                    count += 1
        return count, None

    return [
        ("kostka-vs-ssyt", kostka_vs_ssyt),
        ("bialternant-vs-expansion", bialternant_vs_expansion),
        ("normalize-vs-orbit", normalize_vs_orbit),
        ("identities-by-evaluation", identities_by_evaluation),
    ]


def _cmd_selftest(args) -> int:
    failed = False
    for name, check in _selftest_checks():
        count, mismatch = check()
        if mismatch is None:
            print(f"ok {name} ({count} checks)")
        else:
            print(f"MISMATCH {name}: {mismatch}")
            failed = True
    if failed:
        return EXIT_INTERNAL
    print("selftest passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jansum",
        description=(
            "Exact character computations for SL(d+1): Jantzen sums, dot-action "
            "normalization, Kostka/Schur expansions, and identity verification. "
            "Weights are comma-separated fundamental coordinates (e.g. 0,1,1,0); "
            "partitions are comma-separated parts (e.g. 2,2,1)."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--no-cache",
        action="store_true",
        help="accepted for compatibility; has no effect",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identity", parents=[common], help="check one identity at one n")
    p.add_argument("--n", type=int, required=True, help="identity parameter, n >= 2")
    p.add_argument("--which", choices=(FIRST, SECOND), required=True)
    p.add_argument("--json", action="store_true", help="canonical JSON report")
    p.set_defaults(handler=_cmd_identity)

    p = sub.add_parser("sweep", parents=[common], help="check an identity over a range of n")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    p.add_argument("--which", choices=(FIRST, SECOND), required=True)
    p.add_argument("--jobs", type=int, default=0, help="worker processes (default: all cores)")
    p.add_argument("--jsonl", action="store_true", help="one JSON report per line")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("jantzen", parents=[common], help="evaluate one Jantzen sum")
    p.add_argument("--p", type=int, required=True, help="prime characteristic")
    p.add_argument("--d", type=int, required=True, help="rank: the group is SL(d+1)")
    p.add_argument("--lambda", dest="lam", required=True, metavar="COORDS",
                   help="dominant weight, comma-separated fundamental coordinates")
    p.add_argument("--levi", metavar="SIMPLES", help="comma list of simple roots (default: all)")
    p.add_argument("--trace", action="store_true", help="list every (root, m) term")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_jantzen)

    p = sub.add_parser(
        "prop-char",
        parents=[common],
        help="verify the Jantzen-sum telescope over the whole lambda sequence",
    )
    p.add_argument("--p", type=int, required=True, help="prime characteristic")
    p.add_argument("--d", type=int, required=True, help="rank: the group is SL(d+1)")
    p.add_argument("--json", action="store_true", help="canonical JSON report")
    p.set_defaults(handler=_cmd_prop_char)

    p = sub.add_parser("sequence", parents=[common], help="print the lambda sequence")
    p.add_argument("--p", type=int, required=True, help="characteristic parameter, p >= 2")
    p.add_argument("--d", type=int, required=True, help="rank: the group is SL(d+1)")
    p.add_argument("--json", action="store_true", help="canonical JSON report")
    p.set_defaults(handler=_cmd_sequence)

    p = sub.add_parser("schur", parents=[common], help="expand a Schur function in monomials")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS", help="partition")
    p.add_argument("--json", action="store_true", help="canonical JSON report")
    p.set_defaults(handler=_cmd_schur)

    p = sub.add_parser("kostka", parents=[common], help="one Kostka number")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS", help="shape")
    p.add_argument("--mu", required=True, metavar="PARTS", help="content")
    p.add_argument("--json", action="store_true", help="canonical JSON report")
    p.set_defaults(handler=_cmd_kostka)

    p = sub.add_parser("normalize", parents=[common], help="dot-normalize a weight")
    p.add_argument("--d", type=int, required=True, help="rank: the group is SL(d+1)")
    p.add_argument("--coords", required=True, metavar="COORDS", help="weight coordinates")
    p.add_argument("--levi", metavar="SIMPLES", help="comma list of simple roots (default: all)")
    p.add_argument("--json", action="store_true", help="canonical JSON report")
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser(
        "multiplicity",
        parents=[common],
        help="check multiplicity-one support of the derived simple characters",
    )
    p.add_argument("--p", type=int, required=True, help="prime characteristic")
    p.add_argument("--d", type=int, required=True, help="rank: the group is SL(d+1)")
    p.add_argument("--json", action="store_true", help="canonical JSON report")
    p.set_defaults(handler=_cmd_multiplicity)

    p = sub.add_parser("selftest", parents=[common], help="cross-check against the slow oracles")
    p.set_defaults(handler=_cmd_selftest)

    return parser


_DASH_VALUE_FLAGS = ("--coords", "--lambda", "--mu", "--levi")


def _merge_dash_values(argv: list[str]) -> list[str]:
    # let option values like -3,3 pass through argparse: --coords -3,3
    # becomes --coords=-3,3
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in _DASH_VALUE_FLAGS and len(nxt) > 1 and nxt[0] == "-" and nxt[1].isdigit():
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_dash_values(list(argv)))
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
