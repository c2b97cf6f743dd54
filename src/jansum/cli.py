"""Command-line surface.

Exit codes are a stable contract: 0 success (all checks equal/passed),
2 usage error, 3 verification failure, 4 internal oracle mismatch.
A usage error is reported by argparse, or is the library's own ValueError;
the CLI repeats none of the library's checks.  No command reads or writes a
file.  Each subcommand is one entry of `_COMMANDS`: its help, its arguments
and its handler.  Every command but `selftest` prints through `_reports`,
each report as soon as it is built (so `sweep` streams), in text or JSON.

`_parse` reads a command line straight from `_COMMANDS` and gives the
attributes argparse would.  Any command line it cannot map exactly (help,
an unknown or abbreviated flag, `--flag=value`, a missing, dash-led or
invalid value, a missing argument) goes untouched to `build_parser()`, which
alone imports argparse: so only help and usage errors pay for loading it.
"""

from __future__ import annotations

import random
import sys
from types import SimpleNamespace

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
    conjecture_sweep,
    first_identity_shapes,
    multiplicity_one_report,
    second_identity_shapes,
    verify_first_identity,
    verify_second_identity,
)
from .jantzen import _trace, is_prime, jantzen_sum, lambda_sequence, verify_prop_char
from .lattice import Partition, Weight, dominance_leq, partitions_below
from .oracle import enumerate_ssyt, eval_monomial, eval_schur_bialternant
from .serialize import (
    character_json,
    identity_report_json,
    multiplicity_report_json,
    partition_json,
    prop_char_report_json,
    signed_dominant_json,
    sum_report_json,
    weight_json,
)
from .weyl import LeviDatum, dot_normalize, dot_orbit_oracle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# argument types: argparse reports what they reject

def _int_list(text: str) -> list[int]:
    return [int(piece) for piece in text.split(",")]


def _prime(text: str) -> int:
    p = int(text)
    try:
        if is_prime(p):
            return p
        reason = f"must be prime, got {p}"
    except ValueError as exc:
        reason = str(exc)
    import argparse

    raise argparse.ArgumentTypeError(reason)


# ---------------------------------------------------------------------------
# text forms

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


# the text forms of a trace line, a weight and the two outcomes (see jantzen._trace)
_TRACE = ("  %(root)s m=%%d level=%%d v=%(valuation)d t=%%d image=%(image)s -> %%s",
          "(%s)", "%+d·%s", "singular")


def _identity_line(report: IdentityReport) -> str:
    kind = "prime" if report.prime else "composite"
    verdict = "EQUAL" if report.equal else "DIFFER"
    return f"n={report.n} {report.which} {verdict} ({kind}, {report.label})"


def _identity_text(report, args):
    yield _identity_line(report)
    if not report.equal:
        yield f"diff: {format_character(report.diff)}"


def _jantzen_text(report, args):
    yield f"lambda={report.lam} p={report.p} levi={report.levi.describe()}"
    if args.trace:
        yield from _trace(report, *_TRACE)
    yield f"total: {format_character(report.total)}"


def _prop_char_text(report, args):
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        yield f"p={report.p} d={report.d} i={check.i} {check.levi.describe()} {status}"
        if not check.passed:
            yield f"  expected: {format_character(check.expected)}"
            yield f"  got:      {format_character(check.total)}"
            yield from _trace(check.report, *_TRACE)
    verdict = "PASS" if report.passed else "FAIL"
    yield f"{verdict} ({len(report.checks)} checks)"


def _multiplicity_text(report, args):
    for family in report.families:
        status = "PASS" if family.passed else "FAIL"
        yield f"below {family.target}: {len(family.character.terms)} terms {status}"
        for mu in family.missing:
            yield f"  missing {mu}"
        for mu in family.unexpected:
            yield f"  unexpected {mu}"
        for mu, coeff in family.wrong_multiplicity:
            yield f"  coefficient {coeff} at {mu}"


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
# the command table

def _levi(args) -> LeviDatum:
    return LeviDatum.full(args.d) if args.levi is None else LeviDatum(args.d, args.levi)


def _reports(build, text, to_json, passed=lambda report: True):
    """The handler of a report command: print each report that build(args)
    yields as soon as it is built, as the lines of text(report, args) or as
    the canonical JSON whose pieces to_json(report, args) yields, each piece
    written as it comes; exit 3 if any failed."""

    def handler(args) -> int:
        all_passed = True
        for report in build(args):
            if args.json:
                sys.stdout.writelines(to_json(report, args))
                sys.stdout.write("\n")
            else:
                for line in text(report, args):
                    print(line)
            sys.stdout.flush()
            all_passed = passed(report) and all_passed
        return EXIT_OK if all_passed else EXIT_VERIFY

    return handler


# the arguments that several commands share, as (flag, add_argument keywords)
_P = ("--p", {"type": _prime, "required": True, "help": "prime characteristic"})
_D = ("--d", {"type": int, "required": True, "help": "rank: the group is SL(d+1)"})
_LEVI = ("--levi", {"type": _int_list, "metavar": "SIMPLES",
                    "help": "comma list of simple roots (default: all)"})
_WHICH = ("--which", {"choices": (FIRST, SECOND), "required": True})
_JSON = ("--json", {"action": "store_true", "help": "canonical JSON report"})
_PARTS = {"dest": "lam", "type": _int_list, "required": True, "metavar": "PARTS"}

# name -> (help, arguments, handler)
_COMMANDS = {
    "identity": ("check one identity at one n", [
        ("--n", {"type": int, "required": True, "help": "identity parameter, n >= 2"}),
        _WHICH, _JSON,
    ], _reports(
        lambda a: conjecture_sweep(a.n, a.n, a.which),
        _identity_text,
        lambda report, a: identity_report_json(report),
        lambda report: report.equal,
    )),
    "sweep": ("check an identity over a range of n", [
        ("n_min", {"type": int}), ("n_max", {"type": int}), _WHICH,
        ("--jobs", {"type": int, "help": "accepted for compatibility; has no effect"}),
        ("--jsonl", {"dest": "json", "action": "store_true", "help": "one JSON report per line"}),
    ], _reports(
        lambda a: conjecture_sweep(a.n_min, a.n_max, a.which),
        lambda report, a: [_identity_line(report)],
        lambda report, a: identity_report_json(report),
        lambda report: report.equal,
    )),
    "jantzen": ("evaluate one Jantzen sum", [
        _P, _D,
        ("--lambda", {**_PARTS, "metavar": "COORDS",
                      "help": "dominant weight, comma-separated fundamental coordinates"}),
        _LEVI,
        ("--trace", {"action": "store_true", "help": "list every (root, m) term"}), _JSON,
    ], _reports(
        lambda a: [jantzen_sum(Weight(a.lam), a.p, _levi(a))],
        _jantzen_text,
        lambda report, a: sum_report_json(report, trace=a.trace),
    )),
    "prop-char": ("verify the Jantzen-sum telescope over the whole lambda sequence", [
        _P, _D, _JSON,
    ], _reports(
        lambda a: [verify_prop_char(a.p, a.d)],
        _prop_char_text,
        lambda report, a: prop_char_report_json(report),
        lambda report: report.passed,
    )),
    "sequence": ("print the lambda sequence", [
        ("--p", {"type": int, "required": True, "help": "characteristic parameter, p >= 2"}),
        _D, _JSON,
    ], _reports(
        lambda a: [lambda_sequence(a.p, a.d)],
        lambda weights, a: (f"lambda_{i} = {w}" for i, w in enumerate(weights)),
        lambda weights, a: [
            f'{{"p":{a.p},"d":{a.d},"weights":[{",".join(map(weight_json, weights))}]}}'
        ],
    )),
    "schur": ("expand a Schur function in monomials", [
        ("--lambda", {**_PARTS, "help": "partition"}), _JSON,
    ], _reports(
        lambda a: [schur_to_monomial(Partition(a.lam))],
        lambda ch, a: [f"S{Partition(a.lam)} = {format_character(ch)}"],
        lambda ch, a: [character_json(ch)],
    )),
    "kostka": ("one Kostka number", [
        ("--lambda", {**_PARTS, "help": "shape"}),
        ("--mu", {**_PARTS, "dest": "mu", "help": "content"}), _JSON,
    ], _reports(
        lambda a: [kostka(Partition(a.lam), Partition(a.mu))],
        lambda value, a: [value],
        lambda value, a: [
            f'{{"shape":{partition_json(Partition(a.lam))},'
            f'"content":{partition_json(Partition(a.mu))},"value":{value}}}'
        ],
    )),
    "normalize": ("dot-normalize a weight", [
        _D,
        ("--coords", {"type": _int_list, "required": True, "metavar": "COORDS",
                      "help": "weight coordinates"}),
        _LEVI, _JSON,
    ], _reports(
        lambda a: [dot_normalize(Weight(a.coords), _levi(a))],
        lambda sd, a: [
            "singular" if sd.is_singular else f"sign={sd.sign:+d} dominant={sd.dominant}"
        ],
        lambda sd, a: [signed_dominant_json(sd)],
    )),
    "multiplicity": ("check multiplicity-one support of the derived simple characters", [
        _P, _D, _JSON,
    ], _reports(
        lambda a: [multiplicity_one_report(a.p, a.d)],
        _multiplicity_text,
        lambda report, a: multiplicity_report_json(report),
        lambda report: report.passed,
    )),
    "selftest": ("cross-check against the slow oracles", [], _cmd_selftest),
}


def build_parser():
    """The argparse parser of `_COMMANDS`, for help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="jansum",
        description=(
            "Exact character computations for SL(d+1): Jantzen sums, dot-action "
            "normalization, Kostka/Schur expansions, and identity verification. "
            "Weights are comma-separated fundamental coordinates (e.g. 0,1,1,0); "
            "partitions are comma-separated parts (e.g. 2,2,1)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


# the options whose values are integer lists, which may start with a dash
_DASH_VALUE_FLAGS = {flag for _, arguments, _ in _COMMANDS.values()
                     for flag, keywords in arguments if keywords.get("type") is _int_list}


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


def _parse(argv: list[str]):
    """The attributes build_parser().parse_args would give argv, read from
    `_COMMANDS`; None if argv is not one this maps exactly.  It takes exact
    long flags with one value each, store_true, type, choices, required,
    dest and positionals; the last of a repeated flag wins.  A dash-led
    value is taken only for an integer list, whose type then rejects all but
    the numbers `_merge_dash_values` lets through."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, arguments, handler = _COMMANDS[argv[0]]
    values = {"command": argv[0], "handler": handler}
    options, positionals, missing = {}, [], set()
    for flag, keywords in arguments:
        dest = keywords.get("dest", flag.lstrip("-").replace("-", "_"))
        values[dest] = False if keywords.get("action") == "store_true" else None
        if flag[0] == "-":
            options[flag] = dest, keywords
        else:
            positionals.insert(0, (dest, keywords))  # popped in order
        if flag[0] != "-" or keywords.get("required"):
            missing.add(dest)
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            dest, keywords = options[token]
            if keywords.get("action") == "store_true":
                values[dest] = True
                continue
            token = next(tokens, None)
            if token is None or token[:1] == "-" and keywords.get("type") is not _int_list:
                return None
        elif token[:1] == "-" or not positionals:
            return None
        else:
            dest, keywords = positionals.pop()
        try:
            value = keywords.get("type", str)(token)
        except Exception:  # argparse reports whatever a type function raises
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
        missing.discard(dest)
    return None if missing else SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    args = _parse(argv)
    if args is None:
        args = build_parser().parse_args(_merge_dash_values(argv))
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
