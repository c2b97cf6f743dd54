"""Command-line surface.

Exit codes are a stable contract: 0 success (all checks equal/passed),
2 usage error, 3 verification failure, 4 internal oracle mismatch, and
141 (128 + SIGPIPE) when stdout's reader has gone.
A usage error is reported by argparse, which checks only that each value
is an int or a comma list of ints, or is the library's own ValueError (a
composite --p included): the CLI repeats none of the library's checks.  No
command reads or writes a file.  Each subcommand is one entry of
`_COMMANDS`: its help, its arguments and its handler.  Every command but
`selftest` writes through `_reports`, each report in pieces as soon as it
is built (so `sweep` streams), in text or JSON; serialize writes every
character and trace line in either form, and this module only the lines
around them, handing it each character as the rows or the walk's leaves
that its computation made.  Only `selftest` loads the oracles and
`random`, and only it reads a leaf's key as a Partition (text_partition),
to evaluate the leaves that `schur` and `identity` write.

`_parse` reads a command line straight from `_COMMANDS` and gives the
attributes argparse would.  Any command line it cannot map exactly (help,
an unknown or abbreviated flag, `--flag=value`, a missing, dash-led or
invalid value, a missing argument) goes untouched to `build_parser()`, which
alone imports argparse: so only help and usage errors pay for loading it.

`entry`, the one exit of the console script and of `python -m jansum`,
flushes stdout and stderr once main returns and ends the process with
os._exit, skipping the interpreter's teardown; that holds only while the
process has no file, handler or thread to release, and it does so with
141 when stdout is closed.  `main` only returns its code.
"""

import os
import sys
from itertools import chain, product
from types import SimpleNamespace

from .charring import kostka, schur_sum_leaves
from .identities import (
    FIRST,
    SECOND,
    IdentityReport,
    conjecture_sweep,
    first_identity_shapes,
    multiplicity_one_report,
    second_identity_shapes,
)
from .jantzen import jantzen_sum, lambda_sequence, verify_prop_char
from .lattice import Partition, Weight, dominance_leq, partitions_below, text_partition
from .serialize import (
    identity_report_json,
    jantzen_terms_text,
    monomial_json,
    monomial_text,
    multiplicity_report_json,
    partition_json,
    prop_char_report_json,
    signed_dominant_json,
    sum_report_json,
    weight_json,
    weyl_text,
)
from .weyl import LeviDatum, dot_normalize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4
EXIT_CLOSED = 141  # 128 + SIGPIPE: stdout's reader has gone


# ---------------------------------------------------------------------------
# argument types: argparse reports what they reject

def _int_list(text: str) -> list[int]:
    return [int(piece) for piece in text.split(",")]


# ---------------------------------------------------------------------------
# text reports, in pieces that end each line with its own newline, whose
# characters and trace lines serialize writes

def _identity_line(report: IdentityReport) -> str:
    kind = "prime" if report.prime else "composite"
    verdict = "EQUAL" if report.equal else "DIFFER"
    return f"n={report.n} {report.which} {verdict} ({kind}, {report.label})\n"


def _character_line(head: str, pieces):
    return chain([head], pieces, ["\n"])


def _identity_text(report, args):
    yield _identity_line(report)
    if not report.equal:
        yield from _character_line("diff: ", monomial_text(report.diff_leaves))


def _jantzen_text(report, args):
    yield f"lambda={report.lam} p={report.p} levi={report.levi.describe()}\n"
    if args.trace:
        yield from jantzen_terms_text(report)
    yield from _character_line("total: ", weyl_text(report.levi, report.rows))


def _prop_char_text(report, args):
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        yield f"p={report.p} d={report.d} i={check.i} {check.levi.describe()} {status}\n"
        if not check.passed:
            yield from _character_line("  expected: ", weyl_text(check.levi, check.tail))
            yield from _character_line("  got:      ", weyl_text(check.levi, check.report.rows))
            yield from jantzen_terms_text(check.report)
    verdict = "PASS" if report.passed else "FAIL"
    yield f"{verdict} ({len(report.checks)} checks)\n"


def _multiplicity_text(report, args):
    for family in report.families:
        status = "PASS" if family.equal else "FAIL"
        yield f"below {family.target}: {family.term_count} terms {status}\n"
        yield from (f"  missing [{key}]\n" for key, c in family.broken if not c)
        yield from (f"  coefficient {c} at [{key}]\n" for key, c in family.broken if c)


# ---------------------------------------------------------------------------
# selftest: cross-check the fast paths against the oracles at capped sizes;
# each check yields None for a case that agrees with its oracle and the
# mismatch text for one that does not, and _cmd_selftest counts the cases

def _selftest_checks():
    # here, not at the top: no other command loads the slow references or
    # the random points they are checked at
    import random

    from .oracle import enumerate_ssyt, eval_monomial, eval_schur_bialternant, reference_jantzen
    from .weyl import dot_orbit_oracle

    rng = random.Random(271828)

    def kostka_vs_ssyt():
        for n in range(0, 7):
            shapes = partitions_below(Partition((n,))) if n else [Partition()]
            for lam in shapes:
                for mu in shapes:
                    expected = enumerate_ssyt(lam, mu)
                    if kostka(lam, mu) != expected:
                        yield f"kostka({lam},{mu}) != {expected}"
                    elif (expected > 0) != dominance_leq(mu, lam):
                        yield f"unitriangularity broken at ({lam},{mu})"
                    else:
                        yield None

    def bialternant_vs_expansion():
        for n in range(1, 6):
            for lam in partitions_below(Partition((n,))):
                for _ in range(2):
                    nvars = rng.randint(max(2, lam.length), max(2, n))
                    point = rng.sample(range(1, 20), nvars)
                    direct = eval_schur_bialternant(lam, point)
                    expanded = sum(
                        k * eval_monomial(text_partition(key), point)
                        for key, k in schur_sum_leaves({lam: 1}, lam)
                    )
                    yield None if direct == expanded else (
                        f"S{lam} at {point}: {direct} != {expanded}")

    def normalize_vs_orbit():
        for d in (2, 3, 4):
            full = LeviDatum.full(d)
            for _ in range(40):
                w = Weight([rng.randint(-5, 5) for _ in range(d)])
                yield None if dot_normalize(w, full) == dot_orbit_oracle(w) else (
                    f"dot normalization differs at {w}")

    def identities_by_evaluation():
        for n in (2, 3, 4):
            for which, shapes in ((FIRST, first_identity_shapes), (SECOND, second_identity_shapes)):
                # every verdict's path: the walk's leaves, each with its
                # coefficient, and the fold that decides `equal`
                report = next(conjecture_sweep(n, n, which))
                for _ in range(3):
                    nvars = rng.randint(2, 5)
                    point = rng.sample(range(1, 15), nvars)
                    walked = sum(
                        c * eval_monomial(text_partition(key), point) for key, c in report.leaves
                    )
                    direct = sum(
                        (1 if i % 2 == 0 else -1) * eval_schur_bialternant(s, point)
                        for i, s in enumerate(shapes(n))
                        if s.length <= nvars
                    )
                    yield None if report.equal and walked == direct else (
                        f"{which} identity at n={n}, {point}")

    def jantzen_vs_reference():
        # random Levis, coordinates off their simple roots of either sign
        for d, p, _ in product((2, 3, 4), (2, 3, 5), range(4)):
            levi = LeviDatum(d, [s for s in range(1, d + 1) if rng.random() < 0.6])
            lam = Weight(rng.randint(0 if s in levi.simples else -6, 6) for s in range(1, d + 1))
            terms, total = reference_jantzen(lam, p, levi)
            rows = sorted(((*mu.coords, c) for mu, c in total.items()), reverse=True)
            report = jantzen_sum(lam, p, levi)
            yield None if report.rows == rows and report.terms == terms else (
                f"Jantzen sum of {lam} at p={p}, {levi.describe()}")

    return [
        ("kostka-vs-ssyt", kostka_vs_ssyt),
        ("bialternant-vs-expansion", bialternant_vs_expansion),
        ("normalize-vs-orbit", normalize_vs_orbit),
        ("identities-by-evaluation", identities_by_evaluation),
        ("jantzen-vs-reference", jantzen_vs_reference),
    ]


def _cmd_selftest(args) -> int:
    failed = False
    for name, check in _selftest_checks():
        count = 0
        for mismatch in check():
            if mismatch is not None:
                print(f"MISMATCH {name}: {mismatch}")
                failed = True
                break
            count += 1
        else:
            print(f"ok {name} ({count} checks)")
    if failed:
        return EXIT_INTERNAL
    print("selftest passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the command table

def _levi(args) -> LeviDatum:
    return LeviDatum.full(args.d) if args.levi is None else LeviDatum(args.d, args.levi)


def _reports(build, text, to_json, passed=lambda report: True):
    """The handler of a report command: write each report that build(args)
    yields as soon as it is built, as the pieces of its text lines that
    text(report, args) yields or as those of its canonical JSON that
    to_json(report, args) yields, then a newline, each piece written as it
    comes; exit 3 if any failed."""

    def json_line(report, args):
        return chain(to_json(report, args), "\n")

    def handler(args) -> int:
        form = json_line if args.json else text
        all_passed = True
        for report in build(args):
            sys.stdout.writelines(form(report, args))
            sys.stdout.flush()
            all_passed = passed(report) and all_passed
        return EXIT_OK if all_passed else EXIT_VERIFY

    return handler


# the arguments that several commands share, as (flag, add_argument keywords)
_P = ("--p", {"type": int, "required": True, "help": "prime characteristic"})
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
        lambda weights, a: (f"lambda_{i} = {w}\n" for i, w in enumerate(weights)),
        lambda weights, a: [
            f'{{"p":{a.p},"d":{a.d},"weights":[{",".join(map(weight_json, weights))}]}}'
        ],
    )),
    "schur": ("expand a Schur function in monomials", [
        ("--lambda", {**_PARTS, "help": "partition"}), _JSON,
    ], _reports(
        lambda a: [schur_sum_leaves({(lam := Partition(a.lam)): 1}, lam)],
        lambda leaves, a: _character_line(f"S{Partition(a.lam)} = ", monomial_text(leaves)),
        lambda leaves, a: monomial_json(leaves),
    )),
    "kostka": ("one Kostka number", [
        ("--lambda", {**_PARTS, "help": "shape"}),
        ("--mu", {**_PARTS, "dest": "mu", "help": "content"}), _JSON,
    ], _reports(
        lambda a: [kostka(Partition(a.lam), Partition(a.mu))],
        lambda value, a: [f"{value}\n"],
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
            "singular\n" if sd.is_singular else f"sign={sd.sign:+d} dominant={sd.dominant}\n"
        ],
        lambda sd, a: [signed_dominant_json(sd)],
    )),
    "multiplicity": ("check the f = 0 by-product: both alternating Schur sums are "
                     "multiplicity-free on their dominance ideals", [
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
    """Run main on the process's arguments and end the process with its code.

    The process ends at its last write: stdout and stderr are flushed, then
    os._exit skips the interpreter's teardown, which frees every module and
    object one by one and took 4-9 ms of a 25-75 ms command (Python 3.11 on
    a 2-CPU host, median from the last byte to the exit).  That is safe
    only while the process holds nothing that teardown would release: no
    command opens a file, and no module registers an atexit handler, starts
    a thread or relies on __del__ (tests/test_stdlib_only.py checks this).
    A write or the flush to a stdout whose reader has gone (BrokenPipeError,
    as under `| head`) ends the process the same way with EXIT_CLOSED and
    nothing on stderr; what is still buffered is dropped.  Help and usage
    errors (argparse's SystemExit) and any other uncaught exception leave
    through the interpreter's normal exit.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_CLOSED
    sys.stderr.flush()
    os._exit(code)
