"""Stdout and exit code of a fixed set of command lines, byte for byte.

golden_cli.json holds [argv, exit code, sha256 of stdout] for each line: the
README's commands, the prop-char matrix, identities at n = 2, 5, 6 and 11,
a first-identity sweep, Jantzen sums at d <= 6 (traced, JSON, on Levis that
leave negative coordinates off their simple roots) and at the sizes the
benchmark runs (d = 30 at p = 3, full and Levi 2..30, as JSON with and
without --trace and as the text --trace; d = 30 at p = 5 and 7, the
benchmark's first weight for each at seed 1, full and Levi 2..30, as JSON
with and without --trace, since which roots' mirror levels cancel depends
on p; 20 000 levels at d = 2, as JSON and as the text --trace), Jantzen
sums at roots whose pairing a high power of p divides, each as text, JSON
and the text --trace (a[1,2] pairing to 24 = 2^3 * 3 at p = 2 and
lambda = 20,2; to 54 = 3^3 * 2 at p = 3 and lambda = 50,2; to 16 = 2^4 on
the Levi 1,2 at p = 2 and lambda = 13,1,2; to 125 = 5^3 at p = 5 and
lambda = 123,0,1, where every level of the root cancels), the largest
Jantzen sum admitted (100 000 levels at d = 2, as text, as JSON and as
--trace --json, whose 75 000-key total spans hundreds of written pieces)
and the smallest refused, Schur expansions whose prefix bounds bind deep or
that end in long runs of ones (12,8,4; ten 3s; thirty 2s), one of more than
three pieces of terms as JSON (8,6,4,2: 417 terms), the leaf walk's edge
shapes as JSON (the single box, a single row of 9 and a column of 7), a
Kostka number of twelve 1s as content, as text and JSON, the sides of the first
identity at n = 16 and a first sweep to 14 in JSON, the largest identity
listings admitted (the second at n = 45, the first at n = 23, in JSON),
multiplicity at p = 7 and, as text and JSON, at p = 11 and 13, the
benchmark's identity commands (the second identity swept to 30 and the
first swept to 12 as JSON lines, both with --jobs 1, and the second at
n = 32), the small commands and one refused input per command, and
prop-char at p = 3 and d = 1 000 000, refused by its term budget.  Stderr is
not pinned.
A change meant to alter an output replaces that entry's digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from helpers import run_cli

CORPUS = json.loads((Path(__file__).resolve().parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("argv, code, digest", CORPUS, ids=[" ".join(e[0]) for e in CORPUS])
def test_output_unchanged(argv, code, digest):
    got_code, out, _ = run_cli(argv)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_each_command_line_once():
    lines = [tuple(argv) for argv, _, _ in CORPUS]
    assert len(set(lines)) == len(lines)


# every command but selftest, which checks the library's characters against
# the oracles: each writes a character from the rows or the leaves that its
# computation made, and decides a verdict on them, so none builds a
# FormalCharacter
WRITERS = [entry for entry in CORPUS if entry[0][0] != "selftest"]


class _Built(Exception):
    pass


@pytest.fixture
def no_character(monkeypatch):
    """FormalCharacter's constructor, the one way to build a character, raises."""
    from jansum import charring

    def refuse(*args, **kwargs):
        raise _Built

    monkeypatch.setattr(charring.FormalCharacter, "__init__", refuse)


@pytest.mark.parametrize("argv, code, digest", WRITERS, ids=[" ".join(e[0]) for e in WRITERS])
def test_no_command_builds_a_character(no_character, argv, code, digest):
    got_code, out, _ = run_cli(argv)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
