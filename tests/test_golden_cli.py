"""Stdout and exit code of a fixed set of command lines, byte for byte.

golden_cli.json holds [argv, exit code, sha256 of stdout] for each line: the
README's commands, the prop-char matrix, identities at n = 2, 5, 6 and 11,
a first-identity sweep, Jantzen sums at d <= 6 (traced, JSON, on Levis that
leave negative coordinates off their simple roots) and at the sizes the
benchmark runs (d = 30 at p = 3, full and Levi 2..30, as JSON with and
without --trace and as the text --trace; d = 30 at p = 5 and 7, the
benchmark's first weight for each at seed 1, full and Levi 2..30, as JSON
with and without --trace, since which roots' mirror levels fold depends on
p; 20 000 levels at d = 2, as JSON and as the text --trace), the largest
Jantzen sum admitted (100 000 levels at d = 2, as JSON) and the smallest
refused, Schur expansions whose prefix bounds bind deep or that
end in long runs of ones (12,8,4; ten 3s; thirty 2s), the sides of the first
identity at n = 16 and a first sweep to 14 in JSON, the largest identity
listings admitted (the second at n = 45, the first at n = 23, in JSON),
multiplicity at p = 7 and, as text and JSON, at p = 11 and 13, the
benchmark's identity commands (the second identity swept to 30 and the
first swept to 12 as JSON lines, both with --jobs 1, and the second at
n = 32), the small commands and one refused input per command.  Stderr is
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
