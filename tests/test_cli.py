import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import jansum.cli as jansum_cli
from helpers import (
    jantzen_term_text,
    jantzen_term_to_json,
    random_levi,
    random_levi_dominant,
    run_cli,
)
from jansum.oracle import reference_jantzen

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


class TestIdentityCommand:
    def test_prime_equal(self):
        code, out, _ = run_cli(["identity", "--n", "5", "--which", "first"])
        assert code == 0
        assert "EQUAL" in out
        assert "(prime, theorem)" in out

    def test_second_trivial(self):
        code, out, _ = run_cli(["identity", "--n", "2", "--which", "second"])
        assert code == 0
        assert "EQUAL" in out

    def test_composite_labelled(self):
        code, out, _ = run_cli(["identity", "--n", "6", "--which", "first"])
        assert code == 0
        assert "(composite, conjecture instance)" in out

    def test_n_below_2_is_usage_error(self):
        code, _, err = run_cli(["identity", "--n", "1", "--which", "first"])
        assert code == 2
        assert "error" in err

    def test_json_round_trips(self):
        code, out, _ = run_cli(["identity", "--n", "4", "--which", "second", "--json"])
        assert code == 0
        text = out.strip()
        assert json.dumps(json.loads(text), separators=(",", ":")) == text

    def test_verification_failure_maps_to_exit_3(self, monkeypatch):
        # no true instance fails, so force one to pin the exit-code contract
        from jansum import identities

        real = identities.IdentityReport

        def broken(n, which):
            report = real(n, which)
            report.equal = False
            report.diff_leaves = [(str(n), 1)]
            return report

        monkeypatch.setattr("jansum.identities.IdentityReport", broken)
        code, out, _ = run_cli(["identity", "--n", "3", "--which", "first"])
        assert code == 3
        assert out == "n=3 first DIFFER (prime, theorem)\ndiff: m[3]\n"


class TestVerdictsWithoutTheSides:
    """Text verdicts come from the memoized walk; only JSON lists the sides
    of an identity, and a passing multiplicity family lists nothing."""

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("enumerated")

        monkeypatch.setattr("jansum.identities.ideal_leaves", refuse)

    def test_text_identity_and_sweep(self, no_enumeration):
        code, out, _ = run_cli(["identity", "--n", "32", "--which", "second"])
        assert (code, out) == (0, "n=32 second EQUAL (composite, conjecture instance)\n")
        code, out, _ = run_cli(["sweep", "2", "30", "--which", "second"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 29 and all(" EQUAL " in line for line in lines)

    def test_passing_multiplicity_lists_no_leaf(self, no_enumeration):
        code, out, _ = run_cli(["multiplicity", "--p", "23", "--d", "44"])
        assert (code, out) == (0, "below [22,22,1]: 84626 terms PASS\nbelow [22,1]: 1254 terms PASS\n")
        code, out, _ = run_cli(["multiplicity", "--p", "23", "--d", "44", "--json"])
        assert code == 0 and json.loads(out)["passed"]

    def test_json_reads_the_sides(self, no_enumeration):
        with pytest.raises(RuntimeError, match="enumerated"):
            run_cli(["identity", "--n", "32", "--which", "second", "--json"])


_COUNTED_PARTITIONS = """
import sys
from jansum import cli
from jansum.lattice import Partition
built = []

def counted(cls, *args):
    built.append(cls)
    return object.__new__(cls)

Partition.__new__ = staticmethod(counted)
print(cli.main(sys.argv[1:]), len(built), file=sys.stderr)
"""


class TestLeavesAsText:
    # The JSON writer formats each leaf from its text key, so the partitions
    # built are the top and the shapes of the right side, not the 1 060
    # leaves.  A child process of its own counts every Partition made, as
    # its class keeps the counting constructor until the process ends.
    def test_json_builds_no_partition_per_leaf(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        argv = ["identity", "--n", "12", "--which", "first", "--json"]
        proc = subprocess.run(
            [sys.executable, "-c", _COUNTED_PARTITIONS, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        code, built = map(int, proc.stderr.split())
        assert proc.stdout == "".join(run_cli(argv)[1])
        assert (code, len(json.loads(proc.stdout)["lhs"]["terms"])) == (0, 1060)
        assert 0 < built < 30, built


class TestSweepCommand:
    def test_small_sweep(self):
        code, out, _ = run_cli(["sweep", "2", "6", "--which", "second", "--jobs", "1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all("EQUAL" in line for line in lines)

    def test_parallel_matches_serial(self):
        # --jobs is still accepted, and changes nothing
        code1, out1, _ = run_cli(["sweep", "2", "7", "--which", "first", "--jobs", "1"])
        code2, out2, _ = run_cli(["sweep", "2", "7", "--which", "first", "--jobs", "3"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_jsonl_stream(self):
        code, out, _ = run_cli(
            ["sweep", "3", "5", "--which", "first", "--jsonl", "--jobs", "1"]
        )
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["n"] for r in reports] == [3, 4, 5]
        assert all(r["equal"] for r in reports)

    @pytest.mark.parametrize("jsonl", [False, True])
    def test_reports_stream_before_the_last_n(self, monkeypatch, jsonl):
        # every earlier report must be in stdout when the last n starts
        from jansum import identities

        real = identities.IdentityReport
        printed_before_last = []

        def spy(n, which):
            if n == 6:
                printed_before_last.append(sys.stdout.getvalue())
            return real(n, which)

        monkeypatch.setattr("jansum.identities.IdentityReport", spy)
        argv = ["sweep", "2", "6", "--which", "second", "--jobs", "1"]
        code, out, _ = run_cli(argv + ["--jsonl"] if jsonl else argv)
        assert code == 0
        lines = out.splitlines(keepends=True)
        assert len(lines) == 5
        assert printed_before_last == ["".join(lines[:4])]

    def test_reversed_range_is_usage_error(self):
        code, _, err = run_cli(["sweep", "5", "4", "--which", "first"])
        assert code == 2
        assert "error" in err


class TestJantzenCommand:
    def test_hand_example(self):
        code, out, _ = run_cli(["jantzen", "--p", "2", "--d", "2", "--lambda", "2,0"])
        assert code == 0
        assert "total: +χ(0,1)" in out

    def test_text_total_formats_each_key_by_template(self, monkeypatch):
        # the total's 15 000 keys are written through one template of the
        # Levi's rank; only the header line formats a Weight by its str
        from jansum.lattice import Weight

        calls = []
        real = Weight.__str__

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(Weight, "__str__", counted)
        code, out, _ = run_cli(["jantzen", "--p", "2", "--d", "2", "--lambda", "20000,0"])
        assert code == 0 and out.count("χ(") == 15_000
        assert calls == [Weight((20000, 0))]

    def test_trace_lists_terms(self):
        code, out, _ = run_cli(
            ["jantzen", "--p", "2", "--d", "2", "--lambda", "2,0", "--trace"]
        )
        assert code == 0
        assert "singular" in out
        assert "a[1,1]" in out

    def test_alternating_tail(self):
        code, out, _ = run_cli(
            ["jantzen", "--p", "5", "--d", "5", "--lambda", "1,2,0,1,0"]
        )
        assert code == 0
        assert "+χ(2,1,0,0,1)" in out
        assert "-χ(3,0,0,0,0)" in out

    def test_levi_variant_matches_tail_too(self):
        code, out, _ = run_cli(
            ["jantzen", "--p", "5", "--d", "5", "--lambda", "1,2,0,1,0", "--levi", "2,3,4,5"]
        )
        assert code == 0
        assert "+χ(2,1,0,0,1)" in out
        assert "-χ(3,0,0,0,0)" in out

    def test_eighteen_digit_prime_p(self):
        code, out, _ = run_cli(
            ["jantzen", "--p", "1000000000000000003", "--d", "2", "--lambda", "1,1"]
        )
        assert code == 0
        assert "total: 0" in out

    def test_p_beyond_the_primality_bound_exit_2(self):
        for command in (["jantzen", "--d", "2", "--lambda", "1,1"],
                        ["prop-char", "--d", "3"], ["multiplicity", "--d", "4"]):
            code, _, err = run_cli(command + ["--p", str(10**24)])
            assert code == 2
            assert err == ("error: primality is decided exactly only below "
                           f"318665857834031151167461, got {10**24}\n")

    def test_composite_p_exit_2(self):
        code, _, err = run_cli(["jantzen", "--p", "4", "--d", "2", "--lambda", "2,0"])
        assert code == 2
        assert "prime" in err

    def test_wrong_coordinate_count(self):
        code, _, _ = run_cli(["jantzen", "--p", "2", "--d", "3", "--lambda", "2,0"])
        assert code == 2

    def test_json_round_trips(self):
        code, out, _ = run_cli(
            ["jantzen", "--p", "2", "--d", "2", "--lambda", "2,0", "--trace", "--json"]
        )
        assert code == 0
        text = out.strip()
        assert json.dumps(json.loads(text), separators=(",", ":")) == text

    @pytest.mark.parametrize("trace", [[], ["--trace"], ["--trace", "--json"]])
    def test_term_budget_exit_2_at_once(self, trace):
        started = time.perf_counter()
        code, out, err = run_cli(
            ["jantzen", "--p", "2", "--d", "2", "--lambda", "100000000,0"] + trace
        )
        assert time.perf_counter() - started < 1
        assert (code, out) == (2, "")
        assert "terms; refused" in err

    def test_term_budget_refusal_is_one_short_line(self):
        # the sum refused is that of lambda_0 at rank 300 000, which the user
        # did not type: the message names the rank, p, Levi and limit
        code, out, err = run_cli(["prop-char", "--p", "3", "--d", "300000"])
        assert (code, out) == (2, "")
        assert err == (
            "error: the Jantzen sum at rank d=300000, p=3, levi=full has more than 100000 "
            "terms; refused\n"
        )
        assert len(err.encode()) < 1024


class _Refused(Exception):
    pass


def _refuse(*args, **kwargs):
    raise _Refused


def _fail_every_check(monkeypatch):
    """Make every prop-char check fail, so that each lists its terms."""
    import jansum.jantzen as jantzen_mod

    def failing_tails(seq):
        return [[(0,) * seq[0].rank + (7,)]] * len(seq)

    monkeypatch.setattr(jantzen_mod, "_tails", failing_tails)


class TestTraceOnlyWhenRead:
    # no command builds a JantzenTerm: the text and the JSON trace, and the
    # terms of a failing prop-char check, are written straight from the
    # sum's walk; only reading SumReport.terms builds them
    def test_no_command_builds_a_term(self, monkeypatch):
        import jansum.jantzen as jantzen_mod
        from jansum.lattice import Weight
        from jansum.weyl import LeviDatum

        monkeypatch.setattr(jantzen_mod, "JantzenTerm", _refuse)
        argv = ["jantzen", "--p", "5", "--d", "5", "--lambda", "1,2,0,1,0"]
        for extra in ([], ["--json"], ["--trace"], ["--trace", "--json"]):
            assert run_cli(argv + extra)[0] == 0
        prop_char = ["prop-char", "--p", "3", "--d", "4"]
        assert run_cli(prop_char)[0] == 0
        assert run_cli(prop_char + ["--json"])[0] == 0
        _fail_every_check(monkeypatch)
        code, out, _ = run_cli(prop_char)
        assert code == 3 and "\n  a[" in out
        code, out, _ = run_cli(prop_char + ["--json"])
        assert code == 3 and '"terms":[{' in out
        with pytest.raises(_Refused):
            jantzen_mod.jantzen_sum(Weight((1, 2, 0, 1, 0)), 5, LeviDatum.full(5)).terms

    def test_failing_prop_char_lists_every_term(self, monkeypatch):
        import jansum.jantzen as jantzen_mod
        from jansum.weyl import LeviDatum

        p, d = 5, 5
        _fail_every_check(monkeypatch)
        levis = (LeviDatum.full(d), LeviDatum(d, range(2, d + 1)))
        slow = [
            reference_jantzen(lam, p, levi)[0]
            for lam in jantzen_mod.lambda_sequence(p, d)
            for levi in levis
        ]
        assert sum(len(terms) for terms in slow) > 20

        code, out, _ = run_cli(["prop-char", "--p", str(p), "--d", str(d)])
        assert code == 3
        listed = [line for line in out.splitlines() if line.startswith("  a[")]
        assert listed == ["  " + jantzen_term_text(t) for terms in slow for t in terms]

        code, out, _ = run_cli(["prop-char", "--p", str(p), "--d", str(d), "--json"])
        assert code == 3
        checks = json.loads(out)["checks"]
        assert len(checks) == len(slow)
        for check, terms in zip(checks, slow):
            assert not check["passed"]
            assert check["terms"] == [jantzen_term_to_json(t) for t in terms]


class TestTotalFromTheRows:
    # the jantzen command writes its total, as text and as JSON, straight
    # from the sum's rows: it builds no object per row, so the Weights that
    # a command builds do not depend on how many rows its sum has
    def test_no_form_builds_the_total(self, monkeypatch):
        from jansum.lattice import Weight

        built = 0
        init = Weight.__init__

        def counted(self, coords):
            nonlocal built
            built += 1
            init(self, coords)

        monkeypatch.setattr(Weight, "__init__", counted)
        counts: dict = {}
        for lam, rows in (("0,0", 0), ("300,0", 225), ("3000,0", 2250)):
            for extra in ([], ["--json"], ["--trace"], ["--trace", "--json"]):
                built = 0
                code, out, _ = run_cli(["jantzen", "--p", "2", "--d", "2", "--lambda", lam, *extra])
                assert code == 0
                if not extra:
                    assert out.count("χ(") == rows, lam
                counts.setdefault(" ".join(extra), set()).add(built)
        assert all(len(seen) == 1 for seen in counts.values()), counts


class TestTextTrace:
    # each line of the text trace, byte for byte, against the slow reference
    # sum formatted field by field (helpers.jantzen_term_text)
    def test_every_line_matches_the_reference_term(self):
        rng = random.Random(1912)
        lines = singular = negative = 0
        for _ in range(80):
            d = rng.randint(2, 6)
            levi = random_levi(rng, d)
            while not levi.simples:
                levi = random_levi(rng, d)
            lam = random_levi_dominant(rng, levi, hi=9)
            p = rng.choice((2, 3, 5, 7))
            code, out, _ = run_cli([
                "jantzen", "--p", str(p), "--d", str(d), "--lambda", ",".join(map(str, lam.coords)),
                "--levi", ",".join(map(str, sorted(levi.simples))), "--trace",
            ])
            assert code == 0
            listed = [line for line in out.splitlines() if line.startswith("  a[")]
            expected = ["  " + jantzen_term_text(t) for t in reference_jantzen(lam, p, levi)[0]]
            assert listed == expected, (lam, p, levi)
            lines += len(listed)
            singular += sum(line.endswith("-> singular") for line in listed)
            negative += min(lam.coords) < 0
        assert lines > 500 and 0 < singular < lines and negative > 20


class TestPropCharCommand:
    def test_passes(self):
        code, out, _ = run_cli(["prop-char", "--p", "3", "--d", "4"])
        assert code == 0
        assert sum("PASS" in line for line in out.splitlines()) >= 4
        assert "FAIL" not in out

    def test_json(self):
        code, out, _ = run_cli(["prop-char", "--p", "3", "--d", "3", "--json"])
        assert code == 0
        blob = json.loads(out)
        assert blob["passed"] is True
        assert all(c["passed"] for c in blob["checks"])

    def test_composite_p(self):
        code, _, _ = run_cli(["prop-char", "--p", "9", "--d", "4"])
        assert code == 2


class TestSimpleCommands:
    def test_sequence(self):
        code, out, _ = run_cli(["sequence", "--p", "5", "--d", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "lambda_0 = (0,3,1,0,0)",
            "lambda_1 = (1,2,0,1,0)",
            "lambda_2 = (2,1,0,0,1)",
            "lambda_3 = (3,0,0,0,0)",
        ]

    def test_schur(self):
        code, out, _ = run_cli(["schur", "--lambda", "2,1"])
        assert code == 0
        assert out.strip() == "S[2,1] = m[2,1] + 2·m[1,1,1]"

    def test_kostka(self):
        code, out, _ = run_cli(["kostka", "--lambda", "2,1", "--mu", "1,1,1"])
        assert code == 0
        assert out.strip() == "2"

    def test_a_column_of_1200_boxes(self):
        ones = ",".join(["1"] * 1200)
        code, out, _ = run_cli(["schur", "--lambda", ones])
        assert (code, out) == (0, f"S[{ones}] = m[{ones}]\n")
        code, out, _ = run_cli(["kostka", "--lambda", ones, "--mu", ones])
        assert (code, out) == (0, "1\n")

    def test_kostka_size_mismatch(self):
        code, _, _ = run_cli(["kostka", "--lambda", "2,1", "--mu", "1,1"])
        assert code == 2

    def test_normalize_regular(self):
        code, out, _ = run_cli(["normalize", "--d", "2", "--coords", "-3,3"])
        assert code == 0
        assert out.strip() == "sign=-1 dominant=(1,1)"

    def test_normalize_singular_json(self):
        code, out, _ = run_cli(["normalize", "--d", "2", "--coords", "0,-2", "--json"])
        assert code == 0
        assert json.loads(out) == {"singular": True}

    def test_normalize_with_levi(self):
        code, out, _ = run_cli(
            ["normalize", "--d", "4", "--coords", "1,-2,1,0", "--levi", "1,3"]
        )
        assert code == 0
        assert out.strip() == "sign=+1 dominant=(1,-2,1,0)"

    def test_multiplicity(self):
        code, out, _ = run_cli(["multiplicity", "--p", "3", "--d", "4"])
        assert code == 0
        assert out.count("PASS") == 2

    def test_multiplicity_refusal(self):
        code, _, err = run_cli(["multiplicity", "--p", "5", "--d", "7"])
        assert code == 2
        assert "2p-2" in err

    def test_selftest(self):
        code, out, _ = run_cli(["selftest"])
        assert code == 0
        assert "selftest passed" in out

    def test_selftest_mismatch_exit_4(self, monkeypatch):
        # sabotage the fast path so the oracle disagreement path is exercised
        import jansum.cli as cli_mod

        monkeypatch.setattr(cli_mod, "kostka", lambda lam, mu: 999)
        code, out, _ = run_cli(["selftest"])
        assert code == 4
        assert "MISMATCH" in out


# one bad input per subcommand: the library refuses all but the last, which
# argparse refuses
USAGE_ERRORS = {
    "identity": ["identity", "--n", "1", "--which", "first"],
    "sweep": ["sweep", "5", "4", "--which", "first"],
    "jantzen": ["jantzen", "--p", "2", "--d", "2", "--lambda", "-1,0"],
    "prop-char": ["prop-char", "--p", "3", "--d", "2"],
    "sequence": ["sequence", "--p", "1", "--d", "5"],
    "schur": ["schur", "--lambda", "1,2"],
    "kostka": ["kostka", "--lambda", "2,1", "--mu", "1,1"],
    "normalize": ["normalize", "--d", "2", "--coords", "1,2,3"],
    "multiplicity": ["multiplicity", "--p", "5", "--d", "7"],
    "selftest": ["selftest", "--bogus"],
}


class TestUsageErrors:
    @pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
    def test_exit_2_with_nothing_on_stdout(self, name):
        code, out, err = run_cli(USAGE_ERRORS[name])
        assert (code, out) == (2, "")
        assert "error" in err


_TOP_USAGE = (
    "usage: jansum [-h]\n"
    "              {identity,sweep,jantzen,prop-char,sequence,schur,kostka,normalize,multiplicity,selftest}\n"
    "              ...\n"
)
_IDENTITY_USAGE = "usage: jansum identity [-h] --n N --which {first,second} [--json]\n"
_JANTZEN_USAGE = (
    "usage: jansum jantzen [-h] --p P --d D --lambda COORDS [--levi SIMPLES]\n"
    "                      [--trace] [--json]\n"
)

# [argv, stderr] of each error argparse reports, as it lays them out on
# Python 3.11 at 80 columns
USAGE_STDERR = [
    [["selftest", "--bogus"], _TOP_USAGE + "jansum: error: unrecognized arguments: --bogus\n"],
    [["identity", "--n", "3"],
     _IDENTITY_USAGE + "jansum identity: error: the following arguments are required: --which\n"],
    [["identity", "--n", "x", "--which", "first"],
     _IDENTITY_USAGE + "jansum identity: error: argument --n: invalid int value: 'x'\n"],
    [["identity", "--n", "3", "--which", "third"],
     _IDENTITY_USAGE + "jansum identity: error: argument --which: invalid choice: 'third' "
     "(choose from 'first', 'second')\n"],
    [["jantzen", "--p", "x", "--d", "2", "--lambda", "1,1"],
     _JANTZEN_USAGE + "jansum jantzen: error: argument --p: invalid int value: 'x'\n"],
    [["bogus"],
     _TOP_USAGE + "jansum: error: argument command: invalid choice: 'bogus' (choose from "
     "'identity', 'sweep', 'jantzen', 'prop-char', 'sequence', 'schur', 'kostka', "
     "'normalize', 'multiplicity', 'selftest')\n"],
    [[], _TOP_USAGE + "jansum: error: the following arguments are required: command\n"],
    [["normalize", "--d", "2", "--coords"],
     "usage: jansum normalize [-h] --d D --coords COORDS [--levi SIMPLES] [--json]\n"
     "jansum normalize: error: argument --coords: expected one argument\n"],
]


@pytest.mark.parametrize("argv, stderr", USAGE_STDERR, ids=[" ".join(e[0]) or "(none)" for e in USAGE_STDERR])
def test_usage_error_stderr_unchanged(monkeypatch, argv, stderr):
    # argparse wraps usage to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(argv) == (2, "", stderr)


_BOUND = f"primality is decided exactly only below 318665857834031151167461, got {10**24}"

# [argv, message] of each --p the library refuses: argparse reads any int,
# and the message is that of the library check that fires first
P_REFUSALS = [
    [["jantzen", "--p", "4", "--d", "2", "--lambda", "2,0"], "p must be prime, got 4"],
    [["jantzen", "--p", "1", "--d", "2", "--lambda", "2,0"], "p must be prime, got 1"],
    [["jantzen", "--p", "0", "--d", "2", "--lambda", "2,0"], "p must be prime, got 0"],
    [["jantzen", "--p", str(10**24), "--d", "2", "--lambda", "2,0"], _BOUND],
    [["prop-char", "--p", "4", "--d", "5"], "p must be prime, got 4"],
    [["prop-char", "--p", "1", "--d", "5"], "need p >= 2, got 1"],
    [["prop-char", "--p", "0", "--d", "5"], "need p >= 2, got 0"],
    [["prop-char", "--p", str(10**24), "--d", "5"], _BOUND],
    [["multiplicity", "--p", "4", "--d", "10"], "p must be prime, got 4"],
    [["multiplicity", "--p", "1", "--d", "10"], "p must be prime, got 1"],
    [["multiplicity", "--p", "0", "--d", "10"], "p must be prime, got 0"],
    [["multiplicity", "--p", str(10**24), "--d", "10"], _BOUND],
]


@pytest.mark.parametrize("argv, message", P_REFUSALS, ids=[" ".join(e[0][:3]) for e in P_REFUSALS])
def test_bad_p_is_the_library_refusal(argv, message):
    assert run_cli(argv) == (2, "", f"error: {message}\n")


# the add_argument keywords that cli._parse reads; of actions it reads only
# store_true
HANDLED_KEYWORDS = {"type", "required", "choices", "dest", "action", "help", "metavar"}

# values an argument takes in a well-formed command line, by its type
GOOD_VALUES = {"int": ["2", "7", "30"],
               "_int_list": ["1,2", "-3,3", "0", "2,-1", "-5"]}
# values that are negative, dash-led, empty or otherwise not what a type takes
ODD_VALUES = ["-3", "-x", "-", "--", "-1,x", "", "x", "4", "1,,2", " 3", "+3", "third", "-h",
              "--json", "-3,3", "3.0", "-1_0", "1_0"]


def _value(rng, keywords):
    if "choices" in keywords:
        return rng.choice(keywords["choices"])
    return rng.choice(GOOD_VALUES[keywords["type"].__name__])


def _well_formed(rng, name):
    """A random well-formed argv of one command: every required argument
    and some optional ones, options in random order, and the positionals
    before, between or after them."""
    _, arguments, _ = jansum_cli._COMMANDS[name]
    groups, positionals = [], []
    for flag, keywords in arguments:
        if flag[0] != "-":
            positionals.append([_value(rng, keywords)])
        elif keywords.get("required") or rng.random() < 0.5:
            store_true = keywords.get("action") == "store_true"
            groups.append([flag] if store_true else [flag, _value(rng, keywords)])
    rng.shuffle(groups)
    for group in positionals:
        groups.insert(rng.randint(0, len(groups)), group)
    return [name] + [token for group in groups for token in group]


def _mutants(rng, argv):
    """Command lines near argv: one token dropped, a flag abbreviated or
    unknown, a flag and its value joined by '=', a flag repeated, a value
    made odd, -h or --help inserted, the command name changed."""
    name = argv[0]
    _, arguments, _ = jansum_cli._COMMANDS[name]
    flags = [i for i, token in enumerate(argv) if token.startswith("--")]
    at = rng.randint(1, len(argv))
    yield argv[:at - 1] + argv[at:]
    if flags:
        i = rng.choice(flags)
        yield argv[:i] + [argv[i][:rng.randint(2, len(argv[i]) - 1)]] + argv[i + 1:]
        yield argv[:i] + ["--bogus"] + argv[i + 1:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            yield argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]
    for flag, keywords in arguments:
        if flag[0] == "-":
            extra = [flag] if keywords.get("action") == "store_true" else [flag, _value(rng, keywords)]
            yield argv + extra
            yield extra + argv[1:] if rng.random() < 0.5 else argv[:1] + extra + argv[1:]
            if keywords.get("action") != "store_true":
                yield argv + [flag, rng.choice(ODD_VALUES)]
                yield argv + [flag]
    for i in range(1, len(argv)):
        if not argv[i].startswith("--"):
            yield argv[:i] + [rng.choice(ODD_VALUES)] + argv[i + 1:]
    yield argv + [rng.choice(ODD_VALUES)]
    yield argv[:at] + [rng.choice(["-h", "--help"])] + argv[at:]
    yield [rng.choice(["Identity", "sweeps", "-h", "--help", "", "prop_char"])] + argv[1:]


class TestTableParser:
    """cli._parse against argparse: whatever _parse accepts, argparse parses
    to the same attributes; whatever it declines goes to argparse."""

    @pytest.fixture(scope="class")
    def oracle(self):
        parser = jansum_cli.build_parser()

        def parse(argv):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    return vars(parser.parse_args(jansum_cli._merge_dash_values(argv)))
                except SystemExit:
                    return None

        return parse

    def test_every_keyword_is_one_it_reads(self):
        for name, (_, arguments, _) in jansum_cli._COMMANDS.items():
            for flag, keywords in arguments:
                assert set(keywords) <= HANDLED_KEYWORDS, (name, flag)
                assert keywords.get("action", "store_true") == "store_true", (name, flag)
                # argparse checks only the form of a value; every refusal of
                # a parsed value is the library's, so no type may check more
                assert keywords.get("type", int) in (int, jansum_cli._int_list), (
                    f"{name} {flag}: a type other than int or _int_list would repeat "
                    "a check that belongs to the library", keywords["type"])

    def test_agrees_with_argparse(self, oracle):
        rng = random.Random(1109)
        accepted = declined = 0
        for name in jansum_cli._COMMANDS:
            for _ in range(25):
                argv = _well_formed(rng, name)
                parsed = jansum_cli._parse(argv)
                assert parsed is not None, argv
                assert vars(parsed) == oracle(argv), argv
                for mutant in _mutants(rng, argv):
                    parsed = jansum_cli._parse(mutant)
                    if parsed is None:
                        declined += 1
                    else:
                        accepted += 1
                        assert vars(parsed) == oracle(mutant), mutant
        for argv in ([], ["-h"], ["--help"], ["--", "selftest"]):
            assert jansum_cli._parse(argv) is None
        assert accepted > 500 and declined > 1000

    def test_reads_every_workload_command(self, oracle, monkeypatch):
        # the benchmark's command lines are all well formed: none needs argparse
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        for workload in workloads.WORKLOADS:
            for seed in range(1, 4):
                for command in workloads.build(workload, seed):
                    argv = list(command.argv)
                    parsed = jansum_cli._parse(argv)
                    assert parsed is not None and vars(parsed) == oracle(argv), argv


# [argv, exit code, sha256 of stdout] of the top-level help and of each
# subcommand's, as argparse lays it out on Python 3.11 at 80 columns
HELP = [
    [["--help"], 0, "a765b9b11cd43e8796bc9e695cec6cda71749dabc6e95138bd8f0abae388a773"],
    [["identity", "--help"], 0, "8cc3546da7e555236df82157c80d30f621d7765667c98e10eb2a6ea7a703a1e2"],
    [["sweep", "--help"], 0, "0d5597b64b14048cb0ced94098a02c59501e9de530353c5ca88c2eee6e5f9249"],
    [["jantzen", "--help"], 0, "c7d1043333b625157aa5b2477cb9131a2da35eb4986a1472950811e97874a242"],
    [["prop-char", "--help"], 0, "932b3283e1b224bcab8f8be80476329e07c3c2697a879b3a5d9c144489efaf12"],
    [["sequence", "--help"], 0, "1ad38876596406ca289fa4e9ce10c65a440aee0548316185c47b0eae89d295d0"],
    [["schur", "--help"], 0, "28e7a8ef13f660fd22c7df33b7fe02df273176fd37f9453858e381592abb3737"],
    [["kostka", "--help"], 0, "e1c86934427f93c27ec4fcf9ab2f9db809602d835ff8f805042cd8d2ed526d76"],
    [["normalize", "--help"], 0, "f6c7f3662fef6ff19add2ef2912df778f64844c91061e7bddd6be143b8b1f3b9"],
    [["multiplicity", "--help"], 0, "3664d9629685a73c9e1fa3b8921aac570aef79850afd29c1a3be32ae0277975c"],
    [["selftest", "--help"], 0, "192c17336336f6aedf3755615aa9d922d5118c63823d36174522d8e9b09b13c4"],
]


@pytest.mark.parametrize("argv, code, digest", HELP, ids=[" ".join(e[0]) for e in HELP])
def test_help_unchanged(monkeypatch, argv, code, digest):
    # argparse wraps help to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    got_code, out, _ = run_cli(argv)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


LEFTOVER_CACHES = {
    "garbage": "{ this is not json",
    "version-0": json.dumps({"version": 0, "entries": [[[2, 1], [1, 1, 1], 99]]}),
    "version-1": json.dumps({"version": 1, "entries": [[[2, 1], [1, 1, 1], 7]]}),
}


class TestCache:
    # Earlier releases kept Kostka numbers in a JSON file under the user
    # cache directory and fed them back into results.  Nothing reads or
    # writes such a file now, whatever it holds.
    @pytest.mark.parametrize("name", sorted(LEFTOVER_CACHES))
    def test_leftover_file_cannot_change_a_result(self, tmp_path, monkeypatch, name):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("HOME", str(tmp_path))
        path = tmp_path / "jansum" / "kostka.json"
        path.parent.mkdir()
        path.write_text(LEFTOVER_CACHES[name])
        before = path.read_bytes()
        code, out, _ = run_cli(["identity", "--n", "3", "--which", "second"])
        assert (code, out) == (0, "n=3 second EQUAL (prime, theorem)\n")
        code, out, _ = run_cli(["kostka", "--lambda", "2,1", "--mu", "1,1,1"])
        assert (code, out) == (0, "2\n")
        assert path.read_bytes() == before
        assert sorted(tmp_path.rglob("*")) == [path.parent, path]


class TestSubprocessEntry:
    def test_module_invocation(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "jansum", "identity", "--n", "3", "--which", "first"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "EQUAL" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["identity", "--n", "150", "--which", "second"],
        ["sweep", "2", "150", "--which", "second", "--jobs", "1"],
        ["schur", "--lambda", "150"],
    ])
    def test_huge_ideal_refused(self, argv):
        # about 4e10 partitions: refused up front.  In a subprocess, so that
        # a missing refusal fails on the timeout instead of hanging the
        # suite.
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "jansum", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "refused" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["normalize", "--d", "100000000", "--coords", "1,2"],
        ["jantzen", "--p", "3", "--d", "100000000", "--lambda", "1,2"],
    ])
    def test_huge_d_rank_mismatch_refused_at_once(self, argv):
        # a Levi of rank d is O(d) to build; the rank check must come first.
        # Under a 1 GB address-space cap, so that building it fails with a
        # MemoryError instead of taking the host's memory.
        cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", f"{cap}; from jansum.cli import entry; entry()", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "rank mismatch: weight 2, Levi 100000000" in proc.stderr
        assert elapsed < 2

    def test_usage_error_exit_code(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "jansum", "identity", "--n", "3"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2


_PEAK_RSS = """
import resource, subprocess, sys
with open(sys.argv[1], "w") as out:
    code = subprocess.call([sys.executable, "-m", "jansum", *sys.argv[2:]], stdout=out)
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


class TestStreamedTrace:
    # Both traces are written term by term as the walk makes them, so
    # neither holds all the terms: the text trace costs no more memory than
    # the JSON one, and the JSON trace no more than the untraced JSON report.
    # Each command runs under a wrapper of its own, whose RUSAGE_CHILDREN
    # sees that command's peak alone.
    def test_text_trace_peaks_no_higher_than_json_trace(self, tmp_path):
        argv = ["jantzen", "--p", "2", "--d", "2", "--lambda", "50000,0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        peaks = {}
        runs = (("text", ["--trace"]), ("json", ["--trace", "--json"]), ("untraced", ["--json"]))
        for name, extra in runs:
            proc = subprocess.run(
                [sys.executable, "-c", _PEAK_RSS, str(tmp_path / name), *argv, *extra],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            code, peaks[name] = map(int, proc.stdout.split())
            assert code == 0, proc.stderr
        blob = json.loads((tmp_path / "json").read_text())
        assert len(blob["terms"]) == 50000
        text = (tmp_path / "text").read_text().splitlines()
        assert sum(line.startswith("  a[") for line in text) == 50000
        assert peaks["text"] <= peaks["json"] * 1.05
        assert "terms" not in json.loads((tmp_path / "untraced").read_text())
        assert peaks["json"] <= peaks["untraced"] * 1.05


class TestHugeRankRefusal:
    # prop-char refuses a sum that the full group's block size alone shows
    # to be too large before it builds the lambda sequence or a Levi of
    # rank d (at d = 1 000 000 those took 0.3 s and 145 MB).  A lambda
    # sequence, or a prop-char check's sums and tails, of more coordinates
    # than jantzen.COORD_LIMIT is refused before any weight is built:
    # unrefused, under a 2 GB address-space cap, the last four inputs below
    # ran 25-30 s and died of MemoryError (exit 1), or ran past 30 s
    @pytest.mark.parametrize("argv, message", [
        (["prop-char", "--p", "3", "--d", "1000000"],
         "the Jantzen sum at rank d=1000000, p=3, levi=full has more than 100000 terms; refused"),
        (["sequence", "--p", "30000", "--d", "30000"],
         "the lambda sequence at p=30000, d=30000 has more than 2500000 coordinates; refused"),
        (["prop-char", "--p", "29983", "--d", "29983"],
         "the telescope at p=29983, d=29983 has more than 2500000 coordinates; refused"),
        (["prop-char", "--p", "5003", "--d", "5003"],
         "the telescope at p=5003, d=5003 has more than 2500000 coordinates; refused"),
        (["prop-char", "--p", "1009", "--d", "1009"],
         "the telescope at p=1009, d=1009 has more than 2500000 coordinates; refused"),
    ])
    def test_refused_without_building_rank_d(self, tmp_path, argv, message):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, str(tmp_path / "out"), *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        code, peak_kib = map(int, proc.stdout.split())
        assert code == 2 and (tmp_path / "out").read_text() == ""
        assert proc.stderr == f"error: {message}\n"
        assert peak_kib < 40 * 1024


_START_UP = """
import sys
before = set(sys.modules)
import jansum.cli
print(sorted(set(sys.modules) - before))
for extra in ([], ["--json"], ["--trace", "--json"]):
    jansum.cli.main(sys.argv[1:] + extra)
print("json" in sys.modules)
"""


class TestStartUp:
    # Every command is a process of its own and pays for what importing the
    # CLI loads.  run_cli is in-process, so only a fresh interpreter sees it,
    # and one without site, which may load modules of its own.
    def test_cli_import_loads_no_heavy_module(self):
        argv = ["jantzen", "--p", "5", "--d", "5", "--lambda", "1,2,0,1,0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _START_UP, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        loaded = set(ast.literal_eval(lines[0]))
        assert "jansum.cli" in loaded
        assert not loaded & {
            "dataclasses", "inspect", "json", "jansum.oracle", "random", "re", "typing"
        }
        # neither the text report nor the JSON ones, traced or not, load
        # json; they print the same bytes as in-process
        assert lines[-1] == "False"
        expected = "".join(run_cli(argv + extra)[1] for extra in ([], ["--json"], ["--trace", "--json"]))
        assert "\n".join(lines[1:-1]) + "\n" == expected
        for text in lines[-3:-1]:
            assert json.dumps(json.loads(text), separators=(",", ":")) == text

    def _loaded(self, module, argvs):
        """Whether running argvs one after another in a fresh interpreter
        loads module."""
        script = (
            "import sys, jansum.cli\n"
            f"for argv in {argvs!r}:\n"
            "    try:\n"
            "        jansum.cli.main(argv)\n"
            "    except SystemExit:\n"
            "        pass\n"
            f"print({module!r} in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1] == "True"

    def test_composite_p_loads_no_argparse(self):
        # the library refuses it after parsing, so only -X importtime sees
        # whether the process loaded argparse on the way
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "jansum",
             "jantzen", "--p", "4", "--d", "2", "--lambda", "2,0"],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.endswith("\nerror: p must be prime, got 4\n")
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "jansum.cli" in imported
        assert "argparse" not in imported

    def test_well_formed_commands_load_no_argparse(self):
        # one command line of each kind the benchmark's session runs
        assert not self._loaded("argparse", [
            ["kostka", "--lambda", "3,2,1", "--mu", "2,2,1,1"],
            ["schur", "--lambda", "3,1"],
            ["normalize", "--coords", "-5,-1,-6", "--levi", "2,3", "--d", "3"],
            ["identity", "--n", "7", "--which", "first"],
            ["jantzen", "--p", "3", "--d", "4", "--lambda", "1,0,2,1", "--trace"],
            ["sequence", "--p", "5", "--d", "5"],
            ["multiplicity", "--p", "3", "--d", "5"],
            ["selftest"],
            ["sweep", "2", "8", "--which", "second", "--jsonl", "--jobs", "1"],
        ])

    @pytest.mark.parametrize("argv", [["--help"], ["identity", "--n", "3"]])
    def test_help_and_usage_errors_load_argparse(self, argv):
        assert self._loaded("argparse", [argv])

    def test_json_commands_load_no_json(self):
        # the only strings these print (an identity's which and label, a
        # Levi's description) are written between quotes by serialize
        assert not self._loaded("json", [
            ["identity", "--n", "7", "--which", "first", "--json"],
            ["sweep", "2", "8", "--which", "second", "--jsonl"],
            ["prop-char", "--p", "3", "--d", "4", "--json"],
        ])


def _child_env() -> dict:
    """The environment of a child `python -m jansum`: the sources on its
    path, and its stdout block-buffered as on any pipe or file by default,
    so that output the CLI fails to flush is lost."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    return env


GOLDEN = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
_LARGEST = (
    ["jantzen", "--p", "2", "--d", "2", "--lambda", "100000,0", "--trace", "--json"],
    ["identity", "--n", "45", "--which", "second", "--json"],
)


def _exit_path_cases():
    """Golden entries: the first of each subcommand that exits 0, every
    refusal (argparse's, the library's, the term and ideal budgets) and the
    two largest outputs."""
    first = {}
    for entry in GOLDEN:
        if entry[1] == 0:
            first.setdefault(entry[0][0], entry)
    cases = [*first.values(), *(e for e in GOLDEN if e[1] != 0), *(e for e in GOLDEN if e[0] in _LARGEST)]
    assert set(first) == set(jansum_cli._COMMANDS) and len(cases) == len(first) + 16 + 2
    return cases


_EXIT_CASES = _exit_path_cases()


# a child that replaces module.name by eval(source), with `real` the
# function replaced, then runs the CLI, which it imports first since it binds
# what it calls
_PATCHED = """
import importlib, sys, jansum.cli
module, name, source = sys.argv[1:4]
del sys.argv[1:4]
m = importlib.import_module(module)
setattr(m, name, eval(source, {"real": getattr(m, name)}))
jansum.cli.entry()
"""


class TestExit:
    # entry() flushes stdout and stderr and ends the process with os._exit,
    # skipping the interpreter's teardown.  run_cli calls main in-process,
    # so only a child process sees a write that the exit would lose.
    @pytest.mark.parametrize("argv, code, digest", _EXIT_CASES,
                             ids=[" ".join(e[0]) for e in _EXIT_CASES])
    def test_child_matches_the_corpus(self, argv, code, digest):
        proc = subprocess.run([sys.executable, "-m", "jansum", *argv], capture_output=True,
                              env=_child_env(), timeout=60)
        assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == (code, digest)
        assert proc.stderr.decode() == run_cli(argv)[2]

    def test_child_writing_to_a_file(self, tmp_path):
        argv, code, digest = next(e for e in GOLDEN if e[0] == _LARGEST[1])
        path = tmp_path / "out"
        with open(path, "wb") as out:
            proc = subprocess.run([sys.executable, "-m", "jansum", *argv], stdout=out,
                                  stderr=subprocess.PIPE, env=_child_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (code, b"")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    # exit 3: the second identity without its last hook (see
    # test_identities.py, TestNegativeControl); exit 4: Kostka numbers that
    # disagree with the oracle, or Jantzen sums that each lose their first row
    @pytest.mark.parametrize("code, patch, argv, shown", [
        (3, ("jansum.identities", "second_identity_shapes", "lambda n: real(n)[:-1]"),
         ["identity", "--n", "6", "--which", "second"], "DIFFER"),
        (4, ("jansum.cli", "kostka", "lambda lam, mu: 999"), ["selftest"],
         "MISMATCH kostka-vs-ssyt"),
        (4, ("jansum.cli", "jantzen_sum",
             "lambda *args: (lambda r: setattr(r, 'rows', r.rows[1:]) or r)(real(*args))"),
         ["selftest"], "MISMATCH jantzen-vs-reference"),
    ], ids=["exit-3", "exit-4", "exit-4-jantzen"])
    def test_failing_verdicts(self, monkeypatch, code, patch, argv, shown):
        proc = subprocess.run([sys.executable, "-c", _PATCHED, *patch, *argv], capture_output=True,
                              text=True, env=_child_env(), timeout=60)
        module, name, source = patch
        m = importlib.import_module(module)
        monkeypatch.setattr(m, name, eval(source, {"real": getattr(m, name)}))
        expected = run_cli(argv)
        assert expected[0] == code and shown in expected[1]
        assert (proc.returncode, proc.stdout, proc.stderr) == expected

    @pytest.mark.parametrize("argv, code", [
        (["identity", "--n", "3", "--which", "first"], 0),
        (["identity", "--n", "1", "--which", "first"], 2),
        (["selftest"], 0),
    ], ids=["identity", "refused", "selftest"])
    def test_flushes_before_it_exits_with_mains_code(self, monkeypatch, argv, code):
        events = []

        class Stream(io.StringIO):
            def flush(self):
                events.append((self.name, self.getvalue()))

        class Exited(Exception):
            pass

        def exit_(status):
            events.append(("exit", status))
            raise Exited

        out, err = Stream(), Stream()
        out.name, err.name = "stdout", "stderr"
        monkeypatch.setattr(sys, "argv", ["jansum", *argv])
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        monkeypatch.setattr(os, "_exit", exit_)
        with pytest.raises(Exited):
            jansum_cli.entry()
        _, expected_out, expected_err = run_cli(argv)
        assert events[-3:] == [("stdout", expected_out), ("stderr", expected_err), ("exit", code)]

    # a pipe whose read end is closed raises BrokenPipeError at the first
    # write that reaches it: a write when stdout is unbuffered or the output
    # outgrows the buffer, else entry's flush; either way the process ends
    # with 141 (128 + SIGPIPE) and writes nothing to stderr
    @pytest.mark.parametrize("argv, unbuffered", [
        (["identity", "--n", "3", "--which", "first"], True),
        (["identity", "--n", "3", "--which", "first"], False),
        (["jantzen", "--p", "2", "--d", "2", "--lambda", "100000,0", "--json"], False),
    ], ids=["unbuffered", "buffered", "buffered-large"])
    def test_closed_stdout(self, argv, unbuffered):
        env = _child_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "jansum", *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, "")
