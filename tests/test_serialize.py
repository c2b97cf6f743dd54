import json
import random
import tracemalloc

import pytest

from helpers import (
    brute_partitions,
    character_to_json,
    character_to_text,
    identity_report_to_json,
    levi_to_json,
    multiplicity_report_to_json,
    partition_to_json,
    prop_char_report_to_json,
    random_levi,
    random_levi_dominant,
    random_weight,
    run_cli,
    schur_sum_by_kostka,
    signed_dominant_to_json,
    sorted_terms,
    sum_report_to_json,
    weight_to_json,
)
from jansum.charring import (
    BASIS_MONOMIAL,
    BASIS_WEYL,
    FormalCharacter,
    _monomial_character,
    schur_sum_leaves,
    schur_to_monomial,
)
from jansum.identities import (
    SupportCheck,
    first_identity_shapes,
    multiplicity_one_report,
    second_identity_shapes,
    verify_first_identity,
    verify_second_identity,
)
from jansum.jantzen import (
    PropCharReport,
    SumReport,
    jantzen_sum,
    lambda_sequence,
    verify_prop_char,
)
from jansum.lattice import Partition, Weight
from jansum.serialize import (
    _PIECE,
    identity_report_json,
    levi_json,
    monomial_json,
    monomial_text,
    multiplicity_report_json,
    partition_json,
    prop_char_report_json,
    signed_dominant_json,
    sum_report_json,
    weight_json,
    weyl_json,
    weyl_text,
)
from jansum.weyl import LeviDatum, SignedDominant, dot_normalize


def parsed_terms(blob: dict) -> dict:
    """{key: coefficient} rebuilt from the JSON form of a character."""
    def key(k):
        return Partition(k) if blob["basis"] == "monomial" else Weight(k["coords"])

    return {key(t["key"]): int(t["coeff"]) for t in blob["terms"]}


def oracle_text(form) -> str:
    return json.dumps(form, separators=(",", ":"))


def listing(ch) -> list:
    """The form a writer takes of a character, in the helpers' own sorted
    order: (text key, coeff) leaves of a monomial one, as the identity and
    Schur walks list them, and (*coords, coeff) rows of a Weyl one, as
    jantzen_sum and the prop-char tails sort them."""
    if ch.basis == BASIS_MONOMIAL:
        return [(",".join(map(str, mu.parts)), c) for mu, c in sorted_terms(ch)]
    return [(*w.coords, c) for w, c in sorted_terms(ch)]


def json_pieces(ch) -> list[str]:
    if ch.basis == BASIS_MONOMIAL:
        return list(monomial_json(listing(ch)))
    return list(weyl_json(ch.levi, listing(ch)))


def text_pieces(ch) -> list[str]:
    if ch.basis == BASIS_MONOMIAL:
        return list(monomial_text(listing(ch)))
    return list(weyl_text(ch.levi, listing(ch)))


def json_of(ch) -> str:
    return "".join(json_pieces(ch))


def text_of(ch) -> str:
    return "".join(text_pieces(ch))


class TestScalarForms:
    def test_partition(self):
        assert partition_to_json(Partition((2, 2, 1))) == [2, 2, 1]

    def test_weight(self):
        w = Weight((0, 1, 1, 0))
        assert weight_to_json(w) == {"d": 4, "coords": [0, 1, 1, 0]}

    def test_levi(self):
        levi = LeviDatum(4, (2, 3))
        assert levi_to_json(levi) == {"d": 4, "simples": [2, 3]}

    def test_signed_dominant(self):
        assert signed_dominant_to_json(SignedDominant.singular()) == {"singular": True}
        out = dot_normalize(Weight((-3, 3)), LeviDatum.full(2))
        assert signed_dominant_to_json(out) == {
            "sign": -1,
            "dominant": {"d": 2, "coords": [1, 1]},
        }


class TestCharacterForm:
    def test_monomial_schema_and_order(self):
        ch = schur_to_monomial(Partition((2, 1)))
        assert character_to_json(ch) == {
            "basis": "monomial",
            "terms": [
                {"key": [2, 1], "coeff": "1"},
                {"key": [1, 1, 1], "coeff": "2"},
            ],
        }

    def test_weyl_schema(self):
        levi = LeviDatum.full(2)
        ch = FormalCharacter(BASIS_WEYL, levi, {Weight((0, 1)): -1})
        assert character_to_json(ch) == {
            "basis": "weyl",
            "levi": {"d": 2, "simples": [1, 2]},
            "terms": [{"key": {"d": 2, "coords": [0, 1]}, "coeff": "-1"}],
        }

    def test_round_trip_values(self):
        for ch in (
            schur_to_monomial(Partition((3, 2))),
            jantzen_sum(Weight((4, 3, 2)), 2, LeviDatum.full(3)).total,
        ):
            blob = json.loads(json_of(ch))
            assert blob == character_to_json(ch)
            assert parsed_terms(blob) == ch.terms
            assert blob.get("levi") == (ch.levi and levi_to_json(ch.levi))

    def test_text_forms(self):
        levi = LeviDatum.full(2)
        assert text_of(FormalCharacter(BASIS_MONOMIAL, None, {})) == "0"
        assert text_of(FormalCharacter(BASIS_WEYL, levi, {})) == "0"
        assert text_of(schur_to_monomial(Partition((2, 1)))) == "m[2,1] + 2·m[1,1,1]"
        ch = FormalCharacter(BASIS_MONOMIAL, None, {Partition((2,)): -2, Partition(()): -1})
        assert text_of(ch) == "-2·m[2] - m[]"
        ch = FormalCharacter(BASIS_WEYL, levi, {Weight((0, 1)): -2, Weight((1, 0)): 1})
        assert text_of(ch) == "+χ(1,0) -2·χ(0,1)"

    def test_coefficients_are_decimal_strings(self):
        blob = json.loads(json_of(schur_to_monomial(Partition((2, 2, 1)))))
        assert all(isinstance(t["coeff"], str) for t in blob["terms"])


class TestReportForms:
    def test_sum_report_default_has_no_terms(self):
        report = jantzen_sum(Weight((2, 0)), 2, LeviDatum.full(2))
        blob = json.loads("".join(sum_report_json(report)))
        assert "terms" not in blob
        traced = json.loads("".join(sum_report_json(report, trace=True)))
        assert len(traced["terms"]) == len(report.terms)
        assert traced["terms"][1]["outcome"] == {"singular": True}
        assert traced == sum_report_to_json(report, include_terms=True)

    def test_identity_report_parses_back(self):
        parsed = json.loads("".join(identity_report_json(verify_second_identity(4))))
        assert parsed["equal"] is True
        assert parsed["n"] == 4
        assert parsed_terms(parsed["lhs"]) == verify_second_identity(4).lhs.terms

    def test_canonical_dumps_round_trips_byte_identical(self):
        samples = [
            "".join(identity_report_json(verify_second_identity(5))),
            json_of(schur_to_monomial(Partition((3, 1, 1)))),
            "".join(sum_report_json(
                jantzen_sum(Weight((3, 1, 2)), 3, LeviDatum.full(3)), trace=True
            )),
        ]
        for text in samples:
            assert json.dumps(json.loads(text), separators=(",", ":")) == text


class TestWritersMatchTheOracle:
    """Each text writer gives exactly json.dumps of the dict oracle."""

    def test_scalars(self):
        rng = random.Random(3141)
        for d in range(2, 8):
            for _ in range(10):
                w = random_weight(rng, d)
                assert weight_json(w) == oracle_text(weight_to_json(w))
                sd = dot_normalize(w, LeviDatum.full(d))
                assert signed_dominant_json(sd) == oracle_text(signed_dominant_to_json(sd))
                levi = random_levi(rng, d)
                assert levi_json(levi) == oracle_text(levi_to_json(levi))
                parts = Partition(sorted((rng.randint(1, 9) for _ in range(rng.randint(0, d))), reverse=True))
                assert partition_json(parts) == oracle_text(partition_to_json(parts))
        singular = SignedDominant.singular()
        assert signed_dominant_json(singular) == oracle_text(signed_dominant_to_json(singular))

    def test_characters_in_both_bases(self):
        rng = random.Random(2718)
        samples = [
            FormalCharacter(BASIS_MONOMIAL, None, {}),
            FormalCharacter(BASIS_WEYL, LeviDatum(4, (2, 3)), {}),
        ]
        for _ in range(30):
            d = rng.randint(2, 7)
            levi = random_levi(rng, d)
            samples.append(FormalCharacter(BASIS_WEYL, levi, {
                random_levi_dominant(rng, levi): rng.randint(-20, 20) for _ in range(rng.randint(1, 8))
            }))
            samples.append(FormalCharacter(BASIS_MONOMIAL, None, {
                Partition(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 5))), reverse=True)):
                    rng.randint(-20, 20)
                for _ in range(rng.randint(1, 8))
            }))
        assert any(c < 0 for ch in samples for c in ch.terms.values())
        for ch in samples:
            assert json_of(ch) == oracle_text(character_to_json(ch))

    def test_character_text(self):
        # the text writer against the term-by-term oracle: both bases, zero,
        # +-1, |c| >= 2 and past 2^64, the empty partition, ranks 2..8, and
        # Levi weights with negative coordinates off the Levi
        rng = random.Random(1618)
        samples = [
            FormalCharacter(BASIS_MONOMIAL, None, {}),
            FormalCharacter(BASIS_WEYL, LeviDatum(4, (2, 3)), {}),
            FormalCharacter(BASIS_MONOMIAL, None, {Partition(()): 1}),
            FormalCharacter(BASIS_MONOMIAL, None, {Partition(()): -(2**64 + 1), Partition((1,)): -1}),
        ]

        def coeff():
            small = rng.randint(2, 20)
            return rng.choice((1, -1, small, -small, 2**64 + small, -(2**70)))

        for d in range(2, 9):
            for _ in range(6):
                levi = random_levi(rng, d)
                samples.append(FormalCharacter(BASIS_WEYL, levi, {
                    random_levi_dominant(rng, levi): coeff() for _ in range(rng.randint(1, 8))
                }))
                samples.append(FormalCharacter(BASIS_MONOMIAL, None, {
                    Partition(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, d))), reverse=True)):
                        coeff()
                    for _ in range(rng.randint(1, 8))
                }))
        coeffs = {abs(c) for ch in samples for c in ch.terms.values()}
        assert 1 in coeffs and min(coeffs - {1}) < 2**64 < max(coeffs)
        assert any(c < 0 for ch in samples if ch.levi for w in ch.terms for c in w.coords)
        firsts = {text_of(ch).split(" ")[0][:2] for ch in samples if ch.basis == BASIS_MONOMIAL and ch.terms}
        assert {"m[", "-m"} <= firsts and any(f[0].isdigit() for f in firsts)
        assert any(f[0] == "-" and f[1].isdigit() for f in firsts)
        for ch in samples:
            assert text_of(ch) == character_to_text(ch)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_sum_reports(self, d):
        rng = random.Random(1000 + d)
        singular = 0
        for p in (2, 3, 5, 7):
            for levi in (LeviDatum.full(d), random_levi(rng, d), random_levi(rng, d)):
                report = jantzen_sum(random_levi_dominant(rng, levi), p, levi)
                for trace in (False, True):
                    assert "".join(sum_report_json(report, trace)) == oracle_text(
                        sum_report_to_json(report, include_terms=trace)
                    )
                # the text total of the jantzen command, written from the rows
                assert "".join(weyl_text(levi, report.rows)) == character_to_text(report.total)
                singular += sum(t.outcome.is_singular for t in report.terms)
        assert singular > 0

    @pytest.mark.parametrize("d", range(2, 8))
    def test_jantzen_command(self, d):
        rng = random.Random(2000 + d)
        levi = random_levi(rng, d)
        lam = random_levi_dominant(rng, levi)
        p = rng.choice((2, 3, 5, 7))
        argv = ["jantzen", "--p", str(p), "--d", str(d), "--lambda", ",".join(map(str, lam.coords)),
                "--levi", ",".join(map(str, sorted(levi.simples))), "--json"]
        report = jantzen_sum(lam, p, levi)
        for trace in (False, True):
            expected = oracle_text(sum_report_to_json(report, include_terms=trace)) + "\n"
            assert run_cli(argv + ["--trace"] * trace) == (0, expected, "")

    def test_identity_reports(self):
        for n in range(2, 8):
            for report in (verify_first_identity(n), verify_second_identity(n)):
                assert "".join(identity_report_json(report)) == oracle_text(
                    identity_report_to_json(report)
                )

    @pytest.mark.parametrize(
        "which, n, zeros", [("second", 6, 1), ("second", 7, 0), ("first", 5, 0), ("first", 6, 5)]
    )
    def test_failing_identity_reports(self, monkeypatch, which, n, zeros):
        # the right side without its last shape: the report is not EQUAL, and
        # its right side lists only the leaves whose coefficient is not 0
        real = first_identity_shapes if which == "first" else second_identity_shapes
        monkeypatch.setattr(f"jansum.identities.{which}_identity_shapes", lambda n: real(n)[:-1])
        report = (verify_first_identity if which == "first" else verify_second_identity)(n)
        assert not report.equal
        text = "".join(identity_report_json(report))
        assert text == oracle_text(identity_report_to_json(report))
        parsed = json.loads(text)
        assert len(parsed["lhs"]["terms"]) == len(report.check.leaves)
        assert len(parsed["rhs"]["terms"]) == len(report.check.leaves) - zeros

    def test_prop_char_reports_passing_and_failing(self):
        for p, d in ((2, 3), (3, 4), (5, 5)):
            report = verify_prop_char(p, d)
            failing = report._replace(checks=[
                check._replace(passed=False) if i % 2 else check
                for i, check in enumerate(report.checks)
            ])
            for r in (report, failing):
                assert "".join(prop_char_report_json(r)) == oracle_text(prop_char_report_to_json(r))

    def test_multiplicity_reports(self):
        report = multiplicity_one_report(3, 4)
        # S_221 - 2 S_2111 = m_221 + 0 m_2111 - 3 m_11111
        family = SupportCheck(Partition((2, 2, 1)), {Partition((2, 2, 1)): 1, Partition((2, 1, 1, 1)): -2})
        assert (family.missing, family.wrong_multiplicity) == (
            [Partition((2, 1, 1, 1))], [(Partition((1, 1, 1, 1, 1)), -3)]
        )
        failing = report._replace(families=[family, report.families[1]])
        for r in (report, failing):
            assert "".join(multiplicity_report_json(r)) == oracle_text(multiplicity_report_to_json(r))


class TestWritersOfLeavesAndRows:
    """Each character a command writes comes from the form that its
    computation made, never from a FormalCharacter: a Schur expansion and
    an identity's difference from the walk's (text key, coeff) leaves
    (monomial_json, monomial_text), a prop-char check's expected side from
    its tail's rows (weyl_json, weyl_text).  Each is checked against the
    oracle writers on the character built apart from that form."""

    def test_schur_expansions(self):
        rng = random.Random(4242)
        every = [Partition(t) for n in range(1, 13) for t in brute_partitions(n)]
        for lam in rng.sample(every, 50):
            expected = FormalCharacter(BASIS_MONOMIAL, None, schur_sum_by_kostka({lam: 1}, lam))
            leaves = schur_sum_leaves({lam: 1}, lam)
            assert "".join(monomial_json(leaves)) == oracle_text(character_to_json(expected))
            text = "".join(monomial_text(leaves))
            assert text == character_to_text(expected)
            argv = ["schur", "--lambda", ",".join(map(str, lam.parts))]
            assert run_cli(argv) == (0, f"S{lam} = {text}\n", ""), lam

    @pytest.mark.parametrize("which, n_max", [("first", 8), ("second", 12)])
    def test_identity_differences(self, monkeypatch, which, n_max):
        # without its last shape a right side differs from the left side;
        # the difference, 1 - c at each leaf whose c is not 1, against one
        # built from Kostka numbers.  The CLI binds the shape lists for its
        # selftest when first imported, so it is imported before the patch
        import jansum.cli  # noqa: F401

        real = first_identity_shapes if which == "first" else second_identity_shapes
        monkeypatch.setattr(f"jansum.identities.{which}_identity_shapes", lambda n: real(n)[:-1])
        verify = verify_first_identity if which == "first" else verify_second_identity
        for n in range(2, n_max + 1):
            report = verify(n)
            coeffs = {shape: (-1) ** i for i, shape in enumerate(real(n)[:-1])}
            sums = schur_sum_by_kostka(coeffs, report.check.target)
            diff = FormalCharacter(BASIS_MONOMIAL, None, {mu: 1 - c for mu, c in sums.items()})
            assert diff.terms
            text = "".join(monomial_text(report.diff_leaves))
            assert text == character_to_text(diff)
            assert "".join(monomial_json(report.diff_leaves)) == oracle_text(character_to_json(diff))
            code, out, _ = run_cli(["identity", "--n", str(n), "--which", which])
            assert code == 3 and out.endswith(f"\ndiff: {text}\n"), (which, n)

    def test_prop_char_expected_sides(self, monkeypatch):
        # every tail replaced by seeded rows of dominant weights, empty ones
        # and ones of more than a piece among them, so that checks fail and
        # write their expected sides: as text only a failing check does
        import jansum.jantzen as jantzen_mod

        def seeded_terms(seq) -> list[dict]:
            rng = random.Random(len(seq) * 100 + seq[0].rank)
            out = []
            for _ in seq:
                terms: dict = {}
                size = rng.choice((0, 1, 2, 7, K + 1))
                while len(terms) < size:
                    terms[random_levi_dominant(rng, LeviDatum.full(seq[0].rank), hi=30)] = rng.choice(
                        (1, -1, rng.randint(2, 99), -rng.randint(2, 99), 2**64 + 1)
                    )
                out.append(terms)
            return out

        monkeypatch.setattr(
            jantzen_mod, "_tails",
            lambda seq: [listing(FormalCharacter(BASIS_WEYL, LeviDatum.full(seq[0].rank), t))
                         for t in seeded_terms(seq)],
        )
        sizes = set()
        for p, d in ((3, 4), (5, 5), (5, 7), (7, 6)):
            report = verify_prop_char(p, d)
            tails = seeded_terms(lambda_sequence(p, d))
            expected = [FormalCharacter(BASIS_WEYL, check.levi, tails[check.i])
                        for check in report.checks]
            sizes.update(len(ch.terms) for ch in expected)
            assert not report.passed
            for check, ch in zip(report.checks, expected, strict=True):
                assert "".join(weyl_json(check.levi, check.tail)) == oracle_text(character_to_json(ch))
                assert "".join(weyl_text(check.levi, check.tail)) == character_to_text(ch)
            argv = ["prop-char", "--p", str(p), "--d", str(d)]
            code, out, _ = run_cli(argv)
            assert code == 3
            written = [line[12:] for line in out.splitlines() if line.startswith("  expected: ")]
            assert written == [
                character_to_text(ch) for check, ch in zip(report.checks, expected) if not check.passed
            ]
            code, out, _ = run_cli(argv + ["--json"])
            assert code == 3
            assert [c["expected"] for c in json.loads(out)["checks"]] == [
                character_to_json(ch) for ch in expected
            ]
        assert 0 in sizes and max(sizes) > K

    def test_the_empty_character(self):
        levi = LeviDatum(4, (2, 3))
        for writer, ch in (
            (lambda: monomial_json([]), FormalCharacter(BASIS_MONOMIAL, None, {})),
            (lambda: weyl_json(levi, []), FormalCharacter(BASIS_WEYL, levi, {})),
        ):
            assert "".join(writer()) == oracle_text(character_to_json(ch))
            assert character_to_text(ch) == "0"
        assert "".join(monomial_text([])) == "".join(weyl_text(levi, [])) == "0"
        code, out, _ = run_cli(["jantzen", "--p", "5", "--d", "2", "--lambda", "0,0"])
        assert (code, out.splitlines()[-1]) == (0, "total: 0")


def seeded_character(rng: random.Random, basis: str, size: int) -> FormalCharacter:
    """A character of exactly `size` distinct keys, with coefficients of
    both signs, 1 and past 1."""
    if basis == BASIS_MONOMIAL:
        levi = None

        def key():
            return Partition(sorted((rng.randint(1, 9) for _ in range(rng.randint(0, 6))), reverse=True))
    else:
        levi = random_levi(rng, rng.randint(2, 6))

        def key():
            return random_levi_dominant(rng, levi, hi=30)
    terms: dict = {}
    while len(terms) < size:
        terms[key()] = rng.choice((1, -1, rng.randint(2, 99), -rng.randint(2, 99)))
    return FormalCharacter(basis, levi, terms)


def terms_per_piece(pieces) -> list[int]:
    """How many character terms each piece holds, in JSON or text: each
    term has one key, written '"key":', 'm[' or 'χ('."""
    return [piece.count('"key":') + piece.count("m[") + piece.count("χ(") for piece in pieces]


K = _PIECE
BOUNDARY_SIZES = (0, 1, K - 1, K, K + 1, 2 * K + 1)


class TestPieces:
    """A character is written in pieces of at most _PIECE terms, which join
    to its whole form, at every size about a piece boundary."""

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    @pytest.mark.parametrize("basis", [BASIS_MONOMIAL, BASIS_WEYL])
    def test_character_pieces(self, basis, size):
        rng = random.Random(size * 7 + (basis == BASIS_WEYL))
        for _ in range(3):
            ch = seeded_character(rng, basis, size)
            as_json, as_text = json_pieces(ch), text_pieces(ch)
            assert "".join(as_json) == oracle_text(character_to_json(ch))
            assert "".join(as_text) == character_to_text(ch)
            for pieces in (as_json, as_text):
                counts = terms_per_piece(pieces)
                assert sum(counts) == size and max(counts) <= K
                # only the last piece of terms may hold fewer than K
                assert [c for c in counts if c][:-1] == [K] * (size // K - (size % K == 0))

    def test_failing_identity_report(self, monkeypatch):
        # the first identity at n = 10 without its last shape: 393 leaves,
        # 22 of them 0, so the right side skips terms within its pieces
        real = first_identity_shapes
        monkeypatch.setattr("jansum.identities.first_identity_shapes", lambda n: real(n)[:-1])
        report = verify_first_identity(10)
        leaves = report.check.leaves
        assert not report.equal and len(leaves) > 2 * K
        assert len(report.rhs.terms) == len(leaves) - 22 > 2 * K
        pieces = list(identity_report_json(report))
        assert "".join(pieces) == oracle_text(identity_report_to_json(report))
        assert max(terms_per_piece(pieces)) <= K
        line = "n=10 first DIFFER (composite, conjecture instance)"
        diff = character_to_text(_monomial_character(report.diff_leaves))
        assert run_cli(["identity", "--n", "10", "--which", "first"]) == (3, f"{line}\ndiff: {diff}\n", "")

    def test_failing_prop_char_check(self):
        # a check whose total and expected character each hold 2K + 1 terms
        rng = random.Random(99)
        passing = verify_prop_char(3, 4)
        check = passing.checks[0]
        levi = check.levi
        total, expected = (
            FormalCharacter(BASIS_WEYL, levi, {
                random_levi_dominant(rng, levi, hi=40): rng.randint(-9, 9) or 1 for _ in range(3 * K)
            }) for _ in range(2)
        )
        assert min(len(total.terms), len(expected.terms)) > 2 * K
        report = SumReport(check.report.lam, 3, levi, listing(total))
        failing = PropCharReport(3, 4, [check._replace(passed=False, tail=listing(expected), report=report)])
        assert failing.checks[0].report.total == total
        pieces = list(prop_char_report_json(failing))
        assert "".join(pieces) == oracle_text(prop_char_report_to_json(failing))
        assert max(terms_per_piece(pieces)) <= K


def traced_peak(pieces) -> int:
    """Bytes of the traced peak while the pieces are made and each dropped."""
    tracemalloc.start()
    try:
        for _ in pieces:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriterMemory:
    # What writing holds besides the value written, traced (not RSS): no
    # more than the ordered keys and one piece
    def test_leaves_of_37337_keys(self):
        # the right side of `identity --n 40 --which second`, 1.7 MB as
        # JSON and 1.1 MB as text: each monomial writer holds a piece at a
        # time (about 40 KB traced)
        leaves = verify_second_identity(40).check.leaves
        assert len(leaves) == 37337  # listed before tracing
        for writer in (monomial_json, monomial_text):
            assert traced_peak(writer(leaves)) < 500_000

    def test_report_of_75000_rows(self):
        # the jantzen command writes the same total from the report's rows,
        # built before tracing, and never builds the FormalCharacter
        report = jantzen_sum(Weight((100000, 0)), 2, LeviDatum.full(2))
        assert len(report.rows) == 75000
        assert traced_peak(sum_report_json(report)) < 2_000_000
        assert traced_peak(weyl_text(report.levi, report.rows)) < 2_000_000
        assert "total" not in vars(report)

    def test_identity_report_at_n40(self):
        # `identity --n 40 --which second --json`, 3.5 MB written: the left
        # side's pieces, kept for the right side, hold 1.7 MB of its 37 337
        # leaves (1.9 MB peak); with a key list and two joined sides the
        # writer peaked at 9.3 MB
        report = verify_second_identity(40)
        assert len(report.check.leaves) == 37337  # listed before tracing
        assert traced_peak(identity_report_json(report)) < 2_500_000
