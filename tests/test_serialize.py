import json
import random

import pytest

from helpers import (
    character_to_json,
    identity_report_to_json,
    levi_to_json,
    multiplicity_report_to_json,
    partition_to_json,
    prop_char_report_to_json,
    random_levi,
    random_levi_dominant,
    random_weight,
    run_cli,
    signed_dominant_to_json,
    sum_report_to_json,
    weight_to_json,
)
from jansum.charring import BASIS_MONOMIAL, BASIS_WEYL, FormalCharacter, schur_to_monomial
from jansum.identities import (
    multiplicity_one_report,
    verify_first_identity,
    verify_second_identity,
)
from jansum.jantzen import jantzen_sum, verify_prop_char
from jansum.lattice import Partition, Weight
from jansum.serialize import (
    canonical_dumps,
    character_json,
    identity_report_json,
    levi_json,
    multiplicity_report_json,
    partition_json,
    prop_char_report_json,
    signed_dominant_json,
    sum_report_json,
    weight_json,
)
from jansum.weyl import LeviDatum, SignedDominant, dot_normalize


def parsed_terms(blob: dict) -> dict:
    """{key: coefficient} rebuilt from the JSON form of a character."""
    def key(k):
        return Partition(k) if blob["basis"] == "monomial" else Weight(k["coords"])

    return {key(t["key"]): int(t["coeff"]) for t in blob["terms"]}


def oracle_text(form) -> str:
    return json.dumps(form, separators=(",", ":"))


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
            blob = json.loads(character_json(ch))
            assert blob == character_to_json(ch)
            assert parsed_terms(blob) == ch.terms
            assert blob.get("levi") == (ch.levi and levi_to_json(ch.levi))

    def test_coefficients_are_decimal_strings(self):
        blob = json.loads(character_json(schur_to_monomial(Partition((2, 2, 1)))))
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
            character_json(schur_to_monomial(Partition((3, 1, 1)))),
            "".join(sum_report_json(
                jantzen_sum(Weight((3, 1, 2)), 3, LeviDatum.full(3)), trace=True
            )),
        ]
        for text in samples:
            assert canonical_dumps(json.loads(text)) == text


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
            assert character_json(ch) == oracle_text(character_to_json(ch))

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
        family = report.families[0]._replace(
            missing=[Partition((2, 1))],
            unexpected=[Partition((3,)), Partition((1, 1, 1))],
            wrong_multiplicity=[(Partition((2, 1)), -2)],
        )
        failing = report._replace(families=[family, report.families[1]])
        for r in (report, failing):
            assert "".join(multiplicity_report_json(r)) == oracle_text(multiplicity_report_to_json(r))
