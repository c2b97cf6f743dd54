import json

from jansum.charring import BASIS_WEYL, FormalCharacter, schur_to_monomial
from jansum.identities import verify_second_identity
from jansum.jantzen import jantzen_sum
from jansum.lattice import Partition, Weight
from jansum.serialize import (
    canonical_dumps,
    character_to_json,
    identity_report_to_json,
    levi_to_json,
    partition_to_json,
    signed_dominant_to_json,
    sum_report_to_json,
    weight_to_json,
)
from jansum.weyl import LeviDatum, SignedDominant, dot_normalize


def parsed_terms(blob: dict) -> dict:
    """{key: coefficient} rebuilt from the JSON form of a character."""
    def key(k):
        return Partition(k) if blob["basis"] == "monomial" else Weight(k["coords"])

    return {key(t["key"]): int(t["coeff"]) for t in blob["terms"]}


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
            blob = character_to_json(ch)
            assert parsed_terms(blob) == ch.terms
            assert blob.get("levi") == (ch.levi and levi_to_json(ch.levi))

    def test_coefficients_are_decimal_strings(self):
        blob = character_to_json(schur_to_monomial(Partition((2, 2, 1))))
        assert all(isinstance(t["coeff"], str) for t in blob["terms"])


class TestReportForms:
    def test_sum_report_default_has_no_terms(self):
        report = jantzen_sum(Weight((2, 0)), 2, LeviDatum.full(2))
        blob = sum_report_to_json(report)
        assert "terms" not in blob
        traced = sum_report_to_json(report, include_terms=True)
        assert len(traced["terms"]) == len(report.terms)
        assert traced["terms"][1]["outcome"] == {"singular": True}

    def test_identity_report_parses_back(self):
        blob = identity_report_to_json(verify_second_identity(4))
        parsed = json.loads(canonical_dumps(blob))
        assert parsed["equal"] is True
        assert parsed["n"] == 4
        assert parsed_terms(parsed["lhs"]) == verify_second_identity(4).lhs.terms

    def test_canonical_dumps_round_trips_byte_identical(self):
        samples = [
            identity_report_to_json(verify_second_identity(5)),
            character_to_json(schur_to_monomial(Partition((3, 1, 1)))),
            sum_report_to_json(
                jantzen_sum(Weight((3, 1, 2)), 3, LeviDatum.full(3)), include_terms=True
            ),
        ]
        for blob in samples:
            text = canonical_dumps(blob)
            assert canonical_dumps(json.loads(text)) == text
