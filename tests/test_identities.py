import json
import math
import random
import time
from collections import Counter

import pytest

from helpers import (
    leaf_terms,
    left_side,
    partition_count,
    right_side,
    run_cli,
    schur_sum_by_kostka,
)
from jansum import charring, cli, identities, lattice
from jansum.charring import (
    coefficient_counts,
    kostka,
    schur_sum_dag,
    schur_sum_leaves,
    schur_to_monomial,
)
from jansum.identities import (
    conjecture_sweep,
    first_identity_shapes,
    multiplicity_one_report,
    second_identity_shapes,
)
from jansum.jantzen import lambda_sequence
from jansum.lattice import Partition, check_ideal_size, partitions_below
from jansum.serialize import identity_report_json
from jansum.weyl import to_epsilon

FAMILIES = {
    "first": (lambda n: Partition((n - 1, n - 1, 1)), first_identity_shapes),
    "second": (lambda n: Partition((n - 1, 1)), second_identity_shapes),
}


def verdict(n, which):
    """The one report of conjecture_sweep over n alone."""
    return next(conjecture_sweep(n, n, which))


def alternating(shapes):
    return {shape: (-1) ** i for i, shape in enumerate(shapes)}


def damage_first_family(monkeypatch, p, damage):
    """Patch identities._alternating so that the first family at p, the
    one whose first shape is the ideal's top, drops its last shape or
    doubles its middle one; returns the patched function."""
    top, real = Partition((p - 1, p - 1, 1)), identities._alternating

    def damaged(shapes):
        coeffs = real(shapes)
        if shapes[0] == top:
            keys = list(coeffs)
            if damage == "drop the last":
                del coeffs[keys[-1]]
            else:
                coeffs[keys[len(keys) // 2]] *= 2
        return coeffs

    monkeypatch.setattr(identities, "_alternating", damaged)
    return damaged


class TestShapes:
    def test_first_family(self):
        assert [s.parts for s in first_identity_shapes(3)] == [(2, 2, 1), (2, 1, 1, 1)]
        assert [s.parts for s in first_identity_shapes(2)] == [(1, 1, 1)]

    def test_second_family(self):
        assert [s.parts for s in second_identity_shapes(4)] == [
            (3, 1),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]


class TestFirstIdentity:
    def test_n2_single_column(self):
        report = verdict(2, "first")
        assert report.equal
        assert report.prime
        assert left_side(report) == {Partition((1, 1, 1)): 1}
        assert right_side(report) == {Partition((1, 1, 1)): 1}

    def test_n3_frozen_expansion(self):
        # S(2,2,1) - S(2,1,1,1) with Kostka rows (1,2,5) and (1,4)
        report = verdict(3, "first")
        assert report.equal
        assert right_side(report) == {
            Partition((2, 2, 1)): 1,
            Partition((2, 1, 1, 1)): 1,
            Partition((1, 1, 1, 1, 1)): 1,
        }

    def test_n5_prime(self):
        report = verdict(5, "first")
        assert report.equal
        assert report.prime
        assert report.label == "theorem"

    def test_rejects_n_below_2(self):
        with pytest.raises(ValueError):
            verdict(1, "first")


class TestSecondIdentity:
    def test_n2(self):
        report = verdict(2, "second")
        assert report.equal
        assert left_side(report) == {Partition((1, 1)): 1}

    def test_n4_composite(self):
        report = verdict(4, "second")
        assert report.equal
        assert not report.prime
        assert report.label == "conjecture instance"
        assert left_side(report) == {
            Partition((3, 1)): 1,
            Partition((2, 2)): 1,
            Partition((2, 1, 1)): 1,
            Partition((1, 1, 1, 1)): 1,
        }

    def test_n7_prime(self):
        report = verdict(7, "second")
        assert report.equal
        assert report.prime


class TestHomogeneity:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_degrees(self, n):
        first = verdict(n, "first")
        for char, degree in ((left_side(first), 2 * n - 1), (right_side(first), 2 * n - 1)):
            assert all(key.size == degree for key in char)
        second = verdict(n, "second")
        for char, degree in ((left_side(second), n), (right_side(second), n)):
            assert all(key.size == degree for key in char)


class TestSweep:
    def test_range_of_second(self):
        reports = list(conjecture_sweep(2, 6, "second"))
        assert [r.n for r in reports] == [2, 3, 4, 5, 6]
        assert all(r.equal for r in reports)

    def test_single_composite(self):
        (report,) = conjecture_sweep(4, 4, "first")
        assert not report.prime
        assert report.equal

    def test_single_prime(self):
        (report,) = conjecture_sweep(2, 2, "first")
        assert report.prime

    def test_bad_range(self):
        with pytest.raises(ValueError):
            conjecture_sweep(5, 4, "first")
        with pytest.raises(ValueError):
            conjecture_sweep(1, 4, "first")

    def test_huge_ideal_refused_before_the_first_report(self):
        # n = 150 would need about 4e10 partitions
        with pytest.raises(ValueError, match="refused"):
            conjecture_sweep(2, 150, "second")

    def test_bad_which(self):
        with pytest.raises(ValueError):
            conjecture_sweep(2, 3, "third")

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_huge_ideal_refused_before_the_shapes(self, which):
        # the n - 1 shapes of n = 4000 hold about 8e6 parts
        started = time.perf_counter()
        with pytest.raises(ValueError, match="refused"):
            verdict(4000, which)
        assert time.perf_counter() - started < 0.1


class TestOneVerdictPath:
    """Every verdict takes conjecture_sweep's path, which counts the ideal
    of the largest n once; the identity command is that sweep over one n."""

    @pytest.mark.parametrize("run, top", [
        (lambda: list(conjecture_sweep(2, 30, "second")), (29, 1)),
        (lambda: verdict(12, "first"), (11, 11, 1)),
        (lambda: run_cli(["identity", "--n", "30", "--which", "second"]), (29, 1)),
    ], ids=["sweep", "one", "cli"])
    def test_ideal_counted_once(self, monkeypatch, run, top):
        real, tops = identities.check_ideal_size, []

        def counted(b):
            tops.append(b)
            return real(b)

        monkeypatch.setattr("jansum.identities.check_ideal_size", counted)
        run()
        assert tops == [Partition(top)]


class TestNegativeControl:
    def test_dropping_one_term_breaks_equality(self):
        report = verdict(5, "first")
        assert report.equal and not report.diff_leaves
        shapes = first_identity_shapes(5)
        truncated = {}
        for i, shape in enumerate(shapes[:-1]):  # drop the last alternating term
            for mu, k in schur_to_monomial(shape).items():
                truncated[mu] = truncated.get(mu, 0) + (-1) ** i * k
        assert left_side(report) != {mu: c for mu, c in truncated.items() if c}

    @pytest.mark.parametrize("n, coeff", [(6, 1), (7, -1)])
    def test_a_broken_right_side_is_reported(self, monkeypatch, n, coeff):
        # without the last hook (1^n), of sign (-1)^n, the sides differ at
        # (1^n) only, and the verdict and the diff both say so.  The CLI binds
        # the shape lists for its selftest when it is first imported, so it
        # is imported before the patch, which would otherwise outlive the test
        import jansum.cli  # noqa: F401

        monkeypatch.setattr(
            "jansum.identities.second_identity_shapes", lambda n: second_identity_shapes(n)[:-1]
        )
        report = verdict(n, "second")
        assert not report.equal
        assert leaf_terms(report.diff_leaves) == {Partition((1,) * n): coeff}
        # each side against its own oracle: the ideal that partitions_below
        # lists, and Kostka numbers of the shapes left
        lhs = dict.fromkeys(partitions_below(report.target), 1)
        rhs = schur_sum_by_kostka(alternating(second_identity_shapes(n)[:-1]), report.target)
        assert left_side(report) == lhs
        assert right_side(report) == {mu: c for mu, c in rhs.items() if c}
        diff = {mu: lhs[mu] - rhs[mu] for mu in lhs if lhs[mu] != rhs[mu]}
        assert leaf_terms(report.diff_leaves) == diff
        code, out, _ = run_cli(["identity", "--n", str(n), "--which", "second"])
        assert code == 3
        assert out.splitlines()[1] == f"diff: {'-' if coeff < 0 else ''}m[{','.join('1' * n)}]"


class TestCoefficientCounts:
    """The memoized walk that gives the verdicts, against enumeration and
    against closed forms beyond what enumeration can reach."""

    @staticmethod
    def variants(which, n):
        # the right side, the same with its last shape dropped, and with
        # the sign of one shape (drawn from a seeded generator) flipped
        shapes = FAMILIES[which][1](n)
        flipped = alternating(shapes)
        shape = random.Random(f"{which}:{n}").choice(shapes)
        flipped[shape] = -flipped[shape]
        return [alternating(shapes), alternating(shapes[:-1]), flipped]

    @pytest.mark.parametrize(
        "which, n",
        [("second", n) for n in range(2, 31)] + [("first", n) for n in range(2, 15)],
    )
    def test_equals_the_enumerated_counts(self, which, n):
        top = FAMILIES[which][0](n)
        ideal = partitions_below(top)
        true, dropped, flipped = self.variants(which, n)
        for coeffs in (true, dropped, flipped):
            counts = coefficient_counts(schur_sum_dag(coeffs, top))
            rhs = leaf_terms(schur_sum_leaves(coeffs, top))
            assert counts == Counter(rhs.get(mu, 0) for mu in ideal)
            # a broken right side is told apart from the true one
            assert (counts.keys() == {1}) == (coeffs is true)

    @pytest.mark.parametrize(
        "which, n",
        [("second", n) for n in range(2, 21)] + [("first", n) for n in range(2, 11)],
    )
    def test_equals_the_kostka_numbers(self, which, n):
        # an oracle that walks no ideal: one Kostka number per (shape, mu)
        top = FAMILIES[which][0](n)
        for coeffs in self.variants(which, n):
            expected = schur_sum_by_kostka(coeffs, top)
            assert coefficient_counts(schur_sum_dag(coeffs, top)) == Counter(expected.values())
            terms = leaf_terms(schur_sum_leaves(coeffs, top))
            assert list(terms.items()) == [(mu, c) for mu, c in expected.items() if c]

    @pytest.mark.parametrize(
        "n", [45] + sorted(random.Random(45).sample(range(46, 91), 3))
    )
    def test_second_family_in_closed_form(self, n):
        # the ideal is every partition of n but (n); dropping the last hook
        # (1^n), with sign (-1)^n, changes only the coefficient at (1^n)
        p = partition_count(n, n)
        if n == 45:
            assert p == 89_134
        top, shapes = FAMILIES["second"][0](n), second_identity_shapes(n)
        assert coefficient_counts(schur_sum_dag(alternating(shapes), top)) == {1: p - 1}
        assert coefficient_counts(schur_sum_dag(alternating(shapes[:-1]), top)) == Counter(
            {1: p - 2, 1 - (-1) ** n: 1}
        )

    @pytest.mark.parametrize("which, n", [("second", 45), ("first", 23)])
    def test_largest_admitted_n(self, which, n):
        top, shapes = FAMILIES[which]
        check_ideal_size(top(n))
        with pytest.raises(ValueError, match="refused"):
            check_ideal_size(top(n + 1))
        leaves = partition_count(top(n).size, top(n).parts[0])
        assert coefficient_counts(schur_sum_dag(alternating(shapes(n)), top(n))) == {1: leaves}


class TestHookKostkaInClosedForm:
    """K((n-1-i, 1^(i+1)), mu) = C(l(mu) - 1, i + 1), with no enumeration: a
    semistandard hook tableau is fixed by which i + 1 of the values
    2..l(mu) go down its leg.  So the second family's right side has the
    coefficient sum over i of (-1)^i C(l(mu) - 1, i + 1) = 1 at every mu
    with l(mu) >= 2, the left side's coefficient there."""

    N = 150

    @staticmethod
    def seeded_content(rng, n, largest):
        parts, left = [], n
        while left:
            parts.append(rng.randint(1, min(largest, left)))
            left -= parts[-1]
        return Partition(sorted(parts, reverse=True))

    def test_hook_kostka_is_a_binomial(self):
        n, rng = self.N, random.Random(self.N)
        # parts up to 40, 12 and 4: lengths from about ten to about sixty
        contents = [self.seeded_content(rng, n, largest) for largest in (40, 12, 4)]
        pairs = 0
        for mu in contents:
            assert mu.size == n and mu.length >= 2
            for i in range(0, n - 1, 7):
                hook = Partition([n - 1 - i] + [1] * (i + 1))
                assert kostka(hook, mu) == math.comb(mu.length - 1, i + 1), (mu, i)
                pairs += 1
        assert pairs == 66

    def test_second_right_side_coefficient_is_one(self):
        n = self.N
        for length in range(2, n + 1):
            assert sum((-1) ** i * math.comb(length - 1, i + 1) for i in range(n - 1)) == 1


class TestWorkCounts:
    """What the walk does, counted rather than timed: the runs of the strip
    enumerator (charring._strips, one per shape of a stepped state) and the
    keys of the DAGs.  A change that makes the walk step a state again, or
    enumerate a shape again, moves these."""

    @staticmethod
    def passed_to_step(dag):
        """The distinct states that a walk's step is given: those of its
        keys with cells left, and, after each part of a run of ones that
        finish peels from a key, the state left, stepped again here."""
        step, _ = charring._stepper()
        states = set()
        for key in dag:
            # a leaf key is the 1-tuple of its value
            if len(key) == 4 and key[1]:
                state = key[0]
                states.add(state)
                if key[2] == 1:
                    for _ in range(key[1] - 1):
                        state = step(state, 1)
                        states.add(state)
        return states

    @staticmethod
    def counted(monkeypatch, reports):
        runs = []
        real = charring._strips
        monkeypatch.setattr(charring, "_strips", lambda *args: runs.append(args) or real(*args))
        dags = [report.dag for report in reports()]
        return len(runs), sum(map(len, dags)), dags

    def test_second_sweep_to_30(self, monkeypatch):
        runs, keys, dags = self.counted(monkeypatch, lambda: conjecture_sweep(2, 30, "second"))
        assert (runs, keys) == (870, 2822)
        # a strip enumeration per (shape, part size) made 10 915 runs
        assert runs < 2000
        # each state is stepped once for all its part sizes: one run per
        # shape of each distinct state passed to step
        stepped = [self.passed_to_step(dag) for dag in dags]
        assert runs == sum(len(state) for states in stepped for state in states)

    def test_first_sweep_to_12(self, monkeypatch):
        runs, keys, _ = self.counted(monkeypatch, lambda: conjecture_sweep(2, 12, "first"))
        assert (runs, keys) == (710, 662)

    def test_second_identity_at_5(self, monkeypatch):
        # an ideal of 6 partitions
        runs, keys, _ = self.counted(monkeypatch, lambda: [verdict(5, "second")])
        assert (runs, keys) == (8, 11)


class TestLazySides:
    def test_verdict_builds_no_side(self):
        report = verdict(9, "first")
        assert report.equal
        assert not {"leaves", "broken", "diff_leaves"} & set(vars(report))

    def test_sides_read_the_walk_of_the_verdict(self, monkeypatch):
        # the report keeps the walk its verdict built, so no strip is peeled
        # again: every step enumerates its strips through charring._strips
        report = verdict(12, "first")
        peeled = []
        real = charring._strips
        monkeypatch.setattr(charring, "_strips", lambda *args: peeled.append(args) or real(*args))
        assert right_side(report) == left_side(report)
        assert len(left_side(report)) == partition_count(23, 11)
        assert peeled == []

    def test_one_listing_per_report(self, monkeypatch):
        # both sides, the difference and the JSON all read one listing of the walk
        report = verdict(12, "first")
        listed = []
        real = identities.ideal_leaves
        monkeypatch.setattr(identities, "ideal_leaves", lambda *args: listed.append(1) or real(*args))
        assert len(left_side(report)) == len(right_side(report)) == partition_count(23, 11)
        assert not report.diff_leaves
        json.loads("".join(identity_report_json(report)))
        assert len(listed) == 1

    def test_sides_built_on_first_read_and_kept(self):
        report = verdict(9, "second")
        leaves = report.leaves
        assert report.leaves is leaves
        assert leaves == schur_sum_leaves(alternating(second_identity_shapes(9)), report.target)
        assert left_side(report) == dict.fromkeys(partitions_below(report.target), 1)
        assert not report.diff_leaves


class TestMultiplicityOne:
    def test_p3_d4(self):
        report = multiplicity_one_report(3, 4)
        assert report.passed
        first, second = report.families
        assert first.target == Partition((2, 2, 1))
        assert set(right_side(first)) == set(partitions_below(Partition((2, 2, 1))))
        assert all(c == 1 for c in right_side(first).values())
        assert second.target == Partition((2, 1))

    def test_p2_d3(self):
        report = multiplicity_one_report(2, 3)
        assert report.passed
        first, second = report.families
        assert right_side(first) == {Partition((1, 1, 1)): 1}
        assert right_side(second) == {Partition((1, 1)): 1}

    def test_p5_d8(self):
        report = multiplicity_one_report(5, 8)
        assert report.passed
        first, _ = report.families
        assert set(right_side(first)) == set(partitions_below(Partition((4, 4, 1))))

    def test_builds_no_character_and_no_tail(self, monkeypatch):
        # the first family's coefficients are the lifted lambda sequence's
        # signs, read straight into its IdentityReport, and no leaf's key is
        # read as a Partition
        import jansum.jantzen as jantzen_mod

        def refuse(*args, **kwargs):
            raise AssertionError("built")

        monkeypatch.setattr(jantzen_mod, "_tails", refuse)
        for module in (lattice, charring, cli):
            monkeypatch.setattr(module, "text_partition", refuse)
        for p in (2, 3, 5, 7, 11):
            report = multiplicity_one_report(p, 2 * p + 1)
            assert report.passed
            assert [f.broken for f in report.families] == [[], []]

    def test_equivalence_with_first_identity(self):
        # same computation read two ways, for prime n
        for p, d in [(3, 4), (5, 8)]:
            assert verdict(p, "first").equal
            assert multiplicity_one_report(p, d).passed

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
    def test_lifted_lambda_sequence_is_the_first_shapes(self, p):
        # the paper's link that lets the by-product be checked on the first
        # identity's shapes: the lambda_i, lifted by their suffix sums, are
        # (p-1, p-1-i, 1^(i+1)), at the least rank admitted and past it
        for d in (max(2 * p - 2, 3), 2 * p + 1):
            lifted = [Partition(to_epsilon(w)) for w in lambda_sequence(p, d)]
            assert lifted == first_identity_shapes(p), (p, d)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_computed_at_the_least_rank_as_at_the_given_one(self, p):
        # past d = 2p-2 the answer does not depend on d, so it is computed at
        # the least rank admitted; the alternating sum of the lambda
        # sequence at the given rank, lifted, and the command's output with
        # d masked, must not change
        least = max(2 * p - 2, 3)
        outputs = set()
        for d in sorted({least, least + 1, 2 * p + 3, 13, 40}):
            report = multiplicity_one_report(p, d)
            assert report.d == d
            lifted = alternating([Partition(to_epsilon(w)) for w in lambda_sequence(p, d)])
            oracle = schur_sum_by_kostka(lifted, Partition((p - 1, p - 1, 1)))
            assert right_side(report.families[0]) == {mu: c for mu, c in oracle.items() if c}
            text = run_cli(["multiplicity", "--p", str(p), "--d", str(d)])
            code, out, _ = run_cli(["multiplicity", "--p", str(p), "--d", str(d), "--json"])
            outputs.add((text, code, out.replace(f'"d":{d},', '"d":D,')))
        assert len(outputs) == 1

    def test_by_product_at_every_admitted_prime(self):
        # the f = 0 by-product at each prime whose ideal the guard admits, with
        # d = 2p-2 (d = 3 at p = 2, where the lambda sequence starts)
        started = time.perf_counter()
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            code, out, _ = run_cli(["multiplicity", "--p", str(p), "--d", str(max(2 * p - 2, 3))])
            assert (code, out) == (0, (
                f"below [{p - 1},{p - 1},1]: {partition_count(2 * p - 1, p - 1)} terms PASS\n"
                f"below [{p - 1},1]: {partition_count(p, p) - 1} terms PASS\n"
            ))
        assert time.perf_counter() - started < 10
        assert run_cli(["multiplicity", "--p", "29", "--d", "56"])[0] == 2

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("damage", ["drop the last", "double one"])
    def test_failing_family_lists_what_kostka_numbers_give(self, monkeypatch, p, damage):
        # an alternating sum of the lifted lambda sequence that is not
        # multiplicity-free: its report, text and JSON must list the zeros
        # and the other wrong coefficients of its Kostka-number expansion,
        # in reverse-lex order.  Only the first family's coefficients, whose
        # first shape is the ideal's top, are damaged
        d, top = 2 * p - 2, Partition((p - 1, p - 1, 1))
        damaged = damage_first_family(monkeypatch, p, damage)
        lifted = damaged([Partition(to_epsilon(w)) for w in lambda_sequence(p, d)])
        oracle = schur_sum_by_kostka(lifted, top)
        missing = [mu for mu, c in oracle.items() if not c]
        wrong = [(mu, c) for mu, c in oracle.items() if c not in (0, 1)]
        assert missing or wrong

        family = multiplicity_one_report(p, d).families[0]
        assert not family.equal
        keys = {mu: ",".join(map(str, mu.parts)) for mu in oracle}
        assert family.broken == [(keys[mu], c) for mu, c in oracle.items() if c != 1]
        code, out, _ = run_cli(["multiplicity", "--p", str(p), "--d", str(d)])
        assert code == 3
        assert out.splitlines() == [
            f"below {top}: {sum(1 for c in oracle.values() if c)} terms FAIL",
            *(f"  missing {mu}" for mu in missing),
            *(f"  coefficient {c} at {mu}" for mu, c in wrong),
            f"below [{p - 1},1]: {partition_count(p, p) - 1} terms PASS",
        ]
        code, out, _ = run_cli(["multiplicity", "--p", str(p), "--d", str(d), "--json"])
        assert code == 3
        assert json.loads(out)["families"][0] == {
            "target": list(top.parts),
            "passed": False,
            "missing": [list(mu.parts) for mu in missing],
            "unexpected": [],
            "wrong_multiplicity": [[list(mu.parts), c] for mu, c in wrong],
        }

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("damage", ["drop the last", "double one"])
    def test_one_failure_view_feeds_both_commands(self, monkeypatch, p, damage):
        # the first family at p is the first identity at n = p, so with its
        # coefficients damaged the identity command's difference and the
        # multiplicity command's lists must name the same leaves: each key
        # of the difference is a missing key (c = 0) or a wrong one, with
        # difference 1 - c, and no other key is listed
        damage_first_family(monkeypatch, p, damage)
        code, out, _ = run_cli(["identity", "--n", str(p), "--which", "first", "--json"])
        assert code == 3
        diff = {tuple(t["key"]): int(t["coeff"]) for t in json.loads(out)["diff"]["terms"]}
        code, out, _ = run_cli(["multiplicity", "--p", str(p), "--d", str(2 * p - 2), "--json"])
        assert code == 3
        family = json.loads(out)["families"][0]
        coeffs = dict.fromkeys(map(tuple, family["missing"]), 0)
        coeffs.update((tuple(mu), c) for mu, c in family["wrong_multiplicity"])
        assert len(coeffs) == len(family["missing"]) + len(family["wrong_multiplicity"])
        assert diff and diff == {mu: 1 - c for mu, c in coeffs.items()}

    def test_huge_d_at_once(self):
        started = time.perf_counter()
        code, out, _ = run_cli(["multiplicity", "--p", "3", "--d", "3000000"])
        assert time.perf_counter() - started < 2
        assert (code, out) == (0, "below [2,2,1]: 3 terms PASS\nbelow [2,1]: 2 terms PASS\n")

    def test_huge_ideal_refused_at_once(self):
        # refused before any shape of either family is built
        started = time.perf_counter()
        code, out, err = run_cli(["multiplicity", "--p", "1009", "--d", "2016"])
        assert time.perf_counter() - started < 2
        assert (code, out) == (2, "")
        assert "the ideal below [1008,1008,1] may hold more than" in err

    def test_refuses_small_d(self):
        with pytest.raises(ValueError):
            multiplicity_one_report(5, 7)
        with pytest.raises(ValueError, match="d >= 3"):
            multiplicity_one_report(2, 2)

    def test_refuses_composite_p(self):
        with pytest.raises(ValueError):
            multiplicity_one_report(4, 8)
