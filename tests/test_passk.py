"""Pass@k estimator tests against an exhaustive subset-enumeration oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_passk import aggregate as reference_aggregate
from rlready import passk
from rlready.passk import (
    CheckpointMetrics,
    PassKCurve,
    TaskOutcome,
    aggregate,
    pass_at_k,
    pass_curve,
)


def subset_oracle(n: int, c: int, k: int) -> float:
    """Mean over all C(n, k) subsets of 'subset contains >= 1 correct index'.

    Correct samples are taken to be indices 0..c-1; by symmetry the choice
    does not matter. Exact rational, so the float division is the correctly
    rounded value.
    """
    hits = 0
    total = 0
    for subset in itertools.combinations(range(n), k):
        total += 1
        if any(i < c for i in subset):
            hits += 1
    return hits / total


class TestPassAtK:
    def test_derived_example(self):
        # n=5, c=2, k=2: oracle gives 1 - 3/10
        assert subset_oracle(5, 2, 2) == 0.7
        assert pass_at_k(5, 2, 2) == pytest.approx(0.7, abs=1e-12)

    def test_no_correct_sample(self):
        assert pass_at_k(64, 0, 64) == 0.0

    def test_single_correct_full_subset(self):
        # the size-64 subset of 64 samples always contains the one correct
        assert pass_at_k(64, 1, 64) == 1.0

    def test_all_correct(self):
        assert pass_at_k(8, 8, 1) == 1.0

    def test_pass_at_1_is_success_rate(self):
        rng = random.Random(20240817)
        for _ in range(200):
            n = rng.randint(1, 256)
            c = rng.randint(0, n)
            assert abs(pass_at_k(n, c, 1) - c / n) < 1e-12

    def test_oracle_equivalence_small_n(self):
        for n in range(1, 9):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    assert abs(pass_at_k(n, c, k) - subset_oracle(n, c, k)) < 1e-12

    def test_large_n_no_overflow(self):
        v = pass_at_k(10_000, 5_000, 5_000)
        assert 1.0 - 1e-12 <= v <= 1.0

    @pytest.mark.parametrize(
        "n,c,k,message_part",
        [
            (0, 0, 1, "n must be >= 1"),
            (5, 6, 1, "c must be in [0, n=5]"),
            (5, -1, 1, "c must be in [0, n=5]"),
            (5, 2, 0, "k must be in [1, n=5]"),
            (5, 2, 6, "k must be in [1, n=5]"),
        ],
    )
    def test_domain_errors_name_the_bound(self, n, c, k, message_part):
        with pytest.raises(ValueError, match=None) as exc:
            pass_at_k(n, c, k)
        assert message_part in str(exc.value)

    @given(
        st.integers(min_value=1, max_value=300).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(min_value=0, max_value=n),
                st.integers(min_value=1, max_value=n),
            )
        )
    )
    def test_bounds_and_monotonicity(self, ncx):
        n, c, k = ncx
        v = pass_at_k(n, c, k)
        assert 0.0 <= v <= 1.0
        if k < n:
            assert pass_at_k(n, c, k + 1) >= v
        if c < n:
            assert pass_at_k(n, c + 1, k) >= v


class TestPassCurve:
    def test_derived_example(self):
        # brute force over all subsets of sizes 1, 2, 4 of (n=4, c=2)
        expected = [subset_oracle(4, 2, k) for k in (1, 2, 4)]
        assert expected == [0.5, 5 / 6, 1.0]
        curve = pass_curve(TaskOutcome("m", "b", "t", n=4, c=2), [1, 2, 4])
        for got, want in zip(curve.values, expected):
            assert abs(got - want) < 1e-12

    def test_all_correct(self):
        curve = pass_curve(TaskOutcome("m", "b", "t", n=256, c=256), [1, 64])
        assert curve.values == (1.0, 1.0)

    def test_none_correct(self):
        curve = pass_curve(TaskOutcome("m", "b", "t", n=6, c=0), [1, 3, 6])
        assert curve.values == (0.0, 0.0, 0.0)

    def test_matches_pointwise_pass_at_k_bitwise(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(2, 128)
            c = rng.randint(0, n)
            ks = sorted(rng.sample(range(1, n + 1), min(n, 5)))
            curve = pass_curve(TaskOutcome("m", "b", "t", n=n, c=c), ks)
            for k, v in zip(curve.ks, curve.values):
                assert v == pass_at_k(n, c, k)

    def test_k_out_of_range_names_offender(self):
        with pytest.raises(ValueError) as exc:
            pass_curve(TaskOutcome("m", "b", "t7", n=4, c=2), [1, 8])
        assert "k=8" in str(exc.value) and "n=4" in str(exc.value) and "t7" in str(exc.value)

    def test_ks_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            pass_curve(TaskOutcome("m", "b", "t", n=8, c=2), [2, 2])

    def test_values_nondecreasing(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 200)
            c = rng.randint(0, n)
            curve = pass_curve(TaskOutcome("m", "b", "t", n=n, c=c), list(range(1, n + 1)))
            assert all(a <= b for a, b in zip(curve.values, curve.values[1:]))


class TestAggregate:
    def _out(self, bench, task, n, c, ckpt="m1"):
        return TaskOutcome(ckpt, bench, task, n=n, c=c)

    def test_macro_symmetry(self):
        outs = [self._out("A", "t1", 4, 4), self._out("B", "t1", 4, 0)]
        m = aggregate(outs, [1])
        assert m.pass1 == 0.5

    def test_mean_within_benchmark(self):
        # (n=4, c=2) at k=2 is 5/6; (n=4, c=4) is 1; mean 11/12
        outs = [self._out("A", "t1", 4, 2), self._out("A", "t2", 4, 4)]
        m = aggregate(outs, [2])
        assert abs(m.passk.value_at(2) - 11 / 12) < 1e-12

    def test_macro_is_unweighted_across_benchmarks(self):
        outs = [self._out("A", f"t{i}", 4, 4) for i in range(10)]
        outs.append(self._out("B", "t0", 4, 0))
        m = aggregate(outs, [1])
        assert m.pass1 == 0.5  # not 10/11

    def test_micro_is_task_weighted(self):
        outs = [self._out("A", f"t{i}", 4, 4) for i in range(10)]
        outs.append(self._out("B", "t0", 4, 0))
        m = aggregate(outs, [1], mode="micro")
        assert abs(m.pass1 - 10 / 11) < 1e-12

    def test_pass1_equals_curve_at_1(self):
        outs = [self._out("A", "t1", 8, 3), self._out("B", "t1", 8, 7)]
        m = aggregate(outs, [1, 4, 8])
        assert m.pass1 == m.passk.value_at(1)

    def test_pass1_computed_even_without_k1(self):
        outs = [self._out("A", "t1", 8, 4)]
        m = aggregate(outs, [8])
        assert abs(m.pass1 - 0.5) < 1e-12

    def test_macro_equals_mean_of_per_benchmark(self):
        rng = random.Random(3)
        outs = []
        for bench in "ABC":
            for t in range(rng.randint(1, 6)):
                n = rng.randint(8, 64)
                outs.append(self._out(bench, f"t{t}", n, rng.randint(0, n)))
        m = aggregate(outs, [1, 4, 8])
        for i in range(3):
            per = [m.per_benchmark[b].values[i] for b in sorted(m.per_benchmark)]
            assert abs(m.passk.values[i] - sum(per) / len(per)) < 1e-12

    def test_permutation_invariant(self):
        rng = random.Random(5)
        outs = [
            self._out(bench, f"t{t}", 16, rng.randint(0, 16))
            for bench in "AB"
            for t in range(4)
        ]
        base = aggregate(outs, [1, 8])
        for _ in range(10):
            rng.shuffle(outs)
            assert aggregate(outs, [1, 8]) == base

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate([], [1])

    def test_mixed_checkpoints_rejected(self):
        outs = [self._out("A", "t1", 4, 2), self._out("A", "t2", 4, 2, ckpt="m2")]
        with pytest.raises(ValueError, match="multiple checkpoints"):
            aggregate(outs, [1])

    def test_small_n_names_task(self):
        outs = [self._out("A", "tiny", 4, 2)]
        with pytest.raises(ValueError) as exc:
            aggregate(outs, [1, 8])
        assert "tiny" in str(exc.value)

    def test_duplicate_task_rejected(self):
        outs = [self._out("A", "t1", 4, 2), self._out("A", "t1", 4, 3)]
        with pytest.raises(ValueError, match="duplicate"):
            aggregate(outs, [1])


class TestTypes:
    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            TaskOutcome("m", "b", "t", n=0, c=0)
        with pytest.raises(ValueError):
            TaskOutcome("m", "b", "t", n=4, c=5)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            PassKCurve(ks=(2, 1), values=(0.1, 0.2))
        with pytest.raises(ValueError):
            PassKCurve(ks=(1,), values=(1.5,))
        with pytest.raises(ValueError):
            PassKCurve(ks=(1, 2), values=(0.5,))

    def test_curve_value_at_missing_k(self):
        curve = PassKCurve(ks=(1, 64), values=(0.2, 0.8))
        with pytest.raises(ValueError, match="k=32"):
            curve.value_at(32)

    def test_metrics_validation(self):
        curve = PassKCurve(ks=(1,), values=(0.5,))
        with pytest.raises(ValueError):
            CheckpointMetrics("m", pass1=1.5, passk=curve)
        with pytest.raises(ValueError):
            CheckpointMetrics("m", pass1=0.5, passk=curve, gen_loss=-1.0)


class TestAggregateSharesCurves:
    """aggregate evaluates each distinct (n, c) once per call, with the bits of
    the per-task reference in tests/reference_passk.py."""

    @staticmethod
    def _bits(m: CheckpointMetrics):
        return (
            m.checkpoint_id,
            m.pass1.hex(),
            [v.hex() for v in m.passk.values],
            {b: [v.hex() for v in cu.values] for b, cu in m.per_benchmark.items()},
        )

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from("ABC"), st.sampled_from((8, 9, 16)), st.integers(0, 16)),
            min_size=1,
            max_size=60,
        ),
        with_one=st.booleans(),
        rest=st.lists(st.integers(2, 8), min_size=1, max_size=4, unique=True),
        mode=st.sampled_from(("macro", "micro")),
    )
    def test_matches_the_per_task_reference_bitwise(self, rows, with_one, rest, mode):
        # few n and c values, so most tasks repeat another task's (n, c)
        outs = [
            TaskOutcome("m1", bench, f"t{i}", n=n, c=min(c, n))
            for i, (bench, n, c) in enumerate(rows)
        ]
        ks = ([1] if with_one else []) + sorted(rest)
        got = aggregate(outs, ks, mode=mode)
        assert self._bits(got) == self._bits(reference_aggregate(outs, ks, mode=mode))

    @pytest.mark.parametrize("mode", ["macro", "micro"])
    def test_one_pass_curve_per_distinct_n_c_per_call(self, monkeypatch, mode):
        calls = []

        def counting(outcome, ks):
            calls.append((outcome.n, outcome.c))
            return pass_curve(outcome, ks)

        monkeypatch.setattr(passk, "pass_curve", counting)
        rng = random.Random(7)
        outs = [
            TaskOutcome("m1", bench, f"t{t}", n=16, c=rng.randint(0, 4))
            for bench in "AB"
            for t in range(40)
        ]
        distinct = sorted({(o.n, o.c) for o in outs})
        for _ in range(2):  # nothing carries over from one call to the next
            calls.clear()
            passk.aggregate(outs, [1, 4, 16], mode=mode)
            assert sorted(calls) == distinct
