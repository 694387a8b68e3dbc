import itertools
import random

import pytest

from rlready.passk import CheckpointMetrics, PassKCurve
from rlready.predict import (
    calibrate_and_predict,
    parse_metric,
    pareto_rule_out,
    rank_by_passk,
    rank_candidates,
)
from rlready.stats import LabeledPoint, fit_linear


def make_candidate(ckpt, pass1, gen_loss=None, pass64=None):
    ks, values = (1,), (pass1,)
    if pass64 is not None:
        ks, values = (1, 64), (pass1, pass64)
    return CheckpointMetrics(
        checkpoint_id=ckpt,
        pass1=pass1,
        passk=PassKCurve(ks=ks, values=values),
        gen_loss=gen_loss,
    )


def dominance_oracle(candidates, epsilon=0.0):
    """O(n^2) dominance check straight from the definition.

    Maps each ruled-out id to its expected dominator: the least of all its
    dominators by (gen_loss, -pass1, checkpoint_id).
    """
    dominators = {}
    for a, b in itertools.permutations(candidates, 2):
        if (
            b.pass1 >= a.pass1 + epsilon
            and b.gen_loss <= a.gen_loss - epsilon
            and (b.pass1 > a.pass1 or b.gen_loss < a.gen_loss)
        ):
            dominators.setdefault(a.checkpoint_id, []).append(b)
    return {
        ckpt: min(found, key=lambda b: (b.gen_loss, -b.pass1, b.checkpoint_id)).checkpoint_id
        for ckpt, found in dominators.items()
    }


class TestParetoRuleOut:
    def test_strict_dominance(self):
        a = make_candidate("A", 0.3, gen_loss=1.2)
        b = make_candidate("B", 0.4, gen_loss=1.0)
        survivors, ruled = pareto_rule_out([a, b])
        assert [c.checkpoint_id for c in survivors] == ["B"]
        assert ruled == [("A", "B")]

    def test_tradeoff_keeps_both(self):
        a = make_candidate("A", 0.3, gen_loss=1.0)
        b = make_candidate("B", 0.4, gen_loss=1.2)
        survivors, ruled = pareto_rule_out([a, b])
        assert len(survivors) == 2 and ruled == []

    def test_duplicates_survive_together(self):
        a = make_candidate("A", 0.3, gen_loss=1.0)
        b = make_candidate("B", 0.3, gen_loss=1.0)
        survivors, ruled = pareto_rule_out([a, b])
        assert len(survivors) == 2 and ruled == []

    def test_equal_on_one_axis_strict_on_other(self):
        a = make_candidate("A", 0.3, gen_loss=1.0)
        b = make_candidate("B", 0.3, gen_loss=0.9)
        _, ruled = pareto_rule_out([a, b])
        assert ruled == [("A", "B")]

    def test_matches_oracle_on_random_sets(self):
        rng = random.Random(123)
        for trial in range(300):
            size = rng.randint(1, 20)
            epsilon = rng.choice([0.0, 0.0, 0.05, 0.1])
            cands = [
                make_candidate(
                    f"c{i:02d}",
                    round(rng.uniform(0, 1), 2),  # rounding forces ties
                    gen_loss=round(rng.uniform(0.5, 2.0), 2),
                )
                for i in range(size)
            ]
            survivors, ruled = pareto_rule_out(cands, epsilon=epsilon)
            expected = dominance_oracle(cands, epsilon)
            assert ruled == sorted(expected.items()), f"trial {trial}"
            assert {c.checkpoint_id for c in survivors} == {
                c.checkpoint_id for c in cands
            } - set(expected)

    def test_order_independent(self):
        rng = random.Random(9)
        cands = [
            make_candidate(f"c{i}", round(rng.uniform(0, 1), 1), gen_loss=round(rng.uniform(0, 1), 1))
            for i in range(12)
        ]
        base = pareto_rule_out(cands)
        for _ in range(10):
            rng.shuffle(cands)
            assert pareto_rule_out(cands) == base

    def test_no_survivor_is_dominated(self):
        rng = random.Random(31)
        for _ in range(50):
            cands = [
                make_candidate(f"c{i}", rng.uniform(0, 1), gen_loss=rng.uniform(0, 1))
                for i in range(15)
            ]
            survivors, _ = pareto_rule_out(cands)
            survivor_ids = {c.checkpoint_id for c in survivors}
            assert not (survivor_ids & set(dominance_oracle(cands)))

    def test_epsilon_margin(self):
        a = make_candidate("A", 0.30, gen_loss=1.00)
        b = make_candidate("B", 0.31, gen_loss=0.99)
        # strict dominance, but under the 0.05 margin both survive
        assert pareto_rule_out([a, b])[1] == [("A", "B")]
        survivors, ruled = pareto_rule_out([a, b], epsilon=0.05)
        assert len(survivors) == 2 and ruled == []

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -0.01])
    def test_epsilon_must_be_finite_and_nonnegative(self, epsilon):
        cands = [make_candidate("A", 0.3, gen_loss=1.0), make_candidate("B", 0.4, gen_loss=0.9)]
        with pytest.raises(ValueError, match="epsilon must be a finite number >= 0"):
            pareto_rule_out(cands, epsilon=epsilon)

    def test_missing_gen_loss_listed(self):
        a = make_candidate("A", 0.3, gen_loss=1.0)
        b = make_candidate("B", 0.4)
        with pytest.raises(ValueError, match="missing gen_loss: B"):
            pareto_rule_out([a, b])


class TestRankByPassK:
    def test_sort_and_tiebreak(self):
        cands = [
            make_candidate("A", 0.5, pass64=0.80),
            make_candidate("B", 0.5, pass64=0.85),
            make_candidate("C", 0.5, pass64=0.80),
        ]
        assert rank_by_passk(cands, 64) == [("B", 0.85), ("A", 0.80), ("C", 0.80)]

    def test_single_candidate(self):
        cands = [make_candidate("only", 0.4, pass64=0.6)]
        assert rank_by_passk(cands, 64) == [("only", 0.6)]

    def test_all_equal_gives_id_order(self):
        cands = [make_candidate(c, 0.5, pass64=0.7) for c in ("z", "a", "m")]
        assert [ckpt for ckpt, _ in rank_by_passk(cands, 64)] == ["a", "m", "z"]

    def test_is_permutation_and_comparator_consistent(self):
        rng = random.Random(8)
        cands = [make_candidate(f"c{i}", 0.5, pass64=rng.choice([0.2, 0.5, 0.8])) for i in range(10)]
        ranked = rank_by_passk(cands, 64)
        assert sorted(ckpt for ckpt, _ in ranked) == sorted(c.checkpoint_id for c in cands)
        for (id_a, va), (id_b, vb) in zip(ranked, ranked[1:]):
            assert va > vb or (va == vb and id_a < id_b)

    def test_missing_k_names_checkpoint(self):
        cands = [make_candidate("A", 0.5, pass64=0.8), make_candidate("bad", 0.5)]
        with pytest.raises(ValueError, match="'bad'"):
            rank_by_passk(cands, 64)


class TestRankCandidates:
    def test_partition_covers_input(self):
        rng = random.Random(4)
        cands = [
            make_candidate(f"c{i}", rng.uniform(0, 1), gen_loss=rng.uniform(0, 1), pass64=rng.uniform(0, 1))
            for i in range(10)
        ]
        report = rank_candidates(cands, k=64)
        ruled_ids = {r[0] for r in report.ruled_out}
        ranked_ids = {r[0] for r in report.ranked}
        assert ruled_ids | ranked_ids == {c.checkpoint_id for c in cands}
        assert not ruled_ids & ranked_ids
        assert report.k_used == 64

    def test_rule_out_disabled(self):
        cands = [
            make_candidate("A", 0.1, gen_loss=2.0, pass64=0.9),
            make_candidate("B", 0.9, gen_loss=1.0, pass64=0.5),
        ]
        report = rank_candidates(cands, k=64, rule_out=False)
        assert report.ruled_out == ()
        assert [r[0] for r in report.ranked] == ["A", "B"]


class TestCalibrateAndPredict:
    def test_exact_line_predicts_unlabeled(self):
        cands = [make_candidate(c, x) for c, x in (("a", 0.1), ("b", 0.3), ("c", 0.5), ("d", 0.7))]
        # d is unlabeled: y = 0.5x + 0.2 -> 0.55
        preds = calibrate_and_predict(cands, {"a": 0.25, "b": 0.35, "c": 0.45}, "pass1")
        assert preds["d"] == pytest.approx(0.55, abs=1e-12)
        assert preds["a"] == pytest.approx(0.25, abs=1e-12)

    def test_two_points_interpolated_exactly(self):
        cands = [make_candidate("a", 0.2), make_candidate("b", 0.6)]
        preds = calibrate_and_predict(cands, {"a": 0.4, "b": 0.8}, "pass1")
        assert preds["a"] == pytest.approx(0.4, abs=1e-12)
        assert preds["b"] == pytest.approx(0.8, abs=1e-12)

    def test_pass1_equals_passk1(self):
        cands = [
            make_candidate("a", 0.1, pass64=0.5),
            make_candidate("b", 0.3, pass64=0.7),
            make_candidate("c", 0.4, pass64=0.9),
        ]
        labels = {"a": 0.2, "b": 0.5}
        assert calibrate_and_predict(cands, labels, "pass1") == calibrate_and_predict(
            cands, labels, "passk:1"
        )

    def test_genloss_learns_negative_slope(self):
        cands = [
            make_candidate("a", 0.5, gen_loss=2.0),
            make_candidate("b", 0.5, gen_loss=1.0),
            make_candidate("c", 0.5, gen_loss=1.5),
        ]
        preds = calibrate_and_predict(cands, {"a": 0.2, "b": 0.6}, "genloss")
        assert preds["c"] == pytest.approx(0.4, abs=1e-12)

    def test_avg_of_identical_components_matches_single(self):
        cands = [make_candidate(c, x, gen_loss=x) for c, x in (("a", 0.2), ("b", 0.5), ("c", 0.8))]
        labels = {"a": 0.3, "b": 0.6}
        # both components carry the same values, so the fits coincide
        avg = calibrate_and_predict(cands, labels, "avg:passk:1+genloss")
        single = calibrate_and_predict(cands, labels, "pass1")
        for ckpt in avg:
            assert avg[ckpt] == pytest.approx(single[ckpt], abs=1e-12)

    def test_avg_is_the_mean_of_two_different_fits(self):
        # pass1 fits y = x and genloss fits y = 1 - x, both exactly
        cands = [
            make_candidate("a", 0.2, gen_loss=0.8),
            make_candidate("b", 0.6, gen_loss=0.4),
            make_candidate("c", 0.4, gen_loss=0.6),
            make_candidate("d", 0.3, gen_loss=0.9),
        ]
        labels = {"a": 0.2, "b": 0.6, "c": 0.4}
        avg = calibrate_and_predict(cands, labels, "avg:passk:1+genloss")
        by_pass1 = calibrate_and_predict(cands, labels, "pass1")
        by_genloss = calibrate_and_predict(cands, labels, "genloss")
        assert avg["d"] == pytest.approx((0.3 + 0.1) / 2, abs=1e-12)
        for ckpt in avg:
            assert avg[ckpt] == (by_pass1[ckpt] + by_genloss[ckpt]) / 2

    def test_single_component_passes_its_fit_through(self):
        cands = [make_candidate(c, x) for c, x in (("a", 0.0), ("b", 0.1), ("c", 0.25), ("d", 0.2))]
        labels = {"a": 0.1, "b": 0.3, "c": 0.55}
        fit = fit_linear([LabeledPoint(c.checkpoint_id, c.pass1, labels[c.checkpoint_id])
                          for c in cands[:3]])
        preds = calibrate_and_predict(cands, labels, "pass1")
        assert preds == {c.checkpoint_id: fit.predict(c.pass1) for c in cands}

    def test_too_few_labels(self):
        cands = [make_candidate("a", 0.1), make_candidate("b", 0.3)]
        with pytest.raises(ValueError, match=">= 2 candidates"):
            calibrate_and_predict(cands, {"a": 0.2}, "pass1")

    def test_degenerate_metric_values(self):
        cands = [make_candidate("a", 0.5), make_candidate("b", 0.5)]
        with pytest.raises(ValueError, match="degenerate"):
            calibrate_and_predict(cands, {"a": 0.2, "b": 0.6}, "pass1")

    def test_bad_metric_spec(self):
        cands = [make_candidate("a", 0.1), make_candidate("b", 0.3)]
        with pytest.raises(ValueError, match="unknown metric"):
            calibrate_and_predict(cands, {"a": 0.2, "b": 0.4}, "bogus")
        with pytest.raises(ValueError, match="bad k"):
            parse_metric("passk:x")
        with pytest.raises(ValueError, match=">= 2 components"):
            parse_metric("avg:pass1")

    @pytest.mark.parametrize("label", [1.5, -0.1, float("nan")])
    def test_label_outside_unit_interval(self, label):
        cands = [make_candidate("a", 0.1), make_candidate("b", 0.3)]
        with pytest.raises(ValueError, match=r"post_rl_pass1 must be in \[0, 1\], got"):
            calibrate_and_predict(cands, {"a": 0.2, "b": label}, "pass1")

    def test_labels_naming_unknown_checkpoints(self):
        cands = [make_candidate("a", 0.1), make_candidate("b", 0.3)]
        with pytest.raises(ValueError, match="labels name unknown checkpoints: y, z$"):
            calibrate_and_predict(cands, {"z": 0.1, "a": 0.2, "b": 0.4, "y": 0.3}, "pass1")
