import math
import random

import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from rlready.stats import (
    EvalProtocolResult,
    LabeledPoint,
    LinearFit,
    combine_predictions,
    fit_bivariate,
    fit_linear,
    r_squared,
    repeated_split_eval,
    repeated_split_eval_combined,
    spearman,
)


def pts(*pairs):
    return [LabeledPoint(f"m{i}", x, y) for i, (x, y) in enumerate(pairs)]


def spearman_closed_form(xs, ys):
    """1 - 6*sum(d^2)/(n(n^2-1)) - valid only for tie-free inputs."""
    n = len(xs)
    rx = {v: i + 1 for i, v in enumerate(sorted(xs))}
    ry = {v: i + 1 for i, v in enumerate(sorted(ys))}
    d2 = sum((rx[x] - ry[y]) ** 2 for x, y in zip(xs, ys))
    return 1 - 6 * d2 / (n * (n * n - 1))


class TestFitLinear:
    def test_exact_interpolation(self):
        fit = fit_linear(pts((0, 1), (1, 3), (2, 5)))
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_three_points(self):
        fit = fit_linear(pts((0, 0), (1, 1), (2, 0)))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1 / 3, abs=1e-12)

    def test_constant_labels(self):
        fit = fit_linear(pts((0, 5), (1, 5), (2, 5)))
        assert (fit.slope, fit.intercept) == (0.0, 5.0)

    def test_residuals_orthogonal_to_design(self):
        rng = random.Random(42)
        points = pts(*[(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(30)])
        fit = fit_linear(points)
        resid = [p.y - fit.predict(p.x) for p in points]
        assert abs(sum(resid)) < 1e-9
        assert abs(sum(r * p.x for r, p in zip(resid, points))) < 1e-9

    def test_scale_equivariance(self):
        points = pts((0.1, 0.4), (0.5, 0.7), (0.9, 0.5), (0.3, 0.6))
        fit = fit_linear(points)
        s = 7.5
        scaled = [LabeledPoint(p.checkpoint_id, p.x * s, p.y) for p in points]
        fit_s = fit_linear(scaled)
        assert fit_s.slope == pytest.approx(fit.slope / s, rel=1e-12)
        for p, q in zip(points, scaled):
            assert fit.predict(p.x) == pytest.approx(fit_s.predict(q.x), abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match=">= 2 points"):
            fit_linear(pts((1, 1)))

    def test_degenerate_x(self):
        with pytest.raises(ValueError, match="share x=2"):
            fit_linear(pts((2, 1), (2, 3)))


class TestRSquared:
    def test_perfect_fit(self):
        fit = LinearFit(2.0, 1.0)
        holdout = pts((0, 1), (1, 3), (4, 9))
        assert r_squared(fit, holdout) == 1.0

    def test_mean_predictor_is_zero(self):
        holdout = pts((0, 1), (1, 3), (2, 2))
        fit = LinearFit(0.0, 2.0)  # 2 is the holdout mean
        assert r_squared(fit, holdout) == pytest.approx(0.0, abs=1e-12)

    def test_derived_example(self):
        assert r_squared(LinearFit(0.0, 0.0), pts((0, 1), (1, -1))) == 0.0

    def test_can_be_negative(self):
        fit = LinearFit(0.0, 100.0)
        assert r_squared(fit, pts((0, 1), (1, 2))) < -1000

    def test_never_exceeds_one(self):
        rng = random.Random(9)
        for _ in range(200):
            holdout = pts(*[(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(5)])
            fit = LinearFit(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert r_squared(fit, holdout) <= 1.0

    def test_constant_labels_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            r_squared(LinearFit(1.0, 0.0), pts((0, 2), (1, 2)))

    def test_too_few_points(self):
        with pytest.raises(ValueError, match=">= 2 holdout"):
            r_squared(LinearFit(1.0, 0.0), pts((0, 2)))


class TestSpearman:
    def test_identical_ranks(self):
        assert spearman([1, 2, 3, 5], [10, 20, 30, 50]) == 1.0

    def test_opposed_ranks(self):
        assert spearman([1, 2, 3, 5], [50, 30, 20, 10]) == -1.0

    def test_worked_example(self):
        assert spearman([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8, abs=1e-12)

    def test_tie_handling(self):
        # ranks x=(1.5, 1.5, 3) vs y=(1, 2, 3): Pearson = 1.5/sqrt(1.5*2)
        expected = 1.5 / math.sqrt(3.0)
        assert spearman([1, 1, 2], [1, 2, 3]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.866, abs=5e-4)

    def test_matches_closed_form_on_tie_free(self):
        rng = random.Random(77)
        for _ in range(100):
            n = rng.randint(2, 50)
            xs = rng.sample(range(10_000), n)
            ys = rng.sample(range(10_000), n)
            assert spearman(xs, ys) == pytest.approx(
                spearman_closed_form(xs, ys), abs=1e-10
            )

    def test_matches_scipy_with_ties(self):
        rng = random.Random(78)
        for _ in range(50):
            n = rng.randint(3, 30)
            xs = [rng.randint(0, 5) for _ in range(n)]
            ys = [rng.randint(0, 5) for _ in range(n)]
            if len(set(xs)) == 1 or len(set(ys)) == 1:
                continue
            expected = scipy.stats.spearmanr(xs, ys).statistic
            assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_monotone_transforms(self):
        rng = random.Random(5)
        xs = [rng.uniform(-3, 3) for _ in range(20)]
        ys = [rng.uniform(-3, 3) for _ in range(20)]
        base = spearman(xs, ys)
        assert spearman([math.exp(x) for x in xs], [2 * y + 3 for y in ys]) == pytest.approx(
            base, abs=1e-12
        )

    def test_errors(self):
        with pytest.raises(ValueError, match="length mismatch"):
            spearman([1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="all equal"):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValueError, match=">= 2"):
            spearman([1], [1])


class TestRepeatedSplitEval:
    def _line_points(self, n=16):
        return [LabeledPoint(f"m{i:02d}", i / n, 0.2 + 0.5 * i / n) for i in range(n)]

    def test_exact_line_gives_r2_one(self):
        res = repeated_split_eval(self._line_points(), n_fit=8, repeats=50, seed=3)
        assert res.skipped == 0
        assert all(abs(v - 1.0) < 1e-9 for v in res.per_repeat_r2)
        assert res.dispersion == pytest.approx(0.0, abs=1e-9)

    def test_shape_contract(self):
        res = repeated_split_eval(self._line_points(16), n_fit=8, repeats=100, seed=11)
        assert len(res.per_repeat_r2) == 100
        assert res.n_val == 8
        assert res.repeats == 100

    def test_deterministic(self):
        points = self._noisy_points()
        a = repeated_split_eval(points, n_fit=8, repeats=40, seed=7)
        b = repeated_split_eval(points, n_fit=8, repeats=40, seed=7)
        assert a == b

    def test_seed_changes_draws(self):
        points = self._noisy_points()
        a = repeated_split_eval(points, n_fit=8, repeats=40, seed=7)
        b = repeated_split_eval(points, n_fit=8, repeats=40, seed=8)
        assert a.per_repeat_r2 != b.per_repeat_r2

    def test_combined_of_identical_metrics_matches_single(self):
        degenerate = pts((0.0, 0.1), (0.0, 0.2), (0.0, 0.3), (1.0, 0.9), (1.0, 0.8), (1.0, 0.7))
        for points, n_fit in ((self._noisy_points(), 6), (degenerate, 3)):
            single = repeated_split_eval(points, n_fit, 64, 1)
            combined = repeated_split_eval_combined({"a": points, "b": points}, n_fit, 64, 1)
            assert combined == single

    def test_mean_matches_per_repeat(self):
        res = repeated_split_eval(self._noisy_points(), n_fit=8, repeats=30, seed=2)
        assert res.mean_r2 == pytest.approx(
            sum(res.per_repeat_r2) / len(res.per_repeat_r2), abs=1e-12
        )
        assert res.stderr == pytest.approx(
            res.dispersion / math.sqrt(len(res.per_repeat_r2)), abs=1e-15
        )

    def test_degenerate_repeats_skipped_and_counted(self):
        # only two distinct x values: some fit draws are all one x
        points = [
            LabeledPoint("a", 0.0, 0.1),
            LabeledPoint("b", 0.0, 0.2),
            LabeledPoint("c", 0.0, 0.3),
            LabeledPoint("d", 1.0, 0.9),
            LabeledPoint("e", 1.0, 0.8),
            LabeledPoint("f", 1.0, 0.7),
        ]
        res = repeated_split_eval(points, n_fit=3, repeats=200, seed=5)
        assert res.skipped > 0
        assert len(res.per_repeat_r2) == 200 - res.skipped

    def test_stratified_draw_respects_groups(self):
        points = self._noisy_points(16)
        groups = {p.checkpoint_id: ("even" if i % 2 == 0 else "odd") for i, p in enumerate(points)}
        res = repeated_split_eval(points, n_fit=8, repeats=20, seed=4, stratify_by=groups)
        assert res.repeats == 20
        # each stratified draw takes 4 from each 8-member group; spot-check determinism
        again = repeated_split_eval(points, n_fit=8, repeats=20, seed=4, stratify_by=groups)
        assert res == again

    def test_errors(self):
        points = self._noisy_points(3)
        with pytest.raises(ValueError, match=">= 4"):
            repeated_split_eval(points, n_fit=2, repeats=1, seed=0)
        points = self._noisy_points(8)
        with pytest.raises(ValueError, match="n_fit"):
            repeated_split_eval(points, n_fit=7, repeats=1, seed=0)
        with pytest.raises(ValueError, match="repeats"):
            repeated_split_eval(points, n_fit=4, repeats=0, seed=0)

    def _noisy_points(self, n=16):
        rng = random.Random(1234)
        return [
            LabeledPoint(f"m{i:02d}", i / n + rng.uniform(-0.01, 0.01), 0.3 * i / n + rng.uniform(-0.05, 0.05))
            for i in range(n)
        ]


class TestCombineAndBivariate:
    def test_mean_of_two_predictions(self):
        fits = [("a", LinearFit(0.0, 0.4)), ("b", LinearFit(0.0, 0.6))]
        out = combine_predictions(fits, {"m1": {"a": 0.0, "b": 0.0}})
        assert out == {"m1": 0.5}

    def test_singleton_passthrough(self):
        fits = [("a", LinearFit(2.0, 0.1))]
        out = combine_predictions(fits, {"m1": {"a": 0.2}})
        assert out["m1"] == pytest.approx(0.5, abs=1e-12)

    def test_agreeing_fits_idempotent(self):
        fit = LinearFit(1.0, 0.0)
        out = combine_predictions([("a", fit), ("b", fit)], {"m1": {"a": 0.3, "b": 0.3}})
        assert out["m1"] == pytest.approx(0.3, abs=1e-15)

    def test_missing_feature_names_both(self):
        fits = [("a", LinearFit(1.0, 0.0))]
        with pytest.raises(ValueError) as exc:
            combine_predictions(fits, {"m9": {}})
        assert "m9" in str(exc.value) and "'a'" in str(exc.value)

    def test_bivariate_recovers_plane(self):
        rng = random.Random(6)
        data = []
        for _ in range(20):
            x1, x2 = rng.uniform(0, 1), rng.uniform(0, 1)
            data.append((x1, x2, 0.3 * x1 - 0.7 * x2 + 0.05))
        a1, a2, b = fit_bivariate(data)
        assert a1 == pytest.approx(0.3, abs=1e-9)
        assert a2 == pytest.approx(-0.7, abs=1e-9)
        assert b == pytest.approx(0.05, abs=1e-9)

    def test_bivariate_collinear_rejected(self):
        data = [(x, 2 * x, x) for x in (0.0, 0.25, 0.5, 0.75)]
        with pytest.raises(ValueError, match="collinear"):
            fit_bivariate(data)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100),
        ),
        min_size=3,
        max_size=40,
    )
)
def test_r_squared_at_most_one_property(pairs):
    points = pts(*pairs)
    try:
        fit = fit_linear(points)
        value = r_squared(fit, points)
    except ValueError:
        return  # degenerate draw: constant x or constant y
    assert value <= 1.0 + 1e-12


def test_point_validation():
    with pytest.raises(ValueError, match="non-finite"):
        LabeledPoint("m", float("nan"), 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        LinearFit(float("inf"), 0.0)
