import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowgnn.metrics import MetricReport, auroc, per_class_precision_recall, weighted_f1


def f1_oracle(y_true, y_pred):
    """Confusion-matrix walk per class, no vectorized shortcuts."""
    classes = sorted(set(y_true))
    total = 0.0
    for cls in classes:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p == cls)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != cls and p == cls)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p != cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        support = sum(1 for t in y_true if t == cls)
        total += f1 * support / len(y_true)
    return total


def auroc_oracle(scores, labels):
    """All positive-negative pairs, ties worth one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def auroc_tie_loop(scores, labels):
    """Mid-ranks from a walk over the stably sorted scores, one tie group at
    a time: the ranking auroc used before it took tie groups from np.unique."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.intp).ravel()
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(s.size, dtype=np.float64)
    sorted_scores = s[order]
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        # 1-based mid-rank over the tie group [i, j]
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum = ranks[y == 1].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


class TestWeightedF1:
    def test_perfect(self):
        assert weighted_f1([0, 1, 2], [0, 1, 2]) == pytest.approx(1.0)

    def test_spec_example(self):
        assert weighted_f1([0, 0, 1], [0, 1, 1]) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_all_one_class_on_balanced(self):
        y_true = [0] * 10 + [1] * 10
        y_pred = [0] * 20
        assert weighted_f1(y_true, y_pred) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_matches_oracle_random(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 21))
            c = int(rng.integers(1, 5))
            y_true = rng.integers(0, c, size=n).tolist()
            y_pred = rng.integers(0, c, size=n).tolist()
            assert weighted_f1(y_true, y_pred) == pytest.approx(
                f1_oracle(y_true, y_pred), abs=1e-12
            )

    @given(st.integers(1, 20), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_oracle(self, n, c, seed):
        g = np.random.default_rng(seed)
        y_true = g.integers(0, c, size=n).tolist()
        y_pred = g.integers(0, c, size=n).tolist()
        assert weighted_f1(y_true, y_pred) == pytest.approx(
            f1_oracle(y_true, y_pred), abs=1e-12
        )

    def test_per_class_precision_recall(self):
        out = per_class_precision_recall([0, 0, 1], [0, 1, 1])
        assert out[0] == (1.0, 0.5)
        assert out[1] == (0.5, 1.0)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_spec_example(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-15)

    def test_all_ties(self):
        assert auroc([0.5] * 8, [0, 1] * 4) == pytest.approx(0.5, abs=1e-15)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("labels", [[1, 0, 2], [1, 0, -1], [1.5, 0, 1]])
    def test_label_outside_0_1_rejected(self, labels):
        # a stray label once counted as neither class and gave 2.0
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            auroc([0.9, 0.1, 0.5], labels)

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            auroc([0.9, float("nan"), 0.5], [1, 0, 0])

    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0]),
                  st.floats(allow_nan=False, width=64)),
        st.integers(0, 1)), min_size=2, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_heavy_ties_match_tie_loop_exactly(self, pairs):
        scores, labels = zip(*pairs)
        assume(0 < sum(labels) < len(labels))
        assert auroc(scores, labels) == auroc_tie_loop(scores, labels)

    def test_matches_oracle_random(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 21))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse grid scores force plenty of exact ties
            scores = rng.integers(0, 5, size=n) / 4.0
            assert auroc(scores, labels) == pytest.approx(
                auroc_oracle(scores.tolist(), labels.tolist()), abs=1e-12
            )

    @given(st.integers(2, 20), st.integers(0, 2 ** 31 - 1), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_property_matches_oracle(self, n, seed, coarse):
        g = np.random.default_rng(seed)
        labels = g.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = (g.integers(0, 3, size=n) / 2.0) if coarse else g.normal(size=n)
        assert auroc(scores, labels) == pytest.approx(
            auroc_oracle(scores.tolist(), labels.tolist()), abs=1e-12
        )


class TestCeilings:
    """No prediction scores above a perfect one in float64, which lets
    train stop once its best validation score equals the perfect score."""

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_weighted_f1_at_most_the_perfect_score(self, pairs):
        true, pred = zip(*pairs)
        assert weighted_f1(true, pred) <= weighted_f1(true, true)

    @pytest.mark.parametrize("supports, perfect", [
        ((6, 6), 1.0), ((4, 6, 2), 0.9999999999999999), ((3, 5, 1, 1, 2), 1.0000000000000002),
    ])
    def test_perfect_weighted_f1_may_round_off_one(self, supports, perfect):
        true = np.repeat(np.arange(len(supports)), supports)
        assert weighted_f1(true, true) == perfect

    @given(st.lists(st.tuples(st.floats(allow_nan=False, width=64), st.integers(0, 1)),
                    min_size=2, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_auroc_at_most_one(self, pairs):
        scores, labels = zip(*pairs)
        assume(0 < sum(labels) < len(labels))
        assert auroc(scores, labels) <= 1.0


class TestMetricReport:
    def test_single_run_std_zero(self):
        report = MetricReport("binary", "clf", "weighted_f1", [0.9])
        assert report.std == 0.0
        assert report.mean == pytest.approx(0.9)

    def test_to_dict_layout(self):
        report = MetricReport("binary", "clf", "weighted_f1", [0.5, 1.0])
        out = report.to_dict()
        assert set(out) == {"task", "model", "metric", "mean", "std", "per_seed"}
        assert out["mean"] == pytest.approx(0.75)
