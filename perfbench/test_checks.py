"""Each correctness check of the benchmark rejects a corrupted input.

    python3 perfbench/test_checks.py          (or: python3 -m pytest perfbench/test_checks.py)

Every test feeds a check one good input, which must pass, and one input
with a single corruption, which must raise CheckFailed.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import flowgnn as fg  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import Recorder, enclosing, self_times  # noqa: E402


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def sample_flows():
    rng = np.random.default_rng(5)
    pairs = [("a", "b"), ("a", "b"), ("b", "c"), ("c", "a"), ("a", "b"), ("c", "c"), ("b", "c")]
    flows = tuple(fg.FlowRecord(s, t, tuple(rng.normal(size=3))) for s, t in pairs)
    src = [s for s, _ in pairs]
    dst = [t for _, t in pairs]
    matrix = np.array([f.features for f in flows])
    return fg.SampleFlows("x", flows), src, dst, matrix


def with_features(graph, features, edges=None):
    return fg.FlowGraph(graph.sample_id, graph.nodes, graph.edges if edges is None else edges,
                        features, graph.feature_names, graph.labels)


def test_graph_structure_rejects_a_missing_edge():
    sample, src, dst, _ = sample_flows()
    graph = fg.build_flow_graph(sample)
    checks.check_graph_structure(graph, src, dst)
    dropped = with_features(graph, graph.edge_features[:-1], graph.edges[:-1])
    assert rejects(checks.check_graph_structure, dropped, src, dst)


def test_edge_features_reject_one_perturbed_cell():
    sample, src, dst, matrix = sample_flows()
    graph = fg.build_flow_graph(sample)
    checks.check_edge_features(graph, src, dst, matrix)
    features = graph.edge_features.copy()
    features[0, 4] += 1e-6
    assert rejects(checks.check_edge_features, with_features(graph, features), src, dst, matrix)


def test_structural_rejects_a_perturbed_betweenness():
    dataset = fg.synth_generate(fg.SynthSpec(class_sizes=(3, 0), min_nodes=9, max_nodes=9), 4)
    for sample in dataset.samples:
        graph = fg.build_flow_graph(sample)
        values = fg.structural_features(graph).values
        reference = checks.networkx_structure(graph)
        checks.check_structural(values, reference, graph.sample_id)
        bad = values.copy()
        bad[2 + 7] += 1e-6  # mean betweenness
        assert rejects(checks.check_structural, bad, reference, graph.sample_id)


def test_read_back_rejects_one_ulp():
    sample, _, _, _ = sample_flows()
    graph = fg.build_flow_graph(sample)
    checks.check_same_graphs([graph], [graph])
    features = graph.edge_features.copy()
    features[1, 2] = np.nextafter(features[1, 2], np.inf)
    assert rejects(checks.check_same_graphs, [with_features(graph, features)], [graph])


def test_weighted_f1_rejects_predictions_off_by_one_label():
    rng = np.random.default_rng(1)
    y_true = rng.integers(0, 4, size=50)
    y_pred = np.where(rng.random(50) < 0.7, y_true, rng.integers(0, 4, size=50))
    reported = fg.weighted_f1(y_true, y_pred)
    checks.check_weighted_f1(y_true, y_pred, reported)
    off = y_pred.copy()
    off[0] = (off[0] + 1) % 4
    assert rejects(checks.check_weighted_f1, y_true, off, reported)


def test_beats_untrained_rejects_a_small_margin():
    checks.check_beats_untrained(0.9, 0.2)
    assert rejects(checks.check_beats_untrained, 0.4, 0.2)


def test_split_rejects_overlap_and_a_missed_quota():
    labels = np.repeat(np.arange(3), 40)
    split = fg.supervised_split(labels, "category", 0)
    checks.check_split(split, labels, 25)
    overlapping = fg.SplitPlan.__new__(fg.SplitPlan)
    object.__setattr__(overlapping, "train", split.train)
    object.__setattr__(overlapping, "val", split.val + split.train[:1])
    object.__setattr__(overlapping, "test", split.test)
    assert rejects(checks.check_split, overlapping, labels, 25)
    short = fg.SplitPlan(0, "category", split.train[1:], split.val, split.test + split.train[:1])
    assert rejects(checks.check_split, short, labels, 25)


def test_auroc_rejects_one_swapped_score_pair():
    rng = np.random.default_rng(2)
    labels = np.array([0] * 30 + [1] * 6)
    scores = rng.normal(size=36) + labels
    reported = fg.auroc(scores, labels)
    checks.check_auroc(scores, labels, reported)
    pos, neg = 30 + int(np.argmax(scores[30:])), int(np.argmin(scores[:30]))
    swapped = scores.copy()
    swapped[[pos, neg]] = swapped[[neg, pos]]
    assert rejects(checks.check_auroc, swapped, labels, reported)


def test_reload_rejects_one_swapped_score_pair():
    scores = np.random.default_rng(3).normal(size=10)
    checks.check_bit_exact(scores.copy(), scores)
    swapped = scores.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert rejects(checks.check_bit_exact, swapped, scores)


def test_alone_scores_reject_a_drift():
    scores = np.array([3.5])
    checks.check_scores_close(scores * (1 + 1e-12), scores, "alone")
    assert rejects(checks.check_scores_close, scores * (1 + 1e-6), scores, "alone")


def test_objective_rejects_no_improvement():
    checks.check_objective_lowered(1.0, 2.0, "objective")
    assert rejects(checks.check_objective_lowered, 2.0, 2.0, "objective")


def test_self_time_subtracts_children():
    rec = Recorder()
    rec.active = True
    rec.new_round()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    spans = rec.spans
    spans[0][1:3] = [0.0, 5.0]
    spans[1][1:3] = [1.0, 3.0]
    assert self_times(spans) == [3.0, 2.0]
    assert enclosing(spans, frozenset({"outer"})) == [{"outer"}, {"outer"}]


def test_benchmark_json_units_match_the_runner():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fp:
        doc = json.load(fp)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.UNITS
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in doc["per_layer"])


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} checks reject their corrupted input")
