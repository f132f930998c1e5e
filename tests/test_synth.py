import numpy as np
import pytest

from flowgnn.graphs import build_flow_graph, flow_aggregate_features
from flowgnn.synth import SynthSpec, synth_generate
from flowgnn.training import labels_at_level

from .conftest import table_columns


class TestDeterminism:
    def test_same_seed_identical(self):
        spec = SynthSpec(class_sizes=(10, 10), delta=2.0)
        a = synth_generate(spec, seed=3)
        b = synth_generate(spec, seed=3)
        assert len(a.samples) == len(b.samples)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.sample_id == sb.sample_id
            assert sa.labels == sb.labels
            assert table_columns(sa.flows) == table_columns(sb.flows)

    def test_counts_match_spec(self):
        spec = SynthSpec(class_sizes=(7, 5, 3), delta=1.0)
        ds = synth_generate(spec, seed=0)
        assert len(ds.samples) == 15
        cats = [s.labels.category for s in ds.samples]
        assert cats.count(0) == 7 and cats.count(1) == 5 and cats.count(2) == 3


class TestLabels:
    def test_binary_category_family(self):
        ds = synth_generate(SynthSpec(class_sizes=(4, 4, 4), delta=1.0), seed=1)
        for s in ds.samples:
            assert s.labels.binary == (0 if s.labels.category == 0 else 1)
            assert s.labels.family == s.labels.category
        assert ds.class_maps["binary"] == {"benign": 0, "malicious": 1}
        assert list(ds.class_maps["category"]) == ["benign", "mal_a", "mal_b"]

    def test_unsorted_class_names_rejected(self):
        with pytest.raises(ValueError):
            synth_generate(SynthSpec(class_sizes=(2, 2),
                                     class_names=("zzz", "aaa")), seed=0)


class TestSeparation:
    def test_delta_zero_classes_look_alike(self):
        ds = synth_generate(SynthSpec(class_sizes=(150, 150), delta=0.0), seed=5)
        rows = np.vstack([flow_aggregate_features(s) for s in ds.samples])
        y = np.array([s.labels.binary for s in ds.samples])
        d = ds.feature_dim
        mean_block = rows[:, :d]
        gap = np.abs(mean_block[y == 0].mean(axis=0) - mean_block[y == 1].mean(axis=0))
        # class means agree within sampling noise on every raw feature
        assert gap.max() < 0.25

    def test_delta_four_nearest_centroid(self):
        # separability oracle for the delta=4 regime: class centroids on the
        # per-sample flow aggregate classify almost perfectly
        ds = synth_generate(SynthSpec(class_sizes=(200, 200), delta=4.0), seed=7)
        rows = np.vstack([flow_aggregate_features(s) for s in ds.samples])
        y = np.array([s.labels.binary for s in ds.samples])
        correct = 0
        for i in range(len(y)):
            mask = np.ones(len(y), dtype=bool)
            mask[i] = False  # leave-one-out centroids
            c0 = rows[mask & (y == 0)].mean(axis=0)
            c1 = rows[mask & (y == 1)].mean(axis=0)
            pred = 0 if np.linalg.norm(rows[i] - c0) <= np.linalg.norm(rows[i] - c1) else 1
            correct += pred == y[i]
        assert correct / len(y) >= 0.99

    def test_mean_edge_feature_separation_matches_delta(self):
        delta = 3.0
        ds = synth_generate(SynthSpec(class_sizes=(300, 300), delta=delta), seed=9)
        rows = np.vstack([flow_aggregate_features(s) for s in ds.samples])
        y = np.array([s.labels.binary for s in ds.samples])
        d = ds.feature_dim
        gap = rows[y == 1, :d].mean(axis=0) - rows[y == 0, :d].mean(axis=0)
        assert gap[0] == pytest.approx(delta, abs=0.2)
        assert np.abs(gap[1:]).max() < 0.2


class TestStructure:
    def test_graphs_build_and_have_edges(self):
        ds = synth_generate(SynthSpec(class_sizes=(20, 20), delta=1.0), seed=2)
        graphs = [build_flow_graph(s) for s in ds.samples]
        assert all(g.num_edges >= 1 for g in graphs)
        assert all(g.num_nodes >= 2 for g in graphs)
        labels = labels_at_level(graphs, "binary")
        assert labels.sum() == 20

    def test_constant_feature_column_present(self):
        ds = synth_generate(SynthSpec(class_sizes=(5, 5), delta=1.0), seed=3)
        assert ds.feature_names[-1] == "const"
        values = {x for s in ds.samples for x in s.flows.features[:, -1].tolist()}
        assert values == {1.0}

    def test_modes_preserve_class_means(self):
        spec = SynthSpec(class_sizes=(400, 400), delta=2.0,
                         normal_modes=4, mode_spread=6.0)
        ds = synth_generate(spec, seed=4)
        rows = np.vstack([flow_aggregate_features(s) for s in ds.samples])
        y = np.array([s.labels.binary for s in ds.samples])
        d = ds.feature_dim
        gap = rows[y == 1, :d].mean(axis=0) - rows[y == 0, :d].mean(axis=0)
        # the separation coordinate still carries delta (mode offsets are
        # zero-mean, so they only add sampling noise); others stay near zero
        assert gap[0] == pytest.approx(2.0, abs=0.75)
        assert np.abs(gap[1:]).max() < 0.25

    def test_per_sample_shift_norm(self):
        spec = SynthSpec(class_sizes=(50, 50), delta=4.0, per_sample_shift=True,
                         min_flows_per_edge=4, max_flows_per_edge=8)
        ds = synth_generate(spec, seed=6)
        d_informative = spec.num_features
        for s in ds.samples:
            flows = s.flows.features[:, :d_informative]
            sample_mean = flows.mean(axis=0)
            if s.labels.binary == 1:
                # exactly one coordinate sits near +/-delta
                big = np.abs(sample_mean) > 2.0
                assert big.sum() == 1
            else:
                assert np.abs(sample_mean).max() < 2.0
