import numpy as np
import pytest

from flowgnn.graphs import build_flow_graph
from flowgnn.mlp import DenseNetwork
from flowgnn.nn import Adam, finite_difference_check
from flowgnn.synth import SynthSpec, synth_generate
from flowgnn.training import ProtocolSpec, TrainConfig, run_protocol


def build(variant, in_dim=5, h=6, layers=2, seed=0, num_classes=3, l2=0.0):
    return DenseNetwork(variant, in_dim=in_dim, num_hidden=h, num_layers=layers,
                        rng=np.random.default_rng(seed), num_classes=num_classes, l2=l2)


class TestDenseNetwork:
    @pytest.mark.parametrize("variant", ["mlp", "mlp_ae", "mlp_oc"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_gradients(self, variant, layers, rng):
        model = build(variant, in_dim=9, h=12, layers=layers, l2=1e-2)
        x = rng.normal(size=(6, 9))
        if variant == "mlp_oc":
            model.init_center(x)
        targets = rng.integers(0, 3, size=6) if variant == "mlp" else None

        def f():
            return model.loss(x, targets)

        report = finite_difference_check(f, model.parameters(), coords_per_param=100,
                                         rng=np.random.default_rng(1))
        assert len(report.checks) >= 100
        assert report.passed, (variant, layers, report.max_rel_error)

    def test_oc_is_bias_free(self):
        model = build("mlp_oc")
        assert all(not p.name.endswith(".b") for p in model.parameters())
        assert build("mlp").out.b is not None

    def test_ae_reconstruction_shape(self, rng):
        model = build("mlp_ae")
        x = rng.normal(size=(4, 5))
        assert model.reconstruct(x).shape == (4, 5)
        assert model.anomaly_scores(x).shape == (4,)

    def test_classifier_probabilities(self, rng):
        model = build("mlp")
        proba = model.predict_proba(rng.normal(size=(7, 5)))
        assert proba.shape == (7, 3)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_oc_center_frozen(self, rng):
        model = build("mlp_oc")
        x = rng.normal(size=(10, 5))
        model.init_center(x)
        frozen = model.center.copy()
        optimizer = Adam(model.parameters(), lr=1e-2)
        for _ in range(5):
            loss = model.loss(x)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert np.array_equal(model.center, frozen)

    def test_l2_penalty_increases_loss(self, rng):
        x = rng.normal(size=(6, 5))
        plain = build("mlp_ae", l2=0.0, seed=2)
        penalized = build("mlp_ae", l2=1.0, seed=2)
        assert penalized.loss(x).item() > plain.loss(x).item()


@pytest.fixture(scope="module")
def synthetic_task():
    spec = SynthSpec(class_sizes=(150, 150), delta=4.0)
    dataset = synth_generate(spec, seed=21)
    graphs = [build_flow_graph(s) for s in dataset.samples]
    return dataset, graphs


class TestMlpBaselines:
    def test_classifier_on_separable_flow_features(self, synthetic_task):
        # a validation split large enough to rank epochs, and enough width
        # that the optimizer does not freeze into a noise-interpolating fit
        dataset, graphs = synthetic_task
        spec = ProtocolSpec(task="binary", variant="mlp", feature_set="flow",
                            quota=50, val_fraction=0.25)
        config = TrainConfig(variant="mlp", num_hidden=64, num_layers=1,
                             learning_rate=1e-3, batch_size=32, max_epochs=500,
                             l2=1e-2)
        result = run_protocol(spec, graphs, config=config, n_repeats=2, dataset=dataset)
        assert min(result.report.per_seed) >= 0.95

    def test_unsupervised_variants_run(self, synthetic_task):
        dataset, graphs = synthetic_task
        for variant in ("mlp_ae", "mlp_oc"):
            spec = ProtocolSpec(task="unsupervised", variant=variant,
                                feature_set="combined")
            config = TrainConfig(variant=variant, num_hidden=8, num_layers=1,
                                 batch_size=16, max_epochs=30)
            result = run_protocol(spec, graphs, config=config, n_repeats=1, dataset=dataset)
            assert 0.0 <= result.report.per_seed[0] <= 1.0

    def test_best_epoch_history_bookkeeping(self, synthetic_task):
        dataset, graphs = synthetic_task
        spec = ProtocolSpec(task="unsupervised", variant="mlp_ae", feature_set="flow")
        config = TrainConfig(variant="mlp_ae", num_hidden=8, num_layers=1,
                             batch_size=16, max_epochs=30)
        result = run_protocol(spec, graphs, config=config, n_repeats=1, dataset=dataset)
        run = result.runs[0]
        assert run["best_epoch"] >= 1
        assert run["metric"] == "auroc"

