import weakref
from dataclasses import replace

import numpy as np
import pytest

from flowgnn import serialize, training
from flowgnn.graphs import build_flow_graph, feature_matrix
from flowgnn.metrics import weighted_f1
from flowgnn.model import FlowGraphNetwork
from flowgnn.nn import Adam
from flowgnn.synth import SynthSpec, synth_generate
from flowgnn.training import (
    DEFAULT_GRIDS,
    ProtocolSpec,
    TrainConfig,
    expand_grid,
    grid_search,
    labels_at_level,
    make_job,
    make_split,
    run_protocol,
    evaluate_metrics,
    train,
)


@pytest.fixture(scope="module")
def small_task():
    spec = SynthSpec(class_sizes=(40, 40), delta=4.0, min_nodes=3, max_nodes=6)
    dataset = synth_generate(spec, seed=11)
    graphs = [build_flow_graph(s) for s in dataset.samples]
    labels = {"binary": labels_at_level(graphs, "binary")}
    return dataset, graphs, labels


def quick_config(**kwargs):
    base = dict(variant="clf", num_layers=1, num_hidden=8, learning_rate=1e-2,
                batch_size=16, max_epochs=40, seed=0)
    base.update(kwargs)
    return TrainConfig(**base)


def make_clf_job(graphs, labels, seed=0, **cfg):
    spec = ProtocolSpec(task="binary", variant="clf", quota=10, val_fraction=0.2)
    split = make_split(spec, labels, seed)
    job, standardizer = make_job(spec, quick_config(seed=seed, **cfg), split,
                                 graphs, None, labels)
    return spec, job, standardizer


class TestTrainConfig:
    def test_round_trip_with_lambda_key(self):
        config = TrainConfig(variant="oc", lambda_=0.5)
        raw = config.to_dict()
        assert raw["lambda"] == 0.5
        assert "lambda_" not in raw
        assert TrainConfig.from_dict(raw) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig.from_dict({"variant": "clf", "zzz": 1})

    @pytest.mark.parametrize("field, value, name", [
        ("num_layers", True, "num_layers"), ("num_hidden", 8.0, "num_hidden"),
        ("seed", -1, "seed"), ("learning_rate", 0.0, "learning_rate"),
        ("lambda_", float("nan"), "lambda"), ("l2", -1e-3, "l2"), ("dropout", 1.0, "dropout"),
    ])
    def test_bad_field_rejected_by_name(self, field, value, name):
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {value!r}$"):
            TrainConfig(**{field: value})

    def test_spec_defaults(self):
        config = TrainConfig()
        assert config.patience == 20
        assert config.max_epochs == 1000
        assert config.batch_size == 32


class TestEarlyStopping:
    def test_flat_criterion_stops_at_21(self, small_task, script_val_score):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=1000)
        script_val_score(lambda model, epoch: 0.5)
        result = train(job)
        assert result.stopped_epoch == 21
        assert result.best_epoch == 1

    def test_strictly_improving_runs_to_max(self, small_task, script_val_score):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=30)
        script_val_score(lambda model, epoch: epoch / 1000.0)
        result = train(job)
        assert result.stopped_epoch == 30
        assert result.best_epoch == 30

    def test_best_epoch_parameters_returned(self, small_task, script_val_score):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=40)
        sequence = {1: 0.1, 2: 0.9, 3: 0.3}  # later epochs default to 0.2
        snapshots = {}

        def criterion(model, epoch):
            value = sequence.get(epoch, 0.2)
            snapshots[epoch] = [p.data.copy() for p in model.parameters()]
            return value

        script_val_score(criterion)
        result = train(job)
        assert result.best_epoch == 2
        assert result.stopped_epoch == 22  # 20 non-improving epochs after 2
        for p, snap in zip(result.model.parameters(), snapshots[2]):
            assert np.array_equal(p.data, snap)

    def test_never_later_than_best(self, small_task):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=40)
        result = train(job)
        assert result.best_epoch <= result.stopped_epoch
        recorded = [rec.val_score for rec in result.history]
        assert result.best_val == pytest.approx(max(recorded))


def relabel_val(job, supports):
    """job with its validation rows relabeled, in order, to classes 0, 1, ...
    of the given supports; a perfect F1 on them may round off 1.0."""
    y = job.y.copy()
    y[list(job.split.val)] = np.repeat(np.arange(len(supports)), supports)
    return replace(job, y=y, num_classes=max(len(supports), job.num_classes))


def oc_job(graphs, labels, **cfg):
    spec = ProtocolSpec(task="unsupervised", variant="oc")
    job, _ = make_job(spec, quick_config(variant="oc", **cfg),
                      make_split(spec, labels, 0), graphs, None, labels)
    return job


# validation supports of the small task's 12 validation graphs, and the
# weighted F1 of a perfect prediction on them
CEILINGS = {(6, 6): 1.0, (4, 6, 2): 0.9999999999999999, (3, 5, 1, 1, 2): 1.0000000000000002}


class TestStopRule:
    @pytest.mark.parametrize("supports", CEILINGS, ids=["at_1", "below_1", "above_1"])
    def test_clf_ceiling_is_the_perfect_f1(self, small_task, supports):
        _, graphs, labels = small_task
        job = relabel_val(make_clf_job(graphs, labels)[1], supports)
        model = training.build_model(job.config, job.in_dim, job.num_classes,
                                     np.random.default_rng(0))
        assert training._val_ceiling(job, model) == CEILINGS[supports]

    @pytest.mark.parametrize("supports", CEILINGS, ids=["at_1", "below_1", "above_1"])
    def test_stops_at_the_first_epoch_scoring_the_ceiling(self, small_task, script_val_score,
                                                          supports):
        _, graphs, labels = small_task
        job = relabel_val(make_clf_job(graphs, labels, max_epochs=40)[1], supports)
        script_val_score(lambda model, epoch: {1: 0.5}.get(epoch, CEILINGS[supports]))
        result = train(job)
        assert (result.best_epoch, result.stopped_epoch, result.stop_reason) == \
               (2, 2, "saturated")
        assert [rec.val_score for rec in result.history] == [0.5, CEILINGS[supports]]

    @pytest.mark.parametrize("supports", CEILINGS, ids=["at_1", "below_1", "above_1"])
    @pytest.mark.parametrize("below", [lambda c: 0.99 * c, lambda c: np.nextafter(c, 0.0)],
                             ids=["0.99x", "one_ulp"])
    def test_score_below_the_ceiling_does_not_stop(self, small_task, script_val_score,
                                                   supports, below):
        _, graphs, labels = small_task
        job = relabel_val(make_clf_job(graphs, labels, max_epochs=40)[1], supports)
        best = below(CEILINGS[supports])
        script_val_score(lambda model, epoch: {1: 0.5, 2: best}.get(epoch, 0.2))
        result = train(job)
        assert (result.best_epoch, result.best_val) == (2, best)
        assert (result.stopped_epoch, result.stop_reason) == (22, "patience")

    @pytest.mark.parametrize("score, stopped, reason", [
        (1.0, 3, "saturated"), (np.nextafter(1.0, 0.0), 23, "patience"),
    ])
    def test_auroc_ceiling_is_one(self, small_task, script_val_score, score, stopped, reason):
        _, graphs, labels = small_task
        job = oc_job(graphs, labels, max_epochs=40)
        script_val_score(lambda model, epoch: {1: 0.2, 2: 0.4, 3: score}.get(epoch, 0.3))
        result = train(job)
        assert (result.best_epoch, result.stopped_epoch, result.stop_reason) == \
               (3, stopped, reason)

    def test_stop_reason_patience(self, small_task, script_val_score):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=1000)
        script_val_score(lambda model, epoch: 0.5)
        result = train(job)
        assert (result.stopped_epoch, result.stop_reason) == (21, "patience")

    def test_stop_reason_max_epochs(self, small_task, script_val_score):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=30)
        script_val_score(lambda model, epoch: epoch / 1000.0)
        result = train(job)
        assert (result.stopped_epoch, result.stop_reason) == (30, "max_epochs")

    def test_real_run_stops_at_its_first_perfect_epoch(self, small_task):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=40)
        result = train(job)
        scores = [rec.val_score for rec in result.history]
        assert result.best_val == 1.0 and result.stop_reason == "saturated"
        assert scores.index(1.0) + 1 == result.best_epoch == result.stopped_epoch == len(scores)


class TestValCriterion:
    @pytest.mark.parametrize("variant, criterion", [
        ("clf", "auroc"), ("clf", "neg_loss"), ("oc", "f1"),
    ])
    def test_mismatch_rejected_before_any_step(self, variant, criterion):
        # the config itself is rejected, so no job is built and no step runs
        with pytest.raises(ValueError, match=f"val_criterion '{criterion}'"):
            quick_config(variant=variant, max_epochs=2, val_criterion=criterion)

    def test_one_class_validation_rejected_before_any_step(self, monkeypatch):
        dataset = synth_generate(SynthSpec(class_sizes=(95, 5), delta=4.0), seed=3)
        graphs = [build_flow_graph(s) for s in dataset.samples]
        labels = {"binary": labels_at_level(graphs, "binary")}
        spec = ProtocolSpec("unsupervised", "ae")
        job, _ = make_job(spec, quick_config(variant="ae", max_epochs=2),
                          make_split(spec, labels, 0), graphs, None, labels)
        steps = []
        monkeypatch.setattr(Adam, "step", lambda self: steps.append(1))
        with pytest.raises(ValueError, match="validation split holds 8 normal and 0 anomalous"
                                             r".*unsup_val_fraction"):
            train(job)
        assert steps == []

    def test_own_metric_equals_auto(self, small_task):
        _, graphs, labels = small_task
        _, auto, _ = make_clf_job(graphs, labels, max_epochs=3)
        _, own, _ = make_clf_job(graphs, labels, max_epochs=3, val_criterion="f1")
        assert [r.to_dict() for r in train(own).history] == \
               [r.to_dict() for r in train(auto).history]


class TestTrainDeterminism:
    def test_same_seed_identical_history(self, small_task):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=10)
        a = train(job)
        b = train(job)
        assert [r.to_dict() for r in a.history] == [r.to_dict() for r in b.history]
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_eval_twice_identical(self, small_task):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=10)
        result = train(job)
        m1 = evaluate_metrics(job, result.model)
        m2 = evaluate_metrics(job, result.model)
        assert m1 == m2


def tape_nodes(loss):
    """Every tensor reachable from loss through its parents."""
    nodes, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestTrainMemory:
    def test_one_tape_at_a_time(self, small_task, monkeypatch):
        # every earlier step's loss (and with it its tape) is gone by the
        # time the next forward starts
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=3)
        original = FlowGraphNetwork.loss
        earlier, overlaps = [], []

        def loss(self, *args, **kwargs):
            overlaps.append(sum(ref() is not None for ref in earlier))
            out = original(self, *args, **kwargs)
            earlier.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(FlowGraphNetwork, "loss", loss)
        train(job)
        assert len(overlaps) >= 6
        assert overlaps == [0] * len(overlaps)

    def test_only_leaves_keep_gradients(self, small_task):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=1)
        model = train(job).model
        chunk = np.asarray(job.split.train[:16])
        loss = model.loss(job.batch(chunk), job.targets(chunk), rng=np.random.default_rng(0))
        loss.backward()
        nodes = tape_nodes(loss)
        inner = [n for n in nodes if n._backward is not None]
        leaves = [n for n in nodes if n._backward is None]
        assert inner and all(n.grad is None for n in inner)
        assert {id(p) for p in model.parameters()} <= {id(n) for n in leaves}
        assert len(leaves) > len(model.parameters())  # the edge inputs too
        assert all(n.grad is not None and n.grad.shape == n.shape for n in leaves)


class TestEvaluateMetrics:
    def test_default_scores_exactly_the_test_split(self, small_task, monkeypatch):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=3)
        model = train(job).model
        judged = []
        judge = training._judge

        def recorded(model, inputs, job=None, idx=None):
            judged.append(list(idx))
            return judge(model, inputs, job, idx)

        monkeypatch.setattr(training, "_judge", recorded)
        out = evaluate_metrics(job, model)
        test = list(job.split.test)
        assert judged == [test]
        probs = model.predict_proba(job.batch(test))
        assert out["value"] == weighted_f1(job.y[test], probs.argmax(axis=1))


class TestMakeJob:
    @pytest.mark.parametrize("variant", ["clf", "mlp"])
    def test_standardizer_fit_on_training_rows_alone(self, small_task, variant):
        dataset, graphs, labels = small_task
        spec = ProtocolSpec(task="binary", variant=variant, quota=10, val_fraction=0.2,
                            feature_set="combined" if variant == "mlp" else None)
        raw, _ = training.task_data(spec, graphs, dataset)
        split = make_split(spec, labels, 0)
        _, standardizer = make_job(spec, quick_config(variant=variant), split, graphs,
                                   raw, labels)
        rows = [g.edge_features for g in graphs] if variant == "clf" else raw
        fit = np.vstack([rows[i] for i in split.train])
        kept = np.flatnonzero(fit.max(axis=0) - fit.min(axis=0) > 1e-12)
        assert np.array_equal(standardizer.kept_columns, kept)
        np.testing.assert_allclose(standardizer.mean, fit[:, kept].mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(standardizer.std, fit[:, kept].std(axis=0), rtol=1e-12)
        every = np.vstack(list(rows))[:, kept]  # the check can tell a leak
        assert not np.allclose(standardizer.mean, every.mean(axis=0), rtol=1e-6)


class TestGridSearch:
    def test_expand_in_key_order(self):
        cells = expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert cells == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_grid_of_one_equals_train(self, small_task):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=10)
        searched = grid_search({"num_hidden": [8]}, job)
        direct = train(job)
        assert searched.best_fit.best_val == direct.best_val
        for pa, pb in zip(searched.best_fit.model.parameters(),
                          direct.model.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_reports_every_cell(self, small_task):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=5)
        searched = grid_search({"num_hidden": [4, 8], "learning_rate": [1e-2, 1e-3]}, job)
        assert len(searched.cells) == 4
        assert all("val_score" in cell for cell in searched.cells)

    def test_tie_breaks_to_first_cell(self, small_task):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=3)
        # delta=4 data: both cells almost surely reach validation F1 = 1.0
        searched = grid_search({"num_hidden": [8, 16]}, job)
        scores = [cell["val_score"] for cell in searched.cells]
        if scores[0] == scores[1]:
            assert searched.best_config.num_hidden == 8

    def test_selects_the_highest_cell_and_the_earliest_on_ties(self, small_task,
                                                               script_val_score):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=2)
        by_width = {4: 0.2, 8: 0.6, 16: 0.6, 32: 0.4}
        script_val_score(lambda model, epoch: by_width[model.num_hidden])
        searched = grid_search({"num_hidden": list(by_width)}, job)
        assert [cell["val_score"] for cell in searched.cells] == list(by_width.values())
        assert searched.best_config.num_hidden == 8
        assert searched.best_fit.model.num_hidden == 8

    def test_default_grid_sizes_match_tables(self):
        assert len(expand_grid(DEFAULT_GRIDS["clf"])) == 192  # 2*4*2*4*3
        assert len(expand_grid(DEFAULT_GRIDS["mlp"])) == 40  # 2*4*5
        assert len(expand_grid(DEFAULT_GRIDS["ae"])) == 192
        assert len(expand_grid(DEFAULT_GRIDS["oc"])) == 192

    def test_workers_do_not_change_results(self, small_task):
        _, graphs, labels = small_task
        _, job, _ = make_clf_job(graphs, labels, max_epochs=5)
        grid = {"num_hidden": [4, 8], "learning_rate": [1e-2, 1e-3]}
        serial = grid_search(grid, job, workers=1)
        parallel = grid_search(grid, job, workers=2)
        assert serial.cells == parallel.cells
        assert serial.best_config == parallel.best_config


class TestProtocol:
    def test_supervised_report_layout(self, small_task):
        _, graphs, _ = small_task
        spec = ProtocolSpec(task="binary", variant="clf", quota=10, val_fraction=0.2)
        result = run_protocol(spec, graphs, config=quick_config(max_epochs=15),
                              n_repeats=3, root_seed=5)
        assert result.report.task == "binary"
        assert result.report.metric == "weighted_f1"
        assert len(result.report.per_seed) == 3
        assert [r["seed"] for r in result.runs] == [5, 6, 7]

    def test_single_repeat_zero_std(self, small_task):
        _, graphs, _ = small_task
        spec = ProtocolSpec(task="binary", variant="clf", quota=10, val_fraction=0.2)
        result = run_protocol(spec, graphs, config=quick_config(max_epochs=10),
                              n_repeats=1)
        assert result.report.std == 0.0

    def test_protocol_reproducible(self, small_task):
        _, graphs, _ = small_task
        spec = ProtocolSpec(task="binary", variant="clf", quota=10, val_fraction=0.2)
        a = run_protocol(spec, graphs, config=quick_config(max_epochs=10), n_repeats=2)
        b = run_protocol(spec, graphs, config=quick_config(max_epochs=10), n_repeats=2)
        assert a.report.per_seed == b.report.per_seed
        assert a.runs == b.runs

    def test_workers_give_identical_report(self, small_task):
        _, graphs, _ = small_task
        spec = ProtocolSpec(task="binary", variant="clf", quota=10, val_fraction=0.2)
        config = quick_config(max_epochs=5)
        serial = run_protocol(spec, graphs, config=config, n_repeats=2, workers=1)
        parallel = run_protocol(spec, graphs, config=config, n_repeats=2, workers=2)
        assert serialize.dumps(parallel.to_dict()) == serialize.dumps(serial.to_dict())

    def test_unsupervised_task(self, small_task):
        _, graphs, _ = small_task
        spec = ProtocolSpec(task="unsupervised", variant="ae")
        result = run_protocol(
            spec, graphs,
            config=TrainConfig(variant="ae", num_hidden=8, max_epochs=10, batch_size=16),
            n_repeats=2,
        )
        assert result.report.metric == "auroc"
        assert all(0.0 <= v <= 1.0 for v in result.report.per_seed)

    @pytest.mark.parametrize("task, variant", [("binary", "clf"), ("unsupervised", "oc")])
    def test_one_evaluation_per_repeat(self, small_task, monkeypatch, task, variant):
        # validation, center init and grid selection never call evaluate_metrics
        _, graphs, _ = small_task
        calls = []
        original = training.evaluate_metrics

        def counted(job, model, indices=None):
            calls.append(indices)
            return original(job, model, indices)

        monkeypatch.setattr(training, "evaluate_metrics", counted)
        spec = ProtocolSpec(task=task, variant=variant, quota=10, val_fraction=0.2)
        run_protocol(spec, graphs, config=quick_config(variant=variant, max_epochs=3),
                     grid={"learning_rate": [1e-2, 3e-3]}, n_repeats=2)
        assert calls == [None, None]

    def test_level(self):
        assert ProtocolSpec(task="unsupervised", variant="ae").level == "binary"
        assert ProtocolSpec(task="family", variant="clf").level == "family"

    def test_variant_task_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProtocolSpec(task="binary", variant="ae")
        with pytest.raises(ValueError):
            ProtocolSpec(task="unsupervised", variant="clf")
        with pytest.raises(ValueError):
            ProtocolSpec(task="binary", variant="mlp")  # needs feature_set


class TestFeatureMatrix:
    def test_widths(self, small_task):
        dataset, graphs, _ = small_task
        d = dataset.feature_dim
        flow = feature_matrix(graphs, "flow", dataset)
        graph_feats = feature_matrix(graphs, "graph")
        combined = feature_matrix(graphs, "combined", dataset)
        assert flow.shape == (len(graphs), 5 * d)
        assert graph_feats.shape == (len(graphs), 42)
        assert combined.shape == (len(graphs), 5 * d + 42)

    def test_flow_needs_dataset(self, small_task):
        _, graphs, _ = small_task
        with pytest.raises(ValueError):
            feature_matrix(graphs, "flow")
