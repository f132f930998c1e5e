"""The benchmark's tracer hooks into flowgnn by name; these tests keep those
names where it looks for them.

`perfbench/layers.py` wraps functions in every flowgnn module that holds
them, methods found in a class's own body (`vars(cls)[attr]`) and the
callable that `training._val_criterion` returns. A hook that no longer
finds its target fails here rather than only in a traced benchmark run.
"""

import importlib
import os

import numpy as np
import pytest

import flowgnn.cli  # noqa: F401  (the tracer wraps cli.cmd_extract)
from flowgnn import FlowGraphNetwork, training
from flowgnn.graphs import build_flow_graph
from flowgnn.synth import SynthSpec, synth_generate
from flowgnn.training import ProtocolSpec, TrainConfig, labels_at_level, make_job, make_split

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("layers"), importlib.import_module("spans")


@pytest.fixture
def recorder(perfbench):
    layers, spans = perfbench
    rec = spans.Recorder()
    layers.install_essentials(rec, [])
    layers.install_layers(rec)
    yield rec
    rec.unpatch()


def test_unpatch_restores_every_original(perfbench):
    layers, spans = perfbench
    forwards = {attr: vars(FlowGraphNetwork)[attr]
                for attr in ("loss", "predict_proba", "anomaly_scores")}
    rec = spans.Recorder()
    try:
        layers.install_essentials(rec, [])
        layers.install_layers(rec)
        patches = list(rec._patches)
    finally:
        rec.unpatch()
    assert patches and rec._patches == []
    patched = {(id(owner), attr) for owner, attr, _ in patches}
    for attr in forwards:
        assert (id(FlowGraphNetwork), attr) in patched
    assert (id(training), "_val_criterion") in patched
    assert (id(training), "evaluate_metrics") in patched
    originals = {}
    for owner, attr, value in patches:  # an attribute patched twice keeps its first value
        originals.setdefault((owner, attr), value)
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, (owner, attr)
    for attr, fn in forwards.items():
        assert vars(FlowGraphNetwork)[attr] is fn


def test_traced_training_records_every_layer(recorder):
    dataset = synth_generate(SynthSpec(class_sizes=(12, 12), delta=4.0, max_nodes=5), seed=3)
    graphs = [build_flow_graph(s) for s in dataset.samples]
    labels = {"binary": labels_at_level(graphs, "binary")}
    spec = ProtocolSpec(task="binary", variant="clf", quota=6, val_fraction=0.2)
    config = TrainConfig(variant="clf", num_hidden=4, max_epochs=2, batch_size=8)
    job, _ = make_job(spec, config, make_split(spec, labels, 0), graphs, None, labels)
    recorder.active = True
    recorder.new_round()
    fit = training.train(job)
    training.evaluate_metrics(job, fit.model)
    recorder.active = False
    names = [span[0] for span in recorder.spans]
    for name in ("training.train", "model.train_forward", "model.eval_forward",
                 "training.validation", "training.evaluate_metrics", "nn.matmul",
                 "nn.backward", "nn.adam_step", "metrics.weighted_f1"):
        assert name in names, name
    assert names.count("training.validation") == fit.stopped_epoch
    assert names.count("training.evaluate_metrics") == 1
    assert np.isfinite(fit.best_val)
