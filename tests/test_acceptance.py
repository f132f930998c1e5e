"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is fixed here, not configurable.
"""

import csv
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from flowgnn import serialize
from flowgnn.checkpoint import checkpoint_dict
from flowgnn.cli import main as cli_main
from flowgnn.graphs import (
    aggregate_edge_features,
    build_flow_graph,
    read_graphs_jsonl,
    write_graphs_jsonl,
)
from flowgnn.ingest import LabelTriple
from flowgnn.metrics import auroc, weighted_f1
from flowgnn.model import FlowGraphNetwork, make_batch, prepare_graph, propagation_matrices
from flowgnn.nn import finite_difference_check
from flowgnn.splits import supervised_split, unsupervised_split
from flowgnn.synth import SynthSpec, synth_generate
from flowgnn.training import (
    ProtocolSpec,
    TrainConfig,
    labels_at_level,
    make_job,
    make_split,
    run_protocol,
    train,
    write_report,
)

from .conftest import incidence_dense, permute_graph, random_connected_graph
from .test_graphs import aggregate_oracle
from .test_metrics import auroc_oracle, f1_oracle


def report_pass(number, description):
    print(f"\n[ACCEPTANCE] criterion {number:2d} ({description}): PASS")


# -- shared synthetic datasets --------------------------------------------------

SUPERVISED_SPEC = SynthSpec(class_sizes=(300, 300), delta=4.0)
SUPERVISED_SEED = 20240501
SUPERVISED_CONFIG = TrainConfig(variant="clf", num_layers=1, num_hidden=16,
                                learning_rate=1e-2, batch_size=32)

UNSUPERVISED_SPEC = SynthSpec(
    class_sizes=(380, 20), delta=4.0, num_features=6,
    min_flows_per_edge=3, max_flows_per_edge=8,
    per_sample_shift=True, normal_modes=4, mode_spread=12.0,
)
UNSUPERVISED_SEED = 99
UNSUPERVISED_GRID = {
    # capacity-first order so validation ties resolve to the stronger cell
    "num_hidden": [128, 64],
    "learning_rate": [1e-3, 1e-2],
    "pool": ["mean", "add"],
}


@pytest.fixture(scope="module")
def supervised_graphs():
    dataset = synth_generate(SUPERVISED_SPEC, seed=SUPERVISED_SEED)
    return [build_flow_graph(s) for s in dataset.samples]


@pytest.fixture(scope="module")
def unsupervised_graphs():
    dataset = synth_generate(UNSUPERVISED_SPEC, seed=UNSUPERVISED_SEED)
    return [build_flow_graph(s) for s in dataset.samples]


def run_supervised_pipeline(graphs, root_seed):
    """The criterion-6 protocol, returning report bytes and per-seed
    checkpoint bytes for the reproducibility criterion."""
    start = time.monotonic()
    spec = ProtocolSpec(task="binary", variant="clf")
    result = run_protocol(spec, graphs, config=SUPERVISED_CONFIG,
                          n_repeats=30, root_seed=root_seed)
    protocol_elapsed = time.monotonic() - start
    report_bytes = serialize.dumps(result.to_dict()).encode()
    labels = {"binary": labels_at_level(graphs, "binary")}
    checkpoint_bytes = []
    for seed in range(root_seed, root_seed + 30):
        split = make_split(spec, labels, seed)
        job, standardizer = make_job(spec, replace(SUPERVISED_CONFIG, seed=seed),
                                     split, graphs, None, labels)
        fit = train(job)
        payload = checkpoint_dict(fit.model, job.config, standardizer,
                                  {"task": "binary", "seed": seed})
        checkpoint_bytes.append(serialize.dumps(payload).encode())
    return result, report_bytes, checkpoint_bytes, protocol_elapsed


@pytest.fixture(scope="module")
def supervised_pipeline(supervised_graphs):
    return run_supervised_pipeline(supervised_graphs, root_seed=0)


# -- criteria -------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    for variant in ("clf", "ae", "oc"):
        for layers in (1, 2):
            model = FlowGraphNetwork(
                variant, in_dim=4, num_hidden=6, num_layers=layers,
                rng=np.random.default_rng(layers * 31 + len(variant)),
                num_classes=3,
            )
            check_rng = np.random.default_rng(1000 + layers)
            for g_index in range(10):
                gseed = g_index * 7 + layers
                graph = random_connected_graph(
                    np.random.default_rng(gseed),
                    n_nodes=int(np.random.default_rng(gseed).integers(3, 7)),
                    min_edges=2,
                )
                batch = make_batch([prepare_graph(graph)])
                if variant == "oc":
                    model.init_center(batch)

                def loss_fn():
                    y = [g_index % 3] if variant == "clf" else None
                    return model.loss(batch, y, mode="train", rng=None)

                report = finite_difference_check(
                    loss_fn, model.parameters(), h=1e-5, tol=1e-4,
                    rng=check_rng, coords_per_param=2,
                )
                worst = max(worst, report.max_rel_error)
                assert report.passed, (variant, layers, g_index, report.max_rel_error)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    assert worst < 1e-4
    report_pass(1, f"gradient correctness, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_permutation_invariance():
    rng = np.random.default_rng(2024)
    clf = FlowGraphNetwork("clf", in_dim=4, num_hidden=6, num_layers=2,
                           rng=np.random.default_rng(1), num_classes=3, pool="max")
    ae = FlowGraphNetwork("ae", in_dim=4, num_hidden=6, num_layers=2,
                          rng=np.random.default_rng(2))
    oc = FlowGraphNetwork("oc", in_dim=4, num_hidden=6, num_layers=1,
                          rng=np.random.default_rng(3), pool="add")
    worst = 0.0
    for g_index in range(100):
        graph = random_connected_graph(np.random.default_rng(g_index))
        batch = make_batch([prepare_graph(graph)])
        if oc.center is None:
            oc.init_center(batch)
        base = {
            "logits": clf.logits(batch).data,
            "ae_loss": ae.ae_loss(batch, mode="eval").item(),
            "oc_loss": oc.oc_loss(batch, mode="eval").item(),
            "ae_score": ae.anomaly_scores(batch)[0],
            "oc_score": oc.anomaly_scores(batch)[0],
        }
        for _ in range(5):
            permuted = permute_graph(graph, rng)
            pbatch = make_batch([prepare_graph(permuted)])
            diffs = [
                np.abs(clf.logits(pbatch).data - base["logits"]).max(),
                abs(ae.ae_loss(pbatch, mode="eval").item() - base["ae_loss"]),
                abs(oc.oc_loss(pbatch, mode="eval").item() - base["oc_loss"]),
                abs(ae.anomaly_scores(pbatch)[0] - base["ae_score"]),
                abs(oc.anomaly_scores(pbatch)[0] - base["oc_score"]),
            ]
            worst = max(worst, max(diffs))
            assert max(diffs) < 1e-9
    report_pass(2, f"permutation invariance, max deviation {worst:.2e}")


def test_criterion_03_metric_oracles():
    rng = np.random.default_rng(33)
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        c = int(rng.integers(1, 5))
        y_true = rng.integers(0, c, size=n).tolist()
        y_pred = rng.integers(0, c, size=n).tolist()
        assert abs(weighted_f1(y_true, y_pred) - f1_oracle(y_true, y_pred)) <= 1e-12
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 6, size=n) / 5.0 if rng.random() < 0.5 else rng.normal(size=n)
        assert abs(auroc(scores, labels)
                   - auroc_oracle(scores.tolist(), labels.tolist())) <= 1e-12
    assert weighted_f1([0, 0, 1], [0, 1, 1]) == 2.0 / 3.0
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    report_pass(3, "weighted F1 and AUROC match brute-force oracles")


def test_criterion_04_aggregation_oracle():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 51))
        d = int(rng.integers(1, 11))
        matrix = rng.normal(scale=float(10.0 ** rng.integers(-2, 3)), size=(k, d))
        if rng.random() < 0.4:
            matrix[:, int(rng.integers(d))] = float(rng.normal())  # zero-spread column
        got = aggregate_edge_features(matrix)
        want = aggregate_oracle(matrix.tolist())
        err = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
        worst = max(worst, float(err))
        assert err <= 1e-10
    report_pass(4, f"aggregation matches direct moments, max rel err {worst:.2e}")


def test_criterion_05_propagation_normalization():
    single = prepare_graph(build_flow_graph_from_edges([(0, 1)]))
    assert single.prop.weights[0] == 0.5
    rng_master = np.random.default_rng(55)
    for g_index in range(100):
        graph = random_connected_graph(np.random.default_rng(g_index + 500))
        prop = propagation_matrices(graph)
        degree = {}
        for s, t in graph.edges:
            degree[s] = degree.get(s, 0) + 1
            if t != s:
                degree[t] = degree.get(t, 0) + 1
        for e, (s, t) in enumerate(graph.edges):
            expected = 1.0 / np.sqrt((degree[s] + 1.0) * (degree[t] + 1.0))
            assert abs(prop.weights[e] - expected) <= 1e-12
        b_in, b_out = incidence_dense(prop, prop.dst), incidence_dense(prop, prop.src)
        assert np.count_nonzero(b_in) == graph.num_edges
        assert np.count_nonzero(b_out) == graph.num_edges
    _ = rng_master
    report_pass(5, "propagation weights match 1/sqrt(d(u)d(v)), single edge = 0.5")


def build_flow_graph_from_edges(edges):
    from flowgnn.ingest import FlowRecord, SampleFlows

    flows = tuple(FlowRecord(f"h{s}", f"h{t}", (1.0, 2.0)) for s, t in edges)
    return build_flow_graph(SampleFlows("tiny", flows, None))


def test_criterion_06_supervised_end_to_end(supervised_pipeline):
    result, _, _, elapsed = supervised_pipeline
    scores = result.report.per_seed
    passing = sum(v >= 0.95 for v in scores)
    assert len(scores) == 30
    assert passing >= 28, f"only {passing}/30 seeds reached 0.95 (min {min(scores):.3f})"
    assert elapsed < 900.0, f"30-seed protocol took {elapsed:.0f}s"
    report_pass(6, f"supervised F1>=0.95 on {passing}/30 seeds, "
                   f"mean {np.mean(scores):.3f}, {elapsed:.0f}s")


def test_criterion_07_unsupervised_end_to_end(unsupervised_graphs):
    graphs = unsupervised_graphs
    outcomes = {}
    for variant, fraction in (("ae", 0.20), ("oc", 0.20), ("oc", 0.01)):
        spec = ProtocolSpec(task="unsupervised", variant=variant,
                            train_fraction=fraction)
        result = run_protocol(spec, graphs,
                              config=TrainConfig(variant=variant, num_layers=1),
                              grid=UNSUPERVISED_GRID, n_repeats=30, root_seed=0)
        outcomes[(variant, fraction)] = result.report.per_seed
    for variant in ("ae", "oc"):
        scores = outcomes[(variant, 0.20)]
        passing = sum(v >= 0.90 for v in scores)
        assert passing >= 28, f"{variant}: {passing}/30 seeds >= 0.90 (min {min(scores):.3f})"
    median_20 = float(np.median(outcomes[("oc", 0.20)]))
    median_01 = float(np.median(outcomes[("oc", 0.01)]))
    assert median_20 >= median_01, (median_20, median_01)
    report_pass(7, "unsupervised AUROC>=0.90 (ae "
                   f"{np.mean(outcomes[('ae', 0.20)]):.3f}, oc "
                   f"{np.mean(outcomes[('oc', 0.20)]):.3f}); oc medians "
                   f"{median_20:.4f}>= {median_01:.4f}")


def test_criterion_08_protocol_fidelity():
    labels_bin = np.array([0] * 300 + [1] * 300)
    plan = supervised_split(labels_bin, "binary", seed=0)
    train_labels = labels_bin[list(plan.train)]
    assert (train_labels == 0).sum() == 100 and (train_labels == 1).sum() == 100
    assert len(plan.val) == round(0.05 * 400)

    labels_cat = np.concatenate([np.full(80, c) for c in range(5)])
    plan = supervised_split(labels_cat, "category", seed=1)
    counts = np.bincount(labels_cat[list(plan.train)])
    assert list(counts) == [25] * 5
    assert len(plan.val) == round(0.05 * (400 - 125))

    labels_fam = np.concatenate([np.full(12, c) for c in range(10)])
    plan = supervised_split(labels_fam, "family", seed=2)
    counts = np.bincount(labels_fam[list(plan.train)])
    assert list(counts) == [5] * 10
    assert len(plan.val) == round(0.20 * (120 - 50))

    labels_unsup = np.array([0] * 900 + [1] * 100)
    plan = unsupervised_split(labels_unsup, seed=3)
    assert len(plan.train) == 200
    assert len(plan.val) == 80
    assert len(plan.test) == 720
    report_pass(8, "split quotas 100/25/5 and fractions 5%/20%/20%/10% verified")


def test_criterion_09_early_stopping(supervised_graphs, script_val_score):
    labels = {"binary": labels_at_level(supervised_graphs, "binary")}
    spec = ProtocolSpec(task="binary", variant="clf")
    split = make_split(spec, labels, 0)
    job, _ = make_job(spec, replace(SUPERVISED_CONFIG, seed=0, max_epochs=1000),
                      split, supervised_graphs, None, labels)

    script_val_score(lambda model, epoch: 0.5)
    flat = train(job)
    assert flat.stopped_epoch == 21 and flat.best_epoch == 1

    short_job = replace(job, config=replace(job.config, max_epochs=50))
    script_val_score(lambda model, epoch: epoch / 100.0)
    improving = train(short_job)
    assert improving.stopped_epoch == 50 and improving.best_epoch == 50

    sequence = {1: 0.3, 2: 0.8, 3: 0.5, 4: 0.6}
    snapshots = {}

    def criterion(model, epoch):
        snapshots[epoch] = [p.data.copy() for p in model.parameters()]
        return sequence.get(epoch, 0.1)

    script_val_score(criterion)
    injected = train(short_job)
    assert injected.best_epoch == 2
    for p, snap in zip(injected.model.parameters(), snapshots[2]):
        assert np.array_equal(p.data, snap)
    report_pass(9, "early stopping halts at 21 when flat, runs to max, returns best epoch")


def test_criterion_10_reproducibility(supervised_graphs, supervised_pipeline):
    _, report_a, checkpoints_a, _ = supervised_pipeline
    _, report_b, checkpoints_b, _ = run_supervised_pipeline(supervised_graphs, root_seed=0)
    assert report_a == report_b
    assert len(checkpoints_a) == len(checkpoints_b) == 30
    for a, b in zip(checkpoints_a, checkpoints_b):
        assert a == b
    report_pass(10, "two 30-seed runs produce byte-identical reports and checkpoints")


def test_criterion_11_round_trips(tmp_path):
    rng = np.random.default_rng(1111)
    graphs = []
    for i in range(100):
        graph = random_connected_graph(rng, d=int(rng.integers(1, 6)), gid=f"g{i}",
                                       labels=LabelTriple(i % 2, i % 3, i % 2))
        scaled = replace_features(graph, graph.edge_features
                                  * float(10.0 ** rng.integers(-12, 12)))
        graphs.append(scaled)
    # one file per feature width: a graphs.jsonl holds graphs of one width
    for d in range(1, 6):
        group = [g for g in graphs if len(g.feature_names) == d]
        path = tmp_path / f"graphs_{d}.jsonl"
        write_graphs_jsonl(group, path)
        loaded = read_graphs_jsonl(path)
        assert len(loaded) == len(group)
        for a, b in zip(loaded, group):
            assert a.nodes == b.nodes and a.edges == b.edges and a.labels == b.labels
            assert np.array_equal(a.edge_features, b.edge_features)

    from flowgnn.checkpoint import load_checkpoint, save_checkpoint

    for i in range(100):
        model = FlowGraphNetwork(
            ("clf", "ae", "oc")[i % 3], in_dim=3, num_hidden=4,
            num_layers=1 + i % 2, rng=np.random.default_rng(i), num_classes=2,
        )
        for p in model.parameters():
            p.data = p.data * float(10.0 ** rng.integers(-9, 9))
        if model.variant == "oc":
            model.center = rng.normal(size=(1, 4))
        config = TrainConfig(variant=model.variant, num_layers=model.num_layers,
                             num_hidden=4)
        ck_path = tmp_path / "ck.json"
        save_checkpoint(ck_path, model, config)
        loaded_model, *_ = load_checkpoint(ck_path)
        for a, b in zip(model.parameters(), loaded_model.parameters()):
            assert np.array_equal(a.data, b.data)
    report_pass(11, "graph JSONL and checkpoints round-trip bit-exactly")


def replace_features(graph, features):
    from flowgnn.graphs import FlowGraph

    return FlowGraph(graph.sample_id, graph.nodes, graph.edges, features,
                     graph.feature_names, graph.labels)


EXPORTER_HEADER = [
    "Flow ID", "Source IP", "Source Port", "Destination IP", "Destination Port",
    "Protocol", "Timestamp", "Flow Duration", "Total Fwd Packets",
    "Total Backward Packets", "Fwd Packet Length Mean", "Bwd Packet Length Mean",
    "Flow IAT Mean", "Flow IAT Std", "Label",
]


def write_exporter_style_dataset(root):
    """A small dataset in the shape of an upstream flow-exporter dump."""
    rng = np.random.default_rng(12)
    flows_dir = root / "flows"
    flows_dir.mkdir(parents=True)
    groups = [
        ("benign", "benign", "benign", 110),
        ("malicious", "adware", "dowgin", 30),
        ("malicious", "adware", "ewind", 30),
        ("malicious", "ransomware", "koler", 30),
        ("malicious", "ransomware", "svpeng", 30),
    ]
    entries = []
    index = 0
    for binary, category, family, count in groups:
        shift = 0.0 if binary == "benign" else 3.0
        for _ in range(count):
            sample_id = f"s{index:04d}"
            n_flows = int(rng.integers(3, 8))
            path = flows_dir / f"{sample_id}.csv"
            with open(path, "w", newline="") as fp:
                writer = csv.writer(fp)
                writer.writerow(EXPORTER_HEADER)
                for f_index in range(n_flows):
                    src = f"192.168.0.{rng.integers(1, 5)}"
                    dst = f"10.10.0.{rng.integers(1, 5)}"
                    writer.writerow([
                        f"{sample_id}-{f_index}", src, int(rng.integers(1024, 65535)),
                        dst, 443, 6, f"2017-06-0{rng.integers(1, 9)} 10:00:00",
                        float(rng.exponential(1e5)),
                        int(rng.integers(1, 50)), int(rng.integers(1, 50)),
                        float(rng.normal(500 + 100 * shift, 50)),
                        float(rng.normal(300, 40)),
                        float(rng.normal(200 + 50 * shift, 30)),
                        float(abs(rng.normal(80, 10))),
                    ])
            entries.append({
                "id": sample_id,
                "file": f"flows/{sample_id}.csv",
                "labels": {"binary": binary, "category": category, "family": family},
            })
            index += 1
    manifest = {
        "samples": entries,
        "schema": {
            "src_ip": "Source IP", "dst_ip": "Destination IP",
            "src_port": "Source Port", "dst_port": "Destination Port",
            "flow_id": "Flow ID", "timestamp": "Timestamp",
            "label": ["Label", "Protocol"],
        },
        "strict": False,
        "min_family_count": 9,
    }
    manifest_path = root / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    return manifest_path


def test_criterion_12_external_dataset_pipeline(tmp_path):
    manifest = write_exporter_style_dataset(tmp_path / "captures")
    out_dir = tmp_path / "extracted"
    assert cli_main(["extract", "--manifest", str(manifest), "--out", str(out_dir)]) == 0
    graphs = read_graphs_jsonl(out_dir / "graphs.jsonl")
    assert len(graphs) == 230

    fast = dict(num_layers=1, num_hidden=8, learning_rate=1e-2,
                batch_size=32, max_epochs=15)
    protocol_runs = [
        (ProtocolSpec(task="binary", variant="clf"), TrainConfig(variant="clf", **fast)),
        (ProtocolSpec(task="category", variant="clf"), TrainConfig(variant="clf", **fast)),
        (ProtocolSpec(task="family", variant="clf"), TrainConfig(variant="clf", **fast)),
        (ProtocolSpec(task="unsupervised", variant="ae"), TrainConfig(variant="ae", **fast)),
        (ProtocolSpec(task="unsupervised", variant="oc"), TrainConfig(variant="oc", **fast)),
    ]
    for spec, config in protocol_runs:
        result = run_protocol(spec, graphs, config=config, n_repeats=2, root_seed=0)
        json_path, csv_path = write_report(
            result, tmp_path / "reports", f"{spec.task}_{spec.variant}"
        )
        written = serialize.load_path(json_path)
        assert written["task"] == spec.task
        assert len(written["per_seed"]) == 2
        with open(csv_path) as fp:
            assert len(list(csv.DictReader(fp))) == 2
    report_pass(12, "upstream-format CSVs run all protocols end-to-end with reports")
