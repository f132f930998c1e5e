"""Byte identity of training results against digests of a reference run.

`result_digests` hashes a two-repeat dense-baseline protocol report on the
flow and the combined feature sets, a three-epoch clf checkpoint trained
with dropout, and the test-split anomaly scores of short ae and oc runs.
The expected digests were recorded with the code that assembled the
baseline feature sets separately in training and in extract; any change to
these bytes is a change of results.

`test_extract_csvs_hold_feature_matrix_rows` checks that each feature CSV
that `flowgnn extract` writes holds `feature_matrix` of its set, row for
row and digit for digit.

`cli_digests` hashes every file that `flowgnn train`, `evaluate` and
`score` write for a clf model on graphs.jsonl and for an mlp_oc model on a
dataset manifest, checkpoint run info included. Its expected digests were
recorded with the code whose CLI re-typed the protocol spec's split
defaults and wrote each label record by hand.
"""

import csv
import hashlib
import json
import os

import pytest

from flowgnn import (
    ProtocolSpec,
    SynthSpec,
    TrainConfig,
    build_flow_graph,
    feature_matrix,
    load_dataset,
    make_job,
    make_split,
    run_protocol,
    save_checkpoint,
    save_dataset,
    synth_generate,
    train,
    write_report,
)
from flowgnn.cli import main
from flowgnn.serialize import format_rows
from flowgnn.training import task_data

EXPECTED = {
    "mlp_flow.json": "8ec174f504239ab265d36b87a1bfd5256efacb549ab72fcd354715385827dfe5",
    "mlp_flow.csv": "f9206e7544502a26f8b2e878ff2ad81c952d38eb572ca43aba29a5c22cb5afa8",
    "mlp_combined.json": "85b051298d7031f9593005abd91a7f315e78264fa291036c255bf4da62284175",
    "mlp_combined.csv": "c65b89e24ac8caf1af7ead89b345c94d10d916551b77f5b2da96c003b26dc8a5",
    "clf_checkpoint.json": "47fe3808686a238173efc278ee41160bcc147c770e29c821648bb041df586148",
    "ae_scores": "df11920a6d35fd78dee6296051c484f1108b6c7acdd84266209a91d6e5988a21",
    "oc_scores": "76c6abeb35c68b57e44b785f93b22621649e0d495fa261cbb52b91c836eee0e2",
}

CLI_EXPECTED = {
    "clf/checkpoint.json": "5a436e30545d53203570164db9029ecb670ee9afdd535f14936dc64e85103bd5",
    "clf/history.json": "834f6f9f0d1a9cfe908ccd76bbab89829f14276a180109fc40dfaadf1d3b4c55",
    "clf/metrics.json": "400cd17db74a7908ff8e6dddc1b69fd768c48326cd233c501fde00570f3cc931",
    "clf/metrics.csv": "2ac32ec35deabf7af8d654323f12c01d146e33d3975a12a81659990b02b405ba",
    "clf/scores.csv": "ec6c137780d91aa8c68d27c121a50fa4e01f26e081594e966e09f418700f66e2",
    "mlp_oc/checkpoint.json": "7816aea528032b79b458fd99341a7148250b4f3b77510cb6e80862088f0ee2d6",
    "mlp_oc/history.json": "ad2cf474cbb530974260a1692d46a42fbd2001f9f7bb1e32cef7c16d22628219",
    "mlp_oc/metrics.json": "83b2c8a50a72610784566ba29998632118e7ea2e6ef94aea3cdb9b7016629f91",
    "mlp_oc/metrics.csv": "a4ba889a4df20f705f6257d72ec9fb0d5c06d0156c27df75e8dde0eea81a2889",
    "mlp_oc/scores.csv": "95f3c2e2b085ecd1c79a397205a13c655f38dd188557c673e8936588f783e334",
}


def _data():
    dataset = synth_generate(SynthSpec(class_sizes=(30, 20), delta=1.5, max_nodes=7), seed=41)
    return dataset, [build_flow_graph(s) for s in dataset.samples]


def _digest(path) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


def _fit(spec, config, graphs, dataset):
    raw_features, labels = task_data(spec, graphs, dataset)
    split = make_split(spec, labels, config.seed)
    job, standardizer = make_job(spec, config, split, graphs, raw_features, labels)
    return job, standardizer, train(job)


def result_digests(root) -> dict[str, str]:
    root = str(root)
    dataset, graphs = _data()
    out = {}
    for feature_set in ("flow", "combined"):
        spec = ProtocolSpec("binary", "mlp", feature_set=feature_set, quota=10,
                            val_fraction=0.3)
        config = TrainConfig(variant="mlp", num_hidden=8, learning_rate=1e-2, max_epochs=15,
                             patience=5)
        result = run_protocol(spec, graphs, config, n_repeats=2, root_seed=3, dataset=dataset)
        for path in write_report(result, root, f"mlp_{feature_set}"):
            out[os.path.basename(path)] = _digest(path)

    spec = ProtocolSpec("binary", "clf", quota=10, val_fraction=0.3)
    config = TrainConfig(variant="clf", num_hidden=8, learning_rate=1e-2, dropout=0.2,
                         max_epochs=3, seed=5)
    job, standardizer, fit = _fit(spec, config, graphs, dataset)
    path = os.path.join(root, "clf_checkpoint.json")
    save_checkpoint(path, fit.model, config, standardizer, {"data": "synth"})
    out["clf_checkpoint.json"] = _digest(path)

    for variant in ("ae", "oc"):
        spec = ProtocolSpec("unsupervised", variant)
        config = TrainConfig(variant=variant, num_hidden=8, max_epochs=4, seed=7)
        job, _, fit = _fit(spec, config, graphs, dataset)
        scores = fit.model.anomaly_scores(job.batch(list(job.split.test)))
        text = "\n".join(",".join(row) for row in format_rows(scores[:, None]))
        out[f"{variant}_scores"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_results_byte_identical(tmp_path):
    assert result_digests(tmp_path) == EXPECTED


CLI_RUNS = {
    # name: (data, config without data); mlp_oc keeps the default split
    "clf": ("graphs.jsonl", {
        "task": "binary", "variant": "clf", "split": {"quota": 10, "val_fraction": 0.3},
        "train": {"num_hidden": 8, "learning_rate": 1e-2, "dropout": 0.2, "max_epochs": 3},
    }),
    "mlp_oc": ("data/manifest.json", {
        "task": "unsupervised", "variant": "mlp_oc", "feature_set": "combined",
        "train": {"num_hidden": 8, "max_epochs": 4},
    }),
}


def cli_digests() -> dict[str, str]:
    """Digests of the CLI's train, evaluate and score outputs, run in the
    current directory so that the data paths in run info are relative."""
    save_dataset(_data()[0], "data")
    assert main(["extract", "--manifest", "data/manifest.json", "--out", "."]) == 0
    out = {}
    for name, (data, config) in CLI_RUNS.items():
        with open(f"{name}.json", "w", encoding="utf-8") as fp:
            json.dump({"data": data, **config}, fp)
        assert main(["train", "--config", f"{name}.json", "--seed", "5", "--out", name]) == 0
        assert main(["evaluate", "--checkpoint", f"{name}/checkpoint.json",
                     "--out", name]) == 0
        assert main(["score", "--checkpoint", f"{name}/checkpoint.json", "--data", data,
                     "--out", f"{name}/scores.csv"]) == 0
        for file in ("checkpoint.json", "history.json", "metrics.json", "metrics.csv",
                     "scores.csv"):
            out[f"{name}/{file}"] = _digest(os.path.join(name, file))
    return out


def test_cli_outputs_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_digests() == CLI_EXPECTED


@pytest.mark.parametrize("feature_set", ["flow", "graph", "combined"])
def test_extract_csvs_hold_feature_matrix_rows(tmp_path, feature_set):
    manifest = save_dataset(_data()[0], tmp_path / "data")
    assert main(["extract", "--manifest", manifest, "--out", str(tmp_path / "out")]) == 0
    dataset = load_dataset(manifest)
    graphs = [build_flow_graph(s) for s in dataset.samples]
    with open(tmp_path / "out" / f"features_{feature_set}.csv", newline="") as fp:
        rows = list(csv.reader(fp))[1:]
    assert [row[0] for row in rows] == [g.sample_id for g in graphs]
    expected = format_rows(feature_matrix(graphs, feature_set, dataset))
    assert [row[4:] for row in rows] == expected
