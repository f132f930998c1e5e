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

`grid_digests` hashes the checkpoint, best config and cell report that
`flowgnn gridsearch` writes for a four-cell clf grid on graphs.jsonl and
for a four-cell mlp_ae grid on a dataset manifest run with `--workers 2`.
Its expected digests were recorded with the code in which `train` and
`gridsearch` each had their own CLI body and the training job held graph
and dense inputs in separate fields.

`penalty_digests` hashes two-repeat protocol reports of all three dense
baselines with an L2 penalty of 1e-2, and the test-split scores of an oc
run whose penalty coefficient `lambda` is 0. Its expected digests were
recorded with the code in which each family chose its heads and its
penalty on its own.

`PYTHONPATH=src python -m tests.test_result_bytes` prints every digest
dict as it stands, to paste over the pinned ones when outputs change on
purpose.

Score digests hash the float64 bytes of the score array. Beside each dict
of file digests, a `*_VALUES` dict holds value digests of the same files
(`conftest.value_digest`): these change only when a written value does,
not when the text that spells it does. They were recorded with the code
that wrote every float at 17 significant digits, and still hold for the
shortest round-trip text with which every text digest was re-recorded.

Each suite that writes a checkpoint also pins a `*_STATES` dict of state
digests (`conftest.state_digest`): the arrays the checkpoint loads to,
whatever encoding the file holds them in. They were recorded with the code
that spelled every checkpoint array as a JSON number list.
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
from flowgnn.serialize import finite_rows
from flowgnn.training import task_data

from .conftest import file_digests, print_digests, state_digests

EXPECTED = {
    "mlp_flow.json": "59ff7474f97e6203db60f61884bab4b150dda0bda35197bbb6973765bdfb761d",
    "mlp_flow.csv": "8f481493f323b1140dbbf6a682168a0232f4abe668c6f261892c972b0f2a29d6",
    "mlp_combined.json": "6e658e009818ab256885a28edd442b808e1e1cc928c1a94eb57048d2c94ad772",
    "mlp_combined.csv": "886dfd8873ad36546330374b5a282fb1df5c600c00a42c98b0ef0bd3ce7e67a4",
    "clf_checkpoint.json": "1ab0b71fc6f81c38b4a4cfbb4cef082b01abf55a24f0be01e1225c8a2df99edb",
    "ae_scores": "efc125766f12a58bf07b63eed6f2d325fe9d56df105117cd1667075afbf00e58",
    "oc_scores": "f8cd63ff2cbf312e4b9d54ec373f9fbb1a837da5d1af97019ba388f65d10ad11",
}

EXPECTED_VALUES = {
    "mlp_flow.json": "47e64e73fadc32b54679290d6ec3ba2efb74a96696e35a7515a6a3af2faf1f2a",
    "mlp_flow.csv": "cc785710a750475118a356e0c904d4cb21ad97bbb9eb52f566a5768a716fc97a",
    "mlp_combined.json": "2acce37923b1f1af19178ab60738f45d4e42dc938d9bdd204e0fd830f4d2145c",
    "mlp_combined.csv": "e83626fb93a7f475e70ee6afd52fa234918def433f07623a26bbce36537e4f4e",
    "clf_checkpoint.json": "3a7f3288fafb3e5bedb64aed393e6f120361d223092acc77aa8584785961c1be",
}

EXPECTED_STATES = {
    "clf_checkpoint.json": "9135c297d269e8725ac66e3f88248dbe31995380d16f2d008737ecd87bcc85cb",
}

CLI_EXPECTED = {
    "clf/checkpoint.json": "0bae9822bd5d9623c798842badbc97a972f8d5ccd905818f482f49571cc4d48c",
    "clf/history.json": "c8396498e9a97581d3b010c4be6060e8f9c8147ee8047014092dd61a708ec23d",
    "clf/metrics.json": "b9c2a7c3c4a24dc343a2f9d3449e9c7f5145b3de068a38ae9c2416a977ef9229",
    "clf/metrics.csv": "7abcac44a206e0aeebebe40cefabd0abfe755843f80578f8544a1c0a11129202",
    "clf/scores.csv": "630dc4c2ea3f6a91624e449fbbf930a98720d85277b027e0f9d01873476a7f63",
    "mlp_oc/checkpoint.json": "d7298cd7575e6b8d781f10d2749520a2f3c024a6e3ec9997e44af63a27530f76",
    "mlp_oc/history.json": "ba0795a350262aa773e5298dcd0fb453b92a05b231d962249b6d2b0f14f72f03",
    "mlp_oc/metrics.json": "83b2c8a50a72610784566ba29998632118e7ea2e6ef94aea3cdb9b7016629f91",
    "mlp_oc/metrics.csv": "a4ba889a4df20f705f6257d72ec9fb0d5c06d0156c27df75e8dde0eea81a2889",
    "mlp_oc/scores.csv": "8ee5e901b9cb2d985278dda41a00a6e60546cfdb007e2c505ab3d734327f40b6",
}

CLI_EXPECTED_VALUES = {
    "clf/checkpoint.json": "5b30bc75689063cbf1a69f7b9893bc8bb29557f2214bf4c246a2a2d31dbd6911",
    "clf/history.json": "764b3216cec870522976c242a579b776ff34f93a6929b9fd0da62c160fd13275",
    "clf/metrics.json": "491c4d0fdf54dfa14c9cda969ed9fd5f708d1018fb382b642720c369c39abeef",
    "clf/metrics.csv": "0d94410570bcb72e0259665e6e9d3a2da1dd2e41dcda540b11dde895a5c6002f",
    "clf/scores.csv": "1558c33c440dc537f26ef002eb1b06063062a80457c1918e41c92bdc4677d0ef",
    "mlp_oc/checkpoint.json": "f4c8ef10caf12c346f9021448f9ab7e6ebd864ed233453db69574e7f07b50958",
    "mlp_oc/history.json": "aeacecdead6ae1d1135e70f959573832330dd8e8221fa3dfefdb59d7ef22408e",
    "mlp_oc/metrics.json": "bac5d671a972e9a2cf4f4c89b66acb2be9ef66e3a7d33d70eb30a1a72ce1b9d7",
    "mlp_oc/metrics.csv": "8602f5a2a8fa32531fd6101e198dae3e37139af5ecc5f3af6349eeb19e2c3cc4",
    "mlp_oc/scores.csv": "a951845d519ee4ebfdf4467d0ed5af9cd680b767d74cbf32edf173ebdde86b49",
}

CLI_EXPECTED_STATES = {
    "clf/checkpoint.json": "9135c297d269e8725ac66e3f88248dbe31995380d16f2d008737ecd87bcc85cb",
    "mlp_oc/checkpoint.json": "49408d3e37f7c69444bc85d7a66b2bf340748542f7ef74647ecc3c3f5a44983d",
}

GRID_EXPECTED = {
    "clf_grid/checkpoint.json": "01a76eb2ba54cc5c1c267e730027fe1a32d802b0c4c7ad5ca1b5783ca51e65d1",
    "clf_grid/best_config.json": "f0d3a9634721c6dd69a2a4e8c5ab93693066849fdeee5e6e209356672d3df26a",
    "clf_grid/gridsearch.json": "1fbb477bc9b9e56bf7628fbf73c85b06189b75d18f43829de6f57a6ae2f016d1",
    "mlp_ae_grid/checkpoint.json": "6dbf882367d43fc22e3cc5499b85c5e252ea06e01448d8b147b322f847a85b54",
    "mlp_ae_grid/best_config.json": "a1a78fa30d1198ba5220927c290ca70ae669ab4e018551148b6124167d309e78",
    "mlp_ae_grid/gridsearch.json": "df92badbf63a89ce8bd68186ba685edb6ca33d396f982d07ea4d11e7c2bfe2c8",
}

GRID_EXPECTED_VALUES = {
    "clf_grid/checkpoint.json": "f0fa63f0e190112f76f7d93b50beac421559707730362470d278367415c7a464",
    "clf_grid/best_config.json": "9f5832dad6630307c76cca8c4c22eaacb10568a09e54e6b061e0cb18b0a176e3",
    "clf_grid/gridsearch.json": "70651f998e5d8bd4cee5a10690d9629bfa70c8efec93bacbf57962e85282e1f3",
    "mlp_ae_grid/checkpoint.json": "9253f8386b3b595fdc45f048b02f9a2680511301b37f495a30c2f09bd3983f3b",
    "mlp_ae_grid/best_config.json": "5dcbd4881f672d232e7d4f5b3e86b671d67c6b74ab7ea57485042d8cfeec2530",
    "mlp_ae_grid/gridsearch.json": "58f6dfcd766a4633e71dad5338216a6cb0cc8a31024de79fc8a5dd6a9bcb4d57",
}

GRID_EXPECTED_STATES = {
    "clf_grid/checkpoint.json": "eb8866f51699baba4b4c02511b9a640d7a941b606b0a5291f6bb2aac8ba93957",
    "mlp_ae_grid/checkpoint.json": "5b5bb972a048e8210a8e8779c6006aa9ca1d1c4dc6a093638b4d1e9d77fc919b",
}

PENALTY_EXPECTED = {
    "mlp_l2.json": "4527f43adbb08a82618c264b96950e53eef9480c0f2181b33b252b00fcb1ea30",
    "mlp_l2.csv": "0ceeae7cf2827fb5e108833501e6a571f4a0cb0045a25ffa5d126a718a7838e1",
    "mlp_ae_l2.json": "58833070138d488965fc75657bf2b00b7881c5657ac8910866dce23e973fe445",
    "mlp_ae_l2.csv": "3d6ff70ec034aa055dc07bc5724b2b7c2d1c574cb6365c289e74767f9ebaec1f",
    "mlp_oc_l2.json": "9df94297f71db2c178e425c934ec296ea9db92ef636e32afdf97ed19d9d45cbd",
    "mlp_oc_l2.csv": "3184e538c228031f9d696162066f6530f16fa51771dccd8f5698678e705001a1",
    "oc_lambda0_scores": "e7bf4d6d237c2e48d055f75da523afb6265b9cf98d7497252ff9dafcad660483",
}

PENALTY_EXPECTED_VALUES = {
    "mlp_l2.json": "fa6d5bb6c628373cd7c2e54b744defd4334d6697aae8424c1ab459731fe12062",
    "mlp_l2.csv": "be0d4177be91c69085c99184e889925bc26188e8087b0a5a63830763e9bf0435",
    "mlp_ae_l2.json": "fb26fbaad8d734a7c651b4bba586d9cd26375d4d3b30eb34b8fd15420484b74b",
    "mlp_ae_l2.csv": "733a2092e91a0c243348ed869f831ffd5bfad6b7efecdacce32ba79eeb151e7d",
    "mlp_oc_l2.json": "ccbe3d52b1087a3b7e379473f5a590b7d23502c0bdcf6b23ae42bb8eeb3d3b03",
    "mlp_oc_l2.csv": "52523707749c4909644e7b28f7f6d1abaabb688421180384cbe4908e2de91910",
}


def _data():
    dataset = synth_generate(SynthSpec(class_sizes=(30, 20), delta=1.5, max_nodes=7), seed=41)
    return dataset, [build_flow_graph(s) for s in dataset.samples]


def _fit(spec, config, graphs, dataset):
    raw_features, labels = task_data(spec, graphs, dataset)
    split = make_split(spec, labels, config.seed)
    job, standardizer = make_job(spec, config, split, graphs, raw_features, labels)
    return job, standardizer, train(job)


def _scores_digest(job, model) -> str:
    scores = model.anomaly_scores(job.batch(list(job.split.test)))
    return hashlib.sha256(scores.tobytes()).hexdigest()


def result_digests(root) -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    root = str(root)
    dataset, graphs = _data()
    paths = {}
    for feature_set in ("flow", "combined"):
        spec = ProtocolSpec("binary", "mlp", feature_set=feature_set, quota=10,
                            val_fraction=0.3)
        config = TrainConfig(variant="mlp", num_hidden=8, learning_rate=1e-2, max_epochs=15,
                             patience=5)
        result = run_protocol(spec, graphs, config, n_repeats=2, root_seed=3, dataset=dataset)
        for path in write_report(result, root, f"mlp_{feature_set}"):
            paths[os.path.basename(path)] = path

    spec = ProtocolSpec("binary", "clf", quota=10, val_fraction=0.3)
    config = TrainConfig(variant="clf", num_hidden=8, learning_rate=1e-2, dropout=0.2,
                         max_epochs=3, seed=5)
    job, standardizer, fit = _fit(spec, config, graphs, dataset)
    path = os.path.join(root, "clf_checkpoint.json")
    save_checkpoint(path, fit.model, config, standardizer, {"data": "synth"})
    paths["clf_checkpoint.json"] = path
    out, values = file_digests(paths)
    states = state_digests({"clf_checkpoint.json": path})

    for variant in ("ae", "oc"):
        spec = ProtocolSpec("unsupervised", variant)
        config = TrainConfig(variant=variant, num_hidden=8, max_epochs=4, seed=7)
        job, _, fit = _fit(spec, config, graphs, dataset)
        out[f"{variant}_scores"] = _scores_digest(job, fit.model)
    return out, values, states


def test_results_byte_identical(tmp_path):
    out, values, states = result_digests(tmp_path)
    assert states == EXPECTED_STATES
    assert values == EXPECTED_VALUES
    assert out == EXPECTED


def penalty_digests(root) -> tuple[dict[str, str], dict[str, str]]:
    root = str(root)
    dataset, graphs = _data()
    paths = {}
    for variant, task in (("mlp", "binary"), ("mlp_ae", "unsupervised"),
                          ("mlp_oc", "unsupervised")):
        split = {"quota": 10, "val_fraction": 0.3} if task == "binary" else {}
        spec = ProtocolSpec(task, variant, feature_set="combined", **split)
        config = TrainConfig(variant=variant, num_hidden=8, learning_rate=1e-2, max_epochs=15,
                             patience=5, l2=1e-2)
        result = run_protocol(spec, graphs, config, n_repeats=2, root_seed=3, dataset=dataset)
        for path in write_report(result, root, f"{variant}_l2"):
            paths[os.path.basename(path)] = path
    out, values = file_digests(paths)

    spec = ProtocolSpec("unsupervised", "oc")
    config = TrainConfig(variant="oc", num_hidden=8, max_epochs=4, seed=7, lambda_=0.0)
    job, _, fit = _fit(spec, config, graphs, dataset)
    out["oc_lambda0_scores"] = _scores_digest(job, fit.model)
    return out, values


def test_penalties_byte_identical(tmp_path):
    out, values = penalty_digests(tmp_path)
    assert values == PENALTY_EXPECTED_VALUES
    assert out == PENALTY_EXPECTED


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


def _write_cli_inputs(runs: dict) -> None:
    """The dataset, its extract and each run's config file, written in the
    current directory so that the data paths in run info are relative."""
    save_dataset(_data()[0], "data")
    assert main(["extract", "--manifest", "data/manifest.json", "--out", "."]) == 0
    for name, (data, config) in runs.items():
        with open(f"{name}.json", "w", encoding="utf-8") as fp:
            json.dump({"data": data, **config}, fp)


def cli_digests() -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    """Text, value and checkpoint state digests of the CLI's train, evaluate
    and score outputs, run in the current directory."""
    _write_cli_inputs(CLI_RUNS)
    paths = {}
    for name, (data, config) in CLI_RUNS.items():
        assert main(["train", "--config", f"{name}.json", "--seed", "5", "--out", name]) == 0
        assert main(["evaluate", "--checkpoint", f"{name}/checkpoint.json",
                     "--out", name]) == 0
        assert main(["score", "--checkpoint", f"{name}/checkpoint.json", "--data", data,
                     "--out", f"{name}/scores.csv"]) == 0
        for file in ("checkpoint.json", "history.json", "metrics.json", "metrics.csv",
                     "scores.csv"):
            paths[f"{name}/{file}"] = os.path.join(name, file)
    return (*file_digests(paths),
            state_digests({name: paths[name] for name in paths if name.endswith("checkpoint.json")}))


def test_cli_outputs_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out, values, states = cli_digests()
    assert states == CLI_EXPECTED_STATES
    assert values == CLI_EXPECTED_VALUES
    assert out == CLI_EXPECTED


GRID_RUNS = {
    # name: (data, config without data, gridsearch flags)
    "clf_grid": ("graphs.jsonl", {
        "task": "binary", "variant": "clf", "split": {"quota": 10, "val_fraction": 0.3},
        "train": {"learning_rate": 1e-2, "max_epochs": 3},
        "grid": {"num_hidden": [4, 8], "dropout": [0.0, 0.2]},
    }, []),
    "mlp_ae_grid": ("data/manifest.json", {
        "task": "unsupervised", "variant": "mlp_ae", "feature_set": "combined",
        "train": {"num_hidden": 8, "max_epochs": 4},
        "grid": {"num_layers": [1, 2], "l2": [0.0, 1e-2]},
    }, ["--workers", "2"]),
}


def grid_digests() -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    """Text, value and checkpoint state digests of the CLI's gridsearch
    outputs, run in the current directory."""
    _write_cli_inputs({name: run[:2] for name, run in GRID_RUNS.items()})
    paths = {}
    for name, (_, _, flags) in GRID_RUNS.items():
        assert main(["gridsearch", "--config", f"{name}.json", "--seed", "5", "--out", name,
                     *flags]) == 0
        for file in ("checkpoint.json", "best_config.json", "gridsearch.json"):
            paths[f"{name}/{file}"] = os.path.join(name, file)
    return (*file_digests(paths),
            state_digests({name: paths[name] for name in paths if name.endswith("checkpoint.json")}))


def test_gridsearch_outputs_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out, values, states = grid_digests()
    assert states == GRID_EXPECTED_STATES
    assert values == GRID_EXPECTED_VALUES
    assert out == GRID_EXPECTED


@pytest.mark.parametrize("feature_set", ["flow", "graph", "combined"])
def test_extract_csvs_hold_feature_matrix_rows(tmp_path, feature_set):
    manifest = save_dataset(_data()[0], tmp_path / "data")
    assert main(["extract", "--manifest", manifest, "--out", str(tmp_path / "out")]) == 0
    dataset = load_dataset(manifest)
    graphs = [build_flow_graph(s) for s in dataset.samples]
    with open(tmp_path / "out" / f"features_{feature_set}.csv", newline="") as fp:
        rows = list(csv.reader(fp))[1:]
    assert [row[0] for row in rows] == [g.sample_id for g in graphs]
    expected = finite_rows(feature_matrix(graphs, feature_set, dataset))
    assert [row[4:] for row in rows] == [list(map(repr, row)) for row in expected]


if __name__ == "__main__":
    # PYTHONPATH=src python -m tests.test_result_bytes prints the current digests
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        results = result_digests(os.path.join(tmp, "results"))
        penalties = penalty_digests(os.path.join(tmp, "penalties"))
        os.makedirs(os.path.join(tmp, "cli"))
        os.chdir(os.path.join(tmp, "cli"))
        cli = cli_digests()
        grids = grid_digests()
    print_digests(EXPECTED=results[0], EXPECTED_VALUES=results[1], EXPECTED_STATES=results[2],
                  CLI_EXPECTED=cli[0], CLI_EXPECTED_VALUES=cli[1], CLI_EXPECTED_STATES=cli[2],
                  GRID_EXPECTED=grids[0], GRID_EXPECTED_VALUES=grids[1],
                  GRID_EXPECTED_STATES=grids[2],
                  PENALTY_EXPECTED=penalties[0], PENALTY_EXPECTED_VALUES=penalties[1])
