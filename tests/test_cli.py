import csv
import json
import subprocess
import sys

import pytest

from flowgnn import cli, serialize
from flowgnn.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic dataset written by the CLI, then extracted once."""
    root = tmp_path_factory.mktemp("cli")
    spec = {"class_sizes": [30, 30], "delta": 4.0, "min_nodes": 3, "max_nodes": 6}
    spec_path = root / "synth.json"
    spec_path.write_text(json.dumps(spec))
    data_dir = root / "data"
    assert main(["synth", "--config", str(spec_path), "--seed", "7",
                 "--out", str(data_dir)]) == 0
    out_dir = root / "extracted"
    assert main(["extract", "--manifest", str(data_dir / "manifest.json"),
                 "--out", str(out_dir)]) == 0
    return root, data_dir, out_dir


def train_config(root, out_dir, variant="clf", task="binary", **overrides):
    config = {
        "data": str(out_dir / "graphs.jsonl"),
        "task": task,
        "variant": variant,
        "split": {"quota": 10, "val_fraction": 0.2},
        "train": {"num_hidden": 8, "num_layers": 1, "learning_rate": 1e-2,
                  "batch_size": 16, "max_epochs": 15, **overrides},
    }
    if task == "unsupervised":
        config["split"] = {"train_fraction": 0.3, "unsup_val_fraction": 0.2}
    path = root / f"train_{variant}_{task}.json"
    path.write_text(json.dumps(config))
    return path


class TestSynth:
    def test_reproducible_under_seed(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"class_sizes": [5, 5], "delta": 0.0}))
        for name in ("a", "b"):
            assert main(["synth", "--config", str(spec_path), "--seed", "3",
                         "--out", str(tmp_path / name)]) == 0
        a = (tmp_path / "a" / "manifest.json").read_bytes()
        b = (tmp_path / "b" / "manifest.json").read_bytes()
        assert a == b
        for f in sorted((tmp_path / "a" / "flows").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / "flows" / f.name).read_bytes()

    def test_five_classes_category_labels(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"class_sizes": [3, 3, 3, 3, 3], "delta": 1.0}))
        assert main(["synth", "--config", str(spec_path), "--out", str(tmp_path / "d")]) == 0
        manifest = serialize.load_path(tmp_path / "d" / "manifest.json")
        assert len(manifest["samples"]) == 15
        categories = {s["labels"]["category"] for s in manifest["samples"]}
        assert len(categories) == 5

    def test_sample_count_exact(self, workspace):
        _, data_dir, _ = workspace
        manifest = serialize.load_path(data_dir / "manifest.json")
        assert len(manifest["samples"]) == 60


class TestExtract:
    def test_jsonl_line_per_sample(self, workspace):
        _, _, out_dir = workspace
        lines = (out_dir / "graphs.jsonl").read_text().strip().splitlines()
        assert len(lines) == 60

    def test_dispatch_runs_the_current_module_function(self, tmp_path, monkeypatch):
        # a wrapper installed on flowgnn.cli after import (as a tracer does)
        # is the function main calls
        seen = []
        monkeypatch.setattr(cli, "cmd_extract", lambda args: seen.append(args.manifest) or 0)
        assert main(["extract", "--manifest", "m.json", "--out", str(tmp_path)]) == 0
        assert seen == ["m.json"]

    def test_missing_manifest_exit_2(self, tmp_path):
        assert main(["extract", "--manifest", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_feature_csv_widths(self, workspace):
        _, _, out_dir = workspace
        d = 7  # 6 informative + 1 constant synth feature
        widths = {"features_flow.csv": 5 * d, "features_graph.csv": 42,
                  "features_combined.csv": 5 * d + 42}
        for name, width in widths.items():
            with open(out_dir / name) as fp:
                header = next(csv.reader(fp))
            assert len(header) == 4 + width  # id + three label columns


class TestTrain:
    def test_rerun_byte_identical_checkpoint(self, workspace, tmp_path):
        root, _, out_dir = workspace
        config = train_config(root, out_dir)
        for name in ("r1", "r2"):
            assert main(["train", "--config", str(config), "--seed", "5",
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "r1" / "checkpoint.json").read_bytes() == \
               (tmp_path / "r2" / "checkpoint.json").read_bytes()
        assert (tmp_path / "r1" / "history.json").read_bytes() == \
               (tmp_path / "r2" / "history.json").read_bytes()

    def test_invalid_variant_exit_2(self, workspace, tmp_path):
        root, _, out_dir = workspace
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "data": str(out_dir / "graphs.jsonl"), "task": "binary", "variant": "zzz",
        }))
        assert main(["train", "--config", str(config), "--out", str(tmp_path)]) == 2

    def test_history_records_losses_and_criterion(self, workspace, tmp_path):
        root, _, out_dir = workspace
        config = train_config(root, out_dir, variant="ae", task="unsupervised")
        assert main(["train", "--config", str(config), "--seed", "2",
                     "--out", str(tmp_path / "ae")]) == 0
        history = serialize.load_path(tmp_path / "ae" / "history.json")
        assert history["epochs"][0].keys() == {"epoch", "train_loss", "val_score"}
        assert history["best_epoch"] >= 1
        assert len(history["epochs"]) == history["stopped_epoch"]

    @pytest.mark.parametrize("variant, task, max_epochs, reason", [
        ("clf", "binary", 15, "saturated"), ("ae", "unsupervised", 2, "max_epochs"),
    ])
    def test_history_records_why_training_stopped(self, workspace, tmp_path, variant, task,
                                                  max_epochs, reason):
        root, _, out_dir = workspace
        config = train_config(root, out_dir, variant=variant, task=task, max_epochs=max_epochs)
        assert main(["train", "--config", str(config), "--out", str(tmp_path)]) == 0
        history = serialize.load_path(tmp_path / "history.json")
        assert history["stop_reason"] == reason
        assert len(history["epochs"]) == history["stopped_epoch"]

    def test_set_override(self, workspace, tmp_path):
        root, _, out_dir = workspace
        config = train_config(root, out_dir)
        assert main(["train", "--config", str(config), "--seed", "5",
                     "--out", str(tmp_path / "o"),
                     "--set", "train.num_hidden=4"]) == 0
        ck = serialize.load_path(tmp_path / "o" / "checkpoint.json")
        assert ck["config"]["num_hidden"] == 4

    def test_set_split_field_reaches_spec(self, workspace, tmp_path):
        root, _, out_dir = workspace
        config = train_config(root, out_dir)
        assert main(["train", "--config", str(config), "--out", str(tmp_path),
                     "--set", "split.train_fraction=0.3"]) == 0
        split = serialize.load_path(tmp_path / "checkpoint.json")["run_info"]["split"]
        assert split == {"quota": 10, "val_fraction": 0.2, "train_fraction": 0.3,
                         "unsup_val_fraction": 0.1}

    def test_unknown_split_key_exit_2(self, workspace, tmp_path):
        root, _, out_dir = workspace
        config = train_config(root, out_dir)
        assert main(["train", "--config", str(config), "--out", str(tmp_path),
                     "--set", "split.trian_fraction=0.3"]) == 2
        assert not (tmp_path / "checkpoint.json").exists()


class TestBadTrainConfig:
    """A bad train config field exits 2 with one line naming it, before
    any data loads; every grid cell passes the same check."""

    @pytest.fixture
    def no_data_load(self, monkeypatch):
        def load(path):
            raise AssertionError(f"data loaded from {path}")
        monkeypatch.setattr(cli, "_load_graph_data", load)

    @pytest.mark.parametrize("field, value, message", [
        ("num_hidden", 0, "num_hidden must be an integer of at least 1, got 0"),
        ("learning_rate", "fast", "learning_rate must be a finite number above 0, got 'fast'"),
        ("batch_size", 0, "batch_size must be an integer of at least 1, got 0"),
        ("max_epochs", 0, "max_epochs must be an integer of at least 1, got 0"),
        ("patience", 0, "patience must be an integer of at least 1, got 0"),
        ("num_layers", 3, "num_layers must be one of (1, 2), got 3"),
        ("pool", "sum", "pool must be one of ('mean', 'add', 'max'), got 'sum'"),
        ("val_criterion", "auroc", "val_criterion 'auroc' does not fit variant 'clf'; "
                                   "use 'auto' or 'f1'"),
    ], ids=["num_hidden_0", "learning_rate_fast", "batch_size_0", "max_epochs_0",
            "patience_0", "num_layers_3", "pool_sum", "val_criterion_auroc"])
    def test_train_exit_2(self, workspace, tmp_path, capsys, no_data_load, field, value,
                          message):
        root, _, out_dir = workspace
        config = train_config(root, out_dir, **{field: value})
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(message), err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("grid, message", [
        ({"num_hidden": [8, 0]}, "num_hidden must be an integer of at least 1, got 0"),
        ({"dropout": [0.0, 1.0]}, "dropout must be a number in [0, 1), got 1.0"),
        ({"pool": ["mean", "sum"]}, "pool must be one of ('mean', 'add', 'max'), got 'sum'"),
        ({"num_hidden": []}, "grid.num_hidden lists no values"),
    ], ids=["num_hidden_0", "dropout_1", "pool_sum", "num_hidden_empty"])
    def test_gridsearch_bad_cell_exit_2(self, workspace, tmp_path, capsys, no_data_load,
                                        grid, message):
        root, _, out_dir = workspace
        config = json.loads(train_config(root, out_dir).read_text())
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**config, "grid": grid}))
        assert main(["gridsearch", "--config", str(path), "--out", str(tmp_path / "g")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(message), err


class TestBadConfigFile:
    """A run config or synth spec that does not fit its shape, checked after
    --set, exits 2 with one line naming the config file and the field,
    before any data loads."""

    @pytest.mark.parametrize("command, edit, message", [
        ("train", {"data": ["x"]}, "data must be a string, not list"),
        ("train", {"data": 3}, "data must be a string, not 3"),
        ("train", {"data": None}, "data is missing"),
        ("gridsearch", {"grid": [1, 2]}, "grid must be an object, not list"),
        ("gridsearch", {"grid": {"num_hidden": 8}}, "grid.num_hidden must be an array, not 8"),
        ("train", {"variant": ["clf"]}, "variant must be a string, not list"),
        ("train", {"task": None}, "task is missing"),
        ("train", {"train": [1]}, "train must be an object, not list"),
        ("train", {"split": {"quota": "10"}}, "split.quota must be an integer, not '10'"),
    ], ids=["data_list", "data_number", "no_data", "grid_list", "grid_cell_number",
            "variant_list", "no_task", "train_list", "quota_string"])
    def test_run_config_exit_2(self, workspace, tmp_path, capsys, monkeypatch, command, edit,
                               message):
        monkeypatch.setattr(cli, "_load_graph_data", lambda path: pytest.fail("data loaded"))
        root, _, out_dir = workspace
        config = {**json.loads(train_config(root, out_dir).read_text()), **edit}
        path = tmp_path / "run.json"
        path.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(f"{path}: {message}"), err

    def test_set_value_checked(self, workspace, tmp_path, capsys):
        root, _, out_dir = workspace
        config = train_config(root, out_dir)
        assert main(["train", "--config", str(config), "--set", "data=5",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(f"{config}: data must be a string, not 5"), err

    @pytest.mark.parametrize("command, text", [
        ("train", '{"data": "graphs.jsonl", "task": '),
        ("synth", '{"class_sizes": [3,'),
    ], ids=["run_config", "synth_spec"])
    def test_truncated_config_exit_2(self, tmp_path, capsys, command, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{path}: not JSON: " in err[0], err

    @pytest.mark.parametrize("spec, message", [
        ({"class_sizes": 5}, "class_sizes must be an array of integers, not 5"),
        ({"class_sizes": [3, 3], "class_names": 3},
         "class_names must be an array of strings, not 3"),
        ({"class_sizes": [3, True]}, "class_sizes[1] must be an integer, not True"),
        ({"delta": "4"}, "delta must be a number, not '4'"),
        ({"class_sizes": [3, 3], "colour": 1}, "unknown synth spec keys: ['colour']"),
    ], ids=["sizes_number", "names_number", "size_bool", "delta_string", "unknown_key"])
    def test_synth_spec_exit_2(self, tmp_path, capsys, spec, message):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(spec))
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(f"{path}: {message}"), err
        assert not (tmp_path / "o").exists()


class TestGridSearch:
    def test_grid_of_one_matches_train(self, workspace, tmp_path):
        root, _, out_dir = workspace
        config_path = train_config(root, out_dir)
        config = json.loads(config_path.read_text())
        config["grid"] = {"num_hidden": [8]}
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path), "--seed", "5",
                     "--out", str(tmp_path / "t")]) == 0
        assert main(["gridsearch", "--config", str(grid_path), "--seed", "5",
                     "--out", str(tmp_path / "g")]) == 0
        t = serialize.load_path(tmp_path / "t" / "checkpoint.json")
        g = serialize.load_path(tmp_path / "g" / "checkpoint.json")
        assert t["params"] == g["params"]

    @pytest.mark.parametrize("variant, grid", [
        ("clf", {"learning_rate": [1e-2]}), ("mlp", {"num_layers": [1]}),
    ])
    def test_train_is_the_one_cell_grid(self, workspace, tmp_path, variant, grid):
        root, _, out_dir = workspace
        config = json.loads(train_config(root, out_dir, variant=variant).read_text())
        config["feature_set"] = "graph" if variant == "mlp" else None
        paths = {}
        for command, extra in (("train", {}), ("gridsearch", {"grid": grid})):
            paths[command] = tmp_path / f"{command}.json"
            paths[command].write_text(json.dumps({**config, **extra}))
            assert main([command, "--config", str(paths[command]), "--seed", "5",
                         "--out", str(tmp_path / command)]) == 0
        assert (tmp_path / "train" / "checkpoint.json").read_bytes() == \
               (tmp_path / "gridsearch" / "checkpoint.json").read_bytes()

    def test_report_lists_every_cell(self, workspace, tmp_path):
        root, _, out_dir = workspace
        config = json.loads(train_config(root, out_dir).read_text())
        config["grid"] = {"num_hidden": [4, 8], "learning_rate": [1e-2, 1e-3]}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(config))
        assert main(["gridsearch", "--config", str(path), "--seed", "1",
                     "--out", str(tmp_path / "gs")]) == 0
        report = serialize.load_path(tmp_path / "gs" / "gridsearch.json")
        assert len(report["cells"]) == 4
        assert all("val_score" in c for c in report["cells"])

    def test_workers_change_runtime_not_results(self, workspace, tmp_path):
        root, _, out_dir = workspace
        config = json.loads(train_config(root, out_dir).read_text())
        config["grid"] = {"num_hidden": [4, 8]}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(config))
        for workers, name in ((1, "w1"), (4, "w4")):
            assert main(["gridsearch", "--config", str(path), "--seed", "1",
                         "--workers", str(workers), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "w1" / "gridsearch.json").read_bytes() == \
               (tmp_path / "w4" / "gridsearch.json").read_bytes()
        assert (tmp_path / "w1" / "checkpoint.json").read_bytes() == \
               (tmp_path / "w4" / "checkpoint.json").read_bytes()


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    root, _, out_dir = workspace
    out = tmp_path_factory.mktemp("trained")
    config = train_config(root, out_dir)
    assert main(["train", "--config", str(config), "--seed", "5",
                 "--out", str(out)]) == 0
    return out / "checkpoint.json", out_dir / "graphs.jsonl"


class TestEvaluateAndScore:

    def test_evaluate_reports_all_splits(self, trained, tmp_path):
        checkpoint, data = trained
        assert main(["evaluate", "--checkpoint", str(checkpoint),
                     "--data", str(data), "--out", str(tmp_path)]) == 0
        report = serialize.load_path(tmp_path / "metrics.json")
        assert set(report["splits"]) == {"train", "val", "test"}
        for entry in report["splits"].values():
            assert 0.0 <= entry["value"] <= 1.0
            assert "per_class" in entry

    def test_json_and_csv_agree(self, trained, tmp_path):
        checkpoint, data = trained
        assert main(["evaluate", "--checkpoint", str(checkpoint),
                     "--data", str(data), "--out", str(tmp_path)]) == 0
        report = serialize.load_path(tmp_path / "metrics.json")
        with open(tmp_path / "metrics.csv") as fp:
            rows = list(csv.DictReader(fp))
        for row in rows:
            assert float(row["value"]) == report["splits"][row["split"]]["value"]

    def test_missing_checkpoint_exit_2(self, tmp_path):
        assert main(["evaluate", "--checkpoint", str(tmp_path / "none.json"),
                     "--data", "x"]) == 2

    def test_corrupt_checkpoint_exit_1(self, trained, tmp_path):
        _, data = trained
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["evaluate", "--checkpoint", str(bad), "--data", str(data)]) == 1

    def test_score_deterministic_and_normalized(self, trained, tmp_path):
        checkpoint, data = trained
        outputs = []
        for name in ("s1.csv", "s2.csv"):
            assert main(["score", "--checkpoint", str(checkpoint),
                         "--data", str(data), "--out", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]
        with open(tmp_path / "s1.csv") as fp:
            rows = list(csv.DictReader(fp))
        assert len(rows) == 60
        for row in rows[:10]:
            total = sum(float(v) for k, v in row.items() if k.startswith("p_class_"))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_oc_scores_nonnegative(self, workspace, tmp_path):
        root, _, out_dir = workspace
        config = train_config(root, out_dir, variant="oc", task="unsupervised")
        assert main(["train", "--config", str(config), "--seed", "3",
                     "--out", str(tmp_path / "oc")]) == 0
        assert main(["score", "--checkpoint", str(tmp_path / "oc" / "checkpoint.json"),
                     "--data", str(out_dir / "graphs.jsonl"),
                     "--out", str(tmp_path / "scores.csv")]) == 0
        with open(tmp_path / "scores.csv") as fp:
            rows = list(csv.DictReader(fp))
        assert all(float(r["score"]) >= 0.0 for r in rows)

    def test_dense_flow_features_train_evaluate_score(self, workspace, tmp_path):
        # flow features need the flows, so the dataset manifest is the data
        root, data_dir, out_dir = workspace
        config = json.loads(train_config(root, out_dir, variant="mlp_oc",
                                         task="unsupervised").read_text())
        config.update(data=str(data_dir / "manifest.json"), feature_set="flow")
        path = tmp_path / "mlp_oc.json"
        path.write_text(json.dumps(config))
        run = tmp_path / "run"
        assert main(["train", "--config", str(path), "--seed", "4", "--out", str(run)]) == 0
        assert main(["evaluate", "--checkpoint", str(run / "checkpoint.json"),
                     "--out", str(run)]) == 0
        report = serialize.load_path(run / "metrics.json")
        assert {e["metric"] for e in report["splits"].values()} == {"auroc"}
        assert main(["score", "--checkpoint", str(run / "checkpoint.json"),
                     "--data", str(data_dir / "manifest.json"),
                     "--out", str(run / "scores.csv")]) == 0
        with open(run / "scores.csv") as fp:
            rows = list(csv.DictReader(fp))
        assert len(rows) == 60
        assert all(float(r["score"]) >= 0.0 for r in rows)

    def test_score_label_free_graphs(self, trained, tmp_path):
        checkpoint, data = trained
        unlabelled = tmp_path / "unlabelled.jsonl"
        with open(data) as src, open(unlabelled, "w") as dst:
            for line in src:
                dst.write(json.dumps({**json.loads(line), "labels": None}) + "\n")
        for source, name in ((data, "labelled.csv"), (unlabelled, "unlabelled.csv")):
            assert main(["score", "--checkpoint", str(checkpoint), "--data", str(source),
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "labelled.csv").read_bytes() == \
               (tmp_path / "unlabelled.csv").read_bytes()


class TestStrayLabels:
    """A graphs.jsonl label outside the encoding fails before any metric."""

    @pytest.fixture
    def stray(self, workspace, tmp_path):
        _, _, out_dir = workspace
        lines = (out_dir / "graphs.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["labels"]["binary"] = 2
        path = tmp_path / "stray.jsonl"
        path.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        return path

    def test_train_and_evaluate_exit_1(self, workspace, stray, tmp_path, capsys):
        root, _, out_dir = workspace
        config = train_config(root, out_dir, variant="ae", task="unsupervised")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "ok")]) == 0
        assert main(["evaluate", "--checkpoint", str(tmp_path / "ok" / "checkpoint.json"),
                     "--data", str(stray), "--out", str(tmp_path / "ok")]) == 1
        assert not (tmp_path / "ok" / "metrics.json").exists()
        assert main(["train", "--config", str(config), "--set", f"data={stray}",
                     "--out", str(tmp_path / "bad")]) == 1
        assert "graph 's00000': binary label 2 is not 0 or 1" in capsys.readouterr().err

    def test_labels_list_train_exit_1(self, workspace, tmp_path, capsys):
        root, _, out_dir = workspace
        lines = (out_dir / "graphs.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["labels"] = [1, 0]
        path = tmp_path / "list_labels.jsonl"
        path.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        config = train_config(root, out_dir, variant="ae", task="unsupervised")
        assert main(["train", "--config", str(config), "--set", f"data={path}",
                     "--out", str(tmp_path / "bad")]) == 1
        err = capsys.readouterr().err
        assert "graph 's00000': labels must be an object, not list" in err
        assert "Traceback" not in err



def _set(key, value):
    return lambda manifest: manifest.update({key: value})


def _set_in_first_sample(key, value):
    return lambda manifest: manifest["samples"][0].update({key: value})


class TestBadManifest:
    """A manifest field of the wrong type fails where load_dataset reads it,
    in one line naming the manifest and the field."""

    @pytest.mark.parametrize("edit, message", [
        (_set("samples", [1, 2]), "samples[0] must be an object, not 1"),
        (_set("samples", {"s0": {}}), "samples must be an array, not dict"),
        (_set_in_first_sample("file", 5), "samples[0].file must be a string, not 5"),
        (_set_in_first_sample("id", ["s0"]),
         "samples[0].id must be a string or an integer, not list"),
        (_set("schema", "src_ip"), "schema must be an object, not 'src_ip'"),
        (_set("classes", ["benign"]), "classes must be an object, not list"),
        (lambda manifest: [manifest], "a manifest is a JSON object, not list"),
    ], ids=["samples_numbers", "samples_object", "file_number", "id_list", "schema_string",
            "classes_list", "top_level_array"])
    def test_extract_exit_1(self, workspace, tmp_path, capsys, edit, message):
        _, data_dir, _ = workspace
        manifest = json.loads((data_dir / "manifest.json").read_text())
        edited = edit(manifest)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest if edited is None else edited))
        capsys.readouterr()
        assert main(["extract", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and "Traceback" not in err, err
        assert f"FlowDataError: {path}: {message}" in lines[0], lines[0]

    def test_truncated_manifest_exit_1(self, workspace, tmp_path, capsys):
        _, data_dir, _ = workspace
        path = tmp_path / "manifest.json"
        path.write_text((data_dir / "manifest.json").read_text()[:40])
        assert main(["extract", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"FlowDataError: {path}: not JSON: " in err[0], err


def test_narrow_feature_rows_train_exit_1(workspace, tmp_path, capsys):
    root, _, out_dir = workspace
    lines = (out_dir / "graphs.jsonl").read_text().splitlines()
    record = json.loads(lines[-1])
    record["x"] = [row[:-2] for row in record["x"]]
    path = tmp_path / "narrow.jsonl"
    path.write_text("\n".join([*lines[:-1], json.dumps(record)]) + "\n")
    config = train_config(root, out_dir)
    assert main(["train", "--config", str(config), "--set", f"data={path}",
                 "--out", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"graph {record['id']!r}: feature rows have shape" in err[0], err


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["extract", "--manifest", "m.json", "--seed", "1"],
        ["train", "--config", "c.json", "--workers", "2"],
        ["score", "--checkpoint", "c.json", "--data", "g.jsonl", "--config", "x"],
    ], ids=["extract_seed", "train_workers", "score_config"])
    def test_flag_the_command_does_not_read_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_extract_help_lists_only_its_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["extract", "--help"])
        flags = {word for word in capsys.readouterr().out.split() if word.startswith("--")}
        assert flags == {"--help", "--manifest", "--out"}


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "flowgnn.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "extract" in proc.stdout


def test_score_narrower_extract_exit_1(workspace, tmp_path, capsys):
    """A checkpoint scores an extract with fewer feature columns than it was fit on."""
    root, _, out_dir = workspace
    config = train_config(root, out_dir, variant="ae", task="unsupervised", max_epochs=2)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "ae")]) == 0
    spec = tmp_path / "narrow.json"
    spec.write_text(json.dumps({"class_sizes": [10, 10], "num_features": 3, "max_nodes": 5}))
    assert main(["synth", "--config", str(spec), "--out", str(tmp_path / "narrow")]) == 0
    assert main(["extract", "--manifest", str(tmp_path / "narrow" / "manifest.json"),
                 "--out", str(tmp_path / "narrow")]) == 0
    capsys.readouterr()
    checkpoint = str(tmp_path / "ae" / "checkpoint.json")
    data = str(tmp_path / "narrow" / "graphs.jsonl")
    for command in ("score", "evaluate"):
        assert main([command, "--checkpoint", checkpoint, "--data", data,
                     "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "InconsistentDimension: feature rows have 20 columns" in err[0]
        assert "fit on at least" in err[0], err
    assert not (tmp_path / "score").exists()


def test_score_wider_extract_exit_1(workspace, tmp_path, capsys):
    """A checkpoint scores an extract with more feature columns than it was fit on."""
    root, _, out_dir = workspace
    config = train_config(root, out_dir, variant="ae", task="unsupervised", max_epochs=2)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "ae")]) == 0
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"class_sizes": [10, 10], "num_features": 8, "max_nodes": 5}))
    assert main(["synth", "--config", str(spec), "--out", str(tmp_path / "wide")]) == 0
    assert main(["extract", "--manifest", str(tmp_path / "wide" / "manifest.json"),
                 "--out", str(tmp_path / "wide")]) == 0
    capsys.readouterr()
    checkpoint = str(tmp_path / "ae" / "checkpoint.json")
    data = str(tmp_path / "wide" / "graphs.jsonl")
    for command in ("score", "evaluate"):
        assert main([command, "--checkpoint", checkpoint, "--data", data,
                     "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert "InconsistentDimension: feature rows have 45 columns, but the standardizer " \
               "was fit on 35" in err[0], err
    assert not (tmp_path / "score").exists()
