import base64
import re
from pathlib import Path

import numpy as np
import pytest

from flowgnn import serialize
from flowgnn.checkpoint import checkpoint_dict, load_checkpoint, save_checkpoint
from flowgnn.cli import main
from flowgnn.errors import ShapeMismatch
from flowgnn.graphs import read_graphs_jsonl, write_graphs_jsonl
from flowgnn.mlp import DenseNetwork
from flowgnn.model import FlowGraphNetwork, make_batch, prepare_graph
from flowgnn.preprocess import standardize_fit
from flowgnn.serialize import dumps
from flowgnn.training import TrainConfig

from .conftest import random_connected_graph, state_digest

# An oc checkpoint (one layer, h=3, standardizer dropping a constant column)
# written by the release that spelled every array as a JSON number list.
LIST_FORMAT = Path(__file__).parent / "data" / "list_format_checkpoint.json"
LIST_FORMAT_STATE = "b021313d495a60cd245d53abf9012397b3faeec4cce64cbf0071b574e1d3ad4a"


def legacy_text(text: str) -> str:
    """JSON text with every float token spelled as earlier versions wrote
    it: repr for integer values below 1e16, else 17 significant digits."""
    def spell(match):
        token = match.group()
        if token.startswith('"') or not set(".eE") & set(token):
            return token
        x = float(token)
        return repr(x) if x.is_integer() and abs(x) < 1e16 else format(x, ".17g")
    return re.sub(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?', spell, text)


def graph_model(variant, seed=0, layers=2):
    return FlowGraphNetwork(variant, in_dim=6, num_hidden=5, num_layers=layers,
                            rng=np.random.default_rng(seed), num_classes=4)


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("variant,layers", [("clf", 1), ("clf", 2),
                                                ("ae", 1), ("ae", 2), ("oc", 2)])
    def test_graph_model_bit_exact(self, tmp_path, variant, layers, rng):
        model = graph_model(variant, seed=3, layers=layers)
        graphs = [random_connected_graph(rng, d=6, gid=f"g{i}") for i in range(3)]
        batch = make_batch([prepare_graph(g) for g in graphs])
        if variant == "oc":
            model.init_center(batch)
        # perturb state away from init so the round trip is non-trivial
        for p in model.parameters():
            p.data = p.data + rng.normal(scale=0.1, size=p.data.shape)
        for bn in model.batch_norms():
            bn.running_mean = rng.normal(size=bn.width)
            bn.running_var = rng.random(bn.width) + 0.5
        config = TrainConfig(variant=variant, num_layers=layers, num_hidden=5)
        standardizer = standardize_fit(rng.normal(size=(10, 8)))
        path = tmp_path / "ck.json"
        save_checkpoint(path, model, config, standardizer, {"task": "binary"})
        loaded, loaded_config, loaded_std, run_info = load_checkpoint(path)
        assert loaded_config == config
        assert run_info == {"task": "binary"}
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.name == b.name
            assert np.array_equal(a.data, b.data)
        for a, b in zip(model.batch_norms(), loaded.batch_norms()):
            assert np.array_equal(a.running_mean, b.running_mean)
            assert np.array_equal(a.running_var, b.running_var)
        if variant == "oc":
            assert np.array_equal(model.center, loaded.center)
        assert np.array_equal(standardizer.kept_columns, loaded_std.kept_columns)
        assert np.array_equal(standardizer.mean, loaded_std.mean)
        assert np.array_equal(standardizer.std, loaded_std.std)
        # behavioral equality on a batch
        if variant == "clf":
            np.testing.assert_array_equal(model.predict_proba(batch),
                                          loaded.predict_proba(batch))
        else:
            np.testing.assert_array_equal(model.anomaly_scores(batch),
                                          loaded.anomaly_scores(batch))

    def test_dense_model_round_trip(self, tmp_path, rng):
        model = DenseNetwork("mlp_oc", in_dim=7, num_hidden=4, num_layers=2,
                             rng=np.random.default_rng(1))
        x = rng.normal(size=(6, 7))
        model.init_center(x)
        config = TrainConfig(variant="mlp_oc", num_layers=2, num_hidden=4)
        path = tmp_path / "ck.json"
        save_checkpoint(path, model, config, None, {})
        loaded, _, loaded_std, _ = load_checkpoint(path)
        assert loaded_std is None
        np.testing.assert_array_equal(model.anomaly_scores(x), loaded.anomaly_scores(x))

    @pytest.mark.parametrize("value", [-0.0, 5e-324, 2.2250738585072e-310, 1.7e308, -1.7e308],
                             ids=["negative-zero", "min-subnormal", "subnormal", "huge", "-huge"])
    def test_extreme_values_bit_exact(self, tmp_path, rng, value):
        model = graph_model("oc", seed=4)
        graphs = [random_connected_graph(rng, d=6, gid=f"g{i}") for i in range(3)]
        model.init_center(make_batch([prepare_graph(g) for g in graphs]))
        model.parameters()[0].data[0, 0] = value
        model.batch_norms()[0].running_mean[1] = value
        model.center[0, 2] = value
        standardizer = standardize_fit(rng.normal(size=(10, 6)))
        standardizer.mean[3] = value
        config = TrainConfig(variant="oc", num_layers=2, num_hidden=5)
        path = tmp_path / "ck.json"
        save_checkpoint(path, model, config, standardizer)
        loaded, _, loaded_std, _ = load_checkpoint(path)
        assert loaded.parameters()[0].data.tobytes() == model.parameters()[0].data.tobytes()
        assert loaded.batch_norms()[0].running_mean.tobytes() == \
            model.batch_norms()[0].running_mean.tobytes()
        assert loaded.center.tobytes() == model.center.tobytes()
        assert loaded_std.mean.tobytes() == standardizer.mean.tobytes()

    def test_list_format_checkpoint_loads_to_its_state(self):
        assert state_digest(LIST_FORMAT) == LIST_FORMAT_STATE

    def test_many_random_round_trips(self, tmp_path, rng):
        # checkpoint writing is deterministic and parses back bit-exactly
        for i in range(20):
            model = graph_model("clf", seed=i, layers=1)
            for p in model.parameters():
                p.data = p.data * float(10.0 ** rng.integers(-6, 6))
            config = TrainConfig(variant="clf", num_layers=1, num_hidden=5)
            path = tmp_path / f"ck{i}.json"
            save_checkpoint(path, model, config)
            save_again = tmp_path / f"ck{i}b.json"
            loaded, *_ = load_checkpoint(path)
            save_checkpoint(save_again, loaded, config)
            assert path.read_bytes() == save_again.read_bytes()


def shortened(stored: str, stop: int) -> str:
    """A stored array cut to its first stop values, encoded again."""
    return serialize.encode_floats(serialize.decode_floats(stored)[:stop])


def shrink_hidden_bias(raw):
    entry = next(p for p in raw["params"] if p["name"] == "hidden1.b")
    entry["shape"], entry["values"] = [1, 1], shortened(entry["values"], 1)


class TestMismatchedCheckpoint:
    def edited(self, tmp_path, model, config, edit):
        path = tmp_path / "ck.json"
        save_checkpoint(path, model, config)
        raw = serialize.load_path(path)
        edit(raw)
        serialize.dump_path(raw, path)
        return path

    @pytest.mark.parametrize("variant, edit, message", [
        ("mlp", shrink_hidden_bias, "hidden1.b"),
        ("mlp_oc", lambda raw: raw.update(oc_center=shortened(raw["oc_center"], 1)), "center"),
    ], ids=["bias", "center"])
    def test_dense_shapes(self, tmp_path, variant, edit, message):
        model = DenseNetwork(variant, in_dim=7, num_hidden=4, num_layers=2,
                             rng=np.random.default_rng(1), num_classes=3)
        if variant == "mlp_oc":
            model.init_center(np.random.default_rng(2).normal(size=(5, 7)))
        config = TrainConfig(variant=variant, num_layers=2, num_hidden=4)
        path = self.edited(tmp_path, model, config, edit)
        with pytest.raises(ShapeMismatch, match=message):
            load_checkpoint(path)

    def test_array_one_value_short_names_its_parameter(self, tmp_path):
        config = TrainConfig(variant="ae", num_layers=2, num_hidden=5)

        def drop_last(raw):
            entry = next(p for p in raw["params"] if p["name"] == "f2.W")
            entry["values"] = shortened(entry["values"], -1)

        path = self.edited(tmp_path, graph_model("ae"), config, drop_last)
        with pytest.raises(ShapeMismatch, match=r"parameter f2\.W stores 49 values, not the 50"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["batchnorm"].pop(), "batch-norm inventory"),
        (lambda raw: raw["batchnorm"][0].update(gamma=[2.0], running_mean=[0.5]), "gamma"),
    ], ids=["count", "width"])
    def test_graph_batchnorm(self, tmp_path, edit, message):
        config = TrainConfig(variant="clf", num_layers=2, num_hidden=5)
        path = self.edited(tmp_path, graph_model("clf"), config, edit)
        with pytest.raises(ShapeMismatch, match=message):
            load_checkpoint(path)

    def test_graph_batchnorm_beta_missing(self, tmp_path):
        config = TrainConfig(variant="clf", num_layers=2, num_hidden=5)
        path = self.edited(tmp_path, graph_model("clf"), config,
                           lambda raw: raw["batchnorm"][0].update(beta=None))
        with pytest.raises(ShapeMismatch, match="batch norm beta is missing"):
            load_checkpoint(path)


def set_param(raw, index, values):
    raw["params"][index]["values"] = values


def with_null_weight(raw):
    values = serialize.decode_floats(raw["params"][0]["values"]).tolist()
    set_param(raw, 0, [None] + values[1:])


def with_nan_weight(raw):
    values = serialize.decode_floats(raw["params"][0]["values"])
    values[0] = np.nan
    set_param(raw, 0, base64.b64encode(values.tobytes()).decode())


def short_mean(raw):
    raw["preprocess"]["mean"] = shortened(raw["preprocess"]["mean"], -1)


class TestCheckpointFileChecked:
    """Each malformed oc checkpoint fails `flowgnn score` with exit 1 and one
    line naming the file and the field, before any data is read."""

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw.update(params=5), "params must be an array, not an integer"),
        (with_null_weight, "params[0].values is neither base64 text nor a list of numbers"),
        (lambda raw: raw.pop("config"), "lacks config"),
        (short_mean, "preprocess.mean has 5 values, not one per kept column (6)"),
        (lambda raw: set_param(raw, 1, "not*base64"), "params[1].values is not base64 text"),
        (lambda raw: set_param(raw, 1, base64.b64encode(bytes(12)).decode()),
         "params[1].values decodes to 12 bytes, not a multiple of 8"),
        (lambda raw: set_param(raw, 0, shortened(raw["params"][0]["values"], 29)),
         "parameter f1.W stores 29 values, not the 30 of shape (6, 5)"),
        (with_nan_weight, "params[0].values holds a non-finite value"),
        (lambda raw: raw["preprocess"].update(kept_columns=[0, 2, 1, 3, 4, 5]),
         "preprocess.kept_columns must rise from column 0 up"),
        (lambda raw: raw["preprocess"].update(num_columns=5),
         "preprocess.kept_columns reaches column 5, but preprocess.num_columns is 5"),
        (lambda raw: raw["preprocess"].update(std=serialize.encode_floats(np.zeros(6))),
         "preprocess.std holds a value that is not above 0"),
    ], ids=["params_number", "null_weight", "no_config", "short_mean", "bad_base64",
            "partial_value", "value_count", "nan_weight", "unsorted_columns",
            "columns_past_width", "zero_std"])
    def test_score_exits_1_naming_file_and_field(self, tmp_path, rng, capsys, edit, message):
        model = graph_model("oc")
        model.init_center(make_batch([prepare_graph(random_connected_graph(rng, d=6, gid=f"g{i}"))
                                      for i in range(3)]))
        path = tmp_path / "ck.json"
        save_checkpoint(path, model, TrainConfig(variant="oc", num_layers=2, num_hidden=5),
                        standardize_fit(rng.normal(size=(10, 6))))
        raw = serialize.load_path(path)
        edit(raw)
        serialize.dump_path(raw, path)
        assert main(["score", "--checkpoint", str(path), "--data", "unread.jsonl"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert f"{path}: {message}" in err[0]

    def test_not_json_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "ck.json"
        path.write_text('{"config": ')
        assert main(["score", "--checkpoint", str(path), "--data", "unread.jsonl"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"CheckpointError: {path}: not JSON" in err[0], err


class TestSerializer:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps({"x": float("nan")})
        with pytest.raises(ValueError):
            dumps([float("inf")])

    def test_float_arrays_as_base64_bytes(self):
        values = np.array([[1.5, -0.0], [5e-324, -1.7e308]])
        text = serialize.encode_floats(values)
        assert base64.b64decode(text) == values.astype("<f8").tobytes()
        assert serialize.decode_floats(text).tobytes() == values.tobytes()
        with pytest.raises(ValueError, match="non-finite"):
            serialize.encode_floats([1.0, np.inf])

    def test_legacy_17_digit_text_loads_the_same(self, tmp_path, rng):
        graphs = [random_connected_graph(rng, d=6, gid=f"g{i}") for i in range(3)]
        graphs[0].edge_features[0, :2] = [1e16, -0.0]
        write_graphs_jsonl(graphs, tmp_path / "new.jsonl")
        (tmp_path / "new.json").write_bytes(LIST_FORMAT.read_bytes())
        for suffix in (".json", ".jsonl"):
            text = (tmp_path / f"new{suffix}").read_text()
            legacy = legacy_text(text)
            assert legacy != text
            (tmp_path / f"old{suffix}").write_text(legacy)

        def reloaded(path):
            return dumps(checkpoint_dict(*load_checkpoint(path)))

        assert reloaded(tmp_path / "old.json") == reloaded(tmp_path / "new.json")
        assert state_digest(tmp_path / "old.json") == LIST_FORMAT_STATE

        def arrays(path):
            return [(g.sample_id, g.edges, g.edge_features.tobytes())
                    for g in read_graphs_jsonl(path)]

        assert "10000000000000000" in (tmp_path / "old.jsonl").read_text()
        assert arrays(tmp_path / "old.jsonl") == arrays(tmp_path / "new.jsonl")
        assert arrays(tmp_path / "new.jsonl") == [
            (g.sample_id, g.edges, g.edge_features.tobytes()) for g in graphs]

    def test_deterministic_bytes(self):
        obj = {"b": [1.5, 2, None, True], "a": "text", "c": {"k": -0.1}}
        assert dumps(obj) == dumps(obj)

    def test_numpy_arrays_supported(self):
        out = dumps({"m": np.array([[1.0, 2.5]]), "i": np.int64(3)})
        assert out == '{"m": [[1.0, 2.5]], "i": 3}'
