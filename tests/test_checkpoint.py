import re

import numpy as np
import pytest

from flowgnn import serialize
from flowgnn.checkpoint import checkpoint_dict, load_checkpoint, save_checkpoint
from flowgnn.errors import ShapeMismatch
from flowgnn.graphs import read_graphs_jsonl, write_graphs_jsonl
from flowgnn.mlp import DenseNetwork
from flowgnn.model import FlowGraphNetwork, make_batch, prepare_graph
from flowgnn.preprocess import standardize_fit
from flowgnn.serialize import dumps
from flowgnn.training import TrainConfig

from .conftest import random_connected_graph


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


def shrink_hidden_bias(raw):
    entry = next(p for p in raw["params"] if p["name"] == "hidden1.b")
    entry["shape"], entry["values"] = [1, 1], entry["values"][:1]


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
        ("mlp_oc", lambda raw: raw.update(oc_center=raw["oc_center"][:1]), "center"),
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
            next(p for p in raw["params"] if p["name"] == "f2.W")["values"].pop()

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


class TestSerializer:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps({"x": float("nan")})
        with pytest.raises(ValueError):
            dumps([float("inf")])

    def test_legacy_17_digit_text_loads_the_same(self, tmp_path, rng):
        graphs = [random_connected_graph(rng, d=6, gid=f"g{i}") for i in range(3)]
        graphs[0].edge_features[0, :2] = [1e16, -0.0]
        model = graph_model("oc", seed=3)
        model.init_center(make_batch([prepare_graph(g) for g in graphs]))
        config = TrainConfig(variant="oc", num_layers=2, num_hidden=5)
        save_checkpoint(tmp_path / "new.json", model, config,
                        standardize_fit(rng.normal(size=(10, 6))))
        write_graphs_jsonl(graphs, tmp_path / "new.jsonl")
        for suffix in (".json", ".jsonl"):
            text = (tmp_path / f"new{suffix}").read_text()
            legacy = legacy_text(text)
            assert legacy != text
            (tmp_path / f"old{suffix}").write_text(legacy)

        def reloaded(path):
            return dumps(checkpoint_dict(*load_checkpoint(path)))

        assert reloaded(tmp_path / "old.json") == reloaded(tmp_path / "new.json")

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
