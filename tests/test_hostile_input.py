"""Property-based hostile input: every JSON format the CLI reads, broken in
one place, must fail through `cli.main` with exit 1 or 2 and one stderr
line that names the file, never with a traceback.

Each case starts from a valid file and makes one change that its format
rejects: drop a required key, put a value of a JSON type the field does not
admit in its place, cut the text short, or repeat a record. Which keys are
required and which types a field admits is read from the shape the reader
declares, so a new field is covered as soon as it is declared.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowgnn import checkpoint, cli, graphs, ingest
from flowgnn.cli import main
from flowgnn.model import FlowGraphNetwork, make_batch, prepare_graph
from flowgnn.preprocess import standardize_fit
from flowgnn.serialize import FLOATS
from flowgnn.training import TrainConfig

from .conftest import random_connected_graph

HOSTILE = settings(derandomize=True, max_examples=100, deadline=None, database=None,
                   suppress_health_check=[HealthCheck.too_slow])

# one value of each JSON type
JSON_VALUES = {type(None): None, bool: True, int: 7, float: 2.5, str: "text", list: [], dict: {}}


def admitted(shape) -> set:
    """The JSON types a shape admits at its top level."""
    if shape is FLOATS:
        return {str, list}
    if isinstance(shape, tuple):
        return set().union(*(admitted(s) if s is not None else {type(None)} for s in shape))
    if isinstance(shape, (list, dict)):
        return {type(shape)}
    return {int, float} if shape is float else {shape}


def sites(doc, shape, path=()):
    """(path, shape, required) for every declared value present in doc."""
    if isinstance(shape, tuple):
        shape = next((s for s in shape if s is not None and type(doc) in admitted(s)), None)
    if isinstance(shape, dict) and isinstance(doc, dict):
        for key, sub in shape.items():
            name = key.rstrip("?")
            if name in doc:
                yield path + (name,), sub, not key.endswith("?")
                yield from sites(doc[name], sub, path + (name,))
    elif isinstance(shape, list) and isinstance(doc, list):
        for i, item in enumerate(doc):
            yield path + (i,), shape[0], False  # an array may be shorter
            yield from sites(item, shape[0], path + (i,))


def broken(data, doc, shape):
    """doc with one required key dropped or one value retyped."""
    path, sub, required = data.draw(st.sampled_from(list(sites(doc, shape))))
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if required and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        kinds = [kind for kind in JSON_VALUES if kind not in admitted(sub)]
        parent[path[-1]] = JSON_VALUES[data.draw(st.sampled_from(kinds))]
    return doc


def cut(data, text: str) -> str:
    """text cut inside a JSON value: never at a line end, so the last line
    left is never whole."""
    ends = [i for i in range(1, len(text) - 1) if "\n" not in text[i - 1:i + 1]]
    return text[:data.draw(st.sampled_from(ends))]


def fails_in_one_line(argv, path) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (1, 2), (code, lines)
    assert len(lines) == 1 and str(path) in lines[0], lines
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A valid manifest, graphs.jsonl, checkpoint and run config."""
    root = tmp_path_factory.mktemp("hostile")
    spec = root / "synth.json"
    spec.write_text(json.dumps({"class_sizes": [4, 4], "min_nodes": 3, "max_nodes": 4}))
    assert main(["synth", "--config", str(spec), "--out", str(root / "data")]) == 0
    assert main(["extract", "--manifest", str(root / "data" / "manifest.json"),
                 "--out", str(root / "x")]) == 0
    rng = np.random.default_rng(0)
    model = FlowGraphNetwork("oc", in_dim=6, num_hidden=5, num_layers=2, rng=rng)
    model.init_center(make_batch([prepare_graph(random_connected_graph(rng, d=6, gid=f"g{i}"))
                                  for i in range(3)]))
    checkpoint.save_checkpoint(root / "ck.json", model, TrainConfig(variant="oc", num_layers=2,
                                                                    num_hidden=5),
                               standardize_fit(rng.normal(size=(10, 6))),
                               {"task": "unsupervised", "seed": 0, "data": "unread.jsonl"})
    run = {"data": str(root / "x" / "graphs.jsonl"), "task": "binary", "variant": "clf",
           "split": {"quota": 2, "val_fraction": 0.5}, "train": {"num_hidden": 4}}
    return root, run


@HOSTILE
@given(data=st.data())
def test_manifest(inputs, data):
    root, _ = inputs
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    path = root / "data" / "hostile.json"  # beside the flow files it names
    how = data.draw(st.sampled_from(["break", "cut", "repeat"]))
    if how == "repeat":
        samples = manifest["samples"]
        samples.append(samples[data.draw(st.integers(0, len(samples) - 1))])
    text = json.dumps(broken(data, manifest, ingest._MANIFEST) if how == "break" else manifest)
    path.write_text(cut(data, text) if how == "cut" else text)
    fails_in_one_line(["extract", "--manifest", str(path), "--out", str(root / "out")], path)


@HOSTILE
@given(data=st.data())
def test_graphs_jsonl(inputs, data):
    root, run = inputs
    lines = (root / "x" / "graphs.jsonl").read_text().splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["break", "cut", "repeat"]))
    if how == "break":
        lines[index] = json.dumps(broken(data, json.loads(lines[index]), graphs._RECORD))
    elif how == "repeat":
        lines.append(lines[index])
    text = "\n".join(lines) + "\n"
    path = root / "hostile.jsonl"
    path.write_text(cut(data, text) if how == "cut" else text)
    config = root / "run.json"
    config.write_text(json.dumps({**run, "data": str(path)}))
    fails_in_one_line(["train", "--config", str(config), "--out", str(root / "out")], path)


@HOSTILE
@given(data=st.data())
def test_checkpoint(inputs, data):
    root, _ = inputs
    raw = json.loads((root / "ck.json").read_text())
    how = data.draw(st.sampled_from(["break", "cut", "repeat"]))
    if how == "repeat":
        records = raw[data.draw(st.sampled_from(["params", "batchnorm"]))]
        records.append(records[data.draw(st.integers(0, len(records) - 1))])
    text = json.dumps(broken(data, raw, checkpoint._SHAPE) if how == "break" else raw)
    path = root / "hostile_ck.json"
    path.write_text(cut(data, text) if how == "cut" else text)
    fails_in_one_line(["score", "--checkpoint", str(path), "--data", "unread.jsonl"], path)


@HOSTILE
@given(data=st.data(), gridsearch=st.booleans())
def test_run_config(inputs, data, gridsearch):
    root, run = inputs
    shape = cli._GRID_CONFIG if gridsearch else cli._RUN_CONFIG
    config = {**run, "grid": {"num_hidden": [4, 8]}} if gridsearch else run
    how = data.draw(st.sampled_from(["break", "cut"]))
    text = json.dumps(broken(data, config, shape)) if how == "break" else \
        cut(data, json.dumps(config))
    path = root / "hostile_run.json"
    path.write_text(text)
    fails_in_one_line(["gridsearch" if gridsearch else "train", "--config", str(path),
                       "--out", str(root / "out")], path)
