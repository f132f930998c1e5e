import csv
import hashlib
import itertools
import json
import os
import struct

import numpy as np
import pytest

from flowgnn import training
from flowgnn.checkpoint import load_checkpoint
from flowgnn.graphs import FlowGraph, aggregate_feature_names
from flowgnn.ingest import FlowRecord, LabelTriple, SampleFlows


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def script_val_score(monkeypatch):
    """install(criterion) makes train's validation score criterion(model,
    epoch) by patching training._val_criterion; each train call counts its
    epochs from 1."""
    def install(criterion):
        def val_criterion(job, model):
            epochs = itertools.count(1)
            return lambda: criterion(model, next(epochs))
        monkeypatch.setattr(training, "_val_criterion", val_criterion)
    return install


def incidence_dense(prop, ends):
    """A PropagationPair as a dense (nodes, edges) matrix: ends is prop.dst
    for the incoming matrix and prop.src for the outgoing one."""
    out = np.zeros((prop.num_nodes, prop.num_edges))
    out[ends, np.arange(prop.num_edges)] = prop.weights
    return out


def make_graph(edges, d=4, seed=0, gid="g", labels=LabelTriple(0, 0, 0)):
    """FlowGraph over explicit integer edges with random edge features."""
    g = np.random.default_rng(seed)
    nodes = sorted({v for e in edges for v in e})
    remap = {v: i for i, v in enumerate(nodes)}
    edge_list = tuple((remap[s], remap[t]) for s, t in edges)
    x = g.normal(size=(len(edge_list), d))
    return FlowGraph(
        sample_id=gid,
        nodes=tuple(f"n{v}" for v in nodes),
        edges=edge_list,
        edge_features=x,
        feature_names=tuple(f"c{i}" for i in range(d)),
        labels=labels,
    )


def random_connected_graph(rng, n_nodes=None, d=4, gid="g", min_edges=2,
                           labels=LabelTriple(0, 0, 0)):
    """Random directed graph where every node touches at least one edge."""
    n = int(n_nodes if n_nodes is not None else rng.integers(3, 7))
    edges = {(i, int(rng.integers(n))) for i in range(n)}
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        edges.add((int(a), int(b)))
    while len(edges) < min_edges:
        a, b = rng.integers(0, n, size=2)
        edges.add((int(a), int(b)))
    edges = sorted(edges)
    used = sorted({v for e in edges for v in e})
    remap = {v: i for i, v in enumerate(used)}
    edge_list = tuple((remap[s], remap[t]) for s, t in edges)
    x = rng.normal(size=(len(edge_list), d))
    return FlowGraph(
        sample_id=gid,
        nodes=tuple(f"n{v}" for v in used),
        edges=edge_list,
        edge_features=x,
        feature_names=tuple(f"c{i}" for i in range(d)),
        labels=labels,
    )


def make_sample(pairs, d=3, seed=0, sid="s0", labels=None):
    """SampleFlows with one flow per (src, dst) pair plus random features."""
    g = np.random.default_rng(seed)
    flows = tuple(
        FlowRecord(src, dst, tuple(g.normal(size=d))) for src, dst in pairs
    )
    return SampleFlows(sid, flows, labels)


def table_columns(table):
    """A FlowTable's columns in a form == compares bit for bit."""
    return table.src_ips, table.dst_ips, table.features.shape, table.features.tobytes()


def permute_graph(graph: FlowGraph, rng) -> FlowGraph:
    """Relabel nodes and reorder edges consistently."""
    n = graph.num_nodes
    perm = rng.permutation(n)  # perm[old] = new index
    edge_order = rng.permutation(graph.num_edges)
    new_nodes = [None] * n
    for old, new in enumerate(perm):
        new_nodes[new] = graph.nodes[old]
    new_edges = tuple(
        (int(perm[graph.edges[e][0]]), int(perm[graph.edges[e][1]]))
        for e in edge_order
    )
    return FlowGraph(
        sample_id=graph.sample_id,
        nodes=tuple(new_nodes),
        edges=new_edges,
        edge_features=graph.edge_features[edge_order],
        feature_names=graph.feature_names,
        labels=graph.labels,
    )


def text_digest(path) -> str:
    """One file's SHA-256, or one over a directory's file names and bytes."""
    h = hashlib.sha256()
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            h.update(name.encode() + b"\0")
            h.update(hashlib.sha256(open(os.path.join(path, name), "rb").read()).digest())
    else:
        h.update(open(path, "rb").read())
    return h.hexdigest()


def value_digest(path) -> str:
    """SHA-256 of what a JSON, JSONL or CSV output holds (or every file of
    a directory, in sorted order): its structure, its strings and the
    float64 bytes of every number, however the number is spelled.

    Every JSON number is hashed as a float64, integer tokens too, and so is
    every CSV cell that parses as a float.
    """
    h = hashlib.sha256()
    _hash_path(h, str(path))
    return h.hexdigest()


def file_digests(paths: dict) -> tuple[dict[str, str], dict[str, str]]:
    """Text and value digests of each named output."""
    return ({name: text_digest(path) for name, path in paths.items()},
            {name: value_digest(path) for name, path in paths.items()})


def state_digest(path) -> str:
    """SHA-256 over the name, shape and float64 bytes of every array a
    checkpoint loads to: parameters, batch-norm statistics, the center and
    the standardizer's kept columns, mean and std. It changes only when a
    loaded value does, not when the file spells the value another way."""
    model, _, standardizer, _ = load_checkpoint(path)
    arrays = [(p.name, p.data) for p in model.parameters()]
    for i, bn in enumerate(model.batch_norms()):
        arrays += [(f"batchnorm{i}.running_mean", bn.running_mean),
                   (f"batchnorm{i}.running_var", bn.running_var)]
    if model.center is not None:
        arrays.append(("center", model.center))
    if standardizer is not None:
        arrays += [(f"standardizer.{key}", getattr(standardizer, key))
                   for key in ("kept_columns", "mean", "std")]
    h = hashlib.sha256()
    for name, array in arrays:
        array = np.asarray(array, dtype="<f8")
        h.update(name.encode() + b"\0" + repr(array.shape).encode() + array.tobytes())
    return h.hexdigest()


def state_digests(paths: dict) -> dict[str, str]:
    """State digests of each named checkpoint."""
    return {name: state_digest(path) for name, path in paths.items()}


def print_digests(**dicts) -> None:
    """Print digest dicts as Python source, to paste over the pinned ones."""
    for name, digests in dicts.items():
        print(f"{name} = {{")
        for key, digest in digests.items():
            print(f'    "{key}": "{digest}",')
        print("}\n")


def _hash_path(h, path: str) -> None:
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            _hash_value(h, name)
            _hash_path(h, os.path.join(path, name))
        return
    with open(path, encoding="utf-8", newline="") as fp:
        if path.endswith(".csv"):
            records = [[_csv_cell(cell) for cell in row] for row in csv.reader(fp)]
        elif path.endswith(".jsonl"):
            records = [json.loads(line, parse_int=float) for line in fp]
        else:
            records = [json.load(fp, parse_int=float)]
    _hash_value(h, records)


def _csv_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _hash_value(h, value) -> None:
    if isinstance(value, float):
        h.update(b"f" + struct.pack("<d", value))
    elif isinstance(value, str):
        data = value.encode()
        h.update(b"s%d:" % len(data) + data)
    elif isinstance(value, list):
        h.update(b"[%d" % len(value))
        for item in value:
            _hash_value(h, item)
    elif isinstance(value, dict):
        h.update(b"{%d" % len(value))
        for key, item in value.items():
            _hash_value(h, key)
            _hash_value(h, item)
    else:  # True, False, None
        h.update(repr(value).encode())


__all__ = [
    "aggregate_feature_names",
    "file_digests",
    "make_graph",
    "make_sample",
    "permute_graph",
    "print_digests",
    "random_connected_graph",
    "state_digest",
    "state_digests",
    "table_columns",
    "text_digest",
    "value_digest",
]
