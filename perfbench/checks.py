"""Correctness checks on the outputs of one round.

Each check compares the program's output with a computation made apart
from the program (CSV parsing with the csv module, numpy moments,
networkx, a confusion matrix, pairwise AUROC counting) or with a property
the method must have. Every check raises CheckFailed with a reason; the
check_* functions take plain values so test_checks.py can feed them
corrupted inputs.
"""

from __future__ import annotations

import copy
import csv
import os

import numpy as np

import flowgnn as fg

AGG_TOL = 1e-10
STRUCT_TOL = 1e-9
SCORE_TOL = 1e-9
METRIC_TOL = 1e-12
# trained weighted F1 must exceed the untrained model's by at least this
F1_MARGIN = 0.25


class CheckFailed(AssertionError):
    pass


def _close(got, want, tol) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


# -- extract ------------------------------------------------------------------------


def parse_csv_flows(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """src, dst and the feature matrix of one flow CSV written by save_dataset."""
    with open(path, newline="", encoding="utf-8") as fp:
        rows = list(csv.reader(fp))
    header, body = rows[0], [r for r in rows[1:] if r]
    src_col, dst_col = header.index("src_ip"), header.index("dst_ip")
    feat_cols = [i for i in range(len(header)) if i not in (src_col, dst_col)]
    matrix = np.array([[float(r[i]) for i in feat_cols] for r in body])
    return [r[src_col] for r in body], [r[dst_col] for r in body], matrix


def moments(matrix: np.ndarray) -> np.ndarray:
    """mean | median | population std | skew | excess kurtosis per column,
    with the zero-spread convention (0 for std, skew and kurtosis)."""
    mean = np.mean(matrix, axis=0)
    median = np.median(matrix, axis=0)
    std = np.std(matrix, axis=0)
    dev = matrix - mean
    flat = np.ptp(matrix, axis=0) == 0
    safe = np.where(flat, 1.0, std)
    skew = np.where(flat, 0.0, np.mean(dev ** 3, axis=0) / safe ** 3)
    kurt = np.where(flat, 0.0, np.mean(dev ** 4, axis=0) / safe ** 4 - 3.0)
    return np.concatenate([mean, median, np.where(flat, 0.0, std), skew, kurt])


def check_graph_structure(graph, src: list[str], dst: list[str]) -> None:
    """Nodes are the distinct endpoints, edges the distinct ordered pairs."""
    if set(graph.nodes) != set(src) | set(dst) or len(graph.nodes) != len(set(graph.nodes)):
        raise CheckFailed(f"{graph.sample_id}: node set differs from the CSV endpoints")
    pairs = {(graph.nodes[s], graph.nodes[t]) for s, t in graph.edges}
    if pairs != set(zip(src, dst)) or len(pairs) != graph.num_edges:
        raise CheckFailed(f"{graph.sample_id}: edge set differs from the CSV endpoint pairs")


def check_edge_features(graph, src: list[str], dst: list[str], matrix: np.ndarray) -> None:
    """Each edge row equals numpy moments of that pair's flows."""
    src_arr, dst_arr = np.array(src), np.array(dst)
    for e, (s, t) in enumerate(graph.edges):
        rows = matrix[(src_arr == graph.nodes[s]) & (dst_arr == graph.nodes[t])]
        if not _close(graph.edge_features[e], moments(rows), AGG_TOL):
            raise CheckFailed(f"{graph.sample_id}: edge {e} features differ from numpy moments")


def networkx_structure(graph) -> dict[str, object]:
    import networkx as nx

    simple = nx.Graph()
    simple.add_nodes_from(range(graph.num_nodes))
    simple.add_edges_from((s, t) for s, t in graph.edges if s != t)
    with np.errstate(invalid="ignore", divide="ignore"):  # nan when every degree is equal
        assort = nx.degree_assortativity_coefficient(simple) if simple.number_of_edges() else 0.0
    order = range(graph.num_nodes)
    betweenness = nx.betweenness_centrality(simple, normalized=False)
    clustering = nx.clustering(simple)
    return {
        "transitivity": nx.transitivity(simple),
        "assortativity": 0.0 if not np.isfinite(assort) else assort,
        "locals": {
            0: np.array([simple.degree(v) for v in order], dtype=np.float64),
            2: np.array([clustering[v] for v in order]),
            7: np.array([betweenness[v] for v in order]),
        },
    }


def check_structural(values: np.ndarray, reference: dict, sample_id: str) -> None:
    """values is the program's structural vector: the two globals, then
    five aggregation blocks of eight local features."""
    if not _close(values[0], reference["transitivity"], STRUCT_TOL):
        raise CheckFailed(f"{sample_id}: global clustering differs from networkx")
    if not _close(values[1], reference["assortativity"], STRUCT_TOL):
        raise CheckFailed(f"{sample_id}: degree assortativity differs from networkx")
    width = len(fg.graphs.LOCAL_FEATURES)
    for col, local in reference["locals"].items():
        got = values[2 + col::width][:len(fg.graphs.AGGREGATIONS)]
        if not _close(got, moments(local.reshape(-1, 1)), STRUCT_TOL):
            name = fg.graphs.LOCAL_FEATURES[col]
            raise CheckFailed(f"{sample_id}: aggregated {name} differs from networkx")


def check_same_graphs(got, want) -> None:
    """Bit-exact equality of two graph lists."""
    if len(got) != len(want):
        raise CheckFailed("graph count differs")
    for a, b in zip(got, want):
        same = (a.sample_id == b.sample_id and a.nodes == b.nodes and a.edges == b.edges
                and a.feature_names == b.feature_names and a.labels == b.labels
                and a.edge_features.shape == b.edge_features.shape
                and a.edge_features.tobytes() == b.edge_features.tobytes())
        if not same:
            raise CheckFailed(f"{a.sample_id}: graphs.jsonl does not read back bit-exact")


def read_feature_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fp:
        rows = list(csv.reader(fp))
    return {r[0]: np.array([float(v) for v in r[4:]]) for r in rows[1:] if r}


def check_extract(manifest: str, extract_dir: str, subset_size: int = 4) -> None:
    """The extract command's outputs against the CSVs it read."""
    graphs = fg.read_graphs_jsonl(os.path.join(extract_dir, "graphs.jsonl"))
    check_same_graphs(graphs, [fg.build_flow_graph(s)
                               for s in fg.load_dataset(manifest).samples])
    entries = {e["id"]: e["file"] for e in fg.serialize.load_path(manifest)["samples"]}
    base = os.path.dirname(manifest)
    structural = read_feature_csv(os.path.join(extract_dir, "features_graph.csv"))
    largest = max(range(len(graphs)), key=lambda i: graphs[i].num_nodes)
    for i in sorted({largest, *range(min(subset_size - 1, len(graphs)))}):
        graph = graphs[i]
        src, dst, matrix = parse_csv_flows(os.path.join(base, entries[graph.sample_id]))
        check_graph_structure(graph, src, dst)
        check_edge_features(graph, src, dst, matrix)
        check_structural(structural[graph.sample_id], networkx_structure(graph), graph.sample_id)


# -- protocol ------------------------------------------------------------------------


def confusion_weighted_f1(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=np.intp)
    y_pred = np.asarray(y_pred, dtype=np.intp)
    k = int(max(y_true.max(), y_pred.max())) + 1
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    tp = np.diag(cm).astype(np.float64)
    predicted = cm.sum(axis=0)
    support = cm.sum(axis=1)
    precision = np.divide(tp, predicted, out=np.zeros(k), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(k), where=support > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros(k), where=denom > 0)
    return float(np.sum(f1 * support) / y_true.size)


def check_weighted_f1(y_true, y_pred, reported: float) -> None:
    if not _close(reported, confusion_weighted_f1(y_true, y_pred), METRIC_TOL):
        raise CheckFailed("weighted F1 differs from the confusion-matrix recomputation")


def check_beats_untrained(trained: float, untrained: float, margin: float = F1_MARGIN) -> None:
    if not trained >= untrained + margin:
        raise CheckFailed(f"trained F1 {trained:.4f} does not beat untrained "
                          f"{untrained:.4f} by {margin}")


def check_split(split, labels, quota: int) -> None:
    parts = [set(split.train), set(split.val), set(split.test)]
    if sum(map(len, parts)) != len(set().union(*parts)):
        raise CheckFailed("split parts overlap")
    if set().union(*parts) != set(range(len(labels))):
        raise CheckFailed("split parts do not cover the dataset")
    per_class = np.bincount(np.asarray(labels)[list(split.train)], minlength=labels.max() + 1)
    if np.any(per_class != quota):
        raise CheckFailed(f"training split per-class counts {per_class.tolist()} != {quota}")


def _indices_batch(job, indices):
    return fg.make_batch([job.prepared[i] for i in indices])


def untrained_model(job):
    model = fg.training.build_model(job.config, job.in_dim, job.num_classes,
                                    np.random.default_rng(job.config.seed))
    if job.config.variant == "oc":
        model.init_center(_indices_batch(job, job.split.train))
    return model


def check_protocol(result, evaluations) -> None:
    clf = [(job, model, out) for job, model, out in evaluations if job.config.variant == "clf"]
    if len(clf) != len(result.runs):
        raise CheckFailed("one evaluated model per protocol repeat expected")
    for run, (job, model, out) in zip(result.runs, clf):
        if run["value"] != out["value"]:
            raise CheckFailed("protocol report differs from the evaluated model's F1")
        test = list(job.split.test)
        preds = model.predict_proba(_indices_batch(job, test)).argmax(axis=1)
        check_weighted_f1(job.y[test], preds, run["value"])
        untrained = fg.training.evaluate_metrics(job, untrained_model(job))["value"]
        check_beats_untrained(run["value"], untrained)
        check_split(job.split, job.y, fg.splits.TRAIN_QUOTAS["category"])


# -- detect ---------------------------------------------------------------------------


def pairwise_auroc(scores, labels) -> float:
    """Mann-Whitney count over every positive/negative pair, ties one half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], s[y == 0]
    diff = pos[:, None] - neg[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def check_auroc(scores, labels, reported: float) -> None:
    if not _close(reported, pairwise_auroc(scores, labels), METRIC_TOL):
        raise CheckFailed("AUROC differs from the pairwise count")


def training_objective(model, batch) -> float:
    """The ae/oc objective without weight decay, as training computes it
    (train-mode batch statistics), over one batch; the model is left as is."""
    probe = copy.deepcopy(model)
    rng = np.random.default_rng(0)
    if probe.variant == "ae":
        return probe.ae_loss(batch, fg.nn.TRAIN, rng).item()
    pooled = probe.pooled(batch, fg.nn.TRAIN, rng).data
    return float(((pooled - probe.center) ** 2).sum(axis=1).mean())


def check_objective_lowered(trained: float, untrained: float, what: str) -> None:
    if not trained < untrained:
        raise CheckFailed(f"training did not lower the {what}: "
                          f"{trained:.6g} vs untrained {untrained:.6g}")


def check_bit_exact(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.tobytes() != want.tobytes():
        raise CheckFailed("reloaded checkpoint scores differ from the in-memory model")


def check_scores_close(got, want, what: str) -> None:
    if not _close(got, want, SCORE_TOL):
        raise CheckFailed(f"{what} score differs from the batched score")


def permute_nodes(graph, rng: np.random.Generator):
    perm = rng.permutation(graph.num_nodes)  # old index -> new index
    nodes = [None] * graph.num_nodes
    for old, new in enumerate(perm):
        nodes[new] = graph.nodes[old]
    edges = tuple((int(perm[s]), int(perm[t])) for s, t in graph.edges)
    return fg.FlowGraph(graph.sample_id, tuple(nodes), edges, graph.edge_features,
                        graph.feature_names, graph.labels)


def check_detect(detect: dict, evaluations, alone: int = 4) -> None:
    objectives = {"ae": "reconstruction error", "oc": "mean distance to the center"}
    for variant, d in detect.items():
        job, model, standardizer = d["job"], d["model"], d["standardizer"]
        evaluated = [out for j, m, out in evaluations if m is model]
        if len(evaluated) != 1:
            raise CheckFailed(f"{variant}: expected one evaluation of the selected model")
        test = list(job.split.test)
        in_memory = model.anomaly_scores(_indices_batch(job, test))
        check_auroc(in_memory, job.binary[test], evaluated[0]["value"])

        train_batch = _indices_batch(job, job.split.train)
        check_objective_lowered(training_objective(model, train_batch),
                                training_objective(untrained_model(job), train_batch),
                                objectives[variant])

        check_bit_exact(d["scores"], in_memory)

        rng = np.random.default_rng(0)
        for i in np.linspace(0, len(test) - 1, alone).astype(int):
            graph = d["heldout"][i]
            for label, g in (("alone", graph), ("node-permuted", permute_nodes(graph, rng))):
                batch = fg.make_batch([fg.PreparedGraph(fg.propagation_matrices(g),
                                                        standardizer(g.edge_features))])
                check_scores_close(model.anomaly_scores(batch), in_memory[i:i + 1], label)
