"""Directed flow graphs with aggregated edge features.

A sample's flows collapse into one directed graph over IP endpoints: one
node per distinct IP, one edge per distinct ordered (src, dst) pair, and
per-edge features obtained by aggregating the feature vectors of every
flow on that pair with mean, median, standard deviation, skew and excess
kurtosis. The same aggregation drives the per-sample baseline feature
sets and the per-node structural summary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import serialize
from .errors import EmptyInput, FlowDataError
from .ingest import LabelTriple, SampleFlows

AGGREGATIONS = ("mean", "median", "std", "skew", "kurt")

LOCAL_FEATURES = (
    "degree",
    "two_hop_count",
    "clustering",
    "avg_neighbor_degree",
    "avg_neighbor_clustering",
    "egonet_edges",
    "egonet_boundary_edges",
    "betweenness",
)

GLOBAL_FEATURES = ("global_clustering_coefficient", "degree_assortativity")

STRUCTURAL_DIM = len(GLOBAL_FEATURES) + len(AGGREGATIONS) * len(LOCAL_FEATURES)


@dataclass(frozen=True, eq=False)
class FlowGraph:
    """One sample as a directed endpoint graph with edge feature matrix."""

    sample_id: str
    nodes: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    edge_features: np.ndarray  # shape (num_edges, 5 * raw feature dim)
    feature_names: tuple[str, ...]
    labels: LabelTriple | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def aggregate_edge_features(flow_features: np.ndarray) -> np.ndarray:
    """Aggregate a (k, d) matrix into a 5d vector of per-column statistics.

    Layout is five blocks of width d: [mean | median | std | skew | kurt].
    Moments are population moments (divisor k), skew is m3/sigma^3 and
    kurtosis is excess (m4/sigma^4 - 3). Columns with zero spread get
    std = skew = kurt = 0, which also covers the single-row case.
    """
    matrix = np.asarray(flow_features, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    if matrix.shape[0] == 0:
        raise EmptyInput("cannot aggregate zero rows")

    mean = matrix.mean(axis=0)
    median = np.median(matrix, axis=0)
    # exact-equality spread test: near-constant columns would otherwise
    # produce pure rounding noise in the higher moments
    constant = matrix.max(axis=0) == matrix.min(axis=0)
    centered = matrix - mean
    m2 = (centered ** 2).mean(axis=0)
    m3 = (centered ** 3).mean(axis=0)
    m4 = (centered ** 4).mean(axis=0)
    std = np.zeros_like(mean)
    skew = np.zeros_like(mean)
    kurt = np.zeros_like(mean)
    ok = ~constant & (m2 > 0.0)
    std[ok] = np.sqrt(m2[ok])
    # denominators can underflow to zero for spreads below ~1e-103; such
    # columns fall back to the zero-spread convention
    ok3 = ok & (std ** 3 > 0.0)
    ok4 = ok & (m2 ** 2 > 0.0)
    skew[ok3] = m3[ok3] / std[ok3] ** 3
    kurt[ok4] = m4[ok4] / m2[ok4] ** 2 - 3.0
    return np.concatenate([mean, median, std, skew, kurt])


def aggregate_feature_names(names) -> tuple[str, ...]:
    return tuple(f"{agg}_{name}" for agg in AGGREGATIONS for name in names)


def build_flow_graph(sample: SampleFlows) -> FlowGraph:
    """Collapse a sample's flows into a directed endpoint graph.

    Nodes are listed in first-appearance order, edges in first-appearance
    order of their ordered endpoint pair; each edge row aggregates that
    pair's flows in file order.
    """
    node_index: dict[str, int] = {}
    edge_index: dict[tuple[int, int], int] = {}
    edge_rows: list[list[tuple[float, ...]]] = []
    for flow in sample.flows:
        for ip in (flow.src_ip, flow.dst_ip):
            if ip not in node_index:
                node_index[ip] = len(node_index)
        key = (node_index[flow.src_ip], node_index[flow.dst_ip])
        if key not in edge_index:
            edge_index[key] = len(edge_rows)
            edge_rows.append([])
        edge_rows[edge_index[key]].append(flow.features)

    features = np.vstack([
        aggregate_edge_features(np.asarray(rows, dtype=np.float64)) for rows in edge_rows
    ])
    d = len(sample.flows[0].features)
    raw_names = tuple(f"f{i}" for i in range(d))
    return FlowGraph(
        sample_id=sample.sample_id,
        nodes=tuple(node_index),
        edges=tuple(edge_index),
        edge_features=features,
        feature_names=aggregate_feature_names(raw_names),
        labels=sample.labels,
    )


def flow_aggregate_features(sample: SampleFlows) -> np.ndarray:
    """Aggregate all of a sample's flows regardless of endpoints."""
    return aggregate_edge_features(
        np.asarray([f.features for f in sample.flows], dtype=np.float64)
    )


@dataclass(frozen=True, eq=False)
class StructuralFeatures:
    values: np.ndarray
    names: tuple[str, ...]


def _undirected_adjacency(graph: FlowGraph) -> list[set[int]]:
    """Simple undirected projection; self-loops dropped."""
    adj: list[set[int]] = [set() for _ in range(graph.num_nodes)]
    for s, t in graph.edges:
        if s != t:
            adj[s].add(t)
            adj[t].add(s)
    return adj


def _local_clustering(adj: list[set[int]]) -> np.ndarray:
    coeffs = np.zeros(len(adj))
    for v, neigh in enumerate(adj):
        k = len(neigh)
        if k < 2:
            continue
        links = 0
        neigh_list = list(neigh)
        for i, u in enumerate(neigh_list):
            for w in neigh_list[i + 1:]:
                if w in adj[u]:
                    links += 1
        coeffs[v] = 2.0 * links / (k * (k - 1))
    return coeffs


def _betweenness(adj: list[set[int]]) -> np.ndarray:
    """Exact unnormalized betweenness centrality (Brandes accumulation)."""
    n = len(adj)
    centrality = np.zeros(n)
    for source in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n)
        sigma[source] = 1.0
        dist = np.full(n, -1)
        dist[source] = 0
        queue = [source]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n)
        for w in reversed(stack):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != source:
                centrality[w] += delta[w]
    # each undirected pair is counted from both endpoints
    return centrality / 2.0


def _global_clustering(adj: list[set[int]]) -> float:
    degrees = np.array([len(a) for a in adj])
    triplets = float((degrees * (degrees - 1) // 2).sum())
    if triplets == 0:
        return 0.0
    closed = 0
    for v, neigh in enumerate(adj):
        neigh_list = list(neigh)
        for i, u in enumerate(neigh_list):
            for w in neigh_list[i + 1:]:
                if w in adj[u]:
                    closed += 1
    # closed counts each triangle once per apex, i.e. 3 * triangles
    return closed / triplets


def _assortativity(adj: list[set[int]]) -> float:
    """Pearson correlation of endpoint degrees over undirected edges,
    with each edge contributing both orientations; 0 when undefined."""
    degrees = [len(a) for a in adj]
    xs: list[float] = []
    ys: list[float] = []
    for v, neigh in enumerate(adj):
        for u in neigh:
            if u > v:
                xs.extend((degrees[v], degrees[u]))
                ys.extend((degrees[u], degrees[v]))
    if not xs:
        return 0.0
    x = np.array(xs)
    y = np.array(ys)
    vx = x.var()
    vy = y.var()
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return float(((x - x.mean()) * (y - y.mean())).mean() / np.sqrt(vx * vy))


def structural_features(graph: FlowGraph) -> StructuralFeatures:
    """Two global and five aggregations of eight per-node features.

    Everything is computed on the simple undirected projection with
    self-loops removed. Layout: the two globals, then the local features
    aggregated exactly like edge features (five blocks of width eight).
    """
    adj = _undirected_adjacency(graph)
    n = graph.num_nodes
    degrees = np.array([len(a) for a in adj], dtype=np.float64)
    clustering = _local_clustering(adj)
    betweenness = _betweenness(adj)

    two_hop = np.zeros(n)
    avg_neighbor_degree = np.zeros(n)
    avg_neighbor_clustering = np.zeros(n)
    egonet_edges = np.zeros(n)
    egonet_boundary = np.zeros(n)
    for v in range(n):
        neigh = adj[v]
        if neigh:
            avg_neighbor_degree[v] = float(np.mean([degrees[u] for u in neigh]))
            avg_neighbor_clustering[v] = float(np.mean([clustering[u] for u in neigh]))
        second = set()
        for u in neigh:
            second.update(adj[u])
        second.discard(v)
        second -= neigh
        two_hop[v] = len(second)
        ego = neigh | {v}
        inside = 0
        boundary = 0
        for u in ego:
            for w in adj[u]:
                if w in ego:
                    if w > u:
                        inside += 1
                else:
                    boundary += 1
        egonet_edges[v] = inside
        egonet_boundary[v] = boundary

    locals_matrix = np.column_stack([
        degrees,
        two_hop,
        clustering,
        avg_neighbor_degree,
        avg_neighbor_clustering,
        egonet_edges,
        egonet_boundary,
        betweenness,
    ])
    values = np.concatenate([
        [_global_clustering(adj), _assortativity(adj)],
        aggregate_edge_features(locals_matrix),
    ])
    names = GLOBAL_FEATURES + aggregate_feature_names(LOCAL_FEATURES)
    return StructuralFeatures(values, names)


def combined_features(sample: SampleFlows, graph: FlowGraph | None = None) -> np.ndarray:
    """Per-sample flow aggregate followed by the structural summary."""
    if graph is None:
        graph = build_flow_graph(sample)
    return np.concatenate([flow_aggregate_features(sample), structural_features(graph).values])


def write_graphs_jsonl(graphs, path) -> None:
    """One graph per line; floats carry 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fp:
        for graph in graphs:
            labels = None
            if graph.labels is not None:
                labels = {"binary": graph.labels.binary, "category": graph.labels.category}
                if graph.labels.family is not None:
                    labels["family"] = graph.labels.family
            record = {
                "id": graph.sample_id,
                "labels": labels,
                "nodes": list(graph.nodes),
                "edges": [list(e) for e in graph.edges],
                "x": graph.edge_features,
                "feature_names": list(graph.feature_names),
            }
            fp.write(serialize.dumps(record))
            fp.write("\n")


def read_graphs_jsonl(path) -> list[FlowGraph]:
    graphs = []
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            labels = None
            if rec.get("labels") is not None:
                raw = rec["labels"]
                labels = LabelTriple(
                    binary=int(raw["binary"]),
                    category=int(raw["category"]),
                    family=None if raw.get("family") is None else int(raw["family"]),
                )
            edges = tuple((int(s), int(t)) for s, t in rec["edges"])
            x = np.asarray(rec["x"], dtype=np.float64)
            ends = np.asarray(edges, dtype=np.intp)
            if ends.size and (ends.min() < 0 or ends.max() >= len(rec["nodes"])):
                raise FlowDataError(f"graph {rec['id']!r}: an edge index lies outside "
                                    f"[0, {len(rec['nodes'])})")
            if x.shape[0] != len(edges):
                raise FlowDataError(f"graph {rec['id']!r}: {x.shape[0]} feature rows "
                                    f"for {len(edges)} edges")
            graphs.append(FlowGraph(
                sample_id=rec["id"],
                nodes=tuple(rec["nodes"]),
                edges=edges,
                edge_features=x,
                feature_names=tuple(rec["feature_names"]),
                labels=labels,
            ))
    return graphs
