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
from itertools import chain

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


def _segment_aggregate(rows: np.ndarray, segments: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Aggregate consecutive row segments of a (n, d) matrix, one 5d row each.

    Rows come grouped by segment: `segments` is the non-decreasing segment
    id of every row and `counts[s]` the length of segment s. Every sum is one
    flat `np.bincount` over (segment, column) cells, which adds each cell's
    rows from +0.0 in the order they appear here. numpy's axis-0 mean adds
    two or more columns in that order too, so the moments match it bit for
    bit; a lone column numpy sums pairwise, so that case sums each segment
    with `np.add.reduce`. Medians come from each column sorted inside each
    segment.
    """
    num, d = len(counts), rows.shape[1]
    starts = np.cumsum(counts) - counts
    cells = (segments[:, None] * d + np.arange(d)).ravel()

    def segment_mean(values):
        if d == 1:
            sums = np.array([np.add.reduce(part)
                             for part in np.split(values.ravel(), starts[1:])])
        else:
            sums = np.bincount(cells, weights=values.ravel(), minlength=num * d)
        return sums.reshape(num, d) / counts[:, None]

    mean = segment_mean(rows)
    # each column sorted by value, then stably by segment: every segment's
    # values ascend (equal values may swap, which no statistic here sees);
    # uint16 ids get numpy's radix sort
    by_value = np.argsort(rows, axis=0)
    ids = segments.astype(np.uint16 if num <= 1 << 16 else np.intp)[by_value]
    by_segment = np.take_along_axis(by_value, np.argsort(ids, axis=0, kind="stable"), axis=0)
    ranked = np.take_along_axis(rows, by_segment, axis=0)
    # np.median's own arithmetic: the middle values summed from +0.0, then
    # halved when there are two of them
    median = 0.0 + ranked[starts + (counts - 1) // 2]
    even = counts % 2 == 0
    median[even] = (median[even] + ranked[starts[even] + counts[even] // 2]) / 2.0
    # exact-equality spread test: near-constant columns would otherwise
    # produce pure rounding noise in the higher moments
    constant = ranked[starts + counts - 1] == ranked[starts]
    centered = rows - mean[segments]
    m2 = segment_mean(centered ** 2)
    m3 = segment_mean(centered ** 3)
    m4 = segment_mean(centered ** 4)
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
    return np.concatenate([mean, median, std, skew, kurt], axis=1)


def check_edge_indices(sample_id: str, edges, num_nodes: int) -> None:
    """Raise FlowDataError naming the sample if an edge end is outside [0, num_nodes)."""
    ends = np.asarray(edges, dtype=np.intp)
    if ends.size and (ends.min() < 0 or ends.max() >= num_nodes):
        raise FlowDataError(f"graph {sample_id!r}: an edge index lies outside [0, {num_nodes})")


def aggregate_edge_features(flow_features: np.ndarray) -> np.ndarray:
    """Aggregate a (k, d) matrix into a 5d vector of per-column statistics.

    Layout is five blocks of width d: [mean | median | std | skew | kurt].
    Moments are population moments (divisor k), skew is m3/sigma^3 and
    kurtosis is excess (m4/sigma^4 - 3). Columns with zero spread get
    std = skew = kurt = 0, which also covers the single-row case.

    The k rows form the one segment of `_segment_aggregate`, the code that
    also gives every edge row of `build_flow_graph`. Its sums add the rows
    top to bottom (a lone column pairwise), as `matrix.mean(axis=0)` does on
    a C-ordered matrix, so mean, moments and median equal numpy's bit for
    bit. The result does not depend on the input's memory layout.
    """
    matrix = np.ascontiguousarray(flow_features, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    k = matrix.shape[0]
    if k == 0:
        raise EmptyInput("cannot aggregate zero rows")
    return _segment_aggregate(matrix, np.zeros(k, dtype=np.intp), np.array([k]))[0]


def aggregate_feature_names(names) -> tuple[str, ...]:
    return tuple(f"{agg}_{name}" for agg in AGGREGATIONS for name in names)


def _feature_matrix(sample: SampleFlows) -> np.ndarray:
    """The sample's flow features as one (flows, d) float64 matrix, file order."""
    d = len(sample.flows[0].features)
    values = chain.from_iterable(f.features for f in sample.flows)
    return np.fromiter(values, dtype=np.float64, count=len(sample.flows) * d).reshape(-1, d)


def build_flow_graph(sample: SampleFlows) -> FlowGraph:
    """Collapse a sample's flows into a directed endpoint graph.

    Nodes are listed in first-appearance order, edges in first-appearance
    order of their ordered endpoint pair. A stable sort by edge id groups
    the flow matrix into one segment per edge that keeps the file order of
    its flows, so each edge row equals `aggregate_edge_features` of that
    pair's flows in file order, bit for bit.
    """
    node_index: dict[str, int] = {}
    codes = np.array([node_index.setdefault(ip, len(node_index))
                      for f in sample.flows for ip in (f.src_ip, f.dst_ip)], dtype=np.int64)
    num_nodes = len(node_index)
    keys = codes[0::2] * num_nodes + codes[1::2]
    unique_keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_appearance = np.argsort(first)
    edge_ids = np.argsort(by_appearance)[inverse]
    grouped = np.argsort(edge_ids, kind="stable")
    matrix = _feature_matrix(sample)
    features = _segment_aggregate(matrix[grouped], edge_ids[grouped], np.bincount(edge_ids))
    edge_keys = unique_keys[by_appearance]
    raw_names = tuple(f"f{i}" for i in range(matrix.shape[1]))
    return FlowGraph(
        sample_id=sample.sample_id,
        nodes=tuple(node_index),
        edges=tuple(zip((edge_keys // num_nodes).tolist(), (edge_keys % num_nodes).tolist())),
        edge_features=features,
        feature_names=aggregate_feature_names(raw_names),
        labels=sample.labels,
    )


def flow_aggregate_features(sample: SampleFlows) -> np.ndarray:
    """Aggregate all of a sample's flows regardless of endpoints."""
    return aggregate_edge_features(_feature_matrix(sample))


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


def _betweenness(adj: list[set[int]]) -> np.ndarray:
    """Exact unnormalized betweenness centrality (Brandes accumulation).

    One breadth-first search per source visits neighbours in set order;
    the queue doubles as Brandes' stack. Path counts and dependencies are
    Python floats, added in the same order and with the same operations
    as a float64 array would hold them, so the result is bit-exact.
    """
    n = len(adj)
    centrality = [0.0] * n
    for source in range(n):
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = [0.0] * n
        sigma[source] = 1.0
        dist = [-1] * n
        dist[source] = 0
        queue = [source]
        for v in queue:  # grows while it is walked
            next_dist = dist[v] + 1
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = next_dist
                    queue.append(w)
                if dist[w] == next_dist:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(queue):
            sigma_w = sigma[w]
            share = 1.0 + delta[w]
            for v in preds[w]:
                delta[v] += sigma[v] / sigma_w * share
            if w != source:
                centrality[w] += delta[w]
    # each undirected pair is counted from both endpoints
    return np.array(centrality) / 2.0


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
    degrees = np.array([len(a) for a in adj], dtype=np.int64)
    # links[v]: edges among v's neighbours, i.e. triangles through v
    links = np.array([sum(len(adj[u] & neigh) for u in neigh) // 2 for neigh in adj],
                     dtype=np.int64)
    neighbor_degrees = np.array([sum(len(adj[u]) for u in neigh) for neigh in adj],
                                dtype=np.int64)
    has_pairs = degrees >= 2
    clustering = np.zeros(n)
    clustering[has_pairs] = 2.0 * links[has_pairs] / (
        degrees[has_pairs] * (degrees[has_pairs] - 1))
    triplets = float((degrees * (degrees - 1) // 2).sum())
    global_clustering = int(links.sum()) / triplets if triplets else 0.0
    betweenness = _betweenness(adj)

    avg_neighbor_degree = np.zeros(n)
    has_neighbors = degrees > 0
    avg_neighbor_degree[has_neighbors] = neighbor_degrees[has_neighbors] / degrees[has_neighbors]
    two_hop = np.zeros(n)
    avg_neighbor_clustering = np.zeros(n)
    for v in range(n):
        neigh = adj[v]
        if neigh:
            avg_neighbor_clustering[v] = float(np.mean([clustering[u] for u in neigh]))
        second = set()
        for u in neigh:
            second.update(adj[u])
        second.discard(v)
        second -= neigh
        two_hop[v] = len(second)
    # the egonet of v is v and its neighbours: its edges are v's own plus the
    # links among the neighbours; its boundary is every other edge end
    egonet_edges = degrees + links
    egonet_boundary = degrees + neighbor_degrees - 2 * egonet_edges

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
        [global_clustering, _assortativity(adj)],
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
                "edges": np.array(graph.edges, dtype=np.int64).reshape(-1, 2),
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
            check_edge_indices(rec["id"], edges, len(rec["nodes"]))
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
