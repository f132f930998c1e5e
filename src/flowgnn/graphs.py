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
from .errors import EmptyInput, FlowDataError, InconsistentDimension, UnknownLabel
from .ingest import LABEL_LEVELS, FlowDataset, LabelTriple, SampleFlows, _check_unique_ids

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


def aggregate_feature_names(names) -> tuple[str, ...]:
    return tuple(f"{agg}_{name}" for agg in AGGREGATIONS for name in names)


STRUCTURAL_NAMES = GLOBAL_FEATURES + aggregate_feature_names(LOCAL_FEATURES)
STRUCTURAL_DIM = len(STRUCTURAL_NAMES)

# per-sample baseline feature sets: the flow aggregate, the structural
# summary, and both side by side
FEATURE_SETS = ("flow", "graph", "combined")

# sources per block of _betweenness times (nodes + adjacency slots) stays
# under this, so a block's arrays take tens of MB at most whatever the graph
BETWEENNESS_BLOCK_CELLS = 1 << 18


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


def build_flow_graph(sample: SampleFlows) -> FlowGraph:
    """Collapse a sample's flows into a directed endpoint graph.

    Nodes are listed in first-appearance order, edges in first-appearance
    order of their ordered endpoint pair. A stable sort by edge id groups
    the flow matrix into one segment per edge that keeps the file order of
    its flows, so each edge row equals `aggregate_edge_features` of that
    pair's flows in file order, bit for bit.
    """
    flows = sample.flows
    node_index: dict[str, int] = {}
    codes = np.array([node_index.setdefault(ip, len(node_index))
                      for pair in zip(flows.src_ips, flows.dst_ips) for ip in pair],
                     dtype=np.int64)
    num_nodes = len(node_index)
    keys = codes[0::2] * num_nodes + codes[1::2]
    unique_keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_appearance = np.argsort(first)
    edge_ids = np.argsort(by_appearance)[inverse]
    grouped = np.argsort(edge_ids, kind="stable")
    matrix = flows.features
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
    return aggregate_edge_features(sample.flows.features)


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

    The sources of a block search breadth-first together, one level at a
    time. A level lists (source, node) cells as flat ids row * n + node,
    each source's cells in the order its own queue holds them. Expanding a
    level in that order, every node's neighbours in set order, and keeping
    each cell's first candidate gives the next level in queue order. The
    same expansion, read backwards, lists every (successor, predecessor)
    pair of the level in reverse queue order of the successor.

    Path counts and dependencies are float64 sums that np.bincount adds in
    the order of a one-source loop over the same queue: path counts over
    predecessors in queue order, dependencies over successors in reverse
    queue order. Centrality adds the sources' rows in source order, then
    halves, so every bit matches that loop.
    """
    n = len(adj)
    degree = np.fromiter(map(len, adj), dtype=np.intp, count=n)
    ends = np.cumsum(degree)
    neighbors = np.fromiter(chain.from_iterable(adj), dtype=np.intp,
                            count=int(ends[-1]) if n else 0)
    # adding a slot's step to a cell of its node gives the neighbour's cell
    steps = neighbors - np.repeat(np.arange(n), degree)

    def expand(cells):
        """Each cell's (source, neighbour) cells in order, and the cell each came from."""
        nodes = cells % n
        counts = degree[nodes]
        stops = counts.cumsum()
        slots = np.arange(stops[-1]) + (ends[nodes] - stops).repeat(counts)
        origins = cells.repeat(counts)
        return origins + steps[slots], origins

    centrality = np.zeros(n)
    # a source reaches each of its cells and adjacency slots at most once
    block = max(1, BETWEENNESS_BLOCK_CELLS // max(n + len(neighbors), 1))
    for first_source in range(0, n, block):
        sources = np.arange(first_source, min(first_source + block, n))
        size = len(sources) * n
        dist = np.full(size, -1)
        sigma = np.zeros(size)
        slot = np.empty(size, dtype=np.intp)  # scratch: a cell's index in a list
        level = np.arange(len(sources)) * n + sources
        dist[level] = 0
        sigma[level] = 1.0
        levels, pairs = [], []
        while len(level):
            depth = len(levels)
            levels.append(level)
            found, preds = expand(level)
            reached = dist[found]
            if depth >= 2:  # the sources' own dependencies are never needed
                back = reached == depth - 1
                pairs.append((preds[back][::-1], found[back][::-1]))
            new = reached < 0
            found, preds = found[new], preds[new]
            # a cell's first candidate discovers it; its path count sums
            # every candidate's predecessor count in candidate order
            order = np.arange(len(found))
            slot[found] = len(found)
            np.minimum.at(slot, found, order)
            first = slot[found]
            discovers = first == order
            level = found[discovers]
            sigma[level] = np.bincount(first, weights=sigma[preds],
                                       minlength=len(found))[discovers]
            dist[level] = depth + 1
        delta = np.zeros(size)
        for below, (succs, found) in zip(levels[-2:0:-1], pairs[::-1]):
            terms = sigma[found] / sigma[succs] * (1.0 + delta[succs])
            slot[below] = np.arange(len(below))
            delta[below] = np.bincount(slot[found], weights=terms, minlength=len(below))
        nodes = np.arange(size + n) % n
        centrality = np.bincount(nodes, weights=np.concatenate([centrality, delta]), minlength=n)
    # each undirected pair is counted from both endpoints
    return centrality / 2.0


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


def _neighbor_means(adj: list[set[int]], degrees: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each node's mean of values over its neighbours; 0 without neighbours.

    One (nodes, d) matrix per distinct degree d, each row a node's
    neighbour values in set order: a row's mean sums pairwise exactly as
    np.mean of that list does, so every bit matches a per-node np.mean.
    """
    out = np.zeros(len(adj))
    for d in np.unique(degrees[degrees > 0]).tolist():
        nodes = np.flatnonzero(degrees == d)
        neighbors = np.fromiter(chain.from_iterable(adj[v] for v in nodes), dtype=np.intp,
                                count=len(nodes) * d)
        out[nodes] = values[neighbors].reshape(-1, d).mean(axis=1)
    return out


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
    avg_neighbor_clustering = _neighbor_means(adj, degrees, clustering)
    two_hop = np.zeros(n)
    for v in range(n):
        neigh = adj[v]
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
    return StructuralFeatures(values, STRUCTURAL_NAMES)


def combined_features(sample: SampleFlows, graph: FlowGraph) -> np.ndarray:
    """Per-sample flow aggregate followed by the structural summary of its graph."""
    return np.concatenate([flow_aggregate_features(sample), structural_features(graph).values])


def feature_matrix(graphs: list[FlowGraph], feature_set: str,
                   dataset: FlowDataset | None = None) -> np.ndarray:
    """Per-sample baseline feature matrix (raw, before standardization).

    One row per graph. The flow and combined sets read each graph's flows
    from the dataset sample of the same id; a combined row is the flow row
    followed by the graph row.
    """
    if feature_set not in FEATURE_SETS:
        raise ValueError(f"feature_set must be one of {FEATURE_SETS}")
    if feature_set == "graph":
        return np.vstack([structural_features(g).values for g in graphs])
    if dataset is None:
        raise ValueError(f"the {feature_set!r} feature set needs the flow dataset")
    by_id = {s.sample_id: s for s in dataset.samples}
    if feature_set == "flow":
        return np.vstack([flow_aggregate_features(by_id[g.sample_id]) for g in graphs])
    return np.vstack([combined_features(by_id[g.sample_id], g) for g in graphs])


def write_graphs_jsonl(graphs, path) -> None:
    """One graph per line; floats are written as their shortest round-trip text."""
    with open(path, "w", encoding="utf-8") as fp:
        for graph in graphs:
            record = {
                "id": graph.sample_id,
                "labels": None if graph.labels is None else graph.labels.to_dict(),
                "nodes": list(graph.nodes),
                "edges": np.array(graph.edges, dtype=np.int64).reshape(-1, 2),
                "x": graph.edge_features,
                "feature_names": list(graph.feature_names),
            }
            fp.write(serialize.dumps(record))
            fp.write("\n")


def read_graphs_jsonl(path) -> list[FlowGraph]:
    """Every graph in the file; each x must be an (edges, feature_names)
    matrix, and every graph must name the first graph's features. A bad
    record raises FlowDataError naming the file and line."""
    graphs = []
    with open(path, "r", encoding="utf-8") as fp:
        for line_num, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            try:
                graphs.append(_graph_record(json.loads(line), graphs[0] if graphs else None))
            except json.JSONDecodeError as exc:
                raise FlowDataError(f"{path}: line {line_num}: not JSON: {exc}") from None
            except FlowDataError as exc:
                raise type(exc)(f"{path}: line {line_num}: {exc}") from None
    _check_unique_ids((g.sample_id for g in graphs), f"{path}: ")
    return graphs


_RECORD = {"id": (str, int), "nodes": list, "edges": list, "feature_names": list, "x": list}


def _graph_record(rec, first: FlowGraph | None) -> FlowGraph:
    """One graphs.jsonl record as a graph; first is the file's first graph."""
    if not isinstance(rec, dict):
        raise FlowDataError(f"a graph record is a JSON object, not {type(rec).__name__}")
    rec = serialize.checked(rec, _RECORD, "",
                            lambda message: FlowDataError(f"graph {rec.get('id')!r}: {message}"))
    try:
        raw = serialize.checked(rec.get("labels"), (dict, None), "labels", UnknownLabel)
        labels = None if raw is None else LabelTriple(*map(raw.get, LABEL_LEVELS))
    except UnknownLabel as exc:
        raise UnknownLabel(f"graph {rec['id']!r}: {exc}") from None
    try:
        edges = tuple((int(s), int(t)) for s, t in rec["edges"])
    except (TypeError, ValueError):
        raise FlowDataError(f"graph {rec['id']!r}: edges must be [source, target] index "
                            "pairs") from None
    check_edge_indices(rec["id"], edges, len(rec["nodes"]))
    names = tuple(rec["feature_names"])
    if first is not None and names != first.feature_names:
        raise InconsistentDimension(f"graph {rec['id']!r}: feature names differ from "
                                    f"those of graph {first.sample_id!r}")
    try:
        x = np.asarray(rec["x"], dtype=np.float64)
    except ValueError:
        x = None  # ragged rows, or cells that are not numbers
    if x is None or x.shape != ((len(edges), len(names)) if edges else (0,)):
        got = "are not a numeric matrix" if x is None else f"have shape {x.shape}"
        raise FlowDataError(f"graph {rec['id']!r}: feature rows {got}, expected "
                            f"{len(edges)} edges by {len(names)} feature names")
    return FlowGraph(
        sample_id=rec["id"],
        nodes=tuple(rec["nodes"]),
        edges=edges,
        edge_features=x,
        feature_names=names,
        labels=labels,
    )
