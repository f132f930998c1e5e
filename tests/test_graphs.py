import json
import math
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgnn import graphs
from flowgnn.errors import EmptyInput, FlowDataError, InconsistentDimension
from flowgnn.graphs import (
    STRUCTURAL_DIM,
    _betweenness,
    _neighbor_means,
    _undirected_adjacency,
    aggregate_edge_features,
    build_flow_graph,
    combined_features,
    flow_aggregate_features,
    read_graphs_jsonl,
    structural_features,
    write_graphs_jsonl,
)
from flowgnn.ingest import FlowRecord, FlowTable, LabelTriple, SampleFlows
from flowgnn.synth import SynthSpec, synth_generate

from .conftest import make_graph, make_sample, random_connected_graph


def moments_oracle(column):
    """Direct per-definition moment computation, scalar loops only."""
    k = len(column)
    mean = sum(column) / k
    med = sorted(column)
    median = (med[(k - 1) // 2] + med[k // 2]) / 2.0
    if max(column) == min(column):
        return mean, median, 0.0, 0.0, 0.0
    m2 = sum((x - mean) ** 2 for x in column) / k
    m3 = sum((x - mean) ** 3 for x in column) / k
    m4 = sum((x - mean) ** 4 for x in column) / k
    if m2 == 0.0:
        return mean, median, 0.0, 0.0, 0.0
    std = math.sqrt(m2)
    skew = m3 / std ** 3 if std ** 3 > 0.0 else 0.0
    kurt = m4 / m2 ** 2 - 3.0 if m2 ** 2 > 0.0 else 0.0
    return mean, median, std, skew, kurt


def reference_aggregate(matrix):
    """The numpy-reduction aggregation: axis-0 means and np.median."""
    matrix = np.asarray(matrix, dtype=np.float64)
    mean = matrix.mean(axis=0)
    median = np.median(matrix, axis=0)
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
    ok3 = ok & (std ** 3 > 0.0)
    ok4 = ok & (m2 ** 2 > 0.0)
    skew[ok3] = m3[ok3] / std[ok3] ** 3
    kurt[ok4] = m4[ok4] / m2[ok4] ** 2 - 3.0
    return np.concatenate([mean, median, std, skew, kurt])


def reference_edge_rows(sample):
    """The per-edge loop: nodes, edges and edge rows, one aggregation per pair."""
    node_index, edge_index, edge_rows = {}, {}, []
    flows = sample.flows
    for src, dst, features in zip(flows.src_ips, flows.dst_ips, flows.features.tolist()):
        for ip in (src, dst):
            if ip not in node_index:
                node_index[ip] = len(node_index)
        key = (node_index[src], node_index[dst])
        if key not in edge_index:
            edge_index[key] = len(edge_rows)
            edge_rows.append([])
        edge_rows[edge_index[key]].append(features)
    rows = np.vstack([reference_aggregate(r) for r in edge_rows])
    return tuple(node_index), tuple(edge_index), rows


def reference_betweenness(adj):
    """Brandes accumulation with numpy float64 scalars for every count."""
    n = len(adj)
    centrality = np.zeros(n)
    for source in range(n):
        stack = []
        preds = [[] for _ in range(n)]
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
    return centrality / 2.0


def loop_betweenness(adj):
    """One breadth-first search and Brandes accumulation per source, on
    Python floats: neighbours in set order, the queue doubling as the stack."""
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
    return np.array(centrality) / 2.0


def nx_adjacency(graph):
    return [set(graph.neighbors(v)) for v in range(graph.number_of_nodes())]


def extract_like_adjacencies():
    """Graphs sized like a skewed extract: many small, some 35-node, a few 240-node."""
    adjs = []
    for k, (lo, hi, count) in enumerate(((4, 12, 48), (35, 35, 10), (240, 240, 3))):
        spec = SynthSpec(class_sizes=(count - count // 2, count // 2), delta=1.0,
                         min_nodes=lo, max_nodes=hi, max_flows_per_edge=1)
        adjs += [_undirected_adjacency(build_flow_graph(sample))
                 for sample in synth_generate(spec, seed=10 + k).samples]
    return adjs


def odd_adjacencies():
    star = nx.star_graph(499)
    star.add_edges_from([(1, 2), (3, 4), (5, 400), (17, 250), (250, 251)])
    pieces = nx.disjoint_union_all([nx.path_graph(5), nx.empty_graph(3), nx.cycle_graph(6),
                                    nx.complete_graph(4), nx.empty_graph(1)])
    loops_only = SampleFlows("loops", (FlowRecord("a", "a", (1.0,)),
                                       FlowRecord("b", "b", (2.0,))), None)
    return [nx_adjacency(star), nx_adjacency(pieces),
            _undirected_adjacency(build_flow_graph(loops_only))]


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def flow_columns(draw, k):
    """One feature column of k cells: free, constant or a few ulps wide."""
    kind = draw(st.sampled_from(("free", "constant", "near_constant")))
    if kind == "free":
        return draw(st.lists(finite, min_size=k, max_size=k))
    base = draw(finite)
    if kind == "constant":
        return [base] * k
    up = float(np.nextafter(base, np.inf))
    return [up if bump else base for bump in draw(st.lists(st.booleans(), min_size=k, max_size=k))]


@st.composite
def flow_samples(draw):
    """Few endpoints, so pairs repeat; self-loops and one-flow edges occur."""
    hosts = draw(st.integers(1, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, hosts - 1), st.integers(0, hosts - 1)),
                          min_size=1, max_size=40))
    d = draw(st.integers(1, 4))
    columns = [draw(flow_columns(len(pairs))) for _ in range(d)]
    flows = tuple(FlowRecord(f"h{s}", f"h{t}", tuple(row))
                  for (s, t), row in zip(pairs, zip(*columns)))
    return SampleFlows("s", flows, None)


def aggregate_oracle(matrix):
    cols = list(zip(*matrix))
    stats = [moments_oracle(list(c)) for c in cols]
    out = []
    for stat_index in range(5):
        out.extend(s[stat_index] for s in stats)
    return np.array(out)


class TestAggregateEdgeFeatures:
    def test_single_flow(self):
        out = aggregate_edge_features(np.array([[5.0]]))
        assert np.array_equal(out, [5.0, 5.0, 0.0, 0.0, 0.0])

    def test_two_values_hand_computed(self):
        out = aggregate_edge_features(np.array([[1.0], [3.0]]))
        assert np.allclose(out, [2.0, 2.0, 1.0, 0.0, -2.0], atol=1e-12)

    def test_four_values_hand_computed(self):
        out = aggregate_edge_features(np.array([[1.0], [2.0], [3.0], [4.0]]))
        assert out[1] == pytest.approx(2.5)
        assert out[2] == pytest.approx(math.sqrt(1.25))
        assert out[3] == pytest.approx(0.0, abs=1e-12)
        assert out[4] == pytest.approx(-1.36, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            aggregate_edge_features(np.zeros((0, 3)))

    def test_matches_oracle_random(self, rng):
        for _ in range(300):
            k = int(rng.integers(1, 51))
            d = int(rng.integers(1, 11))
            matrix = rng.normal(scale=10.0, size=(k, d))
            if rng.random() < 0.3:
                matrix[:, 0] = 3.25  # constant column fallback path
            got = aggregate_edge_features(matrix)
            want = aggregate_oracle(matrix.tolist())
            np.testing.assert_allclose(got, want, atol=1e-10, rtol=1e-10)

    @given(st.lists(
        st.lists(st.floats(min_value=-1e6, max_value=1e6,
                           allow_nan=False, allow_infinity=False),
                 min_size=2, max_size=2),
        min_size=1, max_size=30,
    ))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_oracle(self, rows):
        got = aggregate_edge_features(np.array(rows))
        want = aggregate_oracle(rows)
        np.testing.assert_allclose(got, want, atol=1e-6, rtol=1e-9)

    @given(st.integers(1, 60).flatmap(
        lambda k: st.lists(flow_columns(k), min_size=1, max_size=5)))
    @settings(max_examples=200, deadline=None)
    def test_bit_exact_against_numpy_reference(self, columns):
        # C order: numpy sums an axis-0 mean row by row only when rows are contiguous
        matrix = np.ascontiguousarray(np.array(columns).T)
        got = aggregate_edge_features(matrix).tobytes()
        assert got == reference_aggregate(matrix).tobytes()
        assert got == aggregate_edge_features(np.asfortranarray(matrix)).tobytes()

    @pytest.mark.parametrize("column", [
        [-0.0], [-0.0, -0.0], [-0.0, -0.0, 1.0], [0.0, -0.0, -0.0, 2.0], [-0.0, 0.0],
    ])
    def test_signed_zeros_match_numpy(self, column):
        matrix = np.column_stack([column, column])
        got = aggregate_edge_features(matrix).tobytes()
        assert got == reference_aggregate(matrix).tobytes()

    def test_always_finite_even_near_constant(self):
        out = aggregate_edge_features(np.array([[0.1], [0.1], [0.1]]))
        assert np.array_equal(out[2:], [0.0, 0.0, 0.0])
        out2 = aggregate_edge_features(np.array([[1.0], [1.0 + 1e-15]]))
        assert np.all(np.isfinite(out2))


class TestBuildFlowGraph:
    def test_merges_repeated_pairs(self):
        sample = SampleFlows("s", (
            FlowRecord("A", "B", (1.0,)),
            FlowRecord("A", "B", (3.0,)),
            FlowRecord("B", "C", (5.0,)),
        ), None)
        graph = build_flow_graph(sample)
        assert graph.nodes == ("A", "B", "C")
        assert graph.edges == ((0, 1), (1, 2))
        assert np.allclose(graph.edge_features[0], [2.0, 2.0, 1.0, 0.0, -2.0])
        assert np.allclose(graph.edge_features[1], [5.0, 5.0, 0.0, 0.0, 0.0])

    def test_self_loop(self):
        sample = SampleFlows("s", (FlowRecord("A", "A", (2.0,)),), None)
        graph = build_flow_graph(sample)
        assert graph.num_nodes == 1
        assert graph.edges == ((0, 0),)

    @given(flow_samples())
    @settings(max_examples=200, deadline=None)
    def test_edge_rows_bit_exact(self, sample):
        graph = build_flow_graph(sample)
        nodes, edges, rows = reference_edge_rows(sample)
        assert graph.nodes == nodes
        assert graph.edges == edges
        assert graph.edge_features.tobytes() == rows.tobytes()
        table = sample.flows
        for i, (s, t) in enumerate(graph.edges):
            pair = (graph.nodes[s], graph.nodes[t])
            on_pair = np.array([ends == pair for ends in zip(table.src_ips, table.dst_ips)])
            flows = table.features[on_pair]
            assert graph.edge_features[i].tobytes() == aggregate_edge_features(flows).tobytes()

    def test_flow_order_invariance(self, rng):
        pairs = [("a", "b"), ("b", "c"), ("a", "b"), ("c", "a"), ("b", "c"), ("a", "b")]
        sample = make_sample(pairs, d=3, seed=5)
        base = build_flow_graph(sample)
        base_map = {
            (base.nodes[s], base.nodes[t]): base.edge_features[i]
            for i, (s, t) in enumerate(base.edges)
        }
        for _ in range(10):
            flows = sample.flows
            perm = rng.permutation(len(flows))
            shuffled = SampleFlows("s0", FlowTable(tuple(flows.src_ips[i] for i in perm),
                                                   tuple(flows.dst_ips[i] for i in perm),
                                                   flows.features[perm]), None)
            other = build_flow_graph(shuffled)
            assert set(other.nodes) == set(base.nodes)
            other_map = {
                (other.nodes[s], other.nodes[t]): other.edge_features[i]
                for i, (s, t) in enumerate(other.edges)
            }
            assert set(other_map) == set(base_map)
            for key in base_map:
                np.testing.assert_allclose(other_map[key], base_map[key], atol=1e-12)

    def test_size_bounds(self, rng):
        for seed in range(20):
            sample = make_sample(
                [(f"h{rng.integers(4)}", f"h{rng.integers(4)}") for _ in range(6)],
                seed=seed,
            )
            graph = build_flow_graph(sample)
            assert graph.num_edges <= len(sample.flows)
            assert graph.num_nodes <= 2 * len(sample.flows)


def to_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_nodes))
    for s, t in graph.edges:
        if s != t:
            g.add_edge(s, t)
    return g


class TestStructuralFeatures:
    def test_triangle_graph(self):
        graph = make_graph([(0, 1), (1, 2), (2, 0)])
        feats = structural_features(graph)
        assert feats.values[0] == pytest.approx(1.0)  # global clustering
        degree_block = feats.values[2:2 + 8]
        assert degree_block[0] == pytest.approx(2.0)  # mean degree

    def test_star_graph(self):
        graph = make_graph([(0, 1), (0, 2), (0, 3)])
        feats = structural_features(graph)
        assert feats.values[0] == pytest.approx(0.0)
        assert feats.values[1] == pytest.approx(-1.0)  # assortativity
        assert feats.values[2] == pytest.approx(1.5)  # mean degree

    def test_vector_length_and_names(self):
        graph = make_graph([(0, 1)])
        feats = structural_features(graph)
        assert len(feats.values) == STRUCTURAL_DIM == 42
        assert len(feats.names) == 42
        assert feats.names[0] == "global_clustering_coefficient"

    def test_self_loop_only_graph(self):
        graph = make_graph([(0, 0)])
        feats = structural_features(graph)
        assert np.all(np.isfinite(feats.values))
        assert feats.values[0] == 0.0

    def test_against_networkx(self, rng):
        for seed in range(25):
            graph = random_connected_graph(np.random.default_rng(seed), n_nodes=7)
            nxg = to_networkx(graph)
            feats = structural_features(graph)
            # globals
            expected_cc = nx.transitivity(nxg)
            assert feats.values[0] == pytest.approx(expected_cc, abs=1e-9)
            if nxg.number_of_edges() > 0:
                expected_assort = nx.degree_assortativity_coefficient(nxg)
                if not math.isnan(expected_assort):
                    assert feats.values[1] == pytest.approx(expected_assort, abs=1e-9)
            # locals, recomputed per node with networkx as the oracle
            degree = [nxg.degree(v) for v in range(graph.num_nodes)]
            clustering = nx.clustering(nxg)
            betweenness = nx.betweenness_centrality(nxg, normalized=False)
            two_hop = []
            ego_edges = []
            ego_boundary = []
            for v in range(graph.num_nodes):
                lengths = nx.single_source_shortest_path_length(nxg, v, cutoff=2)
                two_hop.append(sum(1 for dist in lengths.values() if dist == 2))
                ego = nx.ego_graph(nxg, v, radius=1)
                ego_edges.append(ego.number_of_edges())
                ego_boundary.append(sum(
                    1 for a, b in nxg.edges
                    if (a in ego) != (b in ego)
                ))
            neigh_deg = [
                np.mean([degree[u] for u in nxg.neighbors(v)]) if degree[v] else 0.0
                for v in range(graph.num_nodes)
            ]
            neigh_clust = [
                np.mean([clustering[u] for u in nxg.neighbors(v)]) if degree[v] else 0.0
                for v in range(graph.num_nodes)
            ]
            oracle_locals = np.column_stack([
                degree, two_hop,
                [clustering[v] for v in range(graph.num_nodes)],
                neigh_deg, neigh_clust, ego_edges, ego_boundary,
                [betweenness[v] for v in range(graph.num_nodes)],
            ])
            expected = aggregate_edge_features(oracle_locals)
            np.testing.assert_allclose(feats.values[2:], expected, atol=1e-9)

    def test_betweenness_bit_exact_against_numpy_scalars(self):
        adjs = []
        sizes = ((4, 12, 8), (35, 35, 3), (240, 240, 2))
        for k, (lo, hi, count) in enumerate(sizes):
            spec = SynthSpec(class_sizes=(count - count // 2, count // 2),
                             min_nodes=lo, max_nodes=hi)
            adjs += [_undirected_adjacency(build_flow_graph(sample))
                     for sample in synth_generate(spec, seed=k).samples]
        # many shortest paths per pair, so path counts and dependencies are
        # not whole numbers and their rounding shows
        others = [nx.convert_node_labels_to_integers(nx.grid_2d_graph(7, 9)),
                  nx.gnp_random_graph(60, 0.1, seed=3), nx.gnp_random_graph(120, 0.05, seed=4)]
        adjs += [[set(g.neighbors(v)) for v in range(g.number_of_nodes())] for g in others]
        for adj in adjs:
            assert np.array_equal(_betweenness(adj), reference_betweenness(adj))

    @pytest.mark.parametrize("kind", ["extract_like", "gnp", "grid", "odd"])
    def test_betweenness_bit_exact_against_loop(self, kind):
        if kind == "extract_like":
            adjs = extract_like_adjacencies()
        elif kind == "gnp":
            g = np.random.default_rng(2)
            adjs = [nx_adjacency(nx.gnp_random_graph(int(g.integers(2, 71)),
                                                     float(g.uniform(0.02, 0.5)), seed=i))
                    for i in range(100)]
        elif kind == "grid":
            adjs = [nx_adjacency(nx.convert_node_labels_to_integers(nx.grid_2d_graph(7, 9)))]
        else:
            adjs = odd_adjacencies()
        for adj in adjs:
            assert _betweenness(adj).tobytes() == loop_betweenness(adj).tobytes()

    def test_neighbor_means_bit_exact_against_np_mean(self):
        g = np.random.default_rng(4)
        adjs = extract_like_adjacencies() + odd_adjacencies() + [
            nx_adjacency(nx.star_graph(999)),
            nx_adjacency(nx.gnp_random_graph(300, 0.3, seed=6))]
        for adj in adjs:
            degrees = np.array([len(a) for a in adj], dtype=np.int64)
            values = g.normal(scale=1e3, size=len(adj)) ** 3
            want = np.array([float(np.mean([values[u] for u in neigh])) if neigh else 0.0
                             for neigh in adj])
            assert _neighbor_means(adj, degrees, values).tobytes() == want.tobytes()

    def test_betweenness_bit_exact_across_source_blocks(self, monkeypatch):
        adjs = [nx_adjacency(nx.convert_node_labels_to_integers(nx.grid_2d_graph(7, 9))),
                nx_adjacency(nx.gnp_random_graph(40, 0.15, seed=5))] + odd_adjacencies()[:2]
        # one source per block, except blocks of three for the 19-node
        # disjoint union, whose last block is short
        monkeypatch.setattr(graphs, "BETWEENNESS_BLOCK_CELLS", 200)
        for adj in adjs:
            assert len(adj) > max(1, 200 // (len(adj) + sum(map(len, adj))))
            assert _betweenness(adj).tobytes() == loop_betweenness(adj).tobytes()

    def test_relabeling_equivariance(self, rng):
        from .conftest import permute_graph

        for seed in range(10):
            graph = random_connected_graph(np.random.default_rng(seed))
            permuted = permute_graph(graph, rng)
            a = structural_features(graph).values
            b = structural_features(permuted).values
            np.testing.assert_allclose(a, b, atol=1e-9)


class TestSampleFeatureSets:
    def test_flow_aggregate_single_flow(self):
        sample = SampleFlows("s", (FlowRecord("a", "b", (7.0, -2.0)),), None)
        out = flow_aggregate_features(sample)
        assert np.array_equal(out, [7.0, -2.0, 7.0, -2.0, 0, 0, 0, 0, 0, 0])

    def test_flow_aggregate_equals_stacked_matrix(self):
        records = (FlowRecord("a", "b", (1.0, 2.0, 3.0, 4.0)),
                   FlowRecord("b", "c", (0.5, -1.0, 2.5, 8.0)))
        sample = SampleFlows("s", records, None)
        stacked = np.array([r.features for r in records])
        np.testing.assert_array_equal(
            flow_aggregate_features(sample), aggregate_edge_features(stacked)
        )

    def test_combined_layout(self):
        sample = make_sample([("a", "b"), ("b", "c")], d=4, seed=3)
        graph = build_flow_graph(sample)
        combined = combined_features(sample, graph)
        flow = flow_aggregate_features(sample)
        assert len(combined) == 5 * 4 + 42
        np.testing.assert_array_equal(combined[:20], flow)
        np.testing.assert_array_equal(combined[20:], structural_features(graph).values)

    def test_no_columns_dropped_here(self):
        # constant-column removal is a downstream training concern
        sample = SampleFlows("s", (
            FlowRecord("a", "b", (1.0, 5.0)),
            FlowRecord("b", "c", (1.0, 6.0)),
        ), None)
        out = flow_aggregate_features(sample)
        assert len(out) == 10  # width preserved despite the constant column


class TestGraphJsonl:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        graphs = [
            random_connected_graph(rng, gid=f"g{i}",
                                   labels=LabelTriple(i % 2, i % 3, None))
            for i in range(20)
        ]
        graphs[0] = make_graph([(0, 1)], seed=9, gid="tiny", labels=None)
        path = tmp_path / "graphs.jsonl"
        write_graphs_jsonl(graphs, path)
        loaded = read_graphs_jsonl(path)
        assert len(loaded) == len(graphs)
        for a, b in zip(loaded, graphs):
            assert a.sample_id == b.sample_id
            assert a.nodes == b.nodes
            assert a.edges == b.edges
            assert a.labels == b.labels
            assert a.feature_names == b.feature_names
            assert np.array_equal(a.edge_features, b.edge_features)

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: rec["edges"].__setitem__(0, [-1, 1]), "edge index"),
        (lambda rec: rec["edges"].__setitem__(0, [0, 2]), "edge index"),
        (lambda rec: rec["x"].pop(), "feature rows"),
        (lambda rec: rec["x"][0].pop(), "feature rows are not a numeric matrix"),
        (lambda rec: [row.pop() for row in rec["x"]],
         r"shape \(2, 3\), expected 2 edges by 4 feature names"),
        (lambda rec: rec["feature_names"].pop(),
         r"shape \(2, 4\), expected 2 edges by 3 feature names"),
        (lambda rec: rec["labels"].__setitem__("binary", 2), "binary label 2 is not 0 or 1"),
        (lambda rec: rec["labels"].__setitem__("binary", 0.9), "binary label 0.9"),
        (lambda rec: rec["labels"].__setitem__("family", -1), "family label -1"),
        (lambda rec: rec["labels"].pop("category"), "category label None"),
        (lambda rec: rec.__setitem__("labels", [1, 0]), "labels must be an object, not list"),
        (lambda rec: rec.__setitem__("labels", "benign"), "labels must be an object, not 'benign'"),
    ], ids=["negative_index", "index_past_nodes", "short_x", "ragged_row", "narrow_x",
            "short_names", "binary_2", "binary_fraction", "negative_family", "no_category",
            "labels_list", "labels_string"])
    def test_malformed_record_rejected(self, tmp_path, edit, message):
        path = tmp_path / "graphs.jsonl"
        write_graphs_jsonl([make_graph([(0, 1), (1, 0)], gid="bad")], path)
        rec = json.loads(path.read_text())
        edit(rec)
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(FlowDataError, match=f"'bad'.*{message}"):
            read_graphs_jsonl(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line[:20], "not JSON"),
        (lambda line: "[1, 2]", "a graph record is a JSON object, not list"),
        (lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "nodes"}),
         "graph 'bad': nodes is missing"),
        (lambda line: json.dumps({**json.loads(line), "edges": [[0]]}),
         "graph 'bad': edges must be [source, target] index pairs"),
    ], ids=["invalid_json", "json_array", "no_nodes", "edge_not_pair"])
    def test_bad_line_named_by_file_and_line(self, tmp_path, edit, message):
        path = tmp_path / "graphs.jsonl"
        write_graphs_jsonl([make_graph([(0, 1)], gid=gid) for gid in ("a", "bad")], path)
        first, second = path.read_text().splitlines()
        path.write_text(f"{first}\n{edit(second)}\n")
        with pytest.raises(FlowDataError, match=re.escape(f"{path}: line 2: {message}")):
            read_graphs_jsonl(path)

    @pytest.mark.parametrize("key, value, message", [
        ("nodes", 3, "graph 'bad': nodes must be an array, not 3"),
        ("feature_names", 4, "graph 'bad': feature_names must be an array, not 4"),
        ("id", ["bad"], "graph ['bad']: id must be a string or an integer, not list"),
    ], ids=["nodes_number", "feature_names_number", "id_list"])
    def test_field_type_named_by_file_and_line(self, tmp_path, key, value, message):
        path = tmp_path / "graphs.jsonl"
        write_graphs_jsonl([make_graph([(0, 1)], gid=gid) for gid in ("a", "bad")], path)
        first, second = path.read_text().splitlines()
        path.write_text(f"{first}\n{json.dumps({**json.loads(second), key: value})}\n")
        with pytest.raises(FlowDataError, match=re.escape(f"{path}: line 2: {message}")):
            read_graphs_jsonl(path)

    def test_repeated_id_rejected(self, tmp_path):
        path = tmp_path / "graphs.jsonl"
        write_graphs_jsonl([make_graph([(0, 1)], gid=gid) for gid in ("a", "b")], path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, lines[0]]) + "\n")
        with pytest.raises(FlowDataError, match="sample id 'a' appears more than once"):
            read_graphs_jsonl(path)

    def test_ids_equal_as_text_rejected(self, tmp_path):
        path = tmp_path / "graphs.jsonl"
        write_graphs_jsonl([make_graph([(0, 1)], gid=gid) for gid in (1, "1")], path)
        with pytest.raises(FlowDataError,
                           match=re.escape(f"{path}: sample id '1' appears more than once")):
            read_graphs_jsonl(path)

    def test_mixed_feature_widths_rejected(self, tmp_path):
        path = tmp_path / "graphs.jsonl"
        write_graphs_jsonl([make_graph([(0, 1)], gid="four"),
                            make_graph([(0, 1)], d=3, gid="three")], path)
        with pytest.raises(InconsistentDimension,
                           match="'three': feature names differ from those of graph 'four'"):
            read_graphs_jsonl(path)
