import numpy as np
import pytest

from flowgnn import model as model_module
from flowgnn.errors import EmptyGraph, FlowDataError, NumericalError, ShapeMismatch
from flowgnn.graphs import FlowGraph
from flowgnn.model import (
    POOLS,
    FlowGraphNetwork,
    eval_block_bounds,
    make_batch,
    prepare_graph,
    propagation_matrices,
)
from flowgnn.nn import Adam, Tensor, finite_difference_check
from flowgnn.training import TrainConfig, build_model

from .conftest import incidence_dense, make_graph, permute_graph, random_connected_graph


def degree_oracle(graph):
    deg = {}
    for s, t in graph.edges:
        deg[s] = deg.get(s, 0) + 1
        if t != s:
            deg[t] = deg.get(t, 0) + 1
    return deg


class TestPropagationMatrices:
    def test_single_edge_weight_half(self):
        graph = make_graph([(0, 1)])
        prop = propagation_matrices(graph)
        assert prop.weights[0] == pytest.approx(0.5)
        b_in, b_out = incidence_dense(prop, prop.dst), incidence_dense(prop, prop.src)
        assert b_in[1, 0] == pytest.approx(0.5) and b_in[0, 0] == 0.0
        assert b_out[0, 0] == pytest.approx(0.5) and b_out[1, 0] == 0.0

    def test_self_loop_only(self):
        graph = make_graph([(0, 0)])
        prop = propagation_matrices(graph)
        assert prop.weights[0] == pytest.approx(0.5)
        assert incidence_dense(prop, prop.dst)[0, 0] == pytest.approx(0.5)
        assert incidence_dense(prop, prop.src)[0, 0] == pytest.approx(0.5)

    def test_three_node_path(self):
        graph = make_graph([(0, 1), (1, 2)])
        prop = propagation_matrices(graph)
        assert prop.weights[0] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)
        assert prop.weights[1] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)

    def test_closed_form_on_random_graphs(self, rng):
        for seed in range(100):
            graph = random_connected_graph(np.random.default_rng(seed))
            prop = propagation_matrices(graph)
            deg = degree_oracle(graph)
            for e, (s, t) in enumerate(graph.edges):
                expected = 1.0 / np.sqrt((deg[s] + 1.0) * (deg[t] + 1.0))
                assert prop.weights[e] == pytest.approx(expected, abs=1e-12)

    def test_sparsity_matches_incidence(self, rng):
        graph = random_connected_graph(rng)
        prop = propagation_matrices(graph)
        b_in, b_out = incidence_dense(prop, prop.dst), incidence_dense(prop, prop.src)
        for e, (s, t) in enumerate(graph.edges):
            assert b_out[s, e] > 0.0 and b_in[t, e] > 0.0
        assert np.count_nonzero(b_in) == graph.num_edges
        assert np.count_nonzero(b_out) == graph.num_edges
        assert np.all(prop.weights > 0.0)

    def test_empty_graph_rejected(self):
        graph = FlowGraph("empty", ("a",), (), np.zeros((0, 2)), ("c0", "c1"), None)
        with pytest.raises(EmptyGraph):
            propagation_matrices(graph)

    @pytest.mark.parametrize("bad_edge", [(-1, 1), (0, 3)], ids=["negative", "past_nodes"])
    def test_out_of_range_edge_rejected_before_batching(self, bad_edge):
        nodes = ("a", "b", "c")
        first = FlowGraph("first", nodes, ((0, 1), (1, 2)), np.ones((2, 2)), ("c0", "c1"), None)
        second = FlowGraph("second", nodes, ((0, 2), bad_edge), np.ones((2, 2)),
                           ("c0", "c1"), None)
        prepared = prepare_graph(first)
        with pytest.raises(FlowDataError, match="'second'.*edge index"):
            make_batch([prepared, prepare_graph(second)])

    def test_degrees_count_self_loops_once(self):
        graph = make_graph([(0, 0), (0, 1), (1, 2), (2, 1)])
        prop = propagation_matrices(graph)
        d_tilde = np.array([3.0, 4.0, 3.0])
        want = 1.0 / np.sqrt(d_tilde[prop.src] * d_tilde[prop.dst])
        assert prop.weights.tobytes() == want.tobytes()


def build(variant, in_dim=4, h=5, layers=1, seed=0, num_classes=3, pool="mean",
          dropout_p=0.0, **kwargs):
    return FlowGraphNetwork(
        variant, in_dim=in_dim, num_hidden=h, num_layers=layers,
        rng=np.random.default_rng(seed), num_classes=num_classes, pool=pool,
        dropout_p=dropout_p, **kwargs,
    )


class TestEncode:
    def test_single_edge_message_structure(self):
        # one edge u -> v, weight 0.5: with f1 = identity, the node update
        # input is [incoming | outgoing] = u: [0, 0.5 x], v: [0.5 x, 0]
        graph = make_graph([(0, 1)], d=3, seed=1)
        x = graph.edge_features
        model = build("clf", in_dim=3, h=3)
        for blk in (model.f1, model.f2):
            blk.bn, blk.activation = None, False
        model.f1.dense.W.data = np.eye(3)
        model.f1.dense.b.data = np.zeros((1, 3))
        batch = make_batch([prepare_graph(graph)])
        enc = model.encode(batch)
        assert np.allclose(enc["e0"].data, x)
        prop = propagation_matrices(graph)
        msg_in = incidence_dense(prop, prop.dst) @ x
        msg_out = incidence_dense(prop, prop.src) @ x
        assert np.allclose(msg_in[0], 0.0) and np.allclose(msg_in[1], 0.5 * x[0])
        assert np.allclose(msg_out[0], 0.5 * x[0]) and np.allclose(msg_out[1], 0.0)
        # h0 equals f2 applied to that concatenation
        stacked = np.concatenate([msg_in, msg_out], axis=1)
        expected_h0 = stacked @ model.f2.dense.W.data + model.f2.dense.b.data
        assert np.allclose(enc["h0"].data, expected_h0)

    def test_intermediate_shapes(self, rng):
        graph = random_connected_graph(rng)
        batch = make_batch([prepare_graph(graph)])
        for layers in (1, 2):
            model = build("ae", layers=layers)
            enc = model.encode(batch)
            m, n = graph.num_edges, graph.num_nodes
            assert enc["e0"].shape == (m, 5)
            assert enc["h0"].shape == (n, 5)
            if layers == 2:
                assert enc["e1"].shape == (m, 5)
                assert enc["h1"].shape == (n, 5)
            assert enc["h_final"].shape == (n, 5)
            x_hat = model.decode(batch, enc)
            assert x_hat.shape == batch.x.shape

    def test_zero_features_zero_biases_give_zero(self):
        graph = make_graph([(0, 1), (1, 2)], d=4, seed=2)
        zeroed = FlowGraph(graph.sample_id, graph.nodes, graph.edges,
                           np.zeros_like(graph.edge_features),
                           graph.feature_names, graph.labels)
        model = build("clf")
        model.f1.bn = model.f2.bn = None
        batch = make_batch([prepare_graph(zeroed)])
        enc = model.encode(batch)
        assert np.allclose(enc["h_final"].data, 0.0)

    def test_width_mismatch_rejected(self, rng):
        graph = random_connected_graph(rng, d=3)
        model = build("clf", in_dim=4)
        with pytest.raises(ShapeMismatch):
            model.encode(make_batch([prepare_graph(graph)]))


class TestHeads:
    @pytest.mark.parametrize("variant", ["clf", "ae", "oc"])
    def test_each_head_refuses_the_others(self, variant, rng):
        model = build(variant)
        assert model.role == variant
        batch = make_batch([prepare_graph(random_connected_graph(rng, gid=f"g{i}"))
                            for i in range(3)])
        calls = {"clf": [model.logits, model.predict_proba],
                 "ae": [lambda b: model.decode(b, model.encode(b))],
                 "oc": [model.init_center]}
        for role, fns in calls.items():
            for fn in fns:
                if role != variant:
                    with pytest.raises(ValueError, match=f"only defined for the {role} head"):
                        fn(batch)
        if variant == "clf":
            with pytest.raises(ValueError, match="ae and oc heads"):
                model.anomaly_scores(batch)

    def test_mean_vs_add_pool_factor(self):
        graph = make_graph([(0, 1)], d=4, seed=3)
        batch = make_batch([prepare_graph(graph)])
        mean_model = build("oc", pool="mean", seed=5)
        add_model = build("oc", pool="add", seed=5)
        pooled_mean = mean_model.pooled(batch).data
        pooled_add = add_model.pooled(batch).data
        assert np.allclose(pooled_add, 2.0 * pooled_mean)  # n = 2 nodes

    def test_classifier_probabilities(self, rng):
        graphs = [random_connected_graph(rng, gid=f"g{i}") for i in range(4)]
        model = build("clf")
        batch = make_batch([prepare_graph(g) for g in graphs])
        proba = model.predict_proba(batch)
        assert proba.shape == (4, 3)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)

    def test_ae_loss_hand_value(self):
        # Xhat = X + 1 on a 1-edge, 2-feature graph: loss = 2 / 1 = 2
        graph = make_graph([(0, 1)], d=2, seed=4)
        batch = make_batch([prepare_graph(graph)])
        assert _ae_loss_with_reconstruction(None, batch, batch.x + 1.0) == pytest.approx(2.0)

    def test_ae_loss_perfect_reconstruction_zero(self):
        graph = make_graph([(0, 1)], d=2, seed=4)
        model = build("ae", in_dim=2)
        batch = make_batch([prepare_graph(graph)])
        assert _ae_loss_with_reconstruction(model, batch, batch.x.copy()) == pytest.approx(0.0)

    def test_ae_loss_nonnegative_and_matches_direct_form(self, rng):
        graphs = [random_connected_graph(rng, gid=f"g{i}") for i in range(3)]
        model = build("ae")
        batch = make_batch([prepare_graph(g) for g in graphs])
        loss = model.ae_loss(batch, mode="eval").item()
        assert loss >= 0.0
        x_hat = model.decode(batch, model.encode(batch)).data
        assert loss == pytest.approx(
            _ae_loss_with_reconstruction(model, batch, x_hat), abs=1e-12
        )

    def test_oc_loss_hand_values(self):
        graph = make_graph([(0, 1)], d=4, seed=6)
        model = build("oc", weight_decay=0.0)
        batch = make_batch([prepare_graph(graph)])
        pooled = model.pooled(batch).data
        model.center = pooled.copy()
        assert model.oc_loss(batch, mode="eval").item() == pytest.approx(0.0, abs=1e-15)
        model.center = pooled.copy()
        model.center[0, 0] -= 2.0  # distance 2 in one coordinate
        assert model.oc_loss(batch, mode="eval").item() == pytest.approx(4.0, abs=1e-9)

    def test_oc_l2_term_identity_weight(self):
        graph = make_graph([(0, 1)], d=4, seed=6)
        model = build("oc", weight_decay=1.0)
        batch = make_batch([prepare_graph(graph)])
        model.center = model.pooled(batch).data.copy()
        # zero all weights except one 2x2 identity block
        for w in model.weight_matrices():
            w.data = np.zeros_like(w.data)
        model.f1.dense.W.data[:2, :2] = np.eye(2)
        # embeddings collapse to zero once weights are zeroed, so recompute center
        model.center = model.pooled(batch).data.copy()
        loss = model.loss(batch, mode="eval").item()
        assert loss == pytest.approx(1.0, abs=1e-12)  # (1/2) * ||I_2||_F^2

    def test_oc_center_contract(self, rng):
        graphs = [random_connected_graph(rng, gid=f"g{i}") for i in range(5)]
        model = build("oc")
        batch = make_batch([prepare_graph(g) for g in graphs])
        center = model.init_center(batch)
        pooled = model.pooled(batch).data
        assert np.allclose(center, pooled.mean(axis=0), atol=1e-12)
        frozen = model.center.copy()
        optimizer = Adam(model.parameters(), lr=1e-2)
        g = np.random.default_rng(0)
        for _ in range(10):
            loss = model.loss(batch, mode="train", rng=g)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert np.array_equal(model.center, frozen)  # bitwise frozen

    def test_oc_single_graph_center(self, rng):
        graph = random_connected_graph(rng)
        model = build("oc")
        batch = make_batch([prepare_graph(graph)])
        center = model.init_center(batch)
        assert np.allclose(center, model.pooled(batch).data[0])

    def test_oc_inventory_bias_free(self):
        model = build("oc", layers=2)
        names = [p.name for p in model.parameters()]
        assert all(not n.endswith(".b") and not n.endswith(".beta") for n in names)
        clf = build("clf", layers=2)
        clf_names = [p.name for p in clf.parameters()]
        assert any(n.endswith(".b") for n in clf_names)
        assert any(n.endswith(".beta") for n in clf_names)

    def test_anomaly_score_zero_cases(self, rng):
        graph = random_connected_graph(rng)
        batch = make_batch([prepare_graph(graph)])
        oc = build("oc")
        oc.center = oc.pooled(batch).data.copy()
        assert oc.anomaly_scores(batch)[0] == pytest.approx(0.0, abs=1e-15)


    @pytest.mark.parametrize("layers", [1, 2])
    def test_ae_score_is_each_graphs_mean_squared_error_over_edges(self, rng, layers):
        graphs = [random_connected_graph(rng, n_nodes=n, gid=f"g{n}", min_edges=n)
                  for n in (3, 5, 8)]
        prepared = [prepare_graph(g) for g in graphs]
        assert len({len(p.x) for p in prepared}) == 3  # edge counts differ
        model = build("ae", layers=layers)
        expected = []
        for p in prepared:  # one graph per forward pass, its error summed by hand
            alone = make_batch([p])
            x_hat = model.decode(alone, model.encode(alone)).data
            expected.append(((p.x - x_hat) ** 2).sum() / len(p.x))
        np.testing.assert_allclose(model.anomaly_scores(make_batch(prepared)), expected,
                                   rtol=1e-9)

def _ae_loss_with_reconstruction(model, batch, x_hat):
    """ae_loss value given a forced reconstruction matrix."""
    per_graph = []
    ends = batch.edge_offsets
    for lo, hi in zip(ends, ends[1:]):
        per_graph.append(((batch.x[lo:hi] - x_hat[lo:hi]) ** 2).sum() / (hi - lo))
    return float(np.mean(per_graph))


class TestGradients:
    @pytest.mark.parametrize("variant", ["clf", "ae", "oc"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_full_model_gradients(self, variant, layers):
        g = np.random.default_rng(layers * 10 + hash(variant) % 100)
        graphs = [random_connected_graph(np.random.default_rng(s), min_edges=2,
                                         gid=f"g{s}") for s in range(3)]
        model = build(variant, layers=layers, seed=11)
        batch = make_batch([prepare_graph(gr) for gr in graphs])
        targets = np.array([0, 1, 2]) if variant == "clf" else None
        if variant == "oc":
            model.init_center(batch)

        def f():
            return model.loss(batch, targets, mode="train", rng=None)

        report = finite_difference_check(f, model.parameters(), h=1e-5, tol=1e-4,
                                         rng=g, coords_per_param=5)
        assert report.passed, (variant, layers, report.max_rel_error)


class TestPermutationInvariance:
    @pytest.mark.parametrize("pool", ["mean", "add", "max"])
    def test_logits_invariant(self, pool, rng):
        model = build("clf", layers=2, pool=pool)
        for seed in range(10):
            graph = random_connected_graph(np.random.default_rng(seed))
            permuted = permute_graph(graph, rng)
            a = model.logits(make_batch([prepare_graph(graph)])).data
            b = model.logits(make_batch([prepare_graph(permuted)])).data
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_ae_and_oc_outputs_invariant(self, rng):
        ae = build("ae", layers=2)
        oc = build("oc", layers=1)
        for seed in range(10):
            graph = random_connected_graph(np.random.default_rng(seed + 50))
            batch = make_batch([prepare_graph(graph)])
            oc.center = oc.pooled(batch).data.copy()
            permuted = permute_graph(graph, rng)
            pbatch = make_batch([prepare_graph(permuted)])
            assert ae.ae_loss(batch, mode="eval").item() == pytest.approx(
                ae.ae_loss(pbatch, mode="eval").item(), abs=1e-9)
            assert oc.oc_loss(batch, mode="eval").item() == pytest.approx(
                oc.oc_loss(pbatch, mode="eval").item(), abs=1e-9)
            assert ae.anomaly_scores(batch)[0] == pytest.approx(
                ae.anomaly_scores(pbatch)[0], abs=1e-9)
            assert oc.anomaly_scores(batch)[0] == pytest.approx(
                oc.anomaly_scores(pbatch)[0], abs=1e-9)

    def test_decoder_rows_permute_with_edges(self, rng):
        model = build("ae", layers=1)
        graph = random_connected_graph(np.random.default_rng(3))
        n = graph.num_nodes
        perm = rng.permutation(n)
        edge_order = rng.permutation(graph.num_edges)
        permuted = FlowGraph(
            graph.sample_id,
            tuple(graph.nodes[list(perm).index(i)] for i in range(n)),
            tuple((int(perm[graph.edges[e][0]]), int(perm[graph.edges[e][1]]))
                  for e in edge_order),
            graph.edge_features[edge_order],
            graph.feature_names, graph.labels,
        )
        base_batch = make_batch([prepare_graph(graph)])
        perm_batch = make_batch([prepare_graph(permuted)])
        x_base = model.decode(base_batch, model.encode(base_batch)).data
        x_perm = model.decode(perm_batch, model.encode(perm_batch)).data
        np.testing.assert_allclose(x_perm, x_base[edge_order], atol=1e-9)


class TestBatching:
    def test_block_diagonal_matches_individual(self, rng):
        graphs = [random_connected_graph(np.random.default_rng(s), gid=f"g{s}")
                  for s in range(6)]
        prepared = [prepare_graph(g) for g in graphs]
        for variant in ("clf", "ae", "oc"):
            for h in (5, 4):
                model = build(variant, h=h, layers=2, seed=3)
                if variant == "oc":
                    model.init_center(make_batch(prepared))
                big = make_batch(prepared)
                if variant == "clf":
                    batched = model.logits(big).data
                    single = np.vstack([
                        model.logits(make_batch([p])).data for p in prepared
                    ])
                else:
                    batched = model.anomaly_scores(big)
                    single = np.array([
                        model.anomaly_scores(make_batch([p]))[0] for p in prepared
                    ])
                np.testing.assert_allclose(batched, single, atol=1e-9)

    def test_batch_offsets(self, rng):
        graphs = [random_connected_graph(np.random.default_rng(s)) for s in range(3)]
        prepared = [prepare_graph(g) for g in graphs]
        batch = make_batch(prepared)
        assert batch.num_graphs == 3
        total_nodes = sum(g.num_nodes for g in graphs)
        total_edges = sum(g.num_edges for g in graphs)
        assert batch.num_nodes == total_nodes
        assert batch.x.shape[0] == total_edges
        assert batch.node_offsets.tolist() == [0] + np.cumsum(
            [g.num_nodes for g in graphs]).tolist()
        assert batch.edge_offsets[-1] == total_edges


def sized_graph(rng, num_edges, d, gid):
    """A random directed graph with exactly num_edges edges, every node touched."""
    n = int(rng.integers(3, num_edges + 1))
    edges = {(i, (i + 1) % n) for i in range(n)}
    while len(edges) < num_edges:
        a, b = rng.integers(0, n, size=2)
        edges.add((int(a), int(b)))
    return FlowGraph(gid, tuple(f"n{v}" for v in range(n)), tuple(sorted(edges)),
                     rng.normal(size=(num_edges, d)), tuple(f"c{i}" for i in range(d)), None)


class TestEvalBlocks:
    @pytest.mark.parametrize("counts, max_rows, want", [
        ([6] * 7, 12, [0, 2, 4, 7]),
        ([6] * 6, 12, [0, 2, 4, 6]),
        ([40, 1, 1, 1, 1], 10, [0, 2, 5]),
        ([3, 3, 3], 1, [0, 3]),
        ([3], 1, [0, 1]),
    ], ids=["remainder_joins_last", "even_split", "oversized_pairs_up", "two_then_one",
            "single_graph"])
    def test_block_rule(self, counts, max_rows, want):
        assert eval_block_bounds(np.cumsum([0] + counts), max_rows) == want

    def test_graphs_slice_is_a_batch_of_those_graphs(self):
        rng = np.random.default_rng(2)
        prepared = [prepare_graph(random_connected_graph(rng, gid=f"g{i}")) for i in range(6)]
        batch = make_batch(prepared)
        part, want = batch.graphs(2, 5), make_batch(prepared[2:5])
        for field in ("x", "src", "dst", "weights", "node_offsets", "edge_offsets"):
            assert np.array_equal(getattr(part, field), getattr(want, field)), field
        assert np.shares_memory(part.x, batch.x)

    @pytest.mark.parametrize("pool", POOLS)
    @pytest.mark.parametrize("h, in_dim", [(4, 5), (16, 5), (128, 5), (16, 9)])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("variant", ["clf", "ae", "oc"])
    def test_blocked_equals_unblocked(self, monkeypatch, variant, layers, h, in_dim, pool):
        graph_rng = np.random.default_rng(7)
        batch = make_batch([prepare_graph(sized_graph(graph_rng, 6, in_dim, f"g{i}"))
                            for i in range(7)])
        model = build(variant, in_dim=in_dim, h=h, layers=layers, seed=11, num_classes=2,
                      pool=pool)
        state_rng = np.random.default_rng(5)
        for bn in model.batch_norms():
            bn.running_mean = state_rng.normal(size=h)
            bn.running_var = state_rng.random(h) + 0.5
            bn.gamma.data = state_rng.normal(size=(1, h))
            if bn.beta is not None:
                bn.beta.data = state_rng.normal(size=(1, h))
        if variant == "oc":
            model.center = state_rng.normal(size=(1, h))

        def outputs():
            scores = (model.predict_proba(batch) if variant == "clf"
                      else model.anomaly_scores(batch))
            return model.embed(batch).data.tobytes(), scores.tobytes()

        # six edges per graph and room for 12 rows: blocks of 2, 2 and 2 + 1 graphs
        monkeypatch.setattr(model_module, "EVAL_BLOCK_CELLS", 12 * h)
        assert encoder_blocks(monkeypatch, lambda: model.embed(batch)) == [0, 2, 4, 7]
        blocked = outputs()
        monkeypatch.setattr(model_module, "EVAL_BLOCK_CELLS", 1 << 62)
        assert encoder_blocks(monkeypatch, lambda: model.embed(batch)) == [0, 7]
        assert blocked == outputs()

    @pytest.mark.parametrize("variant, h, in_dim", [
        ("clf", 4, 5), ("ae", 4, 5), ("oc", 4, 5), ("ae", 16, 9),
    ])
    def test_every_model_scores_in_blocks(self, monkeypatch, variant, h, in_dim):
        """Narrow hidden widths and ae decoders of any output width are
        blocked too: one encoder pass per block in embed and in scoring."""
        graph_rng = np.random.default_rng(7)
        batch = make_batch([prepare_graph(sized_graph(graph_rng, 6, in_dim, f"g{i}"))
                            for i in range(7)])
        model = build(variant, in_dim=in_dim, h=h, seed=11, num_classes=2)
        if variant == "oc":
            model.center = np.zeros((1, h))
        score = model.predict_proba if variant == "clf" else model.anomaly_scores
        monkeypatch.setattr(model_module, "EVAL_BLOCK_CELLS", 12 * h)
        assert encoder_blocks(monkeypatch, lambda: model.embed(batch)) == [0, 2, 4, 7]
        assert encoder_blocks(monkeypatch, lambda: score(batch)) == [0, 2, 4, 7]


def encoder_blocks(monkeypatch, call) -> list[int]:
    """Graph bounds of the encoder passes that call() makes, in order."""
    sizes = []
    encode = FlowGraphNetwork.encode

    def counting(self, batch, *args, **kwargs):
        sizes.append(batch.num_graphs)
        return encode(self, batch, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(FlowGraphNetwork, "encode", counting)
        call()
    return np.cumsum([0] + sizes).tolist()


def role_model(variant):
    """A two-layer model of variant with eval-time batch-norm statistics,
    and inputs for it: a batch of five graphs or five feature rows."""
    model = build_model(TrainConfig(variant=variant, num_layers=2, num_hidden=6), 4, 3,
                        np.random.default_rng(3))
    state_rng = np.random.default_rng(4)
    for bn in model.batch_norms():
        bn.running_mean = state_rng.normal(size=6)
        bn.running_var = state_rng.random(6) + 0.5
    if isinstance(model, FlowGraphNetwork):
        graph_rng = np.random.default_rng(5)
        return model, make_batch([prepare_graph(random_connected_graph(graph_rng, gid=f"g{i}"))
                                  for i in range(5)])
    return model, state_rng.normal(size=(5, 4))


def eval_calls(model) -> list[str]:
    return {"clf": ["predict_proba"], "ae": ["anomaly_scores"],
            "oc": ["init_center", "anomaly_scores"]}[model.role]


def tape_size(loss) -> int:
    seen, stack = {id(loss)}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class TestNoTape:
    @pytest.mark.parametrize("variant", ["clf", "ae", "oc", "mlp", "mlp_ae", "mlp_oc"])
    def test_eval_pass_records_nothing_and_matches_taped_pass(self, monkeypatch, variant):
        model, inputs = role_model(variant)
        built = []
        init = Tensor.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording)
        for name in eval_calls(model):
            built.clear()
            out = getattr(model, name)(inputs)
            assert built and all(t._parents == () and t._backward is None for t in built)
            built.clear()
            taped = getattr(type(model), name).__wrapped__(model, inputs)  # recording on
            assert any(t._backward is not None for t in built)
            assert out.tobytes() == taped.tobytes()

    @pytest.mark.parametrize("variant", ["clf", "ae", "oc", "mlp", "mlp_ae", "mlp_oc"])
    def test_train_tape_unchanged_by_eval_pass(self, variant):
        model, inputs = role_model(variant)
        if model.role == "oc":
            model.init_center(inputs)
        targets = np.arange(5) % 3

        def train_tape():
            return tape_size(model.loss(inputs, targets, rng=np.random.default_rng(0)))

        before = train_tape()
        getattr(model, eval_calls(model)[-1])(inputs)
        assert before > 10 and train_tape() == before

    def test_tape_resumes_after_numerical_error(self):
        model, batch = role_model("ae")
        bad = make_batch([prepare_graph(random_connected_graph(np.random.default_rng(6)))])
        bad.x[0, 0] = np.nan
        with pytest.raises(NumericalError):
            model.anomaly_scores(bad)
        assert tape_size(model.loss(batch)) > 10
