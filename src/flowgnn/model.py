"""Edge-attributed message passing networks over directed flow graphs.

The encoder alternates learned edge and node updates driven by a pair of
normalized incidence matrices (one for incoming, one for outgoing edges),
so every endpoint's representation separates the traffic it receives from
the traffic it sends. Three heads share this encoder:

  clf  pooled node embeddings -> dense layer -> class logits
  ae   mirrored decoder reconstructs the edge feature matrix
  oc   pooled embeddings pulled toward a frozen center; distance scores

In the one-class variant every layer is bias-free (dense biases and the
batch-norm shift are removed) so the network cannot trivially collapse
onto the center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGraph, ShapeMismatch
from .graphs import FlowGraph, check_edge_indices
from .nn import (
    EVAL,
    TRAIN,
    BatchNorm,
    Dense,
    Parameter,
    Tensor,
    concat_cols,
    cross_entropy,
    dropout,
    dropout_values,
    gather_rows,
    mul,
    mul_const,
    relu,
    scale,
    scatter_rows,
    segment_pool,
    softmax_rows,
    sub,
    sum_all,
)

VARIANTS = ("clf", "ae", "oc")
POOLS = ("mean", "add", "max")


@dataclass(frozen=True, eq=False)
class PropagationPair:
    """Normalized sparse incidence matrices in coordinate form.

    Edge e = (src[e], dst[e]) holds weight weights[e] at position
    (src[e], e) of the outgoing matrix and (dst[e], e) of the incoming
    matrix; columns have exactly one nonzero each.
    """

    num_nodes: int
    num_edges: int
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray

    def b_in_dense(self) -> np.ndarray:
        out = np.zeros((self.num_nodes, self.num_edges))
        out[self.dst, np.arange(self.num_edges)] = self.weights
        return out

    def b_out_dense(self) -> np.ndarray:
        out = np.zeros((self.num_nodes, self.num_edges))
        out[self.src, np.arange(self.num_edges)] = self.weights
        return out


def propagation_matrices(graph: FlowGraph) -> PropagationPair:
    """Incidence matrices with symmetric degree normalization.

    Each node's degree counts every incident edge once (a self-loop too),
    plus one virtual self-loop that exists only for normalization; the
    weight of edge (u, v) is 1/sqrt((deg(u)+1) * (deg(v)+1)). An edge end
    outside [0, num_nodes) raises FlowDataError naming the sample.
    """
    if graph.num_edges == 0:
        raise EmptyGraph(f"graph {graph.sample_id!r} has no edges")
    src = np.array([e[0] for e in graph.edges], dtype=np.intp)
    dst = np.array([e[1] for e in graph.edges], dtype=np.intp)
    ends = np.concatenate([src, dst[dst != src]])  # a self-loop counts once
    check_edge_indices(graph.sample_id, ends, graph.num_nodes)
    d_tilde = np.bincount(ends, minlength=graph.num_nodes) + 1.0
    weights = 1.0 / np.sqrt(d_tilde[src] * d_tilde[dst])
    return PropagationPair(graph.num_nodes, graph.num_edges, src, dst, weights)


@dataclass(frozen=True, eq=False)
class PreparedGraph:
    """A graph ready for the network: cached propagation + feature matrix."""

    prop: PropagationPair
    x: np.ndarray


def prepare_graph(graph: FlowGraph, x: np.ndarray | None = None) -> PreparedGraph:
    features = graph.edge_features if x is None else x
    if features.shape[0] != graph.num_edges:
        raise ShapeMismatch("feature rows must match edge count")
    return PreparedGraph(propagation_matrices(graph), np.asarray(features, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class GraphBatch:
    """Disjoint union of graphs as one block-diagonal system."""

    x: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray
    num_nodes: int
    node_segments: tuple[tuple[int, int], ...]
    edge_segments: tuple[tuple[int, int], ...]

    @property
    def num_graphs(self) -> int:
        return len(self.node_segments)


def make_batch(items: list[PreparedGraph]) -> GraphBatch:
    if not items:
        raise EmptyGraph("cannot batch zero graphs")
    xs, srcs, dsts, ws = [], [], [], []
    node_segments, edge_segments = [], []
    node_off = 0
    edge_off = 0
    for item in items:
        prop = item.prop
        xs.append(item.x)
        srcs.append(prop.src + node_off)
        dsts.append(prop.dst + node_off)
        ws.append(prop.weights)
        node_segments.append((node_off, node_off + prop.num_nodes))
        edge_segments.append((edge_off, edge_off + prop.num_edges))
        node_off += prop.num_nodes
        edge_off += prop.num_edges
    return GraphBatch(
        x=np.vstack(xs),
        src=np.concatenate(srcs),
        dst=np.concatenate(dsts),
        weights=np.concatenate(ws),
        num_nodes=node_off,
        node_segments=tuple(node_segments),
        edge_segments=tuple(edge_segments),
    )


class _Block:
    """Single-layer MLP: dropout -> dense -> batch norm -> activation."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 name: str, bias: bool, batch_norm: bool, activation: bool):
        self.dense = Dense(in_dim, out_dim, rng, bias=bias, name=name)
        self.bn = BatchNorm(out_dim, shift=bias, name=f"{name}.bn") if batch_norm else None
        self.activation = activation

    def __call__(self, x: Tensor, mode: str, rng, dropout_p: float) -> Tensor:
        x = dropout(x, dropout_p, rng, mode)
        y = self.dense(x)
        if self.bn is not None:
            y = self.bn(y, mode)
        if self.activation:
            y = relu(y)
        return y

    def parameters(self) -> list[Parameter]:
        params = self.dense.parameters()
        if self.bn is not None:
            params += self.bn.parameters()
        return params


class Network:
    """What the graph encoder and the dense baselines share: validation,
    parameter inventory, checkpoint state, the L2 term and the one-class
    center.

    `variants` names a family's (classifier, autoencoder, one-class) heads;
    the one-class head is the bias-free one. Subclasses list their layers in
    `layers()` and map model inputs to eval-mode per-sample embeddings in
    `embed`; graph models also list their batch norms.
    """

    def __init__(self, variant: str, variants: tuple[str, str, str], in_dim: int,
                 num_hidden: int, num_layers: int, num_classes: int | None):
        if variant not in variants:
            raise ValueError(f"variant must be one of {variants}, got {variant!r}")
        if num_layers not in (1, 2):
            raise ValueError("num_layers must be 1 or 2")
        if variant == variants[0] and not num_classes:
            raise ValueError("classifier needs num_classes")
        self.variant = variant
        self.in_dim = in_dim
        self.num_hidden = num_hidden
        self.num_layers = num_layers
        self.num_classes = num_classes
        self.bias = variant != variants[2]
        self.center: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers():
            params += layer.parameters()
        return params

    def weight_matrices(self) -> list[Parameter]:
        return [p for p in self.parameters() if p.name.endswith(".W")]

    def batch_norms(self) -> list[BatchNorm]:
        return []

    def _l2_term(self, coefficient: float) -> Tensor:
        total = None
        for w in self.weight_matrices():
            term = sum_all(mul(w, w))
            total = term if total is None else total + term
        return scale(total, coefficient / 2.0)

    def init_center(self, inputs) -> np.ndarray:
        """Freeze the hypersphere center at the mean initial embedding.

        Uses eval-mode statistics and no dropout so the center does not
        depend on stochastic state; it never changes afterwards.
        """
        if self.bias:
            raise ValueError("init_center is only defined for the one-class variant")
        self.center = self.embed(inputs).data.mean(axis=0, keepdims=True).copy()
        return self.center[0]

    def _center_distances(self, inputs) -> np.ndarray:
        return ((self.embed(inputs).data - self.center) ** 2).sum(axis=1)

    def state(self) -> dict:
        return {
            "params": [(p.name, p.data.copy()) for p in self.parameters()],
            "batchnorm": [bn.state() for bn in self.batch_norms()],
            "center": None if self.center is None else self.center.copy(),
        }

    def load_state(self, state: dict) -> None:
        params = self.parameters()
        norms = self.batch_norms()
        if len(params) != len(state["params"]):
            raise ShapeMismatch("parameter inventory mismatch")
        if len(norms) != len(state["batchnorm"]):
            raise ShapeMismatch("batch-norm inventory mismatch")
        for p, (name, data) in zip(params, state["params"]):
            data = np.asarray(data, dtype=np.float64)
            if p.name != name or p.data.shape != data.shape:
                raise ShapeMismatch(f"parameter {p.name} does not match stored {name}")
            p.data = data.copy()
        for bn, stored in zip(norms, state["batchnorm"]):
            bn.load_state(stored)
        center = state.get("center")
        if center is not None and np.size(center) != self.num_hidden:
            raise ShapeMismatch(f"center has {np.size(center)} entries, not {self.num_hidden}")
        self.center = None if center is None else np.asarray(center, dtype=np.float64).reshape(1, -1)


class FlowGraphNetwork(Network):
    """Encoder with one of three heads (clf, ae, oc) over graph batches."""

    def __init__(self, variant: str, in_dim: int, num_hidden: int,
                 num_layers: int, rng: np.random.Generator,
                 num_classes: int | None = None, pool: str = "mean",
                 dropout_p: float = 0.0, weight_decay: float = 1e-3,
                 batch_norm: bool = True, activation: bool = True):
        super().__init__(variant, VARIANTS, in_dim, num_hidden, num_layers, num_classes)
        if pool not in POOLS:
            raise ValueError(f"pool must be one of {POOLS}, got {pool!r}")
        self.pool = pool
        self.dropout_p = dropout_p
        self.weight_decay = weight_decay
        h = num_hidden

        def block(name, in_dim_, out_dim_, activation_=True, batch_norm_=True):
            return _Block(in_dim_, out_dim_, rng, name, self.bias,
                          batch_norm and batch_norm_, activation and activation_)

        self.f1 = block("f1", in_dim, h)
        self.f2 = block("f2", 2 * h, h)
        self.f3 = block("f3", 3 * h, h) if num_layers == 2 else None
        self.f4 = block("f4", 3 * h, h) if num_layers == 2 else None

        self.head: Dense | None = None
        self.f5 = self.f6 = self.f7 = self.f8 = None
        if variant == "clf":
            self.head = Dense(h, num_classes, rng, bias=self.bias, name="head")
        elif variant == "ae":
            if num_layers == 2:
                self.f5 = block("f5", 2 * h, h)
                self.f6 = block("f6", 3 * h, h)
                self.f7 = block("f7", 3 * h, h)
            else:
                # single-layer mirror: the first decoder stage is dropped and
                # node embeddings feed the remaining edge update directly
                self.f7 = block("f7", 2 * h, h)
            self.f8 = block("f8", h, in_dim, activation_=False, batch_norm_=False)

    # -- parameter plumbing -------------------------------------------------

    def blocks(self) -> list[_Block]:
        out = [self.f1, self.f2]
        for blk in (self.f3, self.f4, self.f5, self.f6, self.f7, self.f8):
            if blk is not None:
                out.append(blk)
        return out

    def layers(self) -> list:
        return self.blocks() + ([] if self.head is None else [self.head])

    def batch_norms(self) -> list[BatchNorm]:
        return [blk.bn for blk in self.blocks() if blk.bn is not None]

    # -- forward ------------------------------------------------------------

    def _coeffs(self, batch: GraphBatch, mode: str, rng) -> tuple[np.ndarray, np.ndarray]:
        """Per-forward propagation weights; dropout masks each matrix once."""
        w_in = dropout_values(batch.weights, self.dropout_p, rng, mode)
        w_out = dropout_values(batch.weights, self.dropout_p, rng, mode)
        return w_in, w_out

    def encode(self, batch: GraphBatch, mode: str = EVAL, rng=None,
               coeffs: tuple[np.ndarray, np.ndarray] | None = None) -> dict[str, Tensor]:
        if batch.x.shape[1] != self.in_dim:
            raise ShapeMismatch(f"batch width {batch.x.shape[1]} != model input {self.in_dim}")
        w_in, w_out = coeffs if coeffs is not None else self._coeffs(batch, mode, rng)
        n = batch.num_nodes
        x = Tensor(batch.x)
        p = self.dropout_p

        e0 = self.f1(x, mode, rng, p)
        h0 = self.f2(concat_cols([
            scatter_rows(e0, batch.dst, w_in, n),
            scatter_rows(e0, batch.src, w_out, n),
        ]), mode, rng, p)
        out = {"e0": e0, "h0": h0}
        if self.num_layers == 2:
            e1 = self.f3(concat_cols([
                gather_rows(h0, batch.dst, w_in),
                gather_rows(h0, batch.src, w_out),
                e0,
            ]), mode, rng, p)
            h1 = self.f4(concat_cols([
                scatter_rows(e1, batch.dst, w_in, n),
                scatter_rows(e1, batch.src, w_out, n),
                h0,
            ]), mode, rng, p)
            out["e1"] = e1
            out["h1"] = h1
        out["h_final"] = out["h1"] if self.num_layers == 2 else h0
        return out

    def decode(self, batch: GraphBatch, encoded: dict[str, Tensor],
               mode: str = EVAL, rng=None,
               coeffs: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
        if self.variant != "ae":
            raise ValueError("decode is only defined for the autoencoder variant")
        w_in, w_out = coeffs if coeffs is not None else self._coeffs(batch, mode, rng)
        n = batch.num_nodes
        h_in = encoded["h_final"]
        p = self.dropout_p
        if self.num_layers == 2:
            e2 = self.f5(concat_cols([
                gather_rows(h_in, batch.dst, w_in),
                gather_rows(h_in, batch.src, w_out),
            ]), mode, rng, p)
            h2 = self.f6(concat_cols([
                scatter_rows(e2, batch.dst, w_in, n),
                scatter_rows(e2, batch.src, w_out, n),
                h_in,
            ]), mode, rng, p)
            e3 = self.f7(concat_cols([
                gather_rows(h2, batch.dst, w_in),
                gather_rows(h2, batch.src, w_out),
                e2,
            ]), mode, rng, p)
        else:
            e3 = self.f7(concat_cols([
                gather_rows(h_in, batch.dst, w_in),
                gather_rows(h_in, batch.src, w_out),
            ]), mode, rng, p)
        return self.f8(e3, mode, rng, p)

    def pooled(self, batch: GraphBatch, mode: str = EVAL, rng=None,
               coeffs=None) -> Tensor:
        encoded = self.encode(batch, mode, rng, coeffs)
        return segment_pool(encoded["h_final"], batch.node_segments, self.pool)

    def embed(self, batch: GraphBatch) -> Tensor:
        return self.pooled(batch, EVAL)

    def logits(self, batch: GraphBatch, mode: str = EVAL, rng=None) -> Tensor:
        if self.variant != "clf":
            raise ValueError("logits are only defined for the classifier variant")
        pooled = self.pooled(batch, mode, rng)
        pooled = dropout(pooled, self.dropout_p, rng, mode)
        return self.head(pooled)

    def predict_proba(self, batch: GraphBatch) -> np.ndarray:
        return softmax_rows(self.logits(batch, EVAL)).data

    # -- losses and scores ----------------------------------------------------

    def reconstruction_errors(self, batch: GraphBatch, mode: str = EVAL,
                              rng=None) -> tuple[Tensor, np.ndarray]:
        """Squared Frobenius reconstruction error per graph, edge-normalized."""
        coeffs = self._coeffs(batch, mode, rng)
        encoded = self.encode(batch, mode, rng, coeffs)
        x_hat = self.decode(batch, encoded, mode, rng, coeffs)
        diff = sub(Tensor(batch.x), x_hat)
        sq = mul(diff, diff)
        per_graph = np.empty(batch.num_graphs)
        for i, (lo, hi) in enumerate(batch.edge_segments):
            per_graph[i] = sq.data[lo:hi].sum() / (hi - lo)
        return sq, per_graph

    def ae_loss(self, batch: GraphBatch, mode: str = TRAIN, rng=None) -> Tensor:
        """(1/N) sum over graphs of ||X_i - Xhat_i||_F^2 / m_i."""
        sq, _ = self.reconstruction_errors(batch, mode, rng)
        row_weights = np.empty((batch.x.shape[0], 1))
        for lo, hi in batch.edge_segments:
            row_weights[lo:hi] = 1.0 / (batch.num_graphs * (hi - lo))
        return sum_all(mul_const(sq, row_weights))

    def oc_loss(self, batch: GraphBatch, mode: str = TRAIN, rng=None) -> Tensor:
        """Mean squared distance to the center plus L2 weight regularization."""
        if self.center is None:
            raise ValueError("init_center must run before the one-class loss")
        pooled = self.pooled(batch, mode, rng)
        diff = sub(pooled, Tensor(self.center))
        dist = scale(sum_all(mul(diff, diff)), 1.0 / batch.num_graphs)
        return dist + self._l2_term(self.weight_decay)

    def loss(self, batch: GraphBatch, targets=None, mode: str = TRAIN, rng=None) -> Tensor:
        if self.variant == "clf":
            return cross_entropy(self.logits(batch, mode, rng), targets)
        if self.variant == "ae":
            return self.ae_loss(batch, mode, rng)
        return self.oc_loss(batch, mode, rng)

    def anomaly_scores(self, batch: GraphBatch) -> np.ndarray:
        """Higher = more anomalous; eval mode, no dropout."""
        if self.variant == "ae":
            _, per_graph = self.reconstruction_errors(batch, EVAL)
            return per_graph
        if self.variant == "oc":
            return self._center_distances(batch)
        raise ValueError("anomaly scores are only defined for ae and oc variants")
