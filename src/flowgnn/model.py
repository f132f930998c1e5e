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
# Eval passes run the encoder over blocks of whole graphs whose edge rows
# times num_hidden stay within this many cells, so activations stay in cache.
EVAL_BLOCK_CELLS = 1 << 16


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
    """Disjoint union of graphs as one block-diagonal system.

    Graph i owns nodes node_offsets[i]:node_offsets[i + 1] and edge rows
    edge_offsets[i]:edge_offsets[i + 1]; both offset arrays have length
    num_graphs + 1 and start at 0. src and dst index the whole batch.
    """

    x: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray
    node_offsets: np.ndarray
    edge_offsets: np.ndarray

    @property
    def num_graphs(self) -> int:
        return len(self.node_offsets) - 1

    @property
    def num_nodes(self) -> int:
        return int(self.node_offsets[-1])

    def graphs(self, lo: int, hi: int) -> "GraphBatch":
        """Graphs lo:hi as a batch of their own; x is a view, not a copy."""
        e_lo, e_hi = self.edge_offsets[lo], self.edge_offsets[hi]
        shift = self.node_offsets[lo]
        return GraphBatch(
            x=self.x[e_lo:e_hi],
            src=self.src[e_lo:e_hi] - shift,
            dst=self.dst[e_lo:e_hi] - shift,
            weights=self.weights[e_lo:e_hi],
            node_offsets=self.node_offsets[lo:hi + 1] - shift,
            edge_offsets=self.edge_offsets[lo:hi + 1] - e_lo,
        )


def make_batch(items: list[PreparedGraph]) -> GraphBatch:
    if not items:
        raise EmptyGraph("cannot batch zero graphs")
    props = [item.prop for item in items]
    node_offsets = np.cumsum([0] + [p.num_nodes for p in props])
    edge_offsets = np.cumsum([0] + [p.num_edges for p in props])
    shift = np.repeat(node_offsets[:-1], np.diff(edge_offsets))
    return GraphBatch(
        x=np.vstack([item.x for item in items]),
        src=np.concatenate([p.src for p in props]) + shift,
        dst=np.concatenate([p.dst for p in props]) + shift,
        weights=np.concatenate([p.weights for p in props]),
        node_offsets=node_offsets,
        edge_offsets=edge_offsets,
    )


def eval_block_bounds(edge_offsets, max_rows: int) -> list[int]:
    """Split a batch into eval blocks: block k holds graphs bounds[k]:bounds[k + 1].

    A block takes consecutive graphs while its edge rows stay within
    max_rows, and always at least two graphs; a one-graph remainder joins
    the previous block. Every matmul of a block then has at least two rows.
    """
    num_graphs = len(edge_offsets) - 1
    ends = edge_offsets.tolist()
    bounds = [0]
    for g in range(num_graphs):
        start = bounds[-1]
        if g - start >= 2 and ends[g + 1] - ends[start] > max_rows:
            bounds.append(g)
    if len(bounds) > 1 and num_graphs - bounds[-1] < 2:
        bounds.pop()
    return bounds + [num_graphs]


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


@dataclass(frozen=True, eq=False)
class _Forward:
    """One forward pass over a batch: its propagation weights, mode and
    dropout stream.

    Each message-passing step sends rows through the incoming matrix
    (w_in at dst) and then the outgoing one (w_out at src), concatenates
    both results with any skip inputs and applies one block.
    """

    batch: GraphBatch
    w_in: np.ndarray
    w_out: np.ndarray
    mode: str
    rng: object
    dropout_p: float

    def apply(self, block: _Block, x: Tensor) -> Tensor:
        return block(x, self.mode, self.rng, self.dropout_p)

    def to_nodes(self, block: _Block, e: Tensor, *skip: Tensor) -> Tensor:
        """Edge rows to node rows: what each node receives, then sends."""
        n = self.batch.num_nodes
        return self.apply(block, concat_cols([scatter_rows(e, self.batch.dst, self.w_in, n),
                                              scatter_rows(e, self.batch.src, self.w_out, n),
                                              *skip]))

    def to_edges(self, block: _Block, h: Tensor, *skip: Tensor) -> Tensor:
        """Node rows to edge rows: each edge's destination, then source."""
        return self.apply(block, concat_cols([gather_rows(h, self.batch.dst, self.w_in),
                                              gather_rows(h, self.batch.src, self.w_out),
                                              *skip]))


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
                 dropout_p: float = 0.0, weight_decay: float = 1e-3):
        super().__init__(variant, VARIANTS, in_dim, num_hidden, num_layers, num_classes)
        if pool not in POOLS:
            raise ValueError(f"pool must be one of {POOLS}, got {pool!r}")
        self.pool = pool
        self.dropout_p = dropout_p
        self.weight_decay = weight_decay
        h = num_hidden

        def block(name, in_dim_, out_dim_, activation=True, batch_norm=True):
            return _Block(in_dim_, out_dim_, rng, name, self.bias, batch_norm, activation)

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
            self.f8 = block("f8", h, in_dim, activation=False, batch_norm=False)

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

    def _forward(self, batch: GraphBatch, mode: str, rng) -> _Forward:
        """Dropout masks each propagation matrix once per forward pass."""
        w_in = dropout_values(batch.weights, self.dropout_p, rng, mode)
        w_out = dropout_values(batch.weights, self.dropout_p, rng, mode)
        return _Forward(batch, w_in, w_out, mode, rng, self.dropout_p)

    def encode(self, batch: GraphBatch, mode: str = EVAL, rng=None,
               fwd: _Forward | None = None) -> dict[str, Tensor]:
        if batch.x.shape[1] != self.in_dim:
            raise ShapeMismatch(f"batch width {batch.x.shape[1]} != model input {self.in_dim}")
        fwd = fwd if fwd is not None else self._forward(batch, mode, rng)
        e0 = fwd.apply(self.f1, Tensor(batch.x))
        h0 = fwd.to_nodes(self.f2, e0)
        out = {"e0": e0, "h0": h0, "h_final": h0}
        if self.num_layers == 2:
            e1 = fwd.to_edges(self.f3, h0, e0)
            h1 = fwd.to_nodes(self.f4, e1, h0)
            out.update(e1=e1, h1=h1, h_final=h1)
        return out

    def decode(self, batch: GraphBatch, encoded: dict[str, Tensor],
               mode: str = EVAL, rng=None, fwd: _Forward | None = None) -> Tensor:
        if self.variant != "ae":
            raise ValueError("decode is only defined for the autoencoder variant")
        fwd = fwd if fwd is not None else self._forward(batch, mode, rng)
        h = encoded["h_final"]
        if self.num_layers == 2:
            e2 = fwd.to_edges(self.f5, h)
            h2 = fwd.to_nodes(self.f6, e2, h)
            e3 = fwd.to_edges(self.f7, h2, e2)
        else:
            e3 = fwd.to_edges(self.f7, h)
        return fwd.apply(self.f8, e3)

    def pooled(self, batch: GraphBatch, mode: str = EVAL, rng=None) -> Tensor:
        h = self.encode(batch, mode, rng)["h_final"]
        return segment_pool(h, batch.node_offsets, self.pool)

    def _in_blocks(self, batch: GraphBatch, fn) -> np.ndarray:
        """fn over each eval block of batch, its results stacked in graph order."""
        bounds = eval_block_bounds(batch.edge_offsets, EVAL_BLOCK_CELLS // self.num_hidden)
        return np.concatenate([fn(batch.graphs(lo, hi)) for lo, hi in zip(bounds, bounds[1:])])

    def embed(self, batch: GraphBatch) -> Tensor:
        return Tensor(self._in_blocks(batch, lambda block: self.pooled(block, EVAL).data))

    def _head(self, pooled: Tensor, mode: str, rng) -> Tensor:
        if self.variant != "clf":
            raise ValueError("logits are only defined for the classifier variant")
        return self.head(dropout(pooled, self.dropout_p, rng, mode))

    def logits(self, batch: GraphBatch, mode: str = EVAL, rng=None) -> Tensor:
        return self._head(self.pooled(batch, mode, rng), mode, rng)

    def predict_proba(self, batch: GraphBatch) -> np.ndarray:
        # the head sees every pooled row at once: with fewer than four
        # classes, a row slice of its matmul can differ from the whole
        return softmax_rows(self._head(self.embed(batch), EVAL, None)).data

    # -- losses and scores ----------------------------------------------------

    def squared_errors(self, batch: GraphBatch, mode: str = EVAL, rng=None) -> Tensor:
        """(X - Xhat)^2 entry by entry, from one encoder-decoder pass."""
        fwd = self._forward(batch, mode, rng)
        x_hat = self.decode(batch, self.encode(batch, mode, rng, fwd), mode, rng, fwd)
        diff = sub(Tensor(batch.x), x_hat)
        return mul(diff, diff)

    def ae_loss(self, batch: GraphBatch, mode: str = TRAIN, rng=None) -> Tensor:
        """(1/N) sum over graphs of ||X_i - Xhat_i||_F^2 / m_i."""
        counts = np.diff(batch.edge_offsets)
        row_weights = np.repeat(1.0 / (batch.num_graphs * counts), counts)[:, None]
        return sum_all(mul_const(self.squared_errors(batch, mode, rng), row_weights))

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

    def _reconstruction_errors(self, batch: GraphBatch) -> np.ndarray:
        """Squared Frobenius reconstruction error per graph, edge-normalized."""
        sq = self.squared_errors(batch, EVAL).data
        ends = batch.edge_offsets
        return np.array([sq[lo:hi].sum() / (hi - lo) for lo, hi in zip(ends, ends[1:])])

    def anomaly_scores(self, batch: GraphBatch) -> np.ndarray:
        """Higher = more anomalous; eval mode, no dropout."""
        if self.variant == "ae":
            return self._in_blocks(batch, self._reconstruction_errors)
        if self.variant == "oc":
            return self._center_distances(batch)
        raise ValueError("anomaly scores are only defined for ae and oc variants")
