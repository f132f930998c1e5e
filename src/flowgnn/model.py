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
    no_tape,
    relu,
    scatter_rows,
    segment_pool,
    sub,
    sum_all,
)

ROLES = ("clf", "ae", "oc")
VARIANTS = ROLES  # graph variants are named after their heads' roles
POOLS = ("mean", "add", "max")
NUM_LAYERS = (1, 2)  # message-passing rounds, or hidden dense layers
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
    """What the graph encoder and the dense baselines share: the head's
    role, validation, parameter inventory, checkpoint state, the L2 term,
    the one-class center and each head's loss and scores.

    `variants` names a family's (classifier, autoencoder, one-class)
    variants; a model's `role` (clf, ae or oc) is its variant's place in
    that triple, and the oc head is the bias-free one. Subclasses set
    `penalty` (the L2 coefficient, or None for no L2 term) and `head` (the
    clf output layer), list their layers in `layers()`, map model inputs
    to one row per sample in `pooled(inputs, mode, rng)` and to eval-mode
    rows in `embed`, and give the ae head's `ae_loss` and per-sample
    `_reconstruction_errors`; graph models also list their batch norms.
    """

    def __init__(self, variant: str, variants: tuple[str, str, str], in_dim: int,
                 num_hidden: int, num_layers: int, num_classes: int | None):
        if variant not in variants:
            raise ValueError(f"variant must be one of {variants}, got {variant!r}")
        if num_layers not in NUM_LAYERS:
            raise ValueError(f"num_layers must be one of {NUM_LAYERS}, got {num_layers!r}")
        self.variant = variant
        self.role = ROLES[variants.index(variant)]
        if self.role == "clf" and not num_classes:
            raise ValueError("classifier needs num_classes")
        self.in_dim = in_dim
        self.num_hidden = num_hidden
        self.num_layers = num_layers
        self.num_classes = num_classes
        self.bias = self.role != "oc"
        self.center: np.ndarray | None = None
        self.penalty: float | None = None
        self.head: Dense | None = None
        self.dropout_p = 0.0

    def _require(self, role: str, what: str) -> None:
        if self.role != role:
            raise ValueError(f"{what}: only defined for the {role} head, not {self.variant!r}")

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers():
            params += layer.parameters()
        return params

    def weight_matrices(self) -> list[Parameter]:
        return [p for p in self.parameters() if p.name.endswith(".W")]

    def batch_norms(self) -> list[BatchNorm]:
        return []

    # -- heads ----------------------------------------------------------------

    def _head(self, pooled: Tensor, mode: str, rng) -> Tensor:
        self._require("clf", "logits")
        return self.head(dropout(pooled, self.dropout_p, rng, mode))

    def logits(self, inputs, mode: str = EVAL, rng=None) -> Tensor:
        return self._head(self.pooled(inputs, mode, rng), mode, rng)

    @no_tape()
    def predict_proba(self, inputs) -> np.ndarray:
        # the head sees every pooled row at once: with fewer than four
        # classes, a row slice of its matmul can differ from the whole
        logits = self._head(self.embed(inputs), EVAL, None).data
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        return exp / exp.sum(axis=1, keepdims=True)

    @no_tape()
    def init_center(self, inputs) -> np.ndarray:
        """Freeze the hypersphere center at the mean initial embedding.

        Uses eval-mode statistics and no dropout so the center does not
        depend on stochastic state; it never changes afterwards.
        """
        self._require("oc", "init_center")
        self.center = self.embed(inputs).data.mean(axis=0, keepdims=True).copy()
        return self.center[0]

    def oc_loss(self, inputs, mode: str = TRAIN, rng=None) -> Tensor:
        """Mean squared distance of the pooled rows to the frozen center
        (Ruff et al., Deep SVDD, ICML 2018)."""
        if self.center is None:
            raise ValueError("init_center must run before the one-class loss")
        pooled = self.pooled(inputs, mode, rng)
        diff = sub(pooled, Tensor(self.center))
        return mul_const(sum_all(mul(diff, diff)), 1.0 / pooled.shape[0])

    def _l2_term(self) -> Tensor:
        total = None
        for w in self.weight_matrices():
            term = sum_all(mul(w, w))
            total = term if total is None else total + term
        return mul_const(total, self.penalty / 2.0)

    def loss(self, inputs, targets=None, mode: str = TRAIN, rng=None) -> Tensor:
        """The head's loss, plus the L2 term when the model holds a penalty."""
        if self.role == "clf":
            value = cross_entropy(self.logits(inputs, mode, rng), targets)
        elif self.role == "ae":
            value = self.ae_loss(inputs, mode, rng)
        else:
            value = self.oc_loss(inputs, mode, rng)
        return value if self.penalty is None else value + self._l2_term()

    @no_tape()
    def anomaly_scores(self, inputs) -> np.ndarray:
        """Higher = more anomalous; eval mode, no dropout."""
        if self.role == "ae":
            return self._reconstruction_errors(inputs)
        if self.role == "oc":
            return ((self.embed(inputs).data - self.center) ** 2).sum(axis=1)
        raise ValueError("anomaly scores: only defined for the ae and oc heads, "
                         f"not {self.variant!r}")

    def state(self) -> dict:
        """Parameters, batch-norm statistics and center in the checkpoint's layout."""
        return {
            "params": [{"name": p.name, "shape": list(p.shape), "values": p.data.ravel().copy()}
                       for p in self.parameters()],
            "batchnorm": [bn.state() for bn in self.batch_norms()],
            "oc_center": None if self.center is None else self.center.ravel().copy(),
        }

    def load_state(self, state: dict) -> None:
        params = self.parameters()
        norms = self.batch_norms()
        if len(params) != len(state["params"]):
            raise ShapeMismatch("parameter inventory mismatch")
        if len(norms) != len(state["batchnorm"]):
            raise ShapeMismatch("batch-norm inventory mismatch")
        for p, stored in zip(params, state["params"]):
            values = np.array(stored["values"], dtype=np.float64)
            if p.name != stored["name"] or list(p.shape) != list(stored["shape"]):
                raise ShapeMismatch(f"parameter {p.name} does not match stored {stored['name']}")
            if values.size != p.data.size:
                raise ShapeMismatch(f"parameter {p.name} stores {values.size} values, "
                                    f"not the {p.data.size} of shape {p.shape}")
            p.data = values.reshape(p.shape)
        for bn, stored in zip(norms, state["batchnorm"]):
            bn.load_state(stored)
        center = state.get("oc_center")
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
        # lambda penalizes only the oc head, where it is added even at 0
        self.penalty = weight_decay if self.role == "oc" else None
        h = num_hidden

        def block(name, in_dim_, out_dim_, activation=True, batch_norm=True):
            return _Block(in_dim_, out_dim_, rng, name, self.bias, batch_norm, activation)

        self.f1 = block("f1", in_dim, h)
        self.f2 = block("f2", 2 * h, h)
        self.f3 = block("f3", 3 * h, h) if num_layers == 2 else None
        self.f4 = block("f4", 3 * h, h) if num_layers == 2 else None

        self.f5 = self.f6 = self.f7 = self.f8 = None
        if self.role == "clf":
            self.head = Dense(h, num_classes, rng, bias=self.bias, name="head")
        elif self.role == "ae":
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
        self._require("ae", "decode")
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

    def _reconstruction_errors(self, batch: GraphBatch) -> np.ndarray:
        """Squared Frobenius reconstruction error per graph, edge-normalized."""
        def errors(block: GraphBatch) -> np.ndarray:
            sq = self.squared_errors(block, EVAL).data
            ends = block.edge_offsets
            return np.array([sq[lo:hi].sum() / (hi - lo) for lo, hi in zip(ends, ends[1:])])
        return self._in_blocks(batch, errors)

    # perfbench/layers.py times forward passes by wrapping these three in
    # this class body, so the class holds Network's functions by name
    loss = Network.loss
    predict_proba = Network.predict_proba
    anomaly_scores = Network.anomaly_scores
