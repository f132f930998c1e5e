"""Synthetic flow datasets with controllable class separation.

Each sample draws an endpoint topology (star, chain or clique with a few
extra random edges) and flow feature vectors from a class-specific
multivariate normal with unit variance. Class means sit delta apart along
distinct coordinates, so mean edge features differ between classes by
delta in units of the feature standard deviation. At delta = 0 the class
label also stops influencing the topology mixture, leaving the classes
statistically indistinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import serialize
from .ingest import FlowDataset, FlowTable, LabelTriple, SampleFlows


@dataclass(frozen=True)
class SynthSpec:
    class_sizes: tuple[int, ...] = (300, 300)
    delta: float = 0.0
    num_features: int = 6
    min_nodes: int = 4
    max_nodes: int = 9
    min_flows_per_edge: int = 1
    max_flows_per_edge: int = 3
    self_loop_prob: float = 0.1
    constant_feature: bool = True
    class_names: tuple[str, ...] | None = None
    # heterogeneous traffic profiles: every sample draws one of normal_modes
    # mean offsets along mode_coordinate, spaced mode_spread apart and
    # centered at zero, so class means and the separation delta are unchanged
    normal_modes: int = 1
    mode_spread: float = 0.0
    mode_coordinate: int = 0
    # per_sample_shift moves each malicious sample along its own randomly
    # chosen coordinate (still by delta), so anomalies are diffuse instead
    # of forming a second tight cluster
    per_sample_shift: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthSpec":
        """A spec from its JSON fields; a field of the wrong type or an
        unknown key raises ValueError naming it."""
        raw = serialize.checked(raw, _SHAPE, "", ValueError)
        known = {f.name for f in cls.__dataclass_fields__.values()}
        kwargs = {k: v for k, v in raw.items() if k in known}
        for key in ("class_sizes", "class_names"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown synth spec keys: {sorted(unknown)}")
        return cls(**kwargs)


# every field may be left out; its annotation gives its JSON shape
_SHAPES = {"int": int, "float": float, "bool": bool, "tuple[int, ...]": [int],
           "tuple[str, ...] | None": ([str], None)}
_SHAPE = {f"{field.name}?": _SHAPES[field.type] for field in fields(SynthSpec)}


def _class_mean(cls_index: int, spec: SynthSpec) -> np.ndarray:
    mean = np.zeros(spec.num_features)
    if cls_index == 0 or spec.delta == 0.0:
        return mean
    coord = (cls_index - 1) % spec.num_features
    step = 1 + (cls_index - 1) // spec.num_features
    mean[coord] = spec.delta * step
    return mean


def _mode_offsets(spec: SynthSpec) -> np.ndarray:
    """Per-mode mean offsets on one coordinate, centered so they sum to zero.

    With spacing well above the separation delta, a shifted sample stays
    far from every mode, so telling it apart requires knowing where the
    modes are rather than thresholding a single coordinate.
    """
    offsets = np.zeros((spec.normal_modes, spec.num_features))
    if spec.normal_modes < 2 or spec.mode_spread == 0.0:
        return offsets
    centers = (np.arange(spec.normal_modes) - (spec.normal_modes - 1) / 2.0)
    offsets[:, spec.mode_coordinate] = centers * spec.mode_spread
    return offsets


def _topology(n: int, cls_index: int, spec: SynthSpec,
              rng: np.random.Generator) -> list[tuple[int, int]]:
    """Directed edge list over n nodes; class-specific only when delta > 0."""
    styles = ("star", "chain", "clique")
    offset = cls_index if spec.delta != 0.0 else 0
    weights = np.roll(np.array([0.5, 0.3, 0.2]), offset % 3)
    style = styles[rng.choice(3, p=weights / weights.sum())]
    edges: set[tuple[int, int]] = set()
    if style == "star":
        hubs = 1 + (offset % 2)
        for hub in range(min(hubs, n)):
            for leaf in range(hubs, n):
                if rng.random() < 0.5:
                    edges.add((hub, leaf))
                else:
                    edges.add((leaf, hub))
    elif style == "chain":
        for i in range(n - 1):
            edges.add((i, i + 1))
    else:
        core = min(n, 4)
        for i in range(core):
            for j in range(core):
                if i != j:
                    edges.add((i, j))
        for i in range(core, n):
            edges.add((i, int(rng.integers(core))))
    # a few extra random edges so no style is perfectly regular
    for _ in range(int(rng.integers(0, 3))):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((int(a), int(b)))
    if rng.random() < spec.self_loop_prob:
        v = int(rng.integers(n))
        edges.add((v, v))
    if not edges:
        edges.add((0, min(1, n - 1)))
    return sorted(edges)


def synth_generate(spec: SynthSpec, seed: int) -> FlowDataset:
    """Deterministic synthetic dataset; class 0 is the benign class."""
    rng = np.random.default_rng(seed)
    k = len(spec.class_sizes)
    if spec.class_names is not None:
        names = list(spec.class_names)
        if len(names) != k:
            raise ValueError("class_names must match class_sizes")
        # class index doubles as the lexicographic label index on reload
        if names != sorted(names):
            raise ValueError("class_names must be in lexicographic order")
    else:
        names = ["benign"] + [f"mal_{chr(ord('a') + i)}" for i in range(k - 1)]

    feature_names = [f"f{i}" for i in range(spec.num_features)]
    if spec.constant_feature:
        feature_names.append("const")

    mode_offsets = _mode_offsets(spec)
    samples = []
    counter = 0
    for cls_index, size in enumerate(spec.class_sizes):
        base_mean = _class_mean(cls_index, spec)
        for _ in range(size):
            mode = int(rng.integers(spec.normal_modes)) if spec.normal_modes > 1 else 0
            mean = base_mean + mode_offsets[mode]
            if spec.per_sample_shift and cls_index > 0 and spec.delta != 0.0:
                mean = mode_offsets[mode].copy()
                sign = 1.0 if rng.random() < 0.5 else -1.0
                # shifts stay off the mode coordinate so a shifted sample is
                # always delta away from every normal profile
                choices = [i for i in range(spec.num_features)
                           if spec.normal_modes < 2 or i != spec.mode_coordinate]
                mean[choices[int(rng.integers(len(choices)))]] += sign * spec.delta
            n = int(rng.integers(spec.min_nodes, spec.max_nodes + 1))
            edges = _topology(n, cls_index, spec, rng)
            srcs, dsts, blocks = [], [], []
            for s, t in edges:
                count = int(rng.integers(spec.min_flows_per_edge, spec.max_flows_per_edge + 1))
                # one (count, d) draw gives the values of count one-row draws
                blocks.append(rng.normal(loc=mean, scale=1.0, size=(count, spec.num_features)))
                srcs += [f"10.0.0.{s}"] * count
                dsts += [f"10.0.0.{t}"] * count
            features = np.concatenate(blocks)
            if spec.constant_feature:
                features = np.hstack([features, np.ones((len(features), 1))])
            labels = LabelTriple(
                binary=0 if cls_index == 0 else 1,
                category=cls_index,
                family=cls_index,
            )
            flows = FlowTable(tuple(srcs), tuple(dsts), features)
            samples.append(SampleFlows(f"s{counter:05d}", flows, labels))
            counter += 1

    class_maps = {
        "binary": {"benign": 0, "malicious": 1} if k > 1 else {"benign": 0},
        "category": {name: i for i, name in enumerate(names)},
        "family": {name: i for i, name in enumerate(names)},
    }
    return FlowDataset(tuple(samples), tuple(feature_names), class_maps)
