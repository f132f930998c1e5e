"""Workload definitions and the inputs each one builds from --seed.

Every workload runs the same three user operations per round, in the
order a study runs them: an analyst extracts graphs from flow CSVs, a
researcher runs the repeated-split protocol, and a detector grid-searches
ae/oc, checkpoints the winners and scores held-out graphs. The workloads
differ in which operation gets the large input; the other two run at a
fixed light size so that every metric exists on every workload.

Training runs always use patience == max_epochs, so every train call runs
the same number of epochs whatever the seed: the work per round depends on
the seed only through graph sizes drawn from fixed distributions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

import flowgnn as fg

# graph-size buckets for graphs.structural_graphs_per_s.<bucket>, by node count
SIZE_BUCKETS = (("small", 0, 20), ("medium", 20, 100), ("large", 100, 10 ** 9))


# every grid has two cells, so training.train_calls_per_grid_cell is 3/2
PROTOCOL_GRID = {"learning_rate": [1e-2, 3e-3]}
DETECT_GRID = {"num_layers": [1, 2]}
GRID_CELLS = 2
# load-and-score calls per unsupervised variant and round
SCORE_CALLS = 3


@dataclass(frozen=True)
class ExtractInput:
    # (bucket, samples, min_nodes, max_nodes, flows_per_edge); medium and large
    # graphs have a fixed size and every bucket a fixed flow count per edge, so
    # the work of a round hardly depends on the seed
    buckets: tuple[tuple[str, int, int, int, int], ...]


@dataclass(frozen=True)
class ProtocolInput:
    class_sizes: tuple[int, ...]
    delta: float
    repeats: int
    epochs: int
    val_fraction: float | None = None  # None: the paper's 5% for category


@dataclass(frozen=True)
class DetectInput:
    class_sizes: tuple[int, int]
    epochs: int


@dataclass(frozen=True)
class Workload:
    extract: ExtractInput
    protocol: ProtocolInput
    detect: DetectInput


EXTRACT_HEAVY = ExtractInput(buckets=(
    ("small", 48, 4, 12, 6), ("medium", 10, 35, 35, 15), ("large", 3, 240, 240, 25)))
EXTRACT_LIGHT = ExtractInput(buckets=(
    ("small", 20, 4, 12, 3), ("medium", 4, 35, 35, 8), ("large", 2, 120, 120, 12)))
PROTOCOL_HEAVY = ProtocolInput(class_sizes=(60,) * 5, delta=1.0, repeats=3, epochs=12)
PROTOCOL_LIGHT = ProtocolInput(class_sizes=(50,) * 4, delta=1.5, repeats=1, epochs=8,
                               val_fraction=0.2)
DETECT_HEAVY = DetectInput(class_sizes=(380, 20), epochs=6)
DETECT_LIGHT = DetectInput(class_sizes=(190, 10), epochs=2)

WORKLOADS = {
    "extract": Workload(EXTRACT_HEAVY, PROTOCOL_LIGHT, DETECT_LIGHT),
    "protocol_clf": Workload(EXTRACT_LIGHT, PROTOCOL_HEAVY, DETECT_LIGHT),
    "detect_unsup": Workload(EXTRACT_LIGHT, PROTOCOL_LIGHT, DETECT_HEAVY),
}


def protocol_synth(p: ProtocolInput) -> fg.SynthSpec:
    """Multi-class category task; delta 1 keeps classes overlapping so a
    trained model clearly beats an untrained one without saturating."""
    return fg.SynthSpec(class_sizes=p.class_sizes, delta=p.delta, min_nodes=4, max_nodes=10,
                        min_flows_per_edge=1, max_flows_per_edge=4)


def detect_synth(d: DetectInput) -> fg.SynthSpec:
    """Mostly benign traffic from four profiles plus diffuse anomalies."""
    return fg.SynthSpec(class_sizes=d.class_sizes, delta=4.0, num_features=6,
                        min_flows_per_edge=3, max_flows_per_edge=8,
                        per_sample_shift=True, normal_modes=4, mode_spread=12.0)


def protocol_spec(p: ProtocolInput) -> fg.ProtocolSpec:
    return fg.ProtocolSpec(task="category", variant="clf", val_fraction=p.val_fraction)


def protocol_config(p: ProtocolInput, seed: int) -> fg.TrainConfig:
    return fg.TrainConfig(variant="clf", num_layers=2, num_hidden=16, learning_rate=1e-2,
                          batch_size=32, patience=p.epochs, max_epochs=p.epochs, seed=seed)


def detect_config(d: DetectInput, variant: str, seed: int) -> fg.TrainConfig:
    return fg.TrainConfig(variant=variant, num_layers=1, num_hidden=128, learning_rate=1e-3,
                          batch_size=32, patience=d.epochs, max_epochs=d.epochs, seed=seed)


def data_seed(seed: int, stage: int) -> int:
    return int(np.random.SeedSequence([seed, stage]).generate_state(1)[0])


@dataclass
class Inputs:
    manifest: str
    extract_flows: int
    extract_samples: int
    protocol_jsonl: str
    detect_jsonl: str


def _extract_dataset(e: ExtractInput, seed: int) -> fg.FlowDataset:
    """Skewed graph sizes: mostly small graphs plus a tail of large ones."""
    samples = []
    dataset = None
    for k, (bucket, count, lo, hi, flows) in enumerate(e.buckets):
        spec = fg.SynthSpec(class_sizes=(count - count // 2, count // 2), delta=1.0,
                            min_nodes=lo, max_nodes=hi,
                            min_flows_per_edge=flows, max_flows_per_edge=flows)
        dataset = fg.synth_generate(spec, seed=data_seed(seed, 10 + k))
        samples += [replace(s, sample_id=f"{bucket}{i:03d}") for i, s in enumerate(dataset.samples)]
    order = np.random.default_rng(data_seed(seed, 19)).permutation(len(samples))
    return fg.FlowDataset(tuple(samples[i] for i in order), dataset.feature_names,
                          dataset.class_maps)


def build_inputs(workload: Workload, seed: int, out_dir: str) -> Inputs:
    """Write every input of one workload under out_dir."""
    dataset = _extract_dataset(workload.extract, seed)
    manifest = fg.save_dataset(dataset, os.path.join(out_dir, "capture"))

    paths = []
    for stage, spec in ((1, protocol_synth(workload.protocol)),
                        (2, detect_synth(workload.detect))):
        synth = fg.synth_generate(spec, seed=data_seed(seed, stage))
        path = os.path.join(out_dir, f"graphs_{stage}.jsonl")
        fg.write_graphs_jsonl([fg.build_flow_graph(s) for s in synth.samples], path)
        paths.append(path)
    return Inputs(
        manifest=manifest,
        extract_flows=sum(len(s.flows) for s in dataset.samples),
        extract_samples=len(dataset.samples),
        protocol_jsonl=paths[0],
        detect_jsonl=paths[1],
    )
