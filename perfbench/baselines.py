"""Re-measure the one-off timings quoted in ROADMAP item 1 on this machine.

    python3 perfbench/baselines.py

Uses the acceptance suite's synthetic fixtures (same specs and seeds) and
prints one line per figure. This is a reference for the README, not part
of the benchmark's runs.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import flowgnn as fg  # noqa: E402

SUPERVISED = (fg.SynthSpec(class_sizes=(300, 300), delta=4.0), 20240501)
UNSUPERVISED = (fg.SynthSpec(class_sizes=(380, 20), delta=4.0, num_features=6,
                             min_flows_per_edge=3, max_flows_per_edge=8, per_sample_shift=True,
                             normal_modes=4, mode_spread=12.0), 99)
UNSUPERVISED_GRID = {"num_hidden": [128, 64], "learning_rate": [1e-3, 1e-2],
                     "pool": ["mean", "add"]}


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def job_for(graphs, task, config):
    spec = fg.ProtocolSpec(task=task, variant=config.variant)
    labels = {"binary": fg.labels_at_level(graphs, "binary")}
    split = fg.make_split(spec, labels, 0)
    return fg.make_job(spec, config, split, graphs, None, labels)[0]


def main() -> None:
    spec, seed = SUPERVISED
    graphs = [fg.build_flow_graph(s) for s in fg.synth_generate(spec, seed).samples]
    job = job_for(graphs, "binary", fg.TrainConfig(variant="clf", num_hidden=16,
                                                    learning_rate=1e-2, batch_size=32))
    fit, secs = timed(lambda: fg.train(job))
    print(f"clf train: {secs:.3f} s, {fit.stopped_epoch} epochs, "
          f"{1000 * secs / fit.stopped_epoch:.1f} ms/epoch, {len(job.split.train)} training graphs")

    spec, seed = UNSUPERVISED
    dataset = fg.synth_generate(spec, seed)
    flows = sum(len(s.flows) for s in dataset.samples)
    graphs, secs = timed(lambda: [fg.build_flow_graph(s) for s in dataset.samples])
    print(f"build_flow_graph: {flows / secs:.0f} flows/s ({flows} flows)")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as tmp:
        manifest = fg.save_dataset(dataset, tmp)
        _, secs = timed(lambda: fg.load_dataset(manifest))
    print(f"CSV load: {flows / secs:.0f} flows/s")

    for variant in ("ae", "oc"):
        epochs = 5
        job = job_for(graphs, "unsupervised", fg.TrainConfig(
            variant=variant, num_hidden=128, patience=epochs, max_epochs=epochs))
        _, secs = timed(lambda: fg.train(job))
        print(f"{variant} epoch (h=128, {len(job.split.train)} graphs): "
              f"{1000 * secs / epochs:.1f} ms")
        job = job_for(graphs, "unsupervised", fg.TrainConfig(variant=variant))
        _, secs = timed(lambda: fg.grid_search(UNSUPERVISED_GRID, job))
        print(f"8-cell grid, {variant}: {secs:.2f} s")

    big = fg.synth_generate(fg.SynthSpec(class_sizes=(40,), min_nodes=140, max_nodes=160), 1)
    big_graphs = [fg.build_flow_graph(s) for s in big.samples]
    _, secs = timed(lambda: [fg.structural_features(g) for g in big_graphs])
    print(f"structural_features: {secs:.2f} s for 40 graphs of 140-160 nodes")


if __name__ == "__main__":
    main()
