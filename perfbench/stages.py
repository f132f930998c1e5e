"""One round of a workload: extract, protocol and detect, through flowgnn's
public API. Every call goes through the `fg` package namespace at call
time, so the wrappers the tracer installs there are the ones that run."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import flowgnn as fg
import flowgnn.cli  # noqa: F401  (fg.cli.main is the `flowgnn` command)

from inputs import (DETECT_GRID, GRID_CELLS, PROTOCOL_GRID, SCORE_CALLS, Inputs, Workload,
                    detect_config, protocol_config, protocol_spec)
from spans import Recorder

UNSUPERVISED_VARIANTS = ("ae", "oc")


@dataclass
class Capture:
    """What the correctness checks need from one round."""

    extract_dir: str = ""
    protocol: object = None
    detect: dict = field(default_factory=dict)


@dataclass
class RoundCounts:
    attempted: int = 0
    failed: int = 0


def run_extract(rec: Recorder, inputs: Inputs, work_dir: str, cap: Capture) -> None:
    out_dir = os.path.join(work_dir, "extracted")
    with rec.span("stage.extract"):
        code = fg.cli.main(["extract", "--manifest", inputs.manifest, "--out", out_dir])
    if code != 0:
        raise RuntimeError(f"flowgnn extract exited with {code}")
    cap.extract_dir = out_dir


def run_protocol(rec: Recorder, workload: Workload, inputs: Inputs, seed: int,
                 cap: Capture) -> None:
    p = workload.protocol
    with rec.span("stage.protocol"):
        graphs = fg.read_graphs_jsonl(inputs.protocol_jsonl)
        result = fg.run_protocol(
            protocol_spec(p), graphs,
            config=protocol_config(p, seed),
            grid=PROTOCOL_GRID,
            n_repeats=p.repeats, root_seed=seed,
        )
    cap.protocol = result


def run_detect(rec: Recorder, workload: Workload, inputs: Inputs, seed: int,
               work_dir: str, cap: Capture) -> None:
    d = workload.detect
    graphs = fg.read_graphs_jsonl(inputs.detect_jsonl)
    labels = {"binary": fg.labels_at_level(graphs, "binary")}
    split = fg.make_split(fg.ProtocolSpec(task="unsupervised", variant="ae"), labels, seed)
    heldout = [graphs[i] for i in split.test]
    for variant in UNSUPERVISED_VARIANTS:
        spec = fg.ProtocolSpec(task="unsupervised", variant=variant)
        with rec.span("stage.grid", variant):
            job, standardizer = fg.make_job(spec, detect_config(d, variant, seed), split,
                                            graphs, None, labels)
            searched = fg.grid_search(DETECT_GRID, job)
        model = searched.best_fit.model
        best_job = replace(job, config=searched.best_config)
        fg.evaluate_metrics(best_job, model)
        path = os.path.join(work_dir, f"checkpoint_{variant}.json")
        fg.save_checkpoint(path, model, searched.best_config, standardizer,
                           {"task": "unsupervised", "seed": seed})
        scores = None
        for _ in range(SCORE_CALLS):
            with rec.span("stage.score", (variant, len(heldout))):
                loaded, _, loaded_std, _ = fg.load_checkpoint(path)
                batch = fg.make_batch([
                    fg.PreparedGraph(fg.propagation_matrices(g), loaded_std(g.edge_features))
                    for g in heldout
                ])
                scores = loaded.anomaly_scores(batch)
        cap.detect[variant] = {"job": best_job, "model": model, "standardizer": standardizer,
                               "heldout": heldout, "scores": scores}


def operations(workload: Workload, inputs: Inputs) -> dict[str, int]:
    """Operations per round: samples extracted, protocol repeats and the
    grid cells in them, detect grid cells and score calls."""
    return {
        "extract": inputs.extract_samples,
        "protocol": workload.protocol.repeats * (1 + GRID_CELLS),
        "detect": len(UNSUPERVISED_VARIANTS) * (GRID_CELLS + SCORE_CALLS),
    }


def run_round(rec: Recorder, workload: Workload, inputs: Inputs, seed: int,
              work_dir: str, log) -> tuple[Capture, RoundCounts]:
    """Run the three operations; a stage that raises counts all of its
    operations as failed and the round goes on with the next stage."""
    cap = Capture()
    counts = RoundCounts()
    ops = operations(workload, inputs)
    stages = (
        ("extract", lambda: run_extract(rec, inputs, work_dir, cap)),
        ("protocol", lambda: run_protocol(rec, workload, inputs, seed, cap)),
        ("detect", lambda: run_detect(rec, workload, inputs, seed, work_dir, cap)),
    )
    for name, stage in stages:
        counts.attempted += ops[name]
        try:
            stage()
        except Exception as exc:  # a failing stage is reported, not fatal
            counts.failed += ops[name]
            log(f"stage {name} failed: {type(exc).__name__}: {exc}")
    return cap, counts
