"""flowgnn benchmark: one command, three workloads, end to end or traced.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: the program is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of BENCHMARK.json plus the
tracing overhead. See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

# all load comes from one process; BLAS stays single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3

UNITS = {
    "setup_s": "s",
    "extract_flows_per_s": "flows/s",
    "protocol_s": "s",
    "train_graph_epochs_per_s": "graph-epochs/s",
    "grid_s": "s",
    "score_graphs_per_s": "graphs/s",
    "peak_rss_mb": "MB",
}
def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "flowgnn", "__init__.py")):
        raise SystemExit(f"perfbench: no flowgnn sources under {src}")
    sys.path.insert(0, src)
    import flowgnn

    if os.path.dirname(os.path.dirname(os.path.abspath(flowgnn.__file__))) != src:
        raise SystemExit(f"perfbench: imported flowgnn from {flowgnn.__file__}, not {src}")


def layer_unit(name: str) -> str:
    if name.endswith("flows_per_s"):
        return "flows/s"
    if ".structural_graphs_per_s." in name:
        return "graphs/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("rows_median"):
        return "rows"
    if name in ("nn.tape_nodes_per_step", "trace.spans_per_round"):
        return "count"
    if "_per_" in name or name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import checks
    import layers
    import stages
    from inputs import WORKLOADS, build_inputs
    from spans import Recorder

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = build_inputs(workload, args.seed, os.path.join(work_dir, f"setup{k}"))
            setup_times.append(time.perf_counter() - start)

        rec = Recorder()
        evaluations: list = []
        layers.install_essentials(rec, evaluations)
        rec.active = True

        # round 0 warms up and is never traced or measured: it feeds the
        # correctness checks and gives the untraced wall time the tracing
        # overhead is taken from. It counts toward --seconds. A later round
        # starts only if a round of median length still fits, so the run ends
        # close to --seconds after set-up, plus the checks.
        deadline = time.perf_counter() + args.seconds
        rec.capture = True
        rec.new_round()
        start = time.perf_counter()
        cap, counts = stages.run_round(rec, workload, inputs, args.seed, work_dir, log)
        untraced_wall = time.perf_counter() - start
        rec.capture = False

        rec.active = False
        correct = True
        if counts.failed == 0:
            try:
                checks.check_extract(inputs.manifest, cap.extract_dir)
                checks.check_protocol(cap.protocol, evaluations)
                checks.check_detect(cap.detect, evaluations)
            except checks.CheckFailed as exc:
                log(f"correctness check failed: {exc}")
                correct = False
        del cap, evaluations
        rec.active = True

        attempted, failed = counts.attempted, counts.failed
        walls: list[float] = []
        rec.rounds.clear()
        if args.trace:
            layers.install_layers(rec)
        while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
            rec.new_round()
            start = time.perf_counter()
            _, counts = stages.run_round(rec, workload, inputs, args.seed, work_dir, log)
            walls.append(time.perf_counter() - start)
            attempted += counts.attempted
            failed += counts.failed
        rec.active = False
        rec.unpatch()

        if args.trace:
            protocol_graphs = sum(workload.protocol.class_sizes)
            per_round = [
                layers.per_layer(spans, os.path.join(work_dir, "extracted"),
                                 inputs.extract_flows, inputs.extract_samples, protocol_graphs)
                for spans in rec.rounds
            ]
            values = {name: statistics.median(r[name] for r in per_round)
                      for name in per_round[0]}
            values["trace.overhead_s"] = statistics.median(walls) - untraced_wall
            values["trace.overhead_ratio"] = statistics.median(walls) / untraced_wall
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
            write_trace(args, rec.rounds)
        else:
            per_round = [layers.timed_operations(spans, inputs.extract_flows)
                         for spans in rec.rounds]
            values = layers.end_to_end(per_round)
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {k: {"value": values[k], "unit": u} for k, u in UNITS.items() if k in values}
        log(f"{args.workload} seed {args.seed}: {len(walls)} rounds, "
            f"round wall median {statistics.median(walls):.3f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fp:
        json.dump({**result, "setup_s": setup_times, "round_wall_s": walls,
                   "rounds": per_round}, fp, indent=1)
    print(json.dumps(result), flush=True)
    return 0


def write_trace(args, rounds) -> None:
    """All spans of every traced round: [name, start, end, parent, info]."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "span_fields": ["name", "start", "end", "parent", "info"],
                   "rounds": rounds}, fp, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
