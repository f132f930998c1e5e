"""Which flowgnn functions get spans, and the metrics derived from them.

Untraced runs wrap only `training.train` (for train_graph_epochs_per_s)
and `training.evaluate_metrics` (to keep the evaluated models for the
correctness checks): one span per call of each. Traced runs add a span
around every public function of each layer listed in the README.
"""

from __future__ import annotations

import os
import statistics

import flowgnn as fg
import flowgnn.cli  # noqa: F401  (not imported by the package itself)

from inputs import SIZE_BUCKETS
from spans import Recorder, enclosing, self_times, totals_by_name

NN_OPS = ("scatter_rows", "gather_rows", "matmul", "batchnorm", "segment_pool", "concat_cols")
SCOPES = frozenset({"cli.cmd_extract", "training.run_protocol", "training.grid_search"})


def _train_info(args, kwargs, result):
    job = args[0]
    return (len(job.split.train), len(result.history), result.best_epoch, result.stopped_epoch)


def install_essentials(rec: Recorder, evaluations: list) -> None:
    """evaluations receives (job, model, result) while rec.capture is set."""
    def eval_info(args, kwargs, result):
        if rec.capture:
            evaluations.append((args[0], args[1], result))
        return result["value"]

    rec.wrap_function(fg.training.train, "training.train", _train_info)
    rec.wrap_function(fg.training.evaluate_metrics, "training.evaluate_metrics", eval_info)


def _rows(args, kwargs, result):
    return args[0].shape[0]


def _count_tape(loss) -> int:
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install_layers(rec: Recorder) -> None:
    """Spans at every layer boundary the per-layer metrics name."""
    g, m, t, nn = fg.graphs, fg.model, fg.training, fg.nn
    rec.wrap_function(fg.ingest.load_dataset, "ingest.load_dataset",
                      lambda a, k, out: sum(len(s.flows) for s in out.samples))
    rec.wrap_function(g.build_flow_graph, "graphs.build_flow_graph",
                      lambda a, k, out: len(a[0].flows))
    rec.wrap_function(g.structural_features, "graphs.structural_features",
                      lambda a, k, out: a[0].num_nodes)
    rec.wrap_function(g.flow_aggregate_features, "graphs.flow_aggregate_features")
    rec.wrap_function(g.combined_features, "graphs.combined_features")
    rec.wrap_function(g.write_graphs_jsonl, "graphs.write_graphs_jsonl")
    rec.wrap_function(g.read_graphs_jsonl, "graphs.read_graphs_jsonl")
    rec.wrap_function(fg.cli.cmd_extract, "cli.cmd_extract")
    rec.wrap_function(fg.preprocess.standardize_fit, "preprocess.standardize_fit")
    rec.wrap_function(m.propagation_matrices, "model.propagation_matrices")
    rec.wrap_function(m.make_batch, "model.make_batch")

    def forward_name(args, kwargs):
        mode = kwargs.get("mode", args[3] if len(args) > 3 else nn.TRAIN)
        return "model.train_forward" if mode == nn.TRAIN else "model.eval_forward"

    rec.wrap_method(m.FlowGraphNetwork, "loss", None, name_fn=forward_name)
    rec.wrap_method(m.FlowGraphNetwork, "predict_proba", "model.eval_forward")
    rec.wrap_method(m.FlowGraphNetwork, "anomaly_scores", "model.eval_forward")

    rec.wrap_method(nn.Tensor, "backward", "nn.backward")
    traced_backward = nn.Tensor.backward

    def counted_backward(self):
        with rec.span("trace.tape_count") as span:
            if span is not None:
                span[4] = _count_tape(self)
        return traced_backward(self)

    rec._set(nn.Tensor, "backward", counted_backward)
    rec.wrap_method(nn.Adam, "step", "nn.adam_step")
    for op in ("scatter_rows", "gather_rows", "matmul", "segment_pool"):
        rec.wrap_function(getattr(nn.tensor, op), f"nn.{op}", _rows)
    rec.wrap_function(nn.tensor.concat_cols, "nn.concat_cols",
                      lambda a, k, out: a[0][0].shape[0])
    rec.wrap_method(nn.BatchNorm, "__call__", "nn.batchnorm",
                    lambda a, k, out: a[1].shape[0])

    rec.wrap_function(t.grid_search, "training.grid_search", lambda a, k, out: len(out.cells))
    rec.wrap_function(t.run_protocol, "training.run_protocol")
    rec.wrap_result(t, "_val_criterion", "training.validation")
    rec.wrap_function(fg.metrics.auroc, "metrics.auroc")
    rec.wrap_function(fg.metrics.weighted_f1, "metrics.weighted_f1")
    rec.wrap_function(fg.checkpoint.save_checkpoint, "checkpoint.save",
                      lambda a, k, out: os.path.getsize(a[0]))
    rec.wrap_function(fg.checkpoint.load_checkpoint, "checkpoint.load")


# -- metrics ---------------------------------------------------------------------


def _dur(rec) -> float:
    return rec[2] - rec[1]


def timed_operations(spans: list[list], extract_flows: int) -> list[tuple]:
    """(metric, slot, work, seconds) for each timed operation of an
    untraced round. A slot is one operation that every round repeats on
    the same input: the extract command, the protocol, the k-th train call,
    each variant's grid search, each variant's score calls."""
    out = []
    trains = 0
    for rec in spans:
        name, seconds = rec[0], _dur(rec)
        if name == "stage.extract":
            out.append(("extract_flows_per_s", "extract", extract_flows, seconds))
        elif name == "stage.protocol":
            out.append(("protocol_s", "protocol", 1, seconds))
        elif name == "training.train":
            out.append(("train_graph_epochs_per_s", trains, rec[4][0] * rec[4][1], seconds))
            trains += 1
        elif name == "stage.grid":
            out.append(("grid_s", rec[4], 1, seconds))
        elif name == "stage.score":
            out.append(("score_graphs_per_s", rec[4][0], rec[4][1], seconds))
    return out


def end_to_end(rounds: list[list[tuple]]) -> dict[str, float]:
    """Each slot's median time over the run; a time metric sums the median
    times of its slots and a rate divides their work by that sum."""
    slots: dict[tuple, list] = {}
    for operations in rounds:
        for metric, slot, work, seconds in operations:
            slots.setdefault((metric, slot), [work, []])[1].append(seconds)
    totals: dict[str, list[float]] = {}
    for (metric, _), (work, times) in slots.items():
        acc = totals.setdefault(metric, [0.0, 0.0])
        acc[0] += work
        acc[1] += statistics.median(times)
    return {metric: seconds if metric.endswith("_s") and not metric.endswith("_per_s")
            else work / seconds for metric, (work, seconds) in totals.items()}


def per_layer(spans: list[list], extract_dir: str, extract_flows: int,
              extract_samples: int, protocol_graphs: int) -> dict[str, float]:
    """One traced round's per-layer figures: self times, counts, ratios."""
    selfs = self_times(spans)
    scopes = enclosing(spans, SCOPES)
    by_name = totals_by_name(spans, selfs)

    def t(name):
        return by_name.get(name, (0, 0.0))[1]

    def c(name):
        return by_name.get(name, (0, 0.0))[0]

    def named(name, scope=None):
        return [i for i, rec in enumerate(spans)
                if rec[0] == name and (scope is None or scope in scopes[i])]

    out: dict[str, float] = {
        "ingest.load_dataset_s": t("ingest.load_dataset"),
        "ingest.flows_per_s": extract_flows / t("ingest.load_dataset"),
        "graphs.build_flow_graph_s": t("graphs.build_flow_graph"),
        "graphs.build_flows_per_s": sum(spans[i][4] for i in named("graphs.build_flow_graph"))
        / t("graphs.build_flow_graph"),
        "graphs.structural_features_s": t("graphs.structural_features"),
    }
    structural = named("graphs.structural_features")
    for bucket, lo, hi in SIZE_BUCKETS:
        picked = [i for i in structural if lo <= spans[i][4] < hi]
        out[f"graphs.structural_graphs_per_s.{bucket}"] = (
            len(picked) / sum(selfs[i] for i in picked))
    in_extract = len(named("graphs.structural_features", "cli.cmd_extract"))
    out["graphs.structural_features_calls"] = in_extract
    out["graphs.structural_calls_per_graph"] = in_extract / extract_samples
    out["graphs.flow_aggregate_calls_per_sample"] = (
        len(named("graphs.flow_aggregate_features", "cli.cmd_extract")) / extract_samples)
    out["graphs.write_graphs_jsonl_s"] = t("graphs.write_graphs_jsonl")
    out["graphs.graphs_jsonl_bytes"] = os.path.getsize(os.path.join(extract_dir, "graphs.jsonl"))
    out["graphs.read_graphs_jsonl_s"] = t("graphs.read_graphs_jsonl")
    out["cli.extract_self_s"] = t("cli.cmd_extract")
    out["preprocess.standardize_fit_s"] = t("preprocess.standardize_fit")
    out["model.propagation_matrices_s"] = t("model.propagation_matrices")
    out["model.propagation_matrices_calls"] = c("model.propagation_matrices")
    out["model.propagation_calls_per_graph"] = (
        len(named("model.propagation_matrices", "training.run_protocol")) / protocol_graphs)
    out["model.make_batch_s"] = t("model.make_batch")
    out["model.make_batch_calls"] = c("model.make_batch")
    out["model.train_forward_s"] = t("model.train_forward")
    out["model.eval_forward_s"] = t("model.eval_forward")
    out["nn.backward_s"] = t("nn.backward")
    out["nn.adam_step_s"] = t("nn.adam_step")
    out["nn.tape_nodes_per_step"] = statistics.median(
        spans[i][4] for i in named("trace.tape_count"))
    for op in NN_OPS:
        out[f"nn.{op}_s"] = t(f"nn.{op}")
        out[f"nn.{op}.calls"] = c(f"nn.{op}")
        out[f"nn.{op}.rows_median"] = statistics.median(spans[i][4] for i in named(f"nn.{op}"))
    trains = named("training.train")
    cells = sum(spans[i][4] for i in named("training.grid_search"))
    out["training.train_calls"] = len(trains)
    out["training.grid_cells"] = cells
    out["training.train_calls_per_grid_cell"] = (
        len(named("training.train", "training.grid_search")) / cells)
    out["training.epochs_run"] = sum(spans[i][4][1] for i in trains)
    out["training.epochs_past_best"] = sum(spans[i][4][3] - spans[i][4][2] for i in trains)
    # the validation pass and evaluate_metrics are reported with their
    # children: their own code only dispatches to batching, forward and metrics
    out["training.validation_s"] = sum(_dur(spans[i]) for i in named("training.validation"))
    out["training.evaluate_metrics_s"] = sum(
        _dur(spans[i]) for i in named("training.evaluate_metrics"))
    out["metrics.auroc_s"] = t("metrics.auroc")
    out["metrics.weighted_f1_s"] = t("metrics.weighted_f1")
    out["checkpoint.save_s"] = t("checkpoint.save")
    out["checkpoint.load_s"] = t("checkpoint.load")
    out["checkpoint.bytes"] = sum(spans[i][4] for i in named("checkpoint.save"))
    out["trace.spans_per_round"] = len(spans)
    return out
