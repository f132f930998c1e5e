"""Flow-graph extraction and edge-attributed graph neural networks for
network traffic classification and anomaly detection."""

from .checkpoint import load_checkpoint, save_checkpoint
from .graphs import (
    FlowGraph,
    StructuralFeatures,
    aggregate_edge_features,
    build_flow_graph,
    combined_features,
    feature_matrix,
    flow_aggregate_features,
    read_graphs_jsonl,
    structural_features,
    write_graphs_jsonl,
)
from .ingest import (
    ColumnSchema,
    FlowDataset,
    FlowRecord,
    FlowTable,
    LabelTriple,
    SampleFlows,
    load_dataset,
    parse_flow_file,
    save_dataset,
)
from .metrics import MetricReport, auroc, weighted_f1
from .mlp import DenseNetwork
from .model import (
    FlowGraphNetwork,
    GraphBatch,
    PreparedGraph,
    PropagationPair,
    make_batch,
    prepare_graph,
    propagation_matrices,
)
from .preprocess import Standardizer, standardize_fit
from .splits import SplitPlan, supervised_split, unsupervised_split
from .synth import SynthSpec, synth_generate
from .training import (
    DEFAULT_GRIDS,
    ProtocolSpec,
    TrainConfig,
    TrainJob,
    grid_search,
    labels_at_level,
    make_job,
    make_split,
    run_protocol,
    evaluate_metrics,
    train,
    write_report,
)

__version__ = "0.1.0"
