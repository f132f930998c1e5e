"""Parsing of per-sample flow record files into a labeled dataset.

Input layout: one CSV per sample (RFC-4180, header row) plus a UTF-8
JSON manifest that lists the samples, their label strings, the shared
column schema and parsing options. Feature computation happens upstream;
this module only reads, validates and organizes what the extractor wrote.

A sample's flows are held by column: the source and destination endpoint
strings plus one C-ordered (flows, d) float64 matrix, filled straight
from the CSV columns. No per-flow object is built.
"""

from __future__ import annotations

import csv
import logging
import math
import numbers
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .errors import (
    EmptySample,
    FlowDataError,
    InconsistentDimension,
    MissingColumn,
    NonNumericFeature,
    UnknownLabel,
)

logger = logging.getLogger(__name__)

LABEL_LEVELS = ("binary", "category", "family")


@dataclass(frozen=True)
class FlowRecord:
    """One network flow: endpoints plus its numeric feature vector; an input
    form only, which `SampleFlows` converts into its `FlowTable` once."""

    src_ip: str
    dst_ip: str
    features: tuple[float, ...]


def _is_index(value) -> bool:
    return isinstance(value, numbers.Integral) and value >= 0


@dataclass(frozen=True)
class LabelTriple:
    """A sample's class indices: binary is 0 (benign) or 1 (malicious),
    category and family are non-negative, and family may be missing."""

    binary: int
    category: int
    family: int | None = None

    def __post_init__(self):
        if not _is_index(self.binary) or self.binary > 1:
            raise UnknownLabel(f"binary label {self.binary!r} is not 0 or 1")
        if not _is_index(self.category):
            raise UnknownLabel(f"category label {self.category!r} is not a non-negative index")
        if self.family is not None and not _is_index(self.family):
            raise UnknownLabel(f"family label {self.family!r} is not a non-negative index")

    def at_level(self, level: str) -> int | None:
        if level not in LABEL_LEVELS:
            raise ValueError(f"unknown label level {level!r}")
        return getattr(self, level)

    def to_dict(self) -> dict[str, int]:
        """The levels this triple holds, in LABEL_LEVELS order."""
        return {level: getattr(self, level) for level in LABEL_LEVELS
                if getattr(self, level) is not None}


@dataclass(frozen=True, eq=False)
class FlowTable:
    """A sample's flows by column, in file order.

    `features` is one C-ordered (flows, d) float64 matrix; row i belongs to
    the flow from `src_ips[i]` to `dst_ips[i]`. `len` is the flow count.
    """

    src_ips: tuple[str, ...]
    dst_ips: tuple[str, ...]
    features: np.ndarray

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        if features.ndim != 2 or not len(self.src_ips) == len(self.dst_ips) == len(features):
            raise InconsistentDimension(
                f"{len(self.src_ips)} sources and {len(self.dst_ips)} destinations "
                f"for a feature matrix of shape {features.shape}")
        object.__setattr__(self, "features", features)

    def __len__(self) -> int:
        return len(self.src_ips)


@dataclass(frozen=True)
class SampleFlows:
    """All flows captured during one execution of a candidate application.

    `flows` is a FlowTable. A sequence of FlowRecords is converted to one
    when the sample is built.
    """

    sample_id: str
    flows: FlowTable
    labels: LabelTriple | None = None

    def __post_init__(self):
        if not isinstance(self.flows, FlowTable):
            records = tuple(self.flows)
            widths = {len(r.features) for r in records}
            if len(widths) > 1:
                raise InconsistentDimension(f"flow records have features {sorted(widths)}-wide")
            matrix = np.array([r.features for r in records], dtype=np.float64)
            object.__setattr__(self, "flows", FlowTable(
                tuple(r.src_ip for r in records), tuple(r.dst_ip for r in records),
                matrix.reshape(len(records), widths.pop() if widths else 0)))
        if not len(self.flows):
            raise EmptySample(f"sample {self.sample_id!r} has no flows")


def _check_unique_ids(ids, source: str = "") -> None:
    """Samples are matched by the text of their id (feature sets, saved flow
    files), so the ids 1 and "1" are one id; source prefixes the error."""
    seen: set = set()
    for sid in ids:
        if str(sid) in seen:
            raise FlowDataError(f"{source}sample id {sid!r} appears more than once")
        seen.add(str(sid))


@dataclass(frozen=True)
class FlowDataset:
    samples: tuple[SampleFlows, ...]
    feature_names: tuple[str, ...]
    class_maps: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self):
        _check_unique_ids(s.sample_id for s in self.samples)

    @property
    def feature_dim(self) -> int:
        return len(self.feature_names)

    def class_names(self, level: str) -> list[str]:
        mapping = self.class_maps.get(level, {})
        return [name for name, _ in sorted(mapping.items(), key=lambda kv: kv[1])]


@dataclass(frozen=True)
class ColumnSchema:
    """Maps column roles to header names for one file format.

    Columns listed under no role default to numeric features unless an
    explicit feature list is given.
    """

    src_ip: str
    dst_ip: str
    src_port: str | None = None
    dst_port: str | None = None
    flow_id: str | None = None
    timestamp: str | None = None
    label: tuple[str, ...] = ()
    features: tuple[str, ...] | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ColumnSchema":
        """The manifest's schema entry, once it fits the manifest shape."""
        label, features = raw.get("label") or (), raw.get("features")
        return cls(raw["src_ip"], raw["dst_ip"],
                   *map(raw.get, ("src_port", "dst_port", "flow_id", "timestamp")),
                   label=(label,) if isinstance(label, str) else tuple(label),
                   features=None if features is None else tuple(features))

    def non_feature_columns(self) -> set[str]:
        cols = {self.src_ip, self.dst_ip}
        for key in ("src_port", "dst_port", "flow_id", "timestamp"):
            value = getattr(self, key)
            if value is not None:
                cols.add(value)
        cols.update(self.label)
        return cols


def _to_float(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _parse_flow_file(path, schema: ColumnSchema, sample_id: str | None,
                     labels: LabelTriple | None, strict: bool) -> tuple[SampleFlows, tuple[str, ...]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fp:
            reader = csv.reader(fp)
            header = next(reader, None)
            rows = list(reader)
    except csv.Error as exc:
        raise FlowDataError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FlowDataError(f"{path}: not UTF-8 text: {exc}") from None
    if header is None:
        raise EmptySample(f"{path}: file is empty")
    header = [h.strip() for h in header]
    positions = {name: i for i, name in enumerate(header)}

    for name in schema.non_feature_columns():
        if name not in positions:
            raise MissingColumn(f"{path}: schema column {name!r} not in header")
    if schema.features is not None:
        for name in schema.features:
            if name not in positions:
                raise MissingColumn(f"{path}: feature column {name!r} not in header")
        feature_cols = sorted(schema.features, key=positions.__getitem__)
    else:
        excluded = schema.non_feature_columns()
        feature_cols = [name for name in header if name not in excluded]

    if not feature_cols:
        raise FlowDataError(f"{path}: no feature column; every column has a metadata role")
    src_pos = positions[schema.src_ip]
    dst_pos = positions[schema.dst_ip]
    feat_pos = [positions[name] for name in feature_cols]

    # rows up to the first malformed one; cells of earlier rows are still
    # checked first, so errors come in file order. A row may stop short of
    # trailing columns that are not read (exporters may leave out the label)
    needed = max(src_pos, dst_pos, *feat_pos) + 1
    row_nums, kept, fault = [], [], None
    for row_num, row in enumerate(rows, start=1):
        if not row:
            continue
        if not needed <= len(row) <= len(header):
            fault = f"{path}: row {row_num} has {len(row)} cells; the header has {len(header)}"
            break
        row_nums.append(row_num)
        kept.append(row)
    columns = list(zip(*kept)) or [()] * len(header)
    srcs = tuple(map(str.strip, columns[src_pos]))
    dsts = tuple(map(str.strip, columns[dst_pos]))
    if not (all(srcs) and all(dsts)):
        n = next(i for i, ends in enumerate(zip(srcs, dsts)) if not all(ends))
        fault = f"{path}: row {row_nums[n]} has an empty endpoint"
        columns = [col[:n] for col in columns]

    # numpy parses each str cell with float(), so the bits are float()'s
    try:
        matrix = np.array([columns[pos] for pos in feat_pos], dtype=np.float64)
    except ValueError:
        matrix = np.array([list(map(_to_float, columns[pos])) for pos in feat_pos])
    matrix = np.ascontiguousarray(matrix.T)
    replaced = []
    for i, k in np.argwhere(~np.isfinite(matrix)).tolist():
        raw = columns[feat_pos[k]][i].strip()
        if strict:
            raise NonNumericFeature(f"{path}: row {row_nums[i]}, column {feature_cols[k]!r}: "
                                    f"cannot parse {raw!r} as a finite number")
        matrix[i, k] = 0.0
        replaced.append((row_nums[i], feature_cols[k], raw))
    if fault is not None:
        raise FlowDataError(fault)
    if replaced:
        examples = "; ".join(f"row {r}, column {c!r}: {v!r}" for r, c, v in replaced[:3])
        logger.warning("%s: replacing %d non-finite or non-numeric cells with 0.0 (%s%s)",
                       path, len(replaced), examples, "; ..." if len(replaced) > 3 else "")

    if not srcs:
        raise EmptySample(f"{path}: no data rows")
    sid = sample_id if sample_id is not None else os.path.splitext(os.path.basename(path))[0]
    return SampleFlows(sid, FlowTable(srcs, dsts, matrix), labels), tuple(feature_cols)


def parse_flow_file(path, schema: ColumnSchema, sample_id: str | None = None,
                    labels: LabelTriple | None = None, strict: bool = True) -> SampleFlows:
    """Read one flow CSV; feature vectors keep only numeric-feature columns,
    in header order."""
    sample, _ = _parse_flow_file(path, schema, sample_id, labels, strict)
    return sample


def _class_map(values: list[str], declared: list[str] | None, level: str) -> dict[str, int]:
    if declared is not None:
        table = {name: i for i, name in enumerate(sorted(set(declared)))}
        for value in values:
            if value not in table:
                raise UnknownLabel(f"{level} label {value!r} not in declared classes")
        return table
    return {name: i for i, name in enumerate(sorted(set(values)))}


_MANIFEST = {
    "schema": {"src_ip": str, "dst_ip": str,
               **dict.fromkeys(("src_port?", "dst_port?", "flow_id?", "timestamp?"), (str, None)),
               "label?": (str, [str], None), "features?": ([str], None)},
    "strict?": bool, "min_family_count?": int,
    "classes?": {f"{level}?": ([str], None) for level in LABEL_LEVELS},
    "samples": [{"id": (str, int), "file": str}],
}


def load_dataset(manifest_path) -> FlowDataset:
    """Assemble a FlowDataset from a manifest of per-sample flow files.

    Label strings become contiguous integer indices in lexicographic
    order. Samples whose family has fewer than min_family_count members
    are dropped before index assignment. The manifest is checked against
    _MANIFEST before any flow file is read; a field that does not fit
    raises FlowDataError naming the manifest and the field.
    """
    manifest = serialize.load_path(manifest_path, FlowDataError)
    if not isinstance(manifest, dict):
        raise FlowDataError(f"{manifest_path}: a manifest is a JSON object, "
                            f"not {type(manifest).__name__}")
    manifest = serialize.checked(manifest, _MANIFEST, "",
                                 lambda message: FlowDataError(f"{manifest_path}: {message}"))
    base_dir = os.path.dirname(os.path.abspath(manifest_path))
    schema = ColumnSchema.from_dict(manifest["schema"])
    strict = manifest.get("strict", True)
    min_family_count = manifest.get("min_family_count", 9)
    declared = manifest.get("classes", {})
    entries = manifest["samples"]
    if not entries:
        raise EmptySample("manifest lists no samples")
    _check_unique_ids((entry["id"] for entry in entries), f"{manifest_path}: ")

    # per entry, the label string of each level it holds
    raw_labels: list[dict[str, str]] = []
    for entry in entries:
        labels = entry.get("labels") or {}
        if not isinstance(labels, dict) or (
                labels and (labels.get("binary") is None or labels.get("category") is None)):
            raise UnknownLabel(f"sample {entry.get('id')!r} must carry binary and category labels")
        raw_labels.append({level: str(labels[level]) for level in LABEL_LEVELS
                           if labels.get(level) is not None})

    # family filtering happens on label strings, before any file is read
    family_counts = Counter(raw.get("family") for raw in raw_labels)
    kept = [(entry, raw) for entry, raw in zip(entries, raw_labels)
            if "family" not in raw or family_counts[raw["family"]] >= min_family_count]
    dropped = len(entries) - len(kept)
    if dropped:
        logger.info("dropped %d samples from families below %d members", dropped, min_family_count)
    if not kept:
        raise EmptySample("family filtering removed every sample")

    class_maps = {}
    for level in LABEL_LEVELS:
        values = [raw[level] for _, raw in kept if level in raw]
        if values:
            class_maps[level] = _class_map(values, declared.get(level), level)
    if len(class_maps.get("binary", {})) > 2:
        raise UnknownLabel(f"binary level has {len(class_maps['binary'])} classes")

    samples = []
    feature_names: tuple[str, ...] | None = None
    for entry, raw in kept:
        triple = None
        if raw:
            triple = LabelTriple(**{level: class_maps[level][name] for level, name in raw.items()})
        file_path = os.path.join(base_dir, entry["file"])
        sample, names = _parse_flow_file(
            file_path, schema, sample_id=entry["id"], labels=triple, strict=strict
        )
        if feature_names is None:
            feature_names = names
        elif names != feature_names:
            raise InconsistentDimension(
                f"sample {entry['id']!r} has features {len(names)}-wide, expected {len(feature_names)}"
            )
        samples.append(sample)

    dataset = FlowDataset(tuple(samples), feature_names, class_maps)
    _check_benign_consistency(dataset)
    return dataset


def _check_benign_consistency(dataset: FlowDataset) -> None:
    """Benign samples must share one category (and family) index that no
    malicious sample uses."""
    labeled = [s.labels for s in dataset.samples if s.labels is not None]
    for level in ("category", "family"):
        benign = {t.at_level(level) for t in labeled if t.binary == 0} - {None}
        malicious = {t.at_level(level) for t in labeled if t.binary == 1} - {None}
        if benign and (len(benign) > 1 or benign & malicious):
            raise UnknownLabel(f"benign samples must map to exactly one {level} index "
                               "unused by malicious samples")


def save_dataset(dataset: FlowDataset, out_dir, strict: bool = True,
                 min_family_count: int = 0) -> str:
    """Write a dataset as manifest + per-sample CSVs; inverse of load_dataset.

    Floats are written as their shortest round-trip text, so a reload
    reproduces every feature value bit-exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    flows_dir = os.path.join(out_dir, "flows")
    os.makedirs(flows_dir, exist_ok=True)

    names = {level: dataset.class_names(level) for level in dataset.class_maps}
    entries = []
    for sample in dataset.samples:
        rel = os.path.join("flows", f"{sample.sample_id}.csv")
        with open(os.path.join(out_dir, rel), "w", encoding="utf-8", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow(["src_ip", "dst_ip", *dataset.feature_names])
            flows = sample.flows
            for src, dst, cells in zip(flows.src_ips, flows.dst_ips,
                                       serialize.finite_rows(flows.features)):
                writer.writerow([src, dst, *cells])
        labels = {} if sample.labels is None else {
            level: names[level][index] for level, index in sample.labels.to_dict().items()}
        entries.append({"id": sample.sample_id, "file": rel, "labels": labels})

    manifest = {
        "samples": entries,
        "schema": {"src_ip": "src_ip", "dst_ip": "dst_ip"},
        "strict": strict,
        "min_family_count": min_family_count,
        "classes": {level: names[level] for level in names},
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    serialize.dump_path(manifest, manifest_path)
    return manifest_path
