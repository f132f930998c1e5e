"""Parsing of per-sample flow record files into a labeled dataset.

Input layout: one CSV per sample (RFC-4180, header row) plus a UTF-8
JSON manifest that lists the samples, their label strings, the shared
column schema and parsing options. Feature computation happens upstream;
this module only reads, validates and organizes what the extractor wrote.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import dataclass, field, replace
from itertools import repeat

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

# column roles that hold flow metadata rather than numeric features
METADATA_ROLES = ("src_ip", "dst_ip", "src_port", "dst_port", "flow_id", "timestamp", "label")


@dataclass(frozen=True)
class FlowRecord:
    """One network flow: endpoints plus its numeric feature vector."""

    src_ip: str
    dst_ip: str
    features: tuple[float, ...]


@dataclass(frozen=True)
class LabelTriple:
    binary: int
    category: int
    family: int | None = None

    def at_level(self, level: str) -> int | None:
        if level not in LABEL_LEVELS:
            raise ValueError(f"unknown label level {level!r}")
        return getattr(self, level)


@dataclass(frozen=True)
class SampleFlows:
    """All flows captured during one execution of a candidate application."""

    sample_id: str
    flows: tuple[FlowRecord, ...]
    labels: LabelTriple | None = None

    def __post_init__(self):
        if not self.flows:
            raise EmptySample(f"sample {self.sample_id!r} has no flows")


@dataclass(frozen=True)
class FlowDataset:
    samples: tuple[SampleFlows, ...]
    feature_names: tuple[str, ...]
    class_maps: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def feature_dim(self) -> int:
        return len(self.feature_names)

    def num_classes(self, level: str) -> int:
        return len(self.class_maps.get(level, {}))

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
        label = raw.get("label") or ()
        if isinstance(label, str):
            label = (label,)
        features = raw.get("features")
        return cls(
            src_ip=raw["src_ip"],
            dst_ip=raw["dst_ip"],
            src_port=raw.get("src_port"),
            dst_port=raw.get("dst_port"),
            flow_id=raw.get("flow_id"),
            timestamp=raw.get("timestamp"),
            label=tuple(label),
            features=None if features is None else tuple(features),
        )

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
    with open(path, "r", encoding="utf-8", newline="") as fp:
        reader = csv.reader(fp)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptySample(f"{path}: file is empty") from None
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

        src_pos = positions[schema.src_ip]
        dst_pos = positions[schema.dst_ip]
        feat_pos = [positions[name] for name in feature_cols]

        rows = list(reader)

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
    srcs = list(map(str.strip, columns[src_pos]))
    dsts = list(map(str.strip, columns[dst_pos]))
    if not (all(srcs) and all(dsts)):
        n = next(i for i, ends in enumerate(zip(srcs, dsts)) if not all(ends))
        fault = f"{path}: row {row_nums[n]} has an empty endpoint"
        columns = [col[:n] for col in columns]

    features = []
    for pos in feat_pos:
        try:
            features.append(list(map(float, columns[pos])))
        except ValueError:
            features.append(list(map(_to_float, columns[pos])))
    replaced = []
    for i, k in np.argwhere(~np.isfinite(np.array(features, dtype=np.float64).T)).tolist():
        raw = columns[feat_pos[k]][i].strip()
        if strict:
            raise NonNumericFeature(f"{path}: row {row_nums[i]}, column {feature_cols[k]!r}: "
                                    f"cannot parse {raw!r} as a finite number")
        features[k][i] = 0.0
        replaced.append((row_nums[i], feature_cols[k], raw))
    if fault is not None:
        raise FlowDataError(fault)
    if replaced:
        examples = "; ".join(f"row {r}, column {c!r}: {v!r}" for r, c, v in replaced[:3])
        logger.warning("%s: replacing %d non-finite or non-numeric cells with 0.0 (%s%s)",
                       path, len(replaced), examples, "; ..." if len(replaced) > 3 else "")

    if not srcs:
        raise EmptySample(f"{path}: no data rows")
    values = zip(*features) if features else repeat(())
    flows = tuple(map(FlowRecord, srcs, dsts, values))
    sid = sample_id if sample_id is not None else os.path.splitext(os.path.basename(path))[0]
    return SampleFlows(sid, flows, labels), tuple(feature_cols)


def parse_flow_file(path, schema: ColumnSchema, sample_id: str | None = None,
                    labels: LabelTriple | None = None, strict: bool = True) -> SampleFlows:
    """Read one flow CSV; feature vectors keep only numeric-feature columns,
    in header order."""
    sample, _ = _parse_flow_file(path, schema, sample_id, labels, strict)
    return sample


def drop_metadata_columns(dataset: FlowDataset, roles: ColumnSchema | dict) -> FlowDataset:
    """Remove any feature column whose name is assigned a metadata role.

    Columns already absent are ignored, which makes the operation
    idempotent.
    """
    if isinstance(roles, dict):
        roles = ColumnSchema.from_dict(roles)
    to_drop = roles.non_feature_columns()
    keep = [i for i, name in enumerate(dataset.feature_names) if name not in to_drop]
    if len(keep) == dataset.feature_dim:
        return dataset
    new_samples = []
    for sample in dataset.samples:
        new_flows = tuple(
            FlowRecord(f.src_ip, f.dst_ip, tuple(f.features[i] for i in keep))
            for f in sample.flows
        )
        new_samples.append(replace(sample, flows=new_flows))
    return FlowDataset(
        samples=tuple(new_samples),
        feature_names=tuple(dataset.feature_names[i] for i in keep),
        class_maps=dataset.class_maps,
    )


def _class_map(values: list[str], declared: list[str] | None, level: str) -> dict[str, int]:
    if declared is not None:
        table = {name: i for i, name in enumerate(sorted(set(declared)))}
        for value in values:
            if value not in table:
                raise UnknownLabel(f"{level} label {value!r} not in declared classes")
        return table
    return {name: i for i, name in enumerate(sorted(set(values)))}


def load_dataset(manifest_path) -> FlowDataset:
    """Assemble a FlowDataset from a manifest of per-sample flow files.

    Label strings become contiguous integer indices in lexicographic
    order. Samples whose family has fewer than min_family_count members
    are dropped before index assignment.
    """
    manifest = serialize.load_path(manifest_path)
    base_dir = os.path.dirname(os.path.abspath(manifest_path))
    schema = ColumnSchema.from_dict(manifest["schema"])
    strict = bool(manifest.get("strict", True))
    min_family_count = int(manifest.get("min_family_count", 9))
    declared = manifest.get("classes", {})

    entries = manifest["samples"]
    if not entries:
        raise EmptySample("manifest lists no samples")

    # family filtering happens on label strings, before any file is read
    family_counts: dict[str, int] = {}
    for entry in entries:
        fam = entry.get("labels", {}).get("family")
        if fam is not None:
            family_counts[fam] = family_counts.get(fam, 0) + 1
    kept_entries = []
    for entry in entries:
        fam = entry.get("labels", {}).get("family")
        if fam is not None and family_counts[fam] < min_family_count:
            continue
        kept_entries.append(entry)
    dropped = len(entries) - len(kept_entries)
    if dropped:
        logger.info("dropped %d samples from families below %d members", dropped, min_family_count)
    if not kept_entries:
        raise EmptySample("family filtering removed every sample")

    raw_labels: dict[str, list] = {level: [] for level in LABEL_LEVELS}
    for entry in kept_entries:
        labels = entry.get("labels") or {}
        if labels and ("binary" not in labels or "category" not in labels):
            raise UnknownLabel(f"sample {entry.get('id')!r} must carry binary and category labels")
        raw_labels["binary"].append(None if not labels else str(labels["binary"]))
        raw_labels["category"].append(None if not labels else str(labels["category"]))
        raw_labels["family"].append(None if labels.get("family") is None else str(labels["family"]))

    class_maps = {}
    for level in LABEL_LEVELS:
        values = [v for v in raw_labels[level] if v is not None]
        if values:
            class_maps[level] = _class_map(values, declared.get(level), level)
    if len(class_maps.get("binary", {})) > 2:
        raise UnknownLabel(f"binary level has {len(class_maps['binary'])} classes")

    samples = []
    feature_names: tuple[str, ...] | None = None
    for idx, entry in enumerate(kept_entries):
        if raw_labels["binary"][idx] is None:
            triple = None
        else:
            fam = raw_labels["family"][idx]
            triple = LabelTriple(
                binary=class_maps["binary"][raw_labels["binary"][idx]],
                category=class_maps["category"][raw_labels["category"][idx]],
                family=None if fam is None else class_maps["family"][fam],
            )
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
    labeled = [s for s in dataset.samples if s.labels is not None]
    benign_cats = {s.labels.category for s in labeled if s.labels.binary == 0}
    mal_cats = {s.labels.category for s in labeled if s.labels.binary == 1}
    if benign_cats and (len(benign_cats) > 1 or benign_cats & mal_cats):
        raise UnknownLabel(
            "benign samples must map to exactly one category index unused by malicious samples"
        )
    benign_fams = {s.labels.family for s in labeled
                   if s.labels.binary == 0 and s.labels.family is not None}
    mal_fams = {s.labels.family for s in labeled
                if s.labels.binary == 1 and s.labels.family is not None}
    if benign_fams and (len(benign_fams) > 1 or benign_fams & mal_fams):
        raise UnknownLabel(
            "benign samples must map to exactly one family index unused by malicious samples"
        )


def save_dataset(dataset: FlowDataset, out_dir, strict: bool = True,
                 min_family_count: int = 0) -> str:
    """Write a dataset as manifest + per-sample CSVs; inverse of load_dataset.

    Floats are written with 17 significant digits so a reload reproduces
    every feature value bit-exactly.
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
            for flow in sample.flows:
                writer.writerow(
                    [flow.src_ip, flow.dst_ip]
                    + [serialize.format_float(v) for v in flow.features]
                )
        labels = {}
        if sample.labels is not None:
            labels["binary"] = names["binary"][sample.labels.binary]
            labels["category"] = names["category"][sample.labels.category]
            if sample.labels.family is not None:
                labels["family"] = names["family"][sample.labels.family]
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
