"""Byte identity of extraction outputs against digests of a reference run.

`extraction_digests` builds a fixed synthetic capture, writes it with
`save_dataset` and runs `flowgnn extract` on it. The capture holds twelve
small graphs and one 240-node graph of diameter 150, so breadth-first
searches there run up to 150 levels deep. It does the same for a
`strict: false` copy with unparsable and non-finite cells injected, which
is also reloaded and saved again. The expected digests were recorded with
the per-flow record layout and the one-source-at-a-time betweenness loop
that preceded the columnar flow table; any change to these bytes is a
change of results.
"""

import csv
import hashlib
import os
from dataclasses import replace

from flowgnn import FlowDataset, SynthSpec, load_dataset, save_dataset, synth_generate
from flowgnn.cli import main

EXPECTED = {
    "capture/flows": "cc1fc48b15cc52e0e23129a73b90004d32dba505990be21c743b6efbcbcb5843",
    "capture/manifest.json": "963e304d1a92ebc3a41093822a399a9a63548f3a79ee651311e08b4f76163ef3",
    "extract/features_combined.csv": "b563f5aee2dc6597f4a01ddbd96fe29202b66bc1d011a222a3bfa11e0c641fe9",
    "extract/features_flow.csv": "e726d0dece71e769966fb418d165f6569a5e4b0038cbe04e043acfaf3c83504a",
    "extract/features_graph.csv": "bdaaa0e9f630f401d93e8c78d67a2e90b3a489e5ab7f448eafa91d21c6c2cdcd",
    "extract/graphs.jsonl": "8e74758609377a3998dc86529365156167fb0862d52c358f9fe55862f06f391a",
    "injected/extract/features_combined.csv": "bb7f94863ce739fe5477e75b36aa80cc2702eb89f5daae6ec0be63f08a76cf6d",
    "injected/extract/features_flow.csv": "633e3dff06c231d27e1e57f3e31bb8d1eb5525f83d4d9e2f42699fc4607a2be3",
    "injected/extract/features_graph.csv": "bdaaa0e9f630f401d93e8c78d67a2e90b3a489e5ab7f448eafa91d21c6c2cdcd",
    "injected/extract/graphs.jsonl": "98cb821b98f53300910767c9cb6aaa34176001b49423daaeb719e38238b51a00",
    "injected/resaved/flows": "2ac7dc4614121739c33f49c08b2978f247dd230552dc6f8b50b2852b53db64a0",
    "injected/resaved/manifest.json": "963e304d1a92ebc3a41093822a399a9a63548f3a79ee651311e08b4f76163ef3",
}

BAD_CELLS = ("nan", "inf", "-inf", "abc", "", "1e999", "-0.0", " 2.5 ", "-0", "4.9e-324")


def _capture() -> FlowDataset:
    small = synth_generate(SynthSpec(class_sizes=(6, 6), delta=1.0, min_nodes=4, max_nodes=12,
                                     max_flows_per_edge=4), seed=21)
    large = synth_generate(SynthSpec(class_sizes=(1, 1), delta=1.0, min_nodes=240,
                                     max_nodes=240, max_flows_per_edge=2), seed=23)
    samples = small.samples + (replace(large.samples[0], sample_id="large"),)
    return FlowDataset(samples, small.feature_names, small.class_maps)


def _inject_bad_cells(flows_dir) -> None:
    k = 0
    for name in sorted(os.listdir(flows_dir)):
        path = os.path.join(flows_dir, name)
        with open(path, newline="") as fp:
            rows = list(csv.reader(fp))
        for i in range(1, len(rows), 3):
            rows[i][2 + i % (len(rows[i]) - 2)] = BAD_CELLS[k % len(BAD_CELLS)]
            k += 1
        with open(path, "w", newline="") as fp:
            csv.writer(fp).writerows(rows)


def _digest(path) -> str:
    """One file's SHA-256, or one over a directory's file names and bytes."""
    h = hashlib.sha256()
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            h.update(name.encode() + b"\0")
            h.update(hashlib.sha256(open(os.path.join(path, name), "rb").read()).digest())
    else:
        h.update(open(path, "rb").read())
    return h.hexdigest()


def extraction_digests(root) -> dict[str, str]:
    root = str(root)
    capture = os.path.join(root, "capture")
    manifest = save_dataset(_capture(), capture)
    main(["extract", "--manifest", manifest, "--out", os.path.join(root, "extract")])

    injected = os.path.join(root, "injected")
    manifest = save_dataset(_capture(), os.path.join(injected, "data"), strict=False)
    _inject_bad_cells(os.path.join(injected, "data", "flows"))
    main(["extract", "--manifest", manifest, "--out", os.path.join(injected, "extract")])
    save_dataset(load_dataset(manifest), os.path.join(injected, "resaved"))
    return {name: _digest(os.path.join(root, name)) for name in EXPECTED}


def test_extraction_outputs_byte_identical(tmp_path):
    assert extraction_digests(tmp_path) == EXPECTED
