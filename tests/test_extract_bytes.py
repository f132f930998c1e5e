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

`EXPECTED_VALUES` holds value digests of the same outputs
(`conftest.value_digest`), which change only when a written value does,
not when the text that spells it does. They were recorded with the code
that wrote every float at 17 significant digits, and still hold for the
shortest round-trip text with which `EXPECTED` was re-recorded.

`PYTHONPATH=src python -m tests.test_extract_bytes` prints both digest dicts
as they stand, to paste over the pinned ones when outputs change on purpose.
"""

import csv
import os
from dataclasses import replace

from flowgnn import FlowDataset, SynthSpec, load_dataset, save_dataset, synth_generate
from flowgnn.cli import main

from .conftest import file_digests, print_digests

EXPECTED = {
    "capture/flows": "67c7bc48312f87e3ed6d336ac19e0871077a8b65dacc82da1bc745a74f02c942",
    "capture/manifest.json": "963e304d1a92ebc3a41093822a399a9a63548f3a79ee651311e08b4f76163ef3",
    "extract/features_combined.csv": "9a5e4bca23aa48796c1fe2ce24d7083fc369fee6cd656b7a6c131cb5c2db6412",
    "extract/features_flow.csv": "0362877a01389e1d3537ccbfc3fb2c44cd2a77b30d945b7006852c98487a8659",
    "extract/features_graph.csv": "03cf4ab2521fd9fbadc22415067445347a336bb408d9676007ab6c737ceacf4f",
    "extract/graphs.jsonl": "9fa647c39eb66ca38fdac6a59b1bc14903726580754f72afccb4892c6e405324",
    "injected/extract/features_combined.csv": "7787b643321a907eb29db4613273a663ae11430b11e095d8038061fc813f67b3",
    "injected/extract/features_flow.csv": "868e0c08b8afb97363ae30da2c9948d017c07aa298d6c4edfe657d6c308bdc5a",
    "injected/extract/features_graph.csv": "03cf4ab2521fd9fbadc22415067445347a336bb408d9676007ab6c737ceacf4f",
    "injected/extract/graphs.jsonl": "81b3022d7bc861662ad6087f50875a2c188df5609bcd0099311197a5a9c7f0c9",
    "injected/resaved/flows": "bc1f5e6492c0425ad4670e8b8d48b8a2b4c5f1eab0a8c76b9fddddf2f5b2e6cc",
    "injected/resaved/manifest.json": "963e304d1a92ebc3a41093822a399a9a63548f3a79ee651311e08b4f76163ef3",
}

EXPECTED_VALUES = {
    "capture/flows": "71395a223b694e7e9d1f38f24d38fb1dec243a95b14e7b3affddbcf8e4800759",
    "capture/manifest.json": "a74033e872533bfd98a08c3f12d0c5675a71b9d73bf7433568713c694ae51606",
    "extract/features_combined.csv": "9df9c7bc4fbc7633f689c1bb298ddf11f04b4b0045a285312a4424c886cac0cc",
    "extract/features_flow.csv": "d4fe5d120c2d52fa789197addef1657d86a309fbc8eba5ede0aa336829935c60",
    "extract/features_graph.csv": "d4024f9d89b8a051e9ce6779a96eb614d6d276a4a5a95a00ac9aaab18317a771",
    "extract/graphs.jsonl": "c257996e37e14a7e3b5e829520c1719bf69b2aa685d1de928aec62e02caf333a",
    "injected/extract/features_combined.csv": "6f8dc0961d212851c886c6aa8f0eeea9b6992cfa768eccd59643fbfed6ab0d31",
    "injected/extract/features_flow.csv": "b8f36a207bf284f2e39e25f289211323f4151e364238d66a401d1b21a1c34d8f",
    "injected/extract/features_graph.csv": "d4024f9d89b8a051e9ce6779a96eb614d6d276a4a5a95a00ac9aaab18317a771",
    "injected/extract/graphs.jsonl": "67646eaf4685f77073d95950ba79e07cfe98f47834d43cf4685f4c1b2fbd2752",
    "injected/resaved/flows": "fa6848afcdf08b59029b204b90562f788df8f33680eecbacbe6fd9bd3eaeda1d",
    "injected/resaved/manifest.json": "a74033e872533bfd98a08c3f12d0c5675a71b9d73bf7433568713c694ae51606",
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


def extraction_digests(root) -> tuple[dict[str, str], dict[str, str]]:
    root = str(root)
    capture = os.path.join(root, "capture")
    manifest = save_dataset(_capture(), capture)
    main(["extract", "--manifest", manifest, "--out", os.path.join(root, "extract")])

    injected = os.path.join(root, "injected")
    manifest = save_dataset(_capture(), os.path.join(injected, "data"), strict=False)
    _inject_bad_cells(os.path.join(injected, "data", "flows"))
    main(["extract", "--manifest", manifest, "--out", os.path.join(injected, "extract")])
    save_dataset(load_dataset(manifest), os.path.join(injected, "resaved"))
    return file_digests({name: os.path.join(root, name) for name in EXPECTED})


def test_extraction_outputs_byte_identical(tmp_path):
    out, values = extraction_digests(tmp_path)
    assert values == EXPECTED_VALUES
    assert out == EXPECTED


if __name__ == "__main__":
    # PYTHONPATH=src python -m tests.test_extract_bytes prints the current digests
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        text, values = extraction_digests(tmp)
    print_digests(EXPECTED=text, EXPECTED_VALUES=values)
