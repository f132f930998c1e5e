import json
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowgnn import serialize
from flowgnn.errors import (
    EmptySample,
    FlowDataError,
    InconsistentDimension,
    MissingColumn,
    NonNumericFeature,
    UnknownLabel,
)
from flowgnn.ingest import (
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

from .conftest import table_columns

SCHEMA = ColumnSchema(src_ip="src", dst_ip="dst")


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(",".join(header) + "\n")
        for row in rows:
            fp.write(",".join(str(v) for v in row) + "\n")


class TestParseFlowFile:
    def test_two_rows_three_features(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["src", "dst", "f1", "f2", "f3"],
                  [["10.0.0.1", "10.0.0.2", 1.5, 2.0, 3.0],
                   ["10.0.0.2", "10.0.0.1", -1.0, 0.0, 9.5]])
        sample = parse_flow_file(path, SCHEMA)
        assert len(sample.flows) == 2
        assert sample.flows.features[0].tolist() == [1.5, 2.0, 3.0]
        assert sample.flows.src_ips[1] == "10.0.0.2"

    def test_missing_designated_column(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["src", "f1"], [["10.0.0.1", 1.0]])
        with pytest.raises(MissingColumn):
            parse_flow_file(path, SCHEMA)

    def test_nan_strict_vs_lenient(self, tmp_path, caplog):
        path = tmp_path / "a.csv"
        write_csv(path, ["src", "dst", "f1", "f2"],
                  [["a", "b", "NaN", 1.0], ["b", "a", 2.0, 3.0]])
        with pytest.raises(NonNumericFeature):
            parse_flow_file(path, SCHEMA, strict=True)
        with caplog.at_level("WARNING"):
            sample = parse_flow_file(path, SCHEMA, strict=False)
        assert sample.flows.features[0].tolist() == [0.0, 1.0]
        assert any("replacing" in rec.message for rec in caplog.records)

    def test_lenient_logs_one_warning_per_file(self, tmp_path, caplog):
        path = tmp_path / "a.csv"
        write_csv(path, ["src", "dst", "f1", "f2"],
                  [["a", "b", "NaN", 1.0], ["b", "a", "x", "inf"], ["a", "b", 2.0, 3.0],
                   ["b", "c", "", -1.0], ["c", "a", 1.0, "-Infinity"]])
        with caplog.at_level("WARNING"):
            sample = parse_flow_file(path, SCHEMA, strict=False)
        assert sample.flows.features.tolist() == [
            [0.0, 1.0], [0.0, 0.0], [2.0, 3.0], [0.0, -1.0], [1.0, 0.0]]
        warnings = [rec.getMessage() for rec in caplog.records if rec.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "replacing 5 " in warnings[0]
        assert "row 1, column 'f1': 'NaN'" in warnings[0]
        assert "row 2, column 'f2': 'inf'" in warnings[0]
        assert "row 4" not in warnings[0]

    @pytest.mark.parametrize("row, message", [
        (["b", "a", 2.0], "row 2 has 3 cells; the header has 4"),
        (["b", "a", 2.0, 3.0, 4.0], "row 2 has 5 cells; the header has 4"),
        (["b", " ", 2.0, 3.0], "row 2 has an empty endpoint"),
    ], ids=["short_row", "long_row", "empty_endpoint"])
    def test_malformed_row_names_file_and_row(self, tmp_path, row, message):
        path = tmp_path / "a.csv"
        write_csv(path, ["src", "dst", "f1", "f2"], [["a", "b", 1.0, 1.0], row, ["a", "b", 5, 6]])
        for strict in (True, False):
            with pytest.raises(FlowDataError, match=f"a.csv: {message}"):
                parse_flow_file(path, SCHEMA, strict=strict)

    def test_row_may_omit_trailing_unread_columns(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["src", "dst", "f1", "label"], [["a", "b", 1.0], ["b", "a", 2.0, "x"]])
        schema = ColumnSchema(src_ip="src", dst_ip="dst", label=("label",))
        sample = parse_flow_file(path, schema)
        assert sample.flows.features.tolist() == [[1.0], [2.0]]

    def test_bad_cell_before_malformed_row_reported_first(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["src", "dst", "f1"], [["a", "b", "zzz"], ["", "b", 1.0]])
        with pytest.raises(NonNumericFeature, match="row 1"):
            parse_flow_file(path, SCHEMA, strict=True)

    def test_infinity_and_garbage_cells(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["src", "dst", "f1"], [["a", "b", "Infinity"], ["a", "b", "zzz"]])
        with pytest.raises(NonNumericFeature):
            parse_flow_file(path, SCHEMA, strict=True)
        sample = parse_flow_file(path, SCHEMA, strict=False)
        assert sample.flows.features.tolist() == [[0.0], [0.0]]

    def test_empty_sample(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["src", "dst", "f1"], [])
        with pytest.raises(EmptySample):
            parse_flow_file(path, SCHEMA)

    def test_oversized_cell_names_file_and_line(self, tmp_path):
        # csv's default field limit is 131,072 characters
        path = tmp_path / "a.csv"
        write_csv(path, ["src", "dst", "f1"], [["a", "b", 1.0], ["a", "b", "9" * 131_073]])
        with pytest.raises(FlowDataError, match=re.escape(f"{path}: line 3: field larger")):
            parse_flow_file(path, SCHEMA)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"src,dst,f1\n\xff\xfe,b,1.0\n")
        with pytest.raises(FlowDataError, match=re.escape(f"{path}: not UTF-8 text")):
            parse_flow_file(path, SCHEMA)

    def test_metadata_roles_excluded_in_header_order(self, tmp_path):
        path = tmp_path / "a.csv"
        schema = ColumnSchema(src_ip="src", dst_ip="dst", src_port="sport",
                              flow_id="fid", timestamp="ts", label=("Label",))
        write_csv(path, ["fid", "src", "sport", "dst", "f2", "ts", "f1", "Label"],
                  [["x", "a", 80, "b", 2.0, "t0", 1.0, "ok"]])
        sample = parse_flow_file(path, schema)
        # feature order follows the header: f2 before f1
        assert sample.flows.features.tolist() == [[2.0, 1.0]]

    def test_explicit_feature_list(self, tmp_path):
        path = tmp_path / "a.csv"
        schema = ColumnSchema(src_ip="src", dst_ip="dst", features=("f1",))
        write_csv(path, ["src", "dst", "f1", "junk"], [["a", "b", 1.0, "zz"]])
        sample = parse_flow_file(path, schema)
        assert sample.flows.features.tolist() == [[1.0]]

    @pytest.mark.parametrize("header, schema", [
        (["src", "dst"], SCHEMA),
        (["src", "dst", "ts", "Label"],
         ColumnSchema(src_ip="src", dst_ip="dst", timestamp="ts", label=("Label",))),
        (["src", "dst", "f1"], ColumnSchema(src_ip="src", dst_ip="dst", features=())),
    ], ids=["endpoints_only", "metadata_only", "empty_feature_list"])
    def test_no_feature_column_rejected(self, tmp_path, header, schema):
        path = tmp_path / "a.csv"
        write_csv(path, header, [["a", "b", "1", "x"][:len(header)]])
        for strict in (True, False):
            with pytest.raises(FlowDataError, match="a.csv: no feature column"):
                parse_flow_file(path, schema, strict=strict)


class TestFlowTable:
    RECORDS = (FlowRecord("a", "b", (1.5, -0.0)), FlowRecord("b", "c", (2.0, 5e-324)),
               FlowRecord("a", "b", (0.1, 3.0)))

    def test_reads_as_records(self):
        table = SampleFlows("s", self.RECORDS).flows
        assert table.features.flags.c_contiguous and table.features.dtype == np.float64
        assert len(table) == 3
        assert table.src_ips == ("a", "b", "a") and table.dst_ips == ("b", "c", "b")
        assert table.features.tobytes() == np.array([r.features for r in self.RECORDS]).tobytes()

    def test_sample_converts_records_once(self):
        sample = SampleFlows("s", self.RECORDS)
        assert isinstance(sample.flows, FlowTable)
        assert SampleFlows("s", sample.flows).flows is sample.flows

    def test_built_from_records_equals_parsed(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["src", "dst", "f1", "f2"],
                  [[r.src_ip, r.dst_ip, *map(repr, r.features)] for r in self.RECORDS])
        parsed = parse_flow_file(path, SCHEMA, sample_id="s")
        assert parsed.sample_id == "s"
        assert table_columns(parsed.flows) == table_columns(SampleFlows("s", self.RECORDS).flows)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(InconsistentDimension):
            SampleFlows("s", (FlowRecord("a", "b", (1.0,)), FlowRecord("a", "b", (1.0, 2.0))))
        with pytest.raises(InconsistentDimension):
            FlowTable(("a", "b"), ("b",), np.zeros((2, 1)))


class TestLabelTriple:
    @pytest.mark.parametrize("values", [(2, 0), (-1, 0), (0.5, 0), (0, -1), (0, 1.0),
                                        (1, 1, -2), (0, None), (None, 0)])
    def test_out_of_range_rejected(self, values):
        with pytest.raises(UnknownLabel):
            LabelTriple(*values)

    def test_to_dict_holds_present_levels_in_order(self):
        assert LabelTriple(1, 2).to_dict() == {"binary": 1, "category": 2}
        assert list(LabelTriple(0, 0, 0).to_dict().items()) == \
            [("binary", 0), ("category", 0), ("family", 0)]


def write_manifest(tmp_path, samples, schema=None, **extra):
    manifest = {
        "samples": samples,
        "schema": schema or {"src_ip": "src", "dst_ip": "dst"},
        **extra,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class TestLoadDataset:
    def test_three_samples_two_classes(self, tmp_path):
        entries = []
        for i in range(3):
            name = f"s{i}.csv"
            write_csv(tmp_path / name, ["src", "dst", "f1", "f2"],
                      [["a", "b", i, i + 1.0]])
            label = "benign" if i == 0 else "malware"
            entries.append({"id": f"s{i}", "file": name,
                            "labels": {"binary": label, "category": label}})
        ds = load_dataset(write_manifest(tmp_path, entries, min_family_count=0))
        assert len(ds.samples) == 3
        assert ds.class_maps["binary"] == {"benign": 0, "malware": 1}
        assert ds.samples[0].labels.binary == 0

    def test_inconsistent_dimension(self, tmp_path):
        write_csv(tmp_path / "a.csv", ["src", "dst", "f1"], [["a", "b", 1.0]])
        write_csv(tmp_path / "b.csv", ["src", "dst", "f1", "f2"], [["a", "b", 1.0, 2.0]])
        entries = [
            {"id": "a", "file": "a.csv", "labels": {"binary": "benign", "category": "benign"}},
            {"id": "b", "file": "b.csv", "labels": {"binary": "benign", "category": "benign"}},
        ]
        with pytest.raises(InconsistentDimension):
            load_dataset(write_manifest(tmp_path, entries, min_family_count=0))

    def test_unknown_label_against_declared_classes(self, tmp_path):
        write_csv(tmp_path / "a.csv", ["src", "dst", "f1"], [["a", "b", 1.0]])
        entries = [{"id": "a", "file": "a.csv",
                    "labels": {"binary": "weird", "category": "weird"}}]
        manifest = write_manifest(tmp_path, entries, min_family_count=0,
                                  classes={"binary": ["benign", "malware"]})
        with pytest.raises(UnknownLabel):
            load_dataset(manifest)

    def test_family_filtering_drops_small_families(self, tmp_path):
        entries = []
        idx = 0
        for fam, count in (("big_fam", 9), ("tiny_fam", 3)):
            for _ in range(count):
                name = f"s{idx}.csv"
                write_csv(tmp_path / name, ["src", "dst", "f1"], [["a", "b", 1.0]])
                entries.append({
                    "id": f"s{idx}", "file": name,
                    "labels": {"binary": "malware", "category": "mal", "family": fam},
                })
                idx += 1
        ds = load_dataset(write_manifest(tmp_path, entries, min_family_count=9))
        assert len(ds.samples) == 9
        assert ds.class_maps["family"] == {"big_fam": 0}

    def test_benign_category_consistency_enforced(self, tmp_path):
        write_csv(tmp_path / "a.csv", ["src", "dst", "f1"], [["a", "b", 1.0]])
        write_csv(tmp_path / "b.csv", ["src", "dst", "f1"], [["a", "b", 2.0]])
        entries = [
            {"id": "a", "file": "a.csv", "labels": {"binary": "benign", "category": "adware"}},
            {"id": "b", "file": "b.csv", "labels": {"binary": "malware", "category": "adware"}},
        ]
        with pytest.raises(UnknownLabel):
            load_dataset(write_manifest(tmp_path, entries, min_family_count=0))

    @pytest.mark.parametrize("labels", [{"binary": None, "category": "benign"},
                                        {"binary": "benign"}, "benign"])
    def test_labeled_sample_needs_binary_and_category(self, tmp_path, labels):
        write_csv(tmp_path / "a.csv", ["src", "dst", "f1"], [["a", "b", 1.0]])
        entries = [{"id": "a", "file": "a.csv", "labels": labels}]
        with pytest.raises(UnknownLabel, match="'a' must carry binary and category"):
            load_dataset(write_manifest(tmp_path, entries, min_family_count=0))

    def test_null_labels_load_unlabeled(self, tmp_path):
        write_csv(tmp_path / "a.csv", ["src", "dst", "f1"], [["a", "b", 1.0]])
        entries = [{"id": "a", "file": "a.csv", "labels": None}]
        ds = load_dataset(write_manifest(tmp_path, entries, min_family_count=9))
        assert ds.samples[0].labels is None and ds.class_maps == {}

    def test_benign_family_consistency_enforced(self, tmp_path):
        entries = []
        for sid, binary, family in (("a", "benign", "f1"), ("b", "malware", "f1")):
            write_csv(tmp_path / f"{sid}.csv", ["src", "dst", "f1"], [["a", "b", 1.0]])
            entries.append({"id": sid, "file": f"{sid}.csv", "labels": {
                "binary": binary, "category": binary, "family": family}})
        with pytest.raises(UnknownLabel, match="one family index"):
            load_dataset(write_manifest(tmp_path, entries, min_family_count=0))

    def test_duplicate_sample_id_rejected(self, tmp_path):
        # the files do not exist: the id check comes before any is read
        entries = [{"id": "s", "file": name, "labels": {"binary": "benign", "category": "benign"}}
                   for name in ("a.csv", "b.csv")]
        with pytest.raises(FlowDataError, match="sample id 's' appears more than once"):
            load_dataset(write_manifest(tmp_path, entries, min_family_count=0))
        # a dataset built in code could not be saved: both samples map to flows/s.csv
        sample = SampleFlows("s", (FlowRecord("a", "b", (1.0,)),))
        with pytest.raises(FlowDataError, match="sample id 's' appears more than once"):
            FlowDataset((sample, replace(sample, labels=LabelTriple(0, 0))), ("f0",))

    @pytest.mark.parametrize("strict", ["false", 0, None])
    def test_strict_must_be_a_json_boolean(self, tmp_path, strict):
        # the string "false" read as strict before: bool("false") is True
        write_csv(tmp_path / "a.csv", ["src", "dst", "f1"], [["a", "b", "nan"]])
        entries = [{"id": "a", "file": "a.csv", "labels": {"binary": "benign",
                                                           "category": "benign"}}]
        path = write_manifest(tmp_path, entries, min_family_count=0, strict=strict)
        with pytest.raises(FlowDataError, match=f"manifest.json: strict must be true or false, "
                                                f"not {re.escape(repr(strict))}"):
            load_dataset(path)

    @pytest.mark.parametrize("extra, message", [
        ({"min_family_count": "9"}, "min_family_count must be an integer, not '9'"),
        ({"schema": {"dst_ip": "dst"}}, "schema.src_ip is missing"),
        ({"schema": {"src_ip": "src", "dst_ip": "dst", "features": "f1"}},
         "schema.features must be an array of strings, not 'f1'"),
        ({"schema": {"src_ip": "src", "dst_ip": "dst", "label": [1]}},
         "schema.label must be a string or an array of strings, not list"),
        ({"classes": {"binary": "benign"}}, "classes.binary must be an array of strings, "
                                            "not 'benign'"),
        ({"samples": [{"file": "a.csv"}]}, "samples[0].id is missing"),
        ({"samples": [{"id": True, "file": "a.csv"}]},
         "samples[0].id must be a string or an integer, not True"),
    ], ids=["count_string", "no_src_ip", "features_string", "label_numbers",
            "classes_string", "no_id", "id_bool"])
    def test_manifest_field_named(self, tmp_path, extra, message):
        write_csv(tmp_path / "a.csv", ["src", "dst", "f1"], [["a", "b", 1.0]])
        extra = {"samples": [{"id": "a", "file": "a.csv"}], **extra}
        path = write_manifest(tmp_path, **extra)
        with pytest.raises(FlowDataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_dataset(path)

    def test_manifest_without_samples_named(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"schema": {"src_ip": "src", "dst_ip": "dst"}}))
        with pytest.raises(FlowDataError, match="manifest.json: samples is missing$"):
            load_dataset(path)

    def test_deterministic_reload(self, tmp_path):
        write_csv(tmp_path / "a.csv", ["src", "dst", "f1"],
                  [["a", "b", 0.12345678901234567]])
        entries = [{"id": "a", "file": "a.csv",
                    "labels": {"binary": "benign", "category": "benign"}}]
        manifest = write_manifest(tmp_path, entries, min_family_count=0)
        d1 = load_dataset(manifest)
        d2 = load_dataset(manifest)
        assert table_columns(d1.samples[0].flows) == table_columns(d2.samples[0].flows)
        assert d1.feature_names == d2.feature_names


EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]


def one_sample_dataset(matrix) -> FlowDataset:
    """One labelled sample whose flows carry `matrix` as features."""
    ips = tuple(f"10.0.0.{i % 3}" for i in range(len(matrix)))
    table = FlowTable(ips, ips[::-1], matrix)
    return FlowDataset((SampleFlows("s0", table, LabelTriple(0, 0)),),
                       tuple(f"f{j}" for j in range(matrix.shape[1])),
                       {"binary": {"benign": 0}, "category": {"benign": 0}})


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path, rng):
        samples = []
        for i in range(4):
            flows = tuple(
                FlowRecord(f"10.0.0.{j}", f"10.0.0.{j+1}",
                           tuple(rng.normal(scale=10.0 ** rng.integers(-8, 8, size=3))))
                for j in range(int(rng.integers(1, 5)))
            )
            labels = LabelTriple(binary=i % 2, category=i % 2, family=i % 2)
            samples.append(SampleFlows(f"s{i}", flows, labels))
        ds = FlowDataset(tuple(samples), ("f0", "f1", "f2"), {
            "binary": {"benign": 0, "mal": 1},
            "category": {"benign": 0, "mal": 1},
            "family": {"benign": 0, "mal": 1},
        })
        manifest = save_dataset(ds, tmp_path / "out")
        loaded = load_dataset(manifest)
        assert loaded.feature_names == ds.feature_names
        assert len(loaded.samples) == len(ds.samples)
        for a, b in zip(loaded.samples, ds.samples):
            assert a.sample_id == b.sample_id
            assert a.labels == b.labels
            assert table_columns(a.flows) == table_columns(b.flows)  # bit-exact

    def test_columnar_round_trip_bit_exact(self, tmp_path):
        values = [-0.0, 0.0, 5e-324, 2.2250738585072009e-308, -1.5e-310, 0.1 + 0.2, 1 / 3,
                  -2 / 3, 1e16, 123456789.12345679, 1.7976931348623157e308, -7.0]
        matrix = np.array(values).reshape(4, 3)
        table = FlowTable(("a", "b", "a", "c"), ("b", "a", "b", "a"), matrix)
        ds = FlowDataset((SampleFlows("s0", table, LabelTriple(0, 0)),), ("x", "y", "z"),
                         {"binary": {"benign": 0}, "category": {"benign": 0}})
        loaded = load_dataset(save_dataset(ds, tmp_path / "out"))
        assert loaded.samples[0].flows.features.tobytes() == matrix.tobytes()
        assert table_columns(loaded.samples[0].flows) == table_columns(table)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
                      elements=st.floats(allow_nan=False, allow_infinity=False)
                      | st.sampled_from(EDGE_FLOATS)))
    @example(np.array([EDGE_FLOATS]))
    def test_finite_matrices_round_trip_bit_exact(self, matrix):
        assert np.array(json.loads(serialize.dumps(matrix))).tobytes() == matrix.tobytes()
        with tempfile.TemporaryDirectory() as out:
            loaded = load_dataset(save_dataset(one_sample_dataset(matrix), out))
        assert loaded.samples[0].flows.features.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected_on_both_paths(self, tmp_path, bad):
        matrix = np.array([[1.0, bad], [2.0, 3.0]])
        with pytest.raises(ValueError):
            serialize.dumps(matrix)
        with pytest.raises(ValueError, match=re.escape(f"serialized: {bad!r}")):
            save_dataset(one_sample_dataset(matrix), tmp_path)
