import re

import numpy as np
import pytest

from flowgnn import serialize
from flowgnn.serialize import FLOATS, checked


class Misfit(Exception):
    pass


def misfit(value, shape, where=""):
    with pytest.raises(Misfit) as exc:
        checked(value, shape, where, Misfit)
    return str(exc.value)


class TestChecked:
    """The one walker every JSON reader checks its input with."""

    def test_json_types(self):
        assert checked({"n": 3, "x": 2, "on": False}, {"n": int, "x": float, "on": bool}, "",
                       Misfit) == {"n": 3, "x": 2, "on": False}
        assert misfit("3", int, "n") == "n must be an integer, not '3'"
        assert misfit(None, str, "s") == "s must be a string, not None"
        assert misfit([1], dict, "d") == "d must be an object, not list"
        assert misfit({"a": 1}, list, "v") == "v must be an array, not dict"
        assert misfit(1, bool, "b") == "b must be true or false, not 1"

    @pytest.mark.parametrize("value", [True, False])
    def test_a_bool_is_no_number(self, value):
        assert misfit(value, int, "n") == f"n must be an integer, not {value!r}"
        assert misfit(value, float, "x") == f"x must be a number, not {value!r}"
        assert misfit({"id": value}, {"id": (str, int)}) == \
            f"id must be a string or an integer, not {value!r}"

    def test_missing_key_named_by_its_path(self):
        shape = {"model": {"in_dim": int, "num_classes?": (int, None)}}
        assert misfit({"model": {}}, shape) == "model.in_dim is missing"
        assert misfit({}, shape) == "model is missing"
        assert misfit({"samples": [{"id": "a"}, {}]}, {"samples": [{"id": str}]}) == \
            "samples[1].id is missing"

    def test_optional_key_may_be_absent_or_null(self):
        shape = {"a?": int, "b?": (int, None)}
        assert checked({}, shape, "", Misfit) == {}
        assert checked({"b": None}, shape, "", Misfit) == {"b": None}
        assert misfit({"a": None}, shape) == "a must be an integer, not None"

    def test_every_array_item_checked(self):
        assert checked([1, 2, 3], [int], "", Misfit) == [1, 2, 3]
        assert misfit([1, 2, "3"], [int], "v") == "v[2] must be an integer, not '3'"
        assert misfit([{"id": "a"}, {"id": 2.5}], [{"id": str}], "s") == \
            "s[1].id must be a string, not 2.5"
        assert misfit(5, [int], "v") == "v must be an array of integers, not 5"
        assert misfit(5, [{"id": str}], "v") == "v must be an array, not 5"

    def test_alternatives_reported_as_a_whole(self):
        shape = (str, [str], None)
        assert checked(None, shape, "", Misfit) is None
        assert checked(["a"], shape, "", Misfit) == ["a"]
        assert misfit([1], shape, "label") == \
            "label must be a string or an array of strings, not list"
        # one alternative besides null reports the inner misfit
        assert misfit({"mean": 5}, ({"mean": int, "std": int}, None), "pre") == "pre.std is missing"

    def test_floats_decoded_and_named(self):
        text = serialize.encode_floats([1.5, -2.0])
        out = checked({"values": text, "old": [1, 2.5]}, {"values": FLOATS, "old": FLOATS}, "",
                      Misfit)
        assert out["values"].tobytes() == np.array([1.5, -2.0]).tobytes()
        assert out["old"].tolist() == [1.0, 2.5]
        assert misfit({"values": "not*base64"}, {"values": FLOATS}, "p") \
            .startswith("p.values is not base64 text")
        assert misfit({"values": None}, {"values": FLOATS}) == \
            "values is neither base64 text nor a list of numbers"

    def test_unlisted_keys_pass_and_input_kept(self):
        raw = {"a": 1, "extra": [1, "x"], "floats": [1, 2]}
        out = checked(raw, {"a": int, "floats": FLOATS}, "", Misfit)
        assert out["extra"] == [1, "x"] and out["a"] == 1
        assert raw["floats"] == [1, 2]  # decoded in the copy only

    def test_top_level_named_as_the_file(self):
        assert misfit([], {"a": int}) == "the file must be an object, not list"

    def test_error_may_be_any_callable(self):
        with pytest.raises(Misfit, match="^cfg.json: data must be a string, not 3$"):
            checked({"data": 3}, {"data": str}, "",
                    lambda message: Misfit(f"cfg.json: {message}"))


class TestLoadPath:
    def test_not_json_names_the_file(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"a": ')
        with pytest.raises(Misfit, match=f"^{re.escape(str(path))}: not JSON: "):
            serialize.load_path(path, Misfit)

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_bytes(b'{"a": "\xff"}')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not JSON: 'utf-8' codec"):
            serialize.load_path(path)
