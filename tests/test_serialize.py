import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocluster.serialize import (
    CorpusError,
    canonical_dumps,
    read_json,
    read_jsonl,
    stable_seed,
    write_jsonl,
)


def test_sorted_keys_and_compact_layout():
    blob = canonical_dumps({"b": 1, "a": [True, None, "x"]})
    assert blob == '{"a":[true,null,"x"],"b":1}'


def test_float_formatting_shortest_repr():
    # each float is written as its repr, the shortest text that reads back as the same double
    assert canonical_dumps([0.1, 1.0, -2.5, 1e16, -0.0, 5e-324]) == "[0.1,1.0,-2.5,1e+16,-0.0,5e-324]"


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
@settings(max_examples=300, deadline=None)
def test_float_round_trips_exactly(x):
    value = json.loads(canonical_dumps(x))
    assert type(value) is float and value == x and np.signbit(value) == np.signbit(x)


@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-5, 5).map(float)), min_size=1))
@settings(max_examples=300, deadline=None)
def test_float_list_formats_as_each_float(values):
    assert canonical_dumps(values) == "[" + ",".join(canonical_dumps(v) for v in values) + "]"
    assert canonical_dumps([values]) == "[" + canonical_dumps(values) + "]"


def test_float_list_keeps_integral_and_nonfinite_rules():
    assert canonical_dumps([0.5, -0.0, 3.0, 1e16, 0.1]) == "[0.5,-0.0,3.0,1e+16,0.1]"
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            canonical_dumps({"vec": [0.25, bad]})


@pytest.mark.parametrize("x", [1e16, -3e16, 99999999999999984.0])
def test_large_integral_floats_read_back_as_floats(x):
    value = json.loads(canonical_dumps([x]))[0]
    assert type(value) is float and value == x


def test_nonfinite_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            canonical_dumps(bad)
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("inf")})


def test_numpy_scalars_coerced():
    blob = canonical_dumps({"f": np.float64(0.5), "g": np.float32(0.5), "i": np.int64(3), "b": np.bool_(True)})
    assert blob == '{"b":true,"f":0.5,"g":0.5,"i":3}'
    with pytest.raises(TypeError):
        canonical_dumps({"v": np.zeros(2)})


def test_output_parses_as_json():
    payload = {"nested": {"list": [1, 2.5, {"deep": None}]}, "s": "téxt"}
    assert json.loads(canonical_dumps(payload)) == payload


def test_deterministic_output():
    payload = {"z": [0.1, 0.2], "a": {"k": 1}}
    assert canonical_dumps(payload) == canonical_dumps(dict(reversed(payload.items())))


def test_stable_seed_properties():
    assert stable_seed(1, "x") == stable_seed(1, "x")
    assert stable_seed(1, "x") != stable_seed(1, "y")
    assert stable_seed(1, "x") != stable_seed(2, "x")
    assert 0 <= stable_seed("anything", 42) < 2**64


def test_aligned_tables_exact_bytes():
    from emocluster.cluster_metrics import ClusterMetricsReport, report_to_table
    from emocluster.trainer import protocol_to_table

    # every column pads to its widest cell, the last one too; None prints as "-"
    report = ClusterMetricsReport(
        per_speaker={
            "spk10": {"nmi": 0.5, "ari": -0.125, "purity": 1.0, "silhouette": None},
            "s2": {"nmi": 0.03125, "ari": 0.25, "purity": 0.75, "silhouette": 0.123456},
        },
        averages={"nmi": 0.265625, "ari": 0.0625, "purity": 0.875, "silhouette": 0.123456},
    )
    assert report_to_table(report) == (
        "speaker  NMI     ARI      Purity  Silhouette\n"
        "s2       0.0312  0.2500   0.7500  0.1235    \n"
        "spk10    0.5000  -0.1250  1.0000  -         \n"
        "average  0.2656  0.0625   0.8750  0.1235    \n"
    )
    protocol = {"rows": [
        {"label": "no pretraining", "mean_uar": 0.5, "per_seed": [{"seed": 0, "uar": 0.25}, {"seed": 1, "uar": 0.75}]},
        {"label": "cluster contrastive", "mean_uar": 0.6875,
         "per_seed": [{"seed": 0, "uar": 0.625}, {"seed": 1, "uar": 0.75}]},
    ]}
    assert protocol_to_table(protocol) == (
        "pretraining          mean UAR  per-seed UAR \n"
        "no pretraining       0.5000    0.2500 0.7500\n"
        "cluster contrastive  0.6875    0.6250 0.7500\n"
    )


@pytest.mark.parametrize(
    "text",
    ['say "hi"', "back\\slash", "".join(map(chr, range(0x20))) + "\x7f", "é ü 日本 🎵", "lone \ud800 and \udfff", ""],
)
def test_strings_encode_as_json_dumps(text):
    assert canonical_dumps(text) == json.dumps(text, ensure_ascii=False)
    assert canonical_dumps({text: [text]}) == json.dumps({text: [text]}, ensure_ascii=False, separators=(",", ":"))


def test_jsonl_round_trips_its_objects(tmp_path):
    path = str(tmp_path / "objs.jsonl")
    objs = [{"b": [0.1, 3.0], "a": None}, {"s": "t\u00e9xt"}, {}]
    write_jsonl(path, objs)
    assert [obj for _, obj in read_jsonl(path)] == objs
    with open(path, "rb") as fh:
        assert fh.read() == b"".join(canonical_dumps(o).encode("utf-8") + b"\n" for o in objs)


def test_jsonl_skips_blank_lines_and_names_the_damaged_line(tmp_path):
    path = tmp_path / "objs.jsonl"
    path.write_bytes(b'{"a": 1}\n\n  \n[2]\n{broken\n')
    lines = read_jsonl(str(path))
    assert [next(lines), next(lines)] == [(1, {"a": 1}), (4, [2])]
    with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}:5: malformed json"):
        next(lines)
    path.write_bytes(b"{}\n" + b"[" * 100_000 + b"\n")
    with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}:2: malformed json \(maximum recursion depth"):
        list(read_jsonl(str(path)))
    path.write_bytes(b'{"a": 1}\n{"b": "\xff"}\n')
    with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}:2: not valid UTF-8 at byte 7"):
        list(read_jsonl(str(path)))


def test_jsonl_line_with_a_repeated_key_names_its_line_and_key(tmp_path):
    path = tmp_path / "objs.jsonl"
    path.write_bytes(b'{"a": 1}\n{"a": {"b": 1, "c": 2, "b": 3}}\n')
    with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}:2: malformed json \(repeated key 'b'\)$"):
        list(read_jsonl(str(path)))


@pytest.mark.parametrize(
    "content, detail",
    [
        (b'{"k": 1}\xff', "malformed thing ('utf-8' codec can't decode byte 0xff in position 8"),
        (b'{"k": ', "malformed thing (Expecting value"),
        (b"[1]", "thing must be a json object, not list"),
        (b"[" * 100_000, "malformed thing (maximum recursion depth exceeded"),
        (b'{"k": 2, "k": 3}', "malformed thing (repeated key 'k')"),
        (b'{"k": [{"a": 1, "b": 2, "a": 1}]}', "malformed thing (repeated key 'a')"),
    ],
)
def test_read_json_names_the_damaged_file(tmp_path, content, detail):
    path = tmp_path / "thing.json"
    path.write_bytes(content)
    with pytest.raises(CorpusError) as raised:
        read_json(str(path), "thing")
    assert str(raised.value).startswith(f"{path}: {detail}")
