import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocluster.serialize import canonical_dumps, format_float, stable_seed


def test_sorted_keys_and_compact_layout():
    blob = canonical_dumps({"b": 1, "a": [True, None, "x"]})
    assert blob == '{"a":[true,null,"x"],"b":1}'


def test_float_formatting_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1.0"
    assert format_float(-2.5) == "-2.5"


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
@settings(max_examples=300, deadline=None)
def test_float_round_trips_exactly(x):
    assert float(format_float(x)) == x


@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-5, 5).map(float)), min_size=1))
@settings(max_examples=300, deadline=None)
def test_float_list_formats_as_each_float(values):
    # one format call for the list prints the digits of one format_float per value
    assert canonical_dumps(values) == "[" + ",".join(format_float(v) for v in values) + "]"
    assert canonical_dumps([values]) == "[" + canonical_dumps(values) + "]"


def test_float_list_keeps_integral_and_nonfinite_rules():
    assert canonical_dumps([0.5, -0.0, 3.0, 1e16, 0.1]) == "[0.5,-0.0,3.0,10000000000000000,0.10000000000000001]"
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_dumps({"vec": [0.25, bad]})


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("inf")})


def test_numpy_scalars_coerced():
    blob = canonical_dumps({"f": np.float64(0.5), "i": np.int64(3), "b": np.bool_(True)})
    assert json.loads(blob) == {"f": 0.5, "i": 3, "b": True}


def test_non_string_keys_rejected():
    with pytest.raises(TypeError):
        canonical_dumps({1: "x"})


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
