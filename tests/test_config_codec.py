"""The field-driven config codec: XML and dict views of one schema."""

from __future__ import annotations

import dataclasses
import json
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config_codec import from_dict, from_xml, to_dict
from repro.control.plan import ControlConfig
from repro.errors import ConfigError
from repro.mpi.comm import CommCostModel
from repro.sensei.xml_config import parse_document
from repro.service.plan import ServiceConfig
from repro.transport.config import TransportConfig
from repro.transport.partition import available_partitioners
from repro.transport.wire import available_codecs

ROUNDTRIP = settings(max_examples=60, deadline=None)

# -- XML attribute strategies (valid values only, as the XML spells them) ---


def _bool_word():
    return st.sampled_from(["1", "0", "true", "False", "yes", "NO", "on", "off"])


def _floats(lo, hi):
    # repr(float) parses back to the identical float.
    return st.floats(lo, hi, allow_nan=False).map(repr)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _attrs(**optional):
    return st.fixed_dictionaries({}, optional=optional)


GOVERNOR = st.sampled_from(["on", "off", "freeze", "Yes", "0"])

CONTROL = _attrs(
    enabled=_bool_word(), seed=_ints(0, 2**31), interval=_ints(1, 9),
    window=_ints(1, 128), codec=GOVERNOR, execution=GOVERNOR,
    placement=GOVERNOR, pool=GOVERNOR, flow=GOVERNOR, quota=GOVERNOR,
    repartition=GOVERNOR, repartition_skew=_floats(1.01, 4.0),
    repartition_cooldown=_ints(0, 5), pool_growth=_bool_word(),
    mode_low=_floats(0.0, 0.1), mode_high=_floats(0.1, 1.0),
    codec_margin=_floats(1.0, 3.0), overload=_floats(1.0, 3.0),
    pool_watermark_kib=_floats(0.0, 1e6),
    coordination=st.sampled_from(["off", "node", " Node "]),
    coordination_interval=_ints(1, 8),
)
FLOW = _attrs(
    min_credits=_ints(1, 8), max_credits=_ints(8, 64),
    min_chunk=_ints(1, 4096), max_chunk=_ints(4096, 1 << 20),
)
TRANSPORT = _attrs(
    compression=st.sampled_from(sorted(available_codecs()) + ["adaptive"]),
    chunk_kib=_floats(0.01, 1024.0), max_inflight=_ints(1, 64),
    retries=_ints(0, 50), ack_timeout=_floats(1e-3, 10.0),
    partitioner=st.sampled_from(sorted(available_partitioners())),
    drop=_floats(0.0, 1.0), duplicate=_floats(0.0, 1.0),
    reorder=_floats(0.0, 1.0), corrupt=_floats(0.0, 1.0),
    seed=_ints(0, 2**31), congestion_kib=_floats(0.0, 1e4),
    congestion_drop=_floats(0.0, 1.0), recv_timeout=_floats(0.01, 120.0),
    pipelined=_bool_word(),
)


@st.composite
def pipelines(draw):
    names = draw(st.lists(
        st.sampled_from(["hot", "bulk", "aux", "edge"]),
        min_size=1, max_size=3, unique=True,
    ))
    collective = draw(st.sampled_from([None] + names))
    out = []
    for name in names:
        attrs = dict(draw(TRANSPORT))
        attrs.update(draw(_attrs(
            mesh=st.sampled_from(["bodies", "grid"]),
            weight=_floats(0.01, 16.0), shard_size=_ints(1, 4),
            ranks=st.lists(st.integers(0, 9), min_size=1, max_size=4).map(
                lambda rs: ",".join(map(str, rs))
            ),
        )))
        attrs["name"] = name
        if name == collective:
            attrs["collective"] = draw(st.sampled_from(["1", "yes", "on"]))
        out.append(ET.Element("pipeline", attrs))
    return out


SERVICE = _attrs(
    budget=_ints(2, 64), min_credits=_ints(1, 2), skew=_floats(1.01, 4.0),
    cooldown=_ints(0, 5), interval=_ints(1, 8),
)


def _round_trips(cls, config):
    payload = to_dict(config)
    assert from_dict(cls, payload) == config
    # The trace header path: through JSON text and back.
    assert from_dict(cls, json.loads(json.dumps(payload))) == config
    _assert_one_key_per_field(config, payload)


def _assert_one_key_per_field(config, payload):
    """``to_dict`` carries exactly one key per dataclass field,
    recursively, so a new field cannot miss the trace header."""
    assert set(payload) == {f.name for f in dataclasses.fields(config)}
    for f in dataclasses.fields(config):
        value, encoded = getattr(config, f.name), payload[f.name]
        if isinstance(encoded, dict):
            _assert_one_key_per_field(value, encoded)
        elif isinstance(encoded, list) and encoded and isinstance(
            encoded[0], dict
        ):
            for item, item_payload in zip(value, encoded):
                _assert_one_key_per_field(item, item_payload)


class TestRoundTrips:
    @ROUNDTRIP
    @given(attrs=CONTROL, flow=st.one_of(st.none(), FLOW))
    def test_control(self, attrs, flow):
        config = ControlConfig.from_xml_attrs(attrs, flow_attrs=flow)
        _round_trips(ControlConfig, config)

    @ROUNDTRIP
    @given(attrs=TRANSPORT)
    def test_transport(self, attrs):
        _round_trips(TransportConfig, TransportConfig.from_xml_attrs(attrs))

    @ROUNDTRIP
    @given(attrs=SERVICE, children=pipelines())
    def test_service_with_pipelines(self, attrs, children):
        config = from_xml(ServiceConfig, attrs, "service", children)
        _round_trips(ServiceConfig, config)

    @ROUNDTRIP
    @given(
        latency=st.floats(0.0, 1e-3),
        bandwidth=st.floats(1e6, 1e12),
        barrier_cost=st.floats(0.0, 1e-3),
    )
    def test_cost_model(self, latency, bandwidth, barrier_cost):
        _round_trips(CommCostModel, CommCostModel(
            latency=latency, bandwidth=bandwidth, barrier_cost=barrier_cost
        ))

    def test_header_typing(self):
        payload = to_dict(ControlConfig())
        assert payload["codec"] == "on" and payload["flow"] == "off"
        assert payload["pool_watermark_kib"] is None
        assert isinstance(payload["overload"], float)
        assert payload["flow_bounds"] == {
            "min_credits": 1, "max_credits": 64,
            "min_chunk": 4096, "max_chunk": 262144,
        }
        assert to_dict(ControlConfig(overload=2))["overload"] == 2.0


class TestFromDictRejects:
    @pytest.mark.parametrize("mutate", [
        lambda p: p.pop("seed"),
        lambda p: p.update(bogus=1),
        lambda p: p.update(seed=True),
        lambda p: p.update(seed=7.0),
        lambda p: p.update(overload="1.3"),
        lambda p: p.update(overload=float("nan")),
        lambda p: p.update(codec="maybe"),
        lambda p: p.update(codec=[1]),
        lambda p: p.update(flow_bounds=None),
        lambda p: p["flow_bounds"].update(max_credits=0),
        lambda p: p.update(interval=0),
    ])
    def test_malformed_control_is_config_error(self, mutate):
        payload = to_dict(ControlConfig())
        mutate(payload)
        with pytest.raises(ConfigError):
            from_dict(ControlConfig, payload)

    @pytest.mark.parametrize("payload", [None, "ab", [1], 3])
    def test_non_object_is_config_error(self, payload):
        with pytest.raises(ConfigError):
            from_dict(TransportConfig, payload)


# Every float attribute of each element; <pipeline> also takes every
# <transport> attribute.
_TRANSPORT_FLOATS = [
    "chunk_kib", "ack_timeout", "drop", "duplicate", "reorder", "corrupt",
    "congestion_kib", "congestion_drop", "recv_timeout",
]
_FLOAT_DOCS = (
    [
        f"<control {a}='{{v}}'/>" for a in (
            "mode_low", "mode_high", "codec_margin", "overload",
            "repartition_skew", "pool_watermark_kib",
        )
    ]
    + [f"<transport {a}='{{v}}'/>" for a in _TRANSPORT_FLOATS]
    + ["<service skew='{v}'><pipeline name='a'/></service>"]
    + [
        f"<service><pipeline name='a' {a}='{{v}}'/></service>"
        for a in ["weight"] + _TRANSPORT_FLOATS
    ]
)


class TestNonFiniteFloats:
    @pytest.mark.parametrize("doc", _FLOAT_DOCS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_rejected(self, doc, value):
        with pytest.raises(ConfigError, match="finite"):
            parse_document(f"<sensei>{doc.format(v=value)}</sensei>")


class TestXmlStructure:
    def test_scaled_alias_and_plain_name_are_exclusive(self):
        with pytest.raises(ConfigError, match="only one"):
            TransportConfig.from_xml_attrs(
                {"chunk_kib": "4", "chunk_bytes": "4096"}
            )

    def test_backoff_is_not_an_attribute(self):
        with pytest.raises(ConfigError, match="unknown attribute"):
            TransportConfig.from_xml_attrs({"jitter": "0.1"})

    def test_control_children(self):
        with pytest.raises(ConfigError, match="unexpected element <oops>"):
            parse_document("<sensei><control><oops/></control></sensei>")
        with pytest.raises(ConfigError, match="at most one <flow>"):
            parse_document(
                "<sensei><control><flow/><flow/></control></sensei>"
            )

    def test_pipeline_takes_no_children(self):
        with pytest.raises(ConfigError, match="unexpected element <junk>"):
            parse_document(
                "<sensei><service><pipeline name='a'><junk/></pipeline>"
                "</service></sensei>"
            )

    def test_pipeline_name_required(self):
        with pytest.raises(ConfigError, match="'name'"):
            parse_document("<sensei><service><pipeline/></service></sensei>")
