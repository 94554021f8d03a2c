"""Property-based tests (hypothesis) on the core data structures and codecs."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import chop

from repro.simnet.cost import combine_bandwidths, required_copy_bandwidth, split_even
from repro.simnet.engine import Simulator
from repro.madeleine.message import PackMode, decode_segments, encode_segments
from repro.abstraction.drivers import StreamBuffer
from repro.middleware.corba.cdr import (
    CdrInputStream,
    CdrOutputStream,
    SequenceTC,
    StructTC,
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_DOUBLE_SEQ,
    TC_LONG,
    TC_OCTET_SEQ,
    TC_STRING,
)
from repro.middleware.corba.giop import GiopMessage, make_reply, make_request
from repro.middleware.soap import build_envelope, parse_envelope
from repro.methods.adoc import AdocCodec

COMMON = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------
# split_even / bandwidth algebra
# --------------------------------------------------------------------------


@COMMON
@given(
    total=st.integers(min_value=0, max_value=10_000_000),
    parts=st.integers(min_value=1, max_value=64),
)
def test_split_even_partitions_exactly(total, parts):
    chunks = split_even(total, parts)
    assert len(chunks) == parts
    assert sum(chunks) == total
    assert max(chunks) - min(chunks) <= 1


@COMMON
@given(
    observed=st.floats(min_value=1.0, max_value=200.0),
    wire=st.floats(min_value=201.0, max_value=10_000.0),
)
def test_copy_bandwidth_inversion(observed, wire):
    copy = required_copy_bandwidth(observed, wire)
    assert combine_bandwidths(wire, copy) == np.float64(observed).item() or abs(
        combine_bandwidths(wire, copy) - observed
    ) < 1e-6 * observed


# --------------------------------------------------------------------------
# Madeleine segment encoding
# --------------------------------------------------------------------------


@COMMON
@given(
    st.lists(
        st.tuples(st.sampled_from([PackMode.EXPRESS, PackMode.CHEAPER]),
                  st.binary(max_size=2048)),
        max_size=20,
    )
)
def test_segment_encoding_roundtrip(segments):
    assert decode_segments(encode_segments(segments)) == segments


# --------------------------------------------------------------------------
# StreamBuffer invariants
# --------------------------------------------------------------------------


@COMMON
@given(st.lists(st.binary(min_size=0, max_size=500), max_size=20),
       st.lists(st.integers(min_value=1, max_value=300), max_size=20))
def test_stream_buffer_preserves_byte_order(chunks, read_sizes):
    sim = Simulator()
    buf = StreamBuffer(sim)
    for chunk in chunks:
        buf.append(chunk)
    everything = b"".join(chunks)
    out = bytearray()
    for n in read_sizes:
        out += buf.read_available(n)
    out += buf.read_available()
    assert bytes(out) == everything
    assert buf.available() == 0


# --------------------------------------------------------------------------
# CDR marshalling
# --------------------------------------------------------------------------

_sample_struct = StructTC("S", [("id", TC_LONG), ("name", TC_STRING), ("flag", TC_BOOLEAN)])
_sample_seq = SequenceTC(TC_DOUBLE)
_cuts = st.lists(st.integers(min_value=0, max_value=1500), max_size=8)


@COMMON
@given(st.integers(min_value=-(2**31), max_value=2**31 - 1),
       st.floats(allow_nan=False, allow_infinity=False, width=64),
       st.text(max_size=100),
       st.binary(max_size=1000),
       st.booleans(),
       _cuts)
def test_cdr_primitives_roundtrip(i, d, s, raw, b, cuts):
    out = CdrOutputStream()
    TC_OCTET_SEQ.encode(out, b"x")  # misaligns everything after it
    TC_LONG.encode(out, i)
    TC_DOUBLE.encode(out, d)
    TC_STRING.encode(out, s)
    TC_OCTET_SEQ.encode(out, raw)
    TC_BOOLEAN.encode(out, b)
    TC_DOUBLE_SEQ.encode(out, [d, -d])
    wire = out.getvalue()
    # by reference, as one flat image, and as that image cut anywhere
    for data in (wire, bytes(wire), memoryview(bytes(wire)), chop(bytes(wire), cuts)):
        inp = CdrInputStream(data)
        assert TC_OCTET_SEQ.decode(inp) == b"x"
        assert TC_LONG.decode(inp) == i
        assert TC_DOUBLE.decode(inp) == d
        assert TC_STRING.decode(inp) == s
        octets = TC_OCTET_SEQ.decode(inp)
        assert type(octets) is bytes and octets == raw
        assert TC_BOOLEAN.decode(inp) == b
        assert TC_DOUBLE_SEQ.decode(inp).tolist() == [d, -d]
        assert inp.remaining == 0


@COMMON
@given(st.lists(st.fixed_dictionaries({
    "id": st.integers(min_value=-1000, max_value=1000),
    "name": st.text(max_size=20),
    "flag": st.booleans(),
}), max_size=10))
def test_cdr_struct_sequence_roundtrip(values):
    tc = SequenceTC(_sample_struct)
    out = CdrOutputStream()
    tc.encode(out, values)
    assert tc.decode(CdrInputStream(out.getvalue())) == values


@COMMON
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=50))
def test_cdr_double_sequence_roundtrip(values):
    out = CdrOutputStream()
    _sample_seq.encode(out, values)
    assert _sample_seq.decode(CdrInputStream(out.getvalue())) == values


# --------------------------------------------------------------------------
# GIOP framing
# --------------------------------------------------------------------------


@COMMON
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.binary(min_size=1, max_size=64),
       st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
               min_size=1, max_size=30),
       st.binary(max_size=4096),
       _cuts)
def test_giop_request_roundtrip(request_id, key, operation, body, cuts):
    msg = make_request(request_id, key, operation, body)
    wire = bytes(msg.encode())
    decoded = GiopMessage.decode(wire[:12], wire[12:])
    assert (decoded.request_id, decoded.object_key, decoded.operation, decoded.body) == (
        request_id, key, operation, body,
    )
    # the payload as a gathered read hands it over: cut anywhere, prefix included
    decoded = GiopMessage.decode(wire[:12], chop(wire[12:], cuts))
    assert (decoded.request_id, decoded.object_key, decoded.operation, bytes(decoded.body)) == (
        request_id, key, operation, body,
    )


@COMMON
@given(st.integers(min_value=0, max_value=2**32 - 1), st.binary(max_size=4096),
       st.integers(min_value=0, max_value=2))
def test_giop_reply_roundtrip(request_id, body, status):
    msg = make_reply(request_id, body, status=status)
    wire = bytes(msg.encode())
    decoded = GiopMessage.decode(wire[:12], wire[12:])
    assert (decoded.request_id, decoded.body, decoded.reply_status) == (request_id, body, status)


# --------------------------------------------------------------------------
# SOAP envelopes
# --------------------------------------------------------------------------


@COMMON
@given(st.dictionaries(
    keys=st.from_regex(r"[a-zA-Z][a-zA-Z0-9]{0,10}", fullmatch=True),
    values=st.one_of(
        st.integers(min_value=-(10**9), max_value=10**9),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.text(max_size=40),
        st.booleans(),
        st.binary(max_size=200),
    ),
    max_size=8,
))
def test_soap_envelope_roundtrip(params):
    xml = build_envelope("op", params)
    op, decoded = parse_envelope(xml)
    assert op == "op"
    assert dict(decoded) == params


# --------------------------------------------------------------------------
# AdOC codec
# --------------------------------------------------------------------------


@COMMON
@given(st.binary(min_size=0, max_size=20_000))
def test_adoc_codec_lossless(block):
    codec = AdocCodec()
    flags, wire, _ = codec.encode(block)
    decoded, _ = codec.decode(flags, wire, len(block))
    assert decoded == block
