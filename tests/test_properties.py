"""Property-based tests (hypothesis) on the core data structures and codecs."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import chop

from repro.simnet.buffers import ByteRing, Gather
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
from repro.middleware.corba.giop import GIOP_HEADER, GiopMessage, make_reply, make_request
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


_chunk = st.binary(min_size=1, max_size=40)
_appends = st.lists(
    st.one_of(
        st.tuples(st.just("bytes"), _chunk),
        st.tuples(st.just("view"), _chunk),
        st.tuples(st.just("gather"), st.lists(_chunk, min_size=1, max_size=3)),
    ),
    min_size=1,
    max_size=8,
)
#: a read's size from the ring it is posted on: nothing, up to a chunk edge
#: (the head chunk's rest plus ``k`` whole chunks) or any size it holds
_reads = st.lists(
    st.tuples(st.sampled_from(["zero", "edge", "any"]), st.integers(min_value=0, max_value=999)),
    max_size=10,
)


def _read_size(ring, how, k):
    if how == "zero" or not ring._size:
        return 0
    if how == "any":
        return 1 + k % ring._size
    chunks = list(ring._chunks)[: 1 + k % len(ring._chunks)]
    return sum(map(len, chunks)) - ring._head


@COMMON
@given(_appends, st.integers(min_value=0, max_value=999), _reads)
def test_a_satisfied_read_returns_what_byte_ring_take_returns(appends, skip, reads):
    """``recv_exact`` with no ``done``, ``charge`` or ``gather`` slices the
    head chunk itself; over ``bytes`` chunks, read-only views of ``bytes``
    and ``Gather`` parts, from any head offset, it completes with what
    ``ByteRing.take`` returns — the same object where ``take`` hands back
    a chunk — and leaves the ring as ``take`` leaves it."""
    sim = Simulator()
    stream = StreamBuffer(sim)
    twin = ByteRing()
    for kind, data in appends:
        data = {"bytes": bytes, "view": memoryview, "gather": Gather}[kind](data)
        stream.append(data)
        twin.append(data)
    ring = stream._buffer
    chunks = list(ring._chunks)
    # a head offset inside the first chunk
    stream.read_available(skip % len(chunks[0]))
    twin.take(skip % len(chunks[0]))
    for how, k in reads:
        nbytes = _read_size(twin, how, k)
        ev = stream.recv_exact(nbytes)
        expected = twin.take(nbytes)
        assert ev.triggered and ev.ok and type(ev.value) is bytes
        assert ev.value == expected
        assert [ev.value is c for c in chunks] == [expected is c for c in chunks]
        assert list(map(id, ring._chunks)) == list(map(id, twin._chunks))
        assert (ring._head, ring._size) == (twin._head, twin._size)


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
    decoded = GiopMessage.decode(GIOP_HEADER.unpack(wire[:12]), wire[12:])
    assert (decoded.request_id, decoded.object_key, decoded.operation, decoded.body) == (
        request_id, key, operation, body,
    )
    # the payload as a gathered read hands it over: cut anywhere, prefix included
    decoded = GiopMessage.decode(GIOP_HEADER.unpack(wire[:12]), chop(wire[12:], cuts))
    assert (decoded.request_id, decoded.object_key, decoded.operation, bytes(decoded.body)) == (
        request_id, key, operation, body,
    )


@COMMON
@given(st.integers(min_value=0, max_value=2**32 - 1), st.binary(max_size=4096),
       st.integers(min_value=0, max_value=2))
def test_giop_reply_roundtrip(request_id, body, status):
    msg = make_reply(request_id, body, status=status)
    wire = bytes(msg.encode())
    decoded = GiopMessage.decode(GIOP_HEADER.unpack(wire[:12]), wire[12:])
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
