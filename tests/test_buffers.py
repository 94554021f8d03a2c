"""Unit tests for the zero-copy byte ring."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.simnet.buffers import ByteRing, Gather, immutable


def test_empty_ring():
    ring = ByteRing()
    assert len(ring) == 0
    assert not ring
    assert ring.take() == b""
    assert ring.take(10) == b""
    assert ring.peek(10) == b""


def test_zero_length_operations():
    ring = ByteRing(b"abc")
    assert ring.take(0) == b""
    assert ring.peek(0) == b""
    ring.append(b"")  # no-op
    assert len(ring) == 3
    assert ring.take() == b"abc"


def test_take_within_single_chunk():
    ring = ByteRing(b"hello world")
    assert ring.take(5) == b"hello"
    assert len(ring) == 6
    assert ring.take(1) == b" "
    assert ring.take() == b"world"
    assert not ring


def test_exact_chunk_take_is_zero_copy():
    chunk = b"x" * 1024
    ring = ByteRing()
    ring.append(chunk)
    assert ring.take(1024) is chunk  # the original object, no copy


def test_cross_boundary_take():
    ring = ByteRing()
    ring.append(b"abc")
    ring.append(b"defg")
    ring.append(b"hij")
    assert ring.take(5) == b"abcde"
    assert ring.take(5) == b"fghij"
    assert not ring


def test_take_more_than_available():
    ring = ByteRing(b"abc")
    assert ring.take(100) == b"abc"
    assert not ring


def test_peek_does_not_consume():
    ring = ByteRing()
    ring.append(b"abc")
    ring.append(b"def")
    assert ring.peek(2) == b"ab"
    assert ring.peek(4) == b"abcd"  # crosses a chunk boundary
    assert ring.peek(100) == b"abcdef"
    assert len(ring) == 6
    assert ring.take() == b"abcdef"


def test_wrap_around_reuse():
    """Interleaved produce/consume cycles: offsets reset as chunks retire."""
    ring = ByteRing()
    out = bytearray()
    fed = bytearray()
    for i in range(50):
        chunk = bytes([i % 251]) * (i % 7 + 1)
        ring.append(chunk)
        fed += chunk
        take = (i * 3) % 5
        out += ring.take(take)
    out += ring.take()
    assert bytes(out) == bytes(fed)
    assert len(ring) == 0
    assert ring._head == 0


def test_writable_buffers_are_snapshotted():
    ring = ByteRing()
    buf = bytearray(b"abc")
    ring.append(buf)
    buf[0] = ord("z")  # later mutation must not leak into the ring
    assert ring.take() == b"abc"


def test_memoryview_appends_are_snapshotted():
    base = bytearray(b"abcdef")
    ring = ByteRing()
    ring.append(memoryview(base)[2:5])
    base[3] = ord("!")
    assert ring.take() == b"cde"


def test_clear():
    ring = ByteRing(b"abc")
    ring.clear()
    assert len(ring) == 0
    assert ring.take() == b""


def test_interleaved_exactness_stress():
    """Byte-for-byte FIFO order over a randomized append/take/take_iov mix."""
    import random

    rng = random.Random(1234)
    ring = ByteRing()
    model = bytearray()
    for _ in range(2000):
        op = rng.random()
        if op < 0.45:
            chunk = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 9)))
            ring.append(chunk)
            model += chunk
        elif op < 0.8:
            n = rng.randrange(0, 12)
            expect = bytes(model[:n])
            del model[: len(expect)]
            assert ring.take(n) == expect
        elif op < 0.9:
            n = rng.randrange(0, 12)
            assert ring.peek(n) == bytes(model[:n])
        else:
            n = rng.randrange(0, 12)
            expect = bytes(model[:n])
            del model[: len(expect)]
            assert b"".join(ring.take_iov(n)) == expect
        assert len(ring) == len(model)
    assert ring.take() == bytes(model)


# ---------------------------------------------------------------------------
# the copy-free takes
# ---------------------------------------------------------------------------


def test_partly_consumed_head_is_sliced_as_a_view_of_the_chunk():
    """A 12-byte header read ahead of a 1 MB body in the same chunk must not
    cost the megabyte: the remainder comes out as a view of that chunk."""
    chunk = b"twelve bytes" + bytes(1 << 20)
    for take in (ByteRing.take_iov, lambda ring: ring.take_gather().parts):
        ring = ByteRing(chunk)
        assert ring.take(12) == b"twelve bytes"
        (part,) = take(ring)
        assert type(part) is memoryview and part.readonly and part.obj is chunk
        assert len(part) == 1 << 20 and immutable(part) is part
    # a read that stops inside the next chunk: both partial slices are views
    ring = ByteRing(chunk)
    ring.append(chunk)
    ring.take(5)
    head, tail = ring.take_iov(len(chunk))
    assert head.obj is chunk and tail.obj is chunk and (len(head), len(tail)) == (len(chunk) - 5, 5)


def test_take_gather_hands_back_the_chunk_a_read_matches_and_references_otherwise():
    header, body, tail = b"12-byte-head", bytes(range(256)) * 16, b"tail"
    ring = ByteRing()
    ring.append(Gather((header, body, tail)))
    assert ring.take_gather(len(header)) is header
    assert ring.take_gather(len(body)) is body
    ring.append(body)
    spanning = ring.take_gather(len(tail) + 10)
    assert type(spanning) is Gather and spanning.parts[0] is tail
    assert bytes(spanning) == tail + body[:10] and len(spanning) == 14
    assert spanning.parts[1].obj is body
    rest = ring.take_gather()
    assert type(rest) is Gather and bytes(rest) == body[10:]
    assert ring.take_gather() == b"" and ring.take_gather(5) == b"" and not ring


_chunks = st.one_of(
    st.binary(max_size=24),
    st.binary(max_size=24).map(lambda b: memoryview(b)[len(b) // 3 :]),
    st.binary(max_size=24).map(bytearray),
    st.lists(st.binary(max_size=10), max_size=4).map(Gather),
)
_sizes = st.one_of(st.none(), st.integers(min_value=0, max_value=40), st.just(10_000))
_ring_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _chunks),
        st.tuples(st.sampled_from(["take", "take_iov", "take_gather", "peek"]), _sizes),
    ),
    max_size=60,
)


def _image(taken) -> bytes:
    return b"".join(taken) if type(taken) is list else bytes(taken)


def _backing(buffer):
    return buffer.obj if type(buffer) is memoryview else buffer


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_ring_ops)
def test_every_take_agrees_with_take_on_a_twin_ring(ops):
    """Differential: one ring is consumed through the operation under test,
    its twin — fed the same chunks — through ``take`` alone."""
    ring, twin = ByteRing(), ByteRing()
    kept = []  # every chunk the ring stored, by identity
    for op, arg in ops:
        if op == "append":
            before = len(ring._chunks)
            ring.append(arg)
            twin.append(arg)
            kept += list(ring._chunks)[before:]
        elif op == "peek":
            n = 7 if arg is None else arg
            assert ring.peek(n) == twin.peek(n)
        else:
            taken = getattr(ring, op)(arg)
            assert _image(taken) == twin.take(arg)
            if op == "take_gather":
                assert type(taken) in (bytes, Gather) and len(taken) == len(_image(taken))
            if op != "take":  # nothing was copied: chunks, or read-only views of them
                parts = taken if op == "take_iov" else getattr(taken, "parts", (taken,))
                for part in filter(len, parts):
                    assert immutable(part) is part
                    assert any(_backing(part) is _backing(chunk) for chunk in kept)
                assert all(map(len, parts)) or taken == b""
        assert len(ring) == len(twin)
        assert ring.peek(5) == twin.peek(5)
    assert ring.take() == twin.take() and not ring and ring._head == 0
