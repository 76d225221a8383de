"""Frame I/O: the one frame reader and the copies a frame costs.

* ``FrameProtocol`` against hostile receive boundaries: a pipelined
  stream of mixed frames (tiny session frames up to 512 KB weights),
  cut into receives of any size down to one byte, yields exactly the
  frames ``frame_from_bytes`` gives for each, and a bad frame ends the
  stream only after the frames ahead of it.
* The copy guard (``tracemalloc``): receiving and decoding a request
  allocates one payload-sized block, encoding a response one (a packed
  response's container included); decoded
  arrays are writable views of their own frame's buffer; a connection
  whose frames are not consumed stops parsing and pauses its transport,
  and holds a bounded number of bytes whatever its frames' size.
* Hostile length prefixes: a prefix declaring ``MAX_FRAME_BYTES``
  commits O(``STAGING_BYTES``) until the bytes arrive, in both readers,
  and a bad header is refused before anything is sized from it.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import socket
import struct
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import encode
from repro.runner.formats import make_format
from repro.server import QuantServer, protocol
from repro.server.protocol import STAGING_BYTES


def _staging_sized_frame() -> bytes:
    """A frame exactly :data:`STAGING_BYTES` long, prefix included: a
    packed response whose payload is filler bytes."""
    def frame(payload: bytes) -> bytes:
        return protocol._frame_bytes(protocol.KIND_RESPONSE,
                                     protocol.Status.OK, protocol.FLAG_PACKED,
                                     77, {"fingerprint": "fp"}, payload)
    return frame(b"\x5a" * (STAGING_BYTES - len(frame(b""))))


def _pool() -> list[bytes]:
    rng = np.random.default_rng(2026)
    kv = rng.standard_normal((1, 64))
    return [
        protocol.encode_ping(1),
        protocol.encode_session_read(2, session_id="s", layer=3),
        protocol.encode_session_close(3, session_id="s"),
        protocol.encode_session_ack(4, {"session_id": "s", "seq": 9}),
        protocol.encode_session_append(5, session_id="s", layer=0, seq=7,
                                       k=kv, v=kv * 2),
        protocol.encode_request(6, rng.standard_normal((3, 256)),
                                fmt="m2xfp"),
        protocol.encode_response_error(7, protocol.Status.BUSY, "busy"),
        _staging_sized_frame(),
        protocol.encode_request(8, rng.standard_normal((64, 256)),
                                fmt="nvfp4"),
        protocol.encode_request(9, rng.standard_normal((256, 256)),
                                fmt="m2xfp", op="weight"),
    ]


POOL = _pool()


def _same(got: protocol.Frame, want: protocol.Frame) -> None:
    assert (got.kind, got.status, got.flags, got.request_id, got.meta) == \
        (want.kind, want.status, want.flags, want.request_id, want.meta)
    assert bytes(got.payload) == bytes(want.payload)
    if got.flags & protocol.FLAG_RAW_F64 and len(got.payload):
        arr = np.frombuffer(got.payload, "<f8")
        assert arr.flags.aligned and arr.flags.writeable


async def _read_all(frame_io, reader, stream: bytes, chunks=(),
                    fed: int = 0) -> list:
    """Every frame of ``stream`` from byte ``fed`` on, fed through
    ``reader`` in receives of ``chunks`` sizes (then whole buffers),
    taking frames whenever the reader pauses its transport."""
    view, sizes, got = memoryview(stream), iter(chunks), []
    while True:
        while reader.transport.paused:
            got.append(await reader.read_frame())
        if fed == len(view):
            break
        fed += frame_io.feed(reader, view[fed:], sizes)
    reader.eof_received()
    while (frame := await reader.read_frame()) is not None:
        got.append(frame)
    return got


def _received(frame_io, stream: bytes, chunks=()) -> list:
    """:func:`_read_all` through a new reader."""
    async def run():
        return await _read_all(frame_io, frame_io.open(), stream, chunks)
    return asyncio.run(run())


def test_pool_spans_the_staging_buffer():
    """The tests below rely on the pool holding a frame exactly the
    staging buffer's size, frames that fit in it and one that does not."""
    assert len(POOL[7]) == STAGING_BYTES
    assert len(POOL[5]) < len(POOL[8]) < STAGING_BYTES < len(POOL[9])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reader_yields_exactly_the_frames_sent(frame_io, data):
    """Whatever the receive boundaries, the reader yields the frames
    ``frame_from_bytes`` parses from each frame's own bytes. Receives
    end at cuts drawn near each frame's start and end (inside the
    length prefix, the header, the last bytes; adjacent cuts make
    1-byte receives) or anywhere in it, and never exceed the buffer
    the reader offers."""
    # -1 stands for a burst of 100 tiny frames, more than the reader
    # parses ahead of its consumer.
    order = data.draw(st.lists(st.integers(-1, len(POOL) - 1), min_size=1,
                               max_size=10), label="frames")
    blobs = [POOL[j] for i in order for j in ([0, 1, 2, 3] * 25
                                              if i < 0 else [i])]
    starts = [0, *itertools.accumulate(map(len, blobs))]
    offset = st.one_of(st.integers(0, 24), st.integers(-24, -1),
                       st.integers(0, 1 << 20))
    cuts = data.draw(st.lists(st.tuples(st.integers(0, len(blobs) - 1),
                                        offset), max_size=40), label="cuts")
    ends = sorted({starts[i] + off % len(blobs[i]) for i, off in cuts}
                  | {starts[-1]})
    chunks = [b - a for a, b in zip([0, *ends], ends) if b > a]
    got = _received(frame_io, b"".join(blobs), chunks)
    assert len(got) == len(blobs)
    for frame, blob in zip(got, blobs):
        _same(frame, protocol.frame_from_bytes(blob))


@pytest.mark.parametrize("chunks", [(), (1,) * 64, (STAGING_BYTES - 1, 1),
                                    (STAGING_BYTES // 2,) * 4])
def test_frame_at_the_staging_boundary_then_larger(frame_io, chunks):
    """A frame that fills the staging buffer exactly, then one larger
    than it, then tiny ones, under fixed receive patterns."""
    blobs = [POOL[7], POOL[9], POOL[1], POOL[7], POOL[0], POOL[8], POOL[4],
             POOL[9]]
    got = _received(frame_io, b"".join(blobs), chunks)
    assert len(got) == len(blobs)
    for frame, blob in zip(got, blobs):
        _same(frame, protocol.frame_from_bytes(blob))


def test_stream_errors_follow_the_frames_before_them(frame_io):
    """A bad frame ends the stream after the good frames ahead of it."""
    bad = bytearray(POOL[1])
    bad[4:8] = b"XXXX"       # magic

    async def run():
        reader = frame_io.open()
        frame_io.feed(reader, POOL[0] + POOL[2] + bytes(bad) + POOL[3])
        first = await reader.read_frame()
        second = await reader.read_frame()
        with pytest.raises(protocol.ProtocolError, match="magic"):
            await reader.read_frame()
        return first, second, reader.transport.paused

    first, second, paused = asyncio.run(run())
    assert (first.request_id, second.request_id) == (1, 3)
    assert paused       # nothing more is read from an unframeable stream


# ----------------------------------------------------------------------
# Copy guard
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _traced():
    """Trace allocations inside the block; the yielded holder then has
    ``held`` (bytes still allocated at its end) and ``peak``."""
    out = types.SimpleNamespace()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        yield out
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out.held, out.peak = held - base, peak - base


@pytest.mark.parametrize("shape", [(64, 256), (256, 256)],
                         ids=["staged", "larger-than-staging"])
def test_request_receive_and_decode_allocate_one_payload_block(frame_io,
                                                               rng, shape):
    x = rng.standard_normal(shape)
    blob = protocol.encode_request(1, x, fmt="m2xfp")

    async def run():
        reader = frame_io.open()
        reader.get_buffer(-1)   # the staging buffer, made on first receive
        with _traced() as mem:
            frame_io.feed(reader, blob)
            req = protocol.decode_request(await reader.read_frame())
        return req, mem

    req, mem = asyncio.run(run())
    assert req.x.tobytes() == x.tobytes()
    assert x.nbytes <= mem.held < x.nbytes * 3 // 2
    assert mem.peak < x.nbytes * 3 // 2     # one payload-sized block, ever


def test_response_encode_allocates_one_frame_block(rng):
    arr = rng.standard_normal((64, 256))
    with _traced() as mem:
        blob = protocol.encode_response_array(1, arr, fingerprint="fp")
    assert arr.nbytes < len(blob) <= mem.held
    assert mem.peak < arr.nbytes * 3 // 2
    k, v = rng.standard_normal((32, 256)), rng.standard_normal((32, 256))
    with _traced() as mem:
        protocol.encode_session_append(2, session_id="s", layer=0, seq=0,
                                       k=k, v=v)
    assert mem.peak < (k.nbytes + v.nbytes) * 3 // 2
    with _traced() as mem:
        protocol.encode_session_kv(3, k, v, session_id="s", layer=0)
    assert mem.peak < (k.nbytes + v.nbytes) * 3 // 2


def test_packed_response_encode_copies_the_container_once(rng):
    """A packed answer's streams are joined once, into the frame: the
    server does not serialize the container to a blob first."""
    pt = encode(make_format("m2xfp"), rng.standard_normal((256, 256)))
    req = types.SimpleNamespace(packed=True)
    svc = types.SimpleNamespace(fingerprint="fp")
    with _traced() as mem:
        blob = QuantServer._encode_result(5, req, svc, pt)
    assert pt.payload_bytes < len(blob) <= mem.held
    assert mem.peak < pt.payload_bytes * 3 // 2
    assert protocol.response_result(protocol.frame_from_bytes(blob)) \
        .to_bytes() == pt.to_bytes()


def test_decoded_arrays_are_writable_and_private(frame_io, rng):
    """Arrays decoded from a frame are writable views of that frame's
    own buffer: writing one leaves the next frame's bytes alone."""
    xs = [rng.standard_normal((4, 64)) for _ in range(2)]
    outs = [rng.standard_normal((4, 64)) for _ in range(2)]
    stream = b"".join([protocol.encode_request(i, x, fmt="m2xfp")
                       for i, x in enumerate(xs)]
                      + [protocol.encode_response_array(9 + i, out)
                         for i, out in enumerate(outs)]
                      + [protocol.encode_session_kv(11, *outs,
                                                    session_id="s",
                                                    layer=0)])

    async def run():
        reader = frame_io.open()
        frame_io.feed(reader, stream, (len(stream) // 3,) * 3)
        return [await reader.read_frame() for _ in range(5)]

    frames = asyncio.run(run())
    payloads = [bytes(f.payload) for f in frames]
    arrays = [protocol.decode_request(frames[0]).x,
              protocol.decode_request(frames[1]).x,
              protocol.response_result(frames[2]),
              protocol.response_result(frames[3]),
              *protocol.decode_session_kv(frames[4])]
    for arr, want in zip(arrays, [*xs, *outs, *outs]):
        assert arr.flags.writeable and arr.flags.aligned
        assert arr.tobytes() == want.tobytes()
    for i, arr in enumerate(arrays):
        owner = min(i, 4)       # K and V share the last frame
        arr[...] = -1.0
        # The array is a view of its own frame, and of no later one.
        assert bytes(frames[owner].payload) != payloads[owner]
        for j in range(owner + 1, len(frames)):
            assert bytes(frames[j].payload) == payloads[j]


def test_frame_from_bytes_copies_once_into_a_bytearray(rng):
    x = rng.standard_normal((64, 256))
    blob = protocol.encode_request(1, x, fmt="m2xfp")
    with _traced() as mem:
        frame = protocol.frame_from_bytes(blob)
    assert mem.peak < len(blob) * 3 // 2
    assert isinstance(frame.payload.obj, bytearray)
    req = protocol.decode_request(frame)
    req.x[...] = 0.0
    assert blob == protocol.encode_request(1, x, fmt="m2xfp")


def test_recv_frame_receives_into_the_frame_buffer(rng):
    """The blocking socket path: one payload-sized block per frame."""
    x = rng.standard_normal((64, 256))
    blob = protocol.encode_response_array(4, x, fingerprint="fp")
    a, b = socket.socketpair()
    try:
        a.sendall(blob + protocol.encode_ping(5))
        a.close()
        with _traced() as mem:
            frame = protocol.recv_frame(b)
        assert x.nbytes <= mem.held and mem.peak < x.nbytes * 3 // 2
        out = protocol.response_result(frame)
        assert out.flags.writeable and out.flags.aligned
        assert out.tobytes() == x.tobytes()
        assert protocol.recv_frame(b).kind == protocol.KIND_PING
        assert protocol.recv_frame(b) is None
    finally:
        b.close()


@pytest.mark.parametrize("blobs", [
    [POOL[0]] * 30000,                   # 20-byte PINGs
    [POOL[4]] * 1200,                    # ~1 KB session appends
    [POOL[8]] * 24,                      # 128 KB requests
    [POOL[8], POOL[4], POOL[9]] * 6,     # mixed, 512 KB weights
], ids=["tiny", "small", "large", "mixed"])
def test_unconsumed_frames_pause_the_transport(frame_io, blobs):
    """Unread frames stop the parsing and the reading: the reader then
    holds at most the staging buffer, its queued frames (charged at
    least ``STAGING_BYTES // 64`` each, up to ``STAGING_BYTES`` plus
    the frame that crossed it) and one partial frame, whatever the
    frame size. Taking the frames resumes reading, and every frame
    arrives."""
    stream = b"".join(blobs)
    biggest = max(map(len, blobs))

    async def run():
        reader = frame_io.open()
        with _traced() as mem:
            fed = frame_io.feed(reader, stream)
        assert reader.transport.paused and fed < len(stream)
        assert mem.held <= 2 * STAGING_BYTES + 2 * biggest
        got = await _read_all(frame_io, reader, stream, fed=fed)
        assert len(got) == len(blobs)
        for frame, blob in zip(got, blobs):
            _same(frame, protocol.frame_from_bytes(blob))

    asyncio.run(run())


def _declared(magic=protocol.MAGIC, version=protocol.PROTOCOL_VERSION,
              kind=protocol.KIND_REQUEST, meta_len=0) -> bytes:
    """A length prefix declaring ``MAX_FRAME_BYTES`` and a header."""
    return struct.pack("<I4sBBBBII", protocol.MAX_FRAME_BYTES, magic,
                       version, kind, 0, protocol.FLAG_RAW_F64, 1, meta_len)


BAD_HEADERS = [
    (_declared(magic=b"XXXX"), "magic"),
    (_declared(version=protocol.PROTOCOL_VERSION + 1), "version"),
    (_declared(kind=99), "kind"),
    (_declared(meta_len=protocol.MAX_FRAME_BYTES), "meta"),
]


def test_idle_connection_holds_no_staging_buffer(frame_io):
    """The staging buffer is made with the first bytes to arrive."""
    async def run():
        with _traced() as mem:
            reader = frame_io.open()
        assert mem.held < STAGING_BYTES // 16
        with _traced() as mem:
            frame_io.feed(reader, POOL[0])
        assert mem.held >= STAGING_BYTES
        assert (await reader.read_frame()).kind == protocol.KIND_PING

    asyncio.run(run())


def test_declared_length_alone_commits_no_memory(frame_io):
    """Twenty bytes declaring the largest frame allocate O(STAGING_BYTES);
    past that the frame's buffer grows with what arrives, at most twice
    it. A bad header is refused before anything is sized from it."""
    body = memoryview(bytes(3 << 20))

    async def run():
        reader = frame_io.open()
        with _traced() as mem:
            frame_io.feed(reader, _declared())
        assert mem.peak <= 5 * STAGING_BYTES + 4096
        with _traced() as mem:
            fed = frame_io.feed(reader, body[:(1 << 20) + 7])
            frame_io.feed(reader, body[fed:])
        # The frame's buffer is now 4 MiB, for 3 MiB received (at most
        # twice it); it was copied from the 2 MiB one before it.
        assert mem.held <= (4 << 20) + 4096
        assert mem.peak <= (6 << 20) + 4096
        reader.eof_received()
        with pytest.raises(protocol.ConnectionLost, match="mid-frame"):
            await reader.read_frame()
        for header, match in BAD_HEADERS:
            reader = frame_io.open()
            with _traced() as mem:
                frame_io.feed(reader, header)
            assert mem.peak <= STAGING_BYTES + 4096
            assert reader.transport.paused
            with pytest.raises(protocol.ProtocolError, match=match):
                await reader.read_frame()

    asyncio.run(run())


def test_recv_frame_declared_length_commits_no_memory():
    """The blocking reader sizes a frame the same way."""
    for header, match in [(_declared(), None), *BAD_HEADERS]:
        a, b = socket.socketpair()
        try:
            a.sendall(header + bytes(1000))
            a.close()
            with _traced() as mem:
                if match is None:
                    with pytest.raises(protocol.ConnectionLost):
                        protocol.recv_frame(b)
                else:
                    with pytest.raises(protocol.ProtocolError, match=match):
                        protocol.recv_frame(b)
            assert mem.peak <= (4 * STAGING_BYTES + 4096 if match is None
                                else 4096)
        finally:
            b.close()


def test_frames_past_the_first_buffer_grow_into_one(frame_io, rng):
    """A frame larger than 4 × ``STAGING_BYTES`` arrives whole through
    both readers, its payload still aligned and writable."""
    blob = protocol.encode_request(3, rng.standard_normal((1100, 256)),
                                   fmt="m2xfp", op="weight")
    assert len(blob) > 4 * STAGING_BYTES
    stream = blob + POOL[0]
    want = [protocol.frame_from_bytes(blob), protocol.frame_from_bytes(POOL[0])]
    for chunks in [(), (1,) * 30 + (STAGING_BYTES - 3,)]:
        got = _received(frame_io, stream, chunks)
        assert len(got) == 2
        for frame, ref in zip(got, want):
            _same(frame, ref)
    a, b = socket.socketpair()
    try:
        threading.Thread(target=lambda: (a.sendall(stream), a.close()),
                         daemon=True).start()
        _same(protocol.recv_frame(b), want[0])
        _same(protocol.recv_frame(b), want[1])
        assert protocol.recv_frame(b) is None
    finally:
        b.close()
