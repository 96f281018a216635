"""Serving codec — a dense REGISTER from socket chunks to the tensor.

The body of a q=2, n=300 dense registration is the packed tensor,
C(302, 3) float64 words (36.4 MB). The server's ``FrameReader`` copies
each 64 KiB chunk ``recv`` returns into the frame's own body buffer,
and ``decode_array`` wraps that buffer as the packed array. So parsing
and decoding hold the body once: the tracemalloc peak of the whole
path stays within one body plus 1 MiB (chunks, header, bookkeeping).
"""

import tracemalloc

import numpy as np

from repro.service.protocol import (
    FrameReader,
    MessageType,
    decode_array,
    encode_array,
    pack_frame,
)
from repro.tensor.packed import packed_size

CHUNK = 1 << 16


def _register_frame(n: int) -> bytes:
    data = np.random.default_rng(0).standard_normal(packed_size(n))
    header, body = encode_array(data)
    header.update(tensor_id="T", n=n, q=2)
    return pack_frame(MessageType.REGISTER, header, body)


def _parse_and_decode(frame: bytes) -> np.ndarray:
    reader = FrameReader()
    view = memoryview(frame)
    for start in range(0, len(frame), CHUNK):
        reader.feed(bytes(view[start : start + CHUNK]))
        parsed = reader.next_frame()
    _, header, body = parsed
    return decode_array(header, body, expected_ndim=1)


def test_register_parse_holds_one_body(benchmark):
    n = 300
    frame = _register_frame(n)
    body_bytes = 8 * packed_size(n)
    tracemalloc.start()
    try:
        data = _parse_and_decode(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.nbytes == body_bytes
    sent = np.frombuffer(frame, offset=len(frame) - body_bytes)
    assert np.array_equal(data, sent)
    assert data.flags.aligned and data.flags.writeable
    del data, sent
    benchmark(_parse_and_decode, frame)
    print(f"\n[protocol — REGISTER n={n}, {len(frame) // CHUNK + 1} chunks of 64 KiB]")
    print(f"  body = {body_bytes / 1e6:.1f} MB, tracemalloc peak = {peak / 1e6:.1f} MB")
    assert peak <= body_bytes + 2**20
