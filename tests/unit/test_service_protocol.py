"""Wire protocol: framing round-trips, validation, typed errors."""

import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from repro.service.protocol import (
    MAGIC,
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    PROTOCOL_VERSION,
    ConnectionClosedMidFrame,
    ErrorCode,
    FrameReader,
    MessageType,
    ProtocolError,
    ServiceError,
    decode_array,
    encode_array,
    error_header,
    pack_frame,
    parse_error,
    read_frame,
    unpack_frame,
    write_frame,
)


class TestFrameRoundTrip:
    def test_header_and_body_survive(self):
        header = {"tensor_id": "T", "mode": "plan", "deadline_ms": 50.5}
        body = np.arange(5.0).tobytes()
        frame = pack_frame(MessageType.APPLY, header, body)
        msg_type, got_header, got_body = unpack_frame(frame)
        assert msg_type == MessageType.APPLY
        assert got_header == header
        assert got_body == body

    def test_empty_body(self):
        msg_type, header, body = unpack_frame(
            pack_frame(MessageType.STATS, {})
        )
        assert msg_type == MessageType.STATS
        assert header == {}
        assert body == b""

    def test_over_socket(self):
        """write_frame/read_frame across a real socket pair, including
        a frame split over many small recv chunks."""
        server, client = socket.socketpair()
        try:
            header, body = encode_array(np.linspace(0, 1, 1000))
            header["tensor_id"] = "big"

            def send():
                write_frame(client, MessageType.APPLY, header, body)

            thread = threading.Thread(target=send)
            thread.start()
            msg_type, got_header, got_body = read_frame(server)
            thread.join()
            assert msg_type == MessageType.APPLY
            assert got_header["tensor_id"] == "big"
            assert got_body == body
        finally:
            server.close()
            client.close()

    def test_large_body_arrives_aligned_writable_and_uncopied(self):
        """A body larger than the socket buffers goes out over several
        ``sendmsg`` calls and comes back as one aligned, writable
        buffer that ``decode_array`` wraps without a copy."""
        server, client = socket.socketpair()
        try:
            x = np.random.default_rng(3).standard_normal(1 << 17)
            header, body = encode_array(x)
            thread = threading.Thread(
                target=write_frame,
                args=(client, MessageType.REGISTER, header, body),
            )
            thread.start()
            _, got_header, got_body = read_frame(server)
            thread.join()
            assert isinstance(got_body, bytearray)
            decoded = decode_array(got_header, got_body, expected_ndim=1)
            assert decoded.tobytes() == x.tobytes()
            assert decoded.flags.aligned and decoded.flags.writeable
            assert np.shares_memory(decoded, np.frombuffer(got_body))
        finally:
            server.close()
            client.close()

    def test_write_frame_sends_header_and_body_together(self):
        """A small frame is one ``sendmsg`` of prefix+header and body
        (never two sends, which Nagle plus delayed ACK can stall), and
        partial sends resume where the kernel stopped."""

        class Recorder:
            def __init__(self, limit):
                self.limit, self.calls, self.sent = limit, [], bytearray()

            def sendmsg(self, buffers):
                self.calls.append(len(buffers))
                data = b"".join(bytes(buffer) for buffer in buffers)
                self.sent += data[: self.limit]
                return min(len(data), self.limit)

        header, body = encode_array(np.arange(6.0))
        frame = pack_frame(MessageType.APPLY, header, body)
        whole = Recorder(1 << 20)
        write_frame(whole, MessageType.APPLY, header, body)
        assert whole.calls == [2]
        assert bytes(whole.sent) == frame
        trickle = Recorder(7)
        write_frame(trickle, MessageType.APPLY, header, body)
        assert bytes(trickle.sent) == frame
        assert len(trickle.calls) == -(-len(frame) // 7)

    def test_clean_eof_is_connection_error(self):
        server, client = socket.socketpair()
        client.close()
        try:
            with pytest.raises(ConnectionError):
                read_frame(server)
        finally:
            server.close()

    def test_mid_frame_eof_is_protocol_error(self):
        server, client = socket.socketpair()
        try:
            frame = pack_frame(MessageType.APPLY, {"tensor_id": "T"})
            client.sendall(frame[: len(frame) - 3])
            client.close()
            with pytest.raises(ProtocolError):
                read_frame(server)
        finally:
            server.close()

    def test_mid_frame_eof_is_also_connection_error(self):
        """The dual classification the client's retry logic relies on:
        a peer vanishing inside a frame is a retryable transport loss
        *and* an unrecoverable framing state."""
        server, client = socket.socketpair()
        try:
            frame = pack_frame(MessageType.APPLY, {"tensor_id": "T"})
            client.sendall(frame[:5])
            client.close()
            with pytest.raises(ConnectionClosedMidFrame) as info:
                read_frame(server)
            assert isinstance(info.value, ConnectionError)
            assert isinstance(info.value, ProtocolError)
        finally:
            server.close()


class TestFrameReader:
    """The incremental parser behind the event-loop connection layer."""

    def _frame(self, header=None, body=b""):
        return pack_frame(MessageType.APPLY, header or {"tensor_id": "T"}, body)

    def test_byte_at_a_time_reassembly(self):
        frame = self._frame(body=np.arange(7.0).tobytes())
        reader = FrameReader()
        for byte in frame[:-1]:
            reader.feed(bytes([byte]))
            assert reader.next_frame() is None
        reader.feed(frame[-1:])
        msg_type, header, body = reader.next_frame()
        assert msg_type == MessageType.APPLY
        assert header["tensor_id"] == "T"
        assert body == np.arange(7.0).tobytes()
        assert reader.buffered == 0

    @pytest.mark.parametrize("chunk", [1, 1 << 16, None], ids=["1B", "64KiB", "whole"])
    def test_chunked_body_is_one_aligned_writable_buffer(self, chunk):
        """However the bytes arrive, the body is handed out as its own
        buffer: equal to what was sent, and wrapped by
        ``decode_array`` as an aligned, writable view."""
        x = np.random.default_rng(4).standard_normal(9000)  # > 64 KiB
        header, body = encode_array(x)
        frame = pack_frame(MessageType.REGISTER, header, body)
        chunk = chunk or len(frame)
        reader = FrameReader()
        frames = []
        for start in range(0, len(frame), chunk):
            reader.feed(frame[start : start + chunk])
            frames.extend(iter(reader.next_frame, None))
        [(msg_type, got_header, got_body)] = frames
        assert msg_type == MessageType.REGISTER
        assert isinstance(got_body, bytearray)
        assert got_body == body
        decoded = decode_array(got_header, got_body, expected_ndim=1)
        assert decoded.tobytes() == x.tobytes()
        assert decoded.flags.aligned and decoded.flags.writeable
        assert np.shares_memory(decoded, np.frombuffer(got_body))
        assert reader.buffered == 0

    def test_register_parse_keeps_one_body_copy(self):
        """Reading a REGISTER in 64 KiB chunks and decoding it holds
        the body once: no receive buffer, slice or decode copy."""
        x = np.random.default_rng(5).standard_normal(1 << 19)  # 4 MiB
        header, body = encode_array(x)
        frame = pack_frame(MessageType.REGISTER, header, body)
        reader = FrameReader()
        tracemalloc.start()
        try:
            for start in range(0, len(frame), 1 << 16):
                reader.feed(frame[start : start + (1 << 16)])
                parsed = reader.next_frame()
            decoded = decode_array(parsed[1], parsed[2], expected_ndim=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decoded.tobytes() == x.tobytes()
        assert peak <= len(body) + 2**20

    def test_advertised_body_is_not_reserved_up_front(self):
        """A peer that advertises a large body but sends a little of it
        makes the reader hold about what it sent, not the advertised
        length."""
        header = b'{"tensor_id":"T"}'
        reader = FrameReader()
        tracemalloc.start()
        try:
            reader.feed(self._prefix(msg_type=1, header_len=len(header), body_len=1 << 28))
            reader.feed(header + bytes(100_000))
            assert reader.next_frame() is None
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert reader.buffered == 100_000
        assert held <= 2**20

    def test_two_frames_and_part_of_a_third_in_one_chunk(self):
        bodies = [np.full(5, float(i)).tobytes() for i in range(3)]
        frames = [
            pack_frame(MessageType.APPLY, {"tensor_id": str(i)}, body)
            for i, body in enumerate(bodies)
        ]
        reader = FrameReader()
        reader.feed(frames[0] + frames[1] + frames[2][:20])
        got = list(iter(reader.next_frame, None))
        assert [frame[1]["tensor_id"] for frame in got] == ["0", "1"]
        assert [frame[2] for frame in got] == bodies[:2]
        assert reader.buffered > 0
        reader.feed(frames[2][20:])
        _, header, body = reader.next_frame()
        assert header["tensor_id"] == "2" and body == bodies[2]
        for _, header, body in got:
            decoded = decode_array({"shape": [5]}, body)
            assert decoded.flags.aligned and decoded.flags.writeable
            assert np.shares_memory(decoded, np.frombuffer(body))

    def test_pipelined_frames_in_one_chunk(self):
        reader = FrameReader()
        reader.feed(
            self._frame({"tensor_id": "a"}) + self._frame({"tensor_id": "b"})
        )
        first = reader.next_frame()
        second = reader.next_frame()
        assert first[1]["tensor_id"] == "a"
        assert second[1]["tensor_id"] == "b"
        assert reader.next_frame() is None

    def test_truncated_frame_stays_pending(self):
        """A partial frame is not an error — just not a frame yet."""
        frame = self._frame()
        reader = FrameReader()
        reader.feed(frame[:-1])
        assert reader.next_frame() is None
        assert reader.buffered > 0
        reader.feed(frame[-1:])
        assert reader.next_frame() is not None

    def _prefix(self, magic=MAGIC, version=PROTOCOL_VERSION, msg_type=2,
                header_len=2, body_len=0):
        return struct.pack("!2sBBIQ", magic, version, msg_type, header_len,
                           body_len)

    def test_oversized_length_prefix_rejected_before_payload(self):
        """The hostile-peer bound: a giant advertised length raises as
        soon as the 16 prefix bytes arrive, before any payload is
        buffered."""
        reader = FrameReader()
        reader.feed(self._prefix(body_len=MAX_BODY_BYTES + 1))
        with pytest.raises(ProtocolError, match="body too large"):
            reader.next_frame()

    def test_oversized_header_rejected(self):
        reader = FrameReader()
        reader.feed(self._prefix(header_len=MAX_HEADER_BYTES + 1))
        with pytest.raises(ProtocolError, match="header too large"):
            reader.next_frame()

    def test_unknown_message_type_rejected(self):
        reader = FrameReader()
        reader.feed(self._prefix(msg_type=99) + b"{}")
        with pytest.raises(ProtocolError, match="message type"):
            reader.next_frame()

    def test_version_mismatch_rejected(self):
        reader = FrameReader()
        reader.feed(self._prefix(version=9) + b"{}")
        with pytest.raises(ProtocolError, match="version"):
            reader.next_frame()

    def test_bad_magic_rejected(self):
        reader = FrameReader()
        reader.feed(self._prefix(magic=b"XX") + b"{}")
        with pytest.raises(ProtocolError, match="magic"):
            reader.next_frame()

    def test_undecodable_header_rejected(self):
        reader = FrameReader()
        reader.feed(self._prefix(header_len=3) + b"xyz")
        with pytest.raises(ProtocolError, match="undecodable"):
            reader.next_frame()

    def test_poisoned_reader_stays_poisoned(self):
        """After a framing error there is no recoverable boundary:
        every later call re-raises, even after a valid frame arrives."""
        reader = FrameReader()
        reader.feed(self._prefix(magic=b"XX") + b"{}")
        with pytest.raises(ProtocolError):
            reader.next_frame()
        reader.feed(self._frame())
        with pytest.raises(ProtocolError):
            reader.next_frame()

    def test_matches_blocking_reader_on_split_points(self):
        """Every split point of a frame yields the same parse as the
        one-shot unpack — the incremental reader cannot disagree with
        the blocking one."""
        frame = self._frame({"tensor_id": "split"}, np.ones(3).tobytes())
        expected = unpack_frame(frame)
        for split in range(1, len(frame)):
            reader = FrameReader()
            reader.feed(frame[:split])
            early = reader.next_frame()
            assert early is None
            reader.feed(frame[split:])
            assert reader.next_frame() == expected


class TestFrameValidation:
    def _prefix(self, magic=MAGIC, version=PROTOCOL_VERSION, msg_type=2,
                header_len=2, body_len=0):
        return struct.pack("!2sBBIQ", magic, version, msg_type, header_len,
                           body_len)

    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError, match="magic"):
            unpack_frame(self._prefix(magic=b"XX") + b"{}")

    def test_wrong_version_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            unpack_frame(self._prefix(version=9) + b"{}")

    def test_unknown_message_type_rejected(self):
        with pytest.raises(ProtocolError, match="message type"):
            unpack_frame(self._prefix(msg_type=99) + b"{}")

    def test_oversized_header_rejected(self):
        with pytest.raises(ProtocolError, match="header too large"):
            unpack_frame(self._prefix(header_len=MAX_HEADER_BYTES + 1))

    def test_oversized_body_rejected(self):
        with pytest.raises(ProtocolError, match="body too large"):
            unpack_frame(self._prefix(body_len=MAX_BODY_BYTES + 1))

    def test_truncated_frame_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            unpack_frame(b"SV")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="mismatch"):
            unpack_frame(self._prefix(header_len=2) + b"{}extra")

    def test_non_json_header_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            unpack_frame(self._prefix(header_len=3) + b"xyz")

    def test_non_object_header_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            unpack_frame(self._prefix(header_len=2) + b"[]")


class TestArrayPayloads:
    def test_vector_roundtrip_bitwise(self):
        x = np.random.default_rng(0).standard_normal(37)
        header, body = encode_array(x)
        assert np.array_equal(decode_array(header, body, expected_ndim=1), x)

    def test_matrix_roundtrip_bitwise(self):
        X = np.random.default_rng(1).standard_normal((12, 5))
        header, body = encode_array(X)
        assert np.array_equal(decode_array(header, body, expected_ndim=2), X)

    def test_fortran_order_normalized(self):
        X = np.asfortranarray(np.random.default_rng(2).standard_normal((6, 4)))
        header, body = encode_array(X)
        assert np.array_equal(decode_array(header, body), X)

    def test_decoded_array_is_writable(self):
        header, body = encode_array(np.ones(3))
        decoded = decode_array(header, body)
        decoded[0] = 2.0  # frombuffer alone would be read-only

    def test_read_only_body_is_copied(self):
        """A ``bytes`` body cannot be written, so the array is a copy;
        a writable buffer is wrapped as is."""
        x = np.arange(4.0)
        header, body = encode_array(x)
        copied = decode_array(header, bytes(body))
        assert copied.flags.writeable
        assert not np.shares_memory(copied, x)
        buffer = bytearray(body)
        wrapped = decode_array(header, buffer)
        assert np.shares_memory(wrapped, np.frombuffer(buffer))

    def test_encode_array_is_a_view_of_contiguous_data(self):
        x = np.arange(6.0).reshape(2, 3)
        header, body = encode_array(x)
        assert header["shape"] == [2, 3]
        assert np.shares_memory(np.frombuffer(body), x)
        assert len(body) == x.nbytes
        assert len(encode_array(np.zeros((0, 4)))[1]) == 0

    def test_ndim_mismatch_rejected(self):
        header, body = encode_array(np.ones(3))
        with pytest.raises(ProtocolError, match="1-d"):
            decode_array({**header, "shape": [3, 1]}, body, expected_ndim=1)

    def test_shape_length_mismatch_rejected(self):
        header, body = encode_array(np.ones(3))
        with pytest.raises(ProtocolError, match="bytes"):
            decode_array({**header, "shape": [4]}, body)

    def test_bad_dtype_rejected(self):
        header, body = encode_array(np.ones(3))
        with pytest.raises(ProtocolError, match="dtype"):
            decode_array({**header, "dtype": "<f4"}, body)

    def test_bad_shape_rejected(self):
        with pytest.raises(ProtocolError, match="shape"):
            decode_array({"shape": "nope"}, b"")


class TestTypedErrors:
    def test_error_header_roundtrip(self):
        header = error_header(ErrorCode.OVERLOADED, "queue full")
        error = parse_error(header)
        assert isinstance(error, ServiceError)
        assert error.code == ErrorCode.OVERLOADED
        assert error.detail == "queue full"
        assert "overloaded" in str(error)

    def test_unknown_code_maps_to_internal(self):
        error = parse_error({"code": "martian", "message": "?"})
        assert error.code == ErrorCode.INTERNAL

    def test_every_code_distinct_on_wire(self):
        values = [code.value for code in ErrorCode]
        assert len(values) == len(set(values))
