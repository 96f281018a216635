"""Wire protocol of the STTSV serving layer.

Every message — request or reply — is one *frame*:

::

    offset  size  field
    0       2     magic  b"SV"
    2       1     protocol version (1)
    3       1     message type (MessageType)
    4       4     header length  (unsigned big-endian)
    8       8     body length    (unsigned big-endian)
    16      ...   header: UTF-8 JSON object (parameters, metadata)
    ...     ...   body:   raw little-endian float64 array bytes

The JSON header carries everything small and structured (tensor ids,
modes, deadlines, error codes, stats snapshots); the body carries
vector/matrix payloads verbatim (shape and dtype are pinned in the
header by :func:`encode_array`), so numerical round-trips are bitwise:
the bytes a client sends are the bytes the engine sees.

Request types: ``REGISTER`` (resident-tensor upload — dense packed
payloads, or low-rank factors with header ``kind="symk"``), ``APPLY``
(one vector), ``APPLY_BATCH`` (a pre-batched ``n × s`` matrix),
``STATS`` (metrics snapshot), ``SHUTDOWN``, and ``UPDATE`` (stream one
rank-1 term ``(λ_new, v_new)`` into a resident low-rank tensor; the
reply echoes the session's monotone ``update_epoch``, which ``APPLY``
replies also carry so clients can fence reads after writes). Reply
types: ``RESULT`` (array payload), ``OK`` (JSON payload), and
``ERROR`` with a typed :class:`ErrorCode` — backpressure
(``OVERLOADED``), per-request deadline misses (``DEADLINE_EXCEEDED``),
client mistakes (``BAD_REQUEST``, ``UNKNOWN_TENSOR``), and epoch-fence
violations (``STALE_READ``) are distinct, machine-readable outcomes
rather than stringly-typed failures.
"""

from __future__ import annotations

import enum
import json
import socket
import struct
from collections import deque
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.errors import ReproError

MAGIC = b"SV"
PROTOCOL_VERSION = 1

#: Frame prefix: magic, version, type, header length, body length.
_PREFIX = struct.Struct("!2sBBIQ")

#: Caps guarding a malformed or hostile peer (1 MiB JSON, 1 GiB body).
MAX_HEADER_BYTES = 1 << 20
MAX_BODY_BYTES = 1 << 30


class ProtocolError(ReproError):
    """Malformed frame: bad magic, version, length, or encoding."""


class ConnectionClosedMidFrame(ProtocolError, ConnectionError):
    """The peer vanished inside a frame.

    Both a :class:`ProtocolError` (the frame can never be completed)
    and a :class:`ConnectionError` (the transport died), so framing
    code treats it as malformed input while retry logic — the client's
    auto-reconnect path — treats it as a retryable connection loss.
    """


class ServiceError(ReproError):
    """A typed ``ERROR`` reply, surfaced client-side.

    ``code`` is an :class:`ErrorCode` value, so callers can branch on
    overload vs. deadline vs. client error without parsing messages.
    """

    def __init__(self, code: "ErrorCode", message: str):
        super().__init__(f"[{code.value}] {message}")
        self.code = code
        self.detail = message


class MessageType(enum.IntEnum):
    """Frame discriminator (requests < 16 <= replies)."""

    REGISTER = 1
    APPLY = 2
    APPLY_BATCH = 3
    STATS = 4
    SHUTDOWN = 5
    UPDATE = 6
    RESULT = 16
    OK = 17
    ERROR = 18


class ErrorCode(enum.Enum):
    """Typed failure classes of ``ERROR`` replies."""

    BAD_REQUEST = "bad-request"
    UNSUPPORTED_VERSION = "unsupported-version"
    UNKNOWN_TENSOR = "unknown-tensor"
    OVERLOADED = "overloaded"
    DEADLINE_EXCEEDED = "deadline-exceeded"
    SHUTTING_DOWN = "shutting-down"
    STALE_READ = "stale-read"
    INTERNAL = "internal"


def _frame_head(msg_type: MessageType, header: Dict, body_len: int) -> bytes:
    """Prefix + header of a frame whose body is ``body_len`` bytes."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header too large ({len(header_bytes)} bytes)")
    if body_len > MAX_BODY_BYTES:
        raise ProtocolError(f"body too large ({body_len} bytes)")
    return (
        _PREFIX.pack(
            MAGIC,
            PROTOCOL_VERSION,
            int(msg_type),
            len(header_bytes),
            body_len,
        )
        + header_bytes
    )


def pack_frame(
    msg_type: MessageType, header: Dict, body: bytes = b""
) -> bytes:
    """Serialize one frame (the inverse of :func:`unpack_frame`)."""
    return _frame_head(msg_type, header, len(body)) + body


def unpack_frame(data: bytes) -> Tuple[MessageType, Dict, bytes]:
    """Parse one complete frame from ``data`` (exact length required)."""
    if len(data) < _PREFIX.size:
        raise ProtocolError(
            f"truncated frame: {len(data)} < {_PREFIX.size} prefix bytes"
        )
    magic, version, msg_type, header_len, body_len = _PREFIX.unpack_from(data)
    _check_prefix(magic, version, msg_type, header_len, body_len)
    expected = _PREFIX.size + header_len + body_len
    if len(data) != expected:
        raise ProtocolError(
            f"frame length mismatch: got {len(data)}, prefix says {expected}"
        )
    header = _decode_header(data[_PREFIX.size : _PREFIX.size + header_len])
    body = data[_PREFIX.size + header_len :]
    return MessageType(msg_type), header, body


def write_frame(
    sock: socket.socket,
    msg_type: MessageType,
    header: Dict,
    body: bytes = b"",
) -> None:
    """Send one frame over a connected socket.

    Prefix and header go out with the body in each ``sendmsg`` call,
    the body straight from its own buffer (any bytes-like object,
    e.g. :func:`encode_array`'s view of an array): no joined copy of
    the frame is made, and a small frame is still one segment.
    """
    body = memoryview(body).cast("B")
    pending = [memoryview(_frame_head(msg_type, header, len(body)))]
    if len(body):
        pending.append(body)
    while pending:
        sent = sock.sendmsg(pending)
        while pending and sent >= len(pending[0]):
            sent -= len(pending.pop(0))
        if sent:
            pending[0] = pending[0][sent:]


def read_frame(sock: socket.socket) -> Tuple[MessageType, Dict, bytearray]:
    """Read exactly one frame; raises ``ConnectionError`` on clean EOF
    before any prefix byte, :class:`ProtocolError` on malformed input.
    The body is its own writable, aligned ``bytearray``, so
    :func:`decode_array` wraps it without a copy."""
    prefix = _recv_exact(sock, _PREFIX.size)
    magic, version, msg_type, header_len, body_len = _PREFIX.unpack(prefix)
    _check_prefix(magic, version, msg_type, header_len, body_len)
    header = _decode_header(_recv_exact(sock, header_len))
    return MessageType(msg_type), header, _recv_exact(sock, body_len)


def _check_prefix(
    magic: bytes, version: int, msg_type: int, header_len: int, body_len: int
) -> None:
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version}"
            f" (this build speaks {PROTOCOL_VERSION})"
        )
    try:
        MessageType(msg_type)
    except ValueError:
        raise ProtocolError(f"unknown message type {msg_type}") from None
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"header too large ({header_len} bytes)")
    if body_len > MAX_BODY_BYTES:
        raise ProtocolError(f"body too large ({body_len} bytes)")


def _decode_header(raw: bytes) -> Dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable header: {error}") from None
    if not isinstance(header, dict):
        raise ProtocolError(
            f"header must be a JSON object, got {type(header).__name__}"
        )
    return header


def _recv_exact(sock: socket.socket, count: int) -> bytearray:
    buffer = bytearray(count)
    view = memoryview(buffer)
    filled = 0
    while filled < count:
        received = sock.recv_into(view[filled:])
        if not received:
            if not filled:
                raise ConnectionError("connection closed")
            raise ConnectionClosedMidFrame(
                f"connection closed mid-frame ({filled} of"
                f" {count} bytes read)"
            )
        filled += received
    return buffer


# -- incremental parsing --------------------------------------------------------


class FrameReader:
    """Incremental frame parser for non-blocking sockets.

    The event-loop connection layer feeds whatever bytes ``recv``
    produced; complete frames come back out as soon as their last byte
    arrives::

        reader = FrameReader()
        reader.feed(chunk)
        while (frame := reader.next_frame()) is not None:
            msg_type, header, body = frame

    Validation is identical to :func:`read_frame` — the prefix is
    checked the moment its 16 bytes are buffered, so an oversized
    length, bad magic, unknown type, or version mismatch raises
    :class:`ProtocolError` *before* any payload is read, bounding what
    a hostile peer can make the server buffer. A raised reader is
    poisoned: the stream has no recoverable frame boundary, so every
    later call re-raises.

    Once a frame's header is in, its body gets its own ``bytearray``,
    and fed bytes are copied into it once, as they arrive. The frame
    hands that buffer out and owns it: it starts 8-byte aligned and is
    writable, so :func:`decode_array` wraps it without a copy, and
    nothing else refers to it. The buffer is not sized to the
    advertised length up front, which would let 16 bytes reserve
    :data:`MAX_BODY_BYTES`: it starts at most 64 KiB and doubles as
    bytes arrive, so it holds at most twice what the peer sent, and a
    complete body carries less than 16 KiB of spare capacity.
    """

    def __init__(self):
        #: Fed bytes not parsed yet, as views of the fed chunks.
        self._unread: Deque[memoryview] = deque()
        self._unread_bytes = 0
        #: Prefix, then header, of the frame in progress.
        self._head = bytearray()
        #: Parsed prefix of the in-progress frame, or None between frames.
        self._pending: Optional[Tuple[int, int, int]] = None
        #: Header and partly filled body of the in-progress frame, once
        #: the header is complete.
        self._header: Optional[Dict] = None
        self._body: Optional[bytearray] = None
        self._filled = 0
        self._error: Optional[ProtocolError] = None

    def feed(self, data: bytes) -> None:
        """Queue bytes as they arrive off the socket. A ``bytes`` chunk
        (what ``recv`` returns) is kept by reference until parsed."""
        if data:
            self._unread.append(memoryview(bytes(data)))
            self._unread_bytes += len(data)

    @property
    def buffered(self) -> int:
        """Bytes held but not yet returned as a frame."""
        return self._unread_bytes + len(self._head) + self._filled

    def next_frame(self) -> Optional[Tuple[MessageType, Dict, bytearray]]:
        """The next complete frame, or None until more bytes arrive."""
        if self._error is not None:
            raise self._error
        try:
            return self._parse()
        except ProtocolError as error:
            self._error = error
            raise

    def _take(self, count: int) -> memoryview:
        """Pop up to ``count`` fed bytes of the first fed chunk (the
        caller checks that one is queued), as a view of it."""
        chunk = self._unread.popleft()
        if len(chunk) > count:
            self._unread.appendleft(chunk[count:])
            chunk = chunk[:count]
        self._unread_bytes -= len(chunk)
        return chunk

    def _fill_head(self, size: int) -> bool:
        """Grow the head to ``size`` bytes; True once it holds them."""
        while len(self._head) < size and self._unread:
            self._head += self._take(size - len(self._head))
        return len(self._head) == size

    def _fill_body(self, body_len: int) -> bool:
        """Copy fed bytes into the body; True once it is complete."""
        while self._filled < body_len and self._unread:
            chunk = self._take(body_len - self._filled)
            end = self._filled + len(chunk)
            while len(self._body) < end:
                # An exact reallocation: CPython over-allocates only
                # growth below 1/8.
                self._body *= 2
            self._body[self._filled : end] = chunk
            self._filled = end
        if self._filled < body_len:
            return False
        del self._body[body_len:]
        return True

    def _parse(self) -> Optional[Tuple[MessageType, Dict, bytearray]]:
        if self._pending is None:
            if not self._fill_head(_PREFIX.size):
                return None
            magic, version, msg_type, header_len, body_len = (
                _PREFIX.unpack(self._head)
            )
            _check_prefix(magic, version, msg_type, header_len, body_len)
            self._pending = (msg_type, header_len, body_len)
            self._head.clear()
        msg_type, header_len, body_len = self._pending
        if self._body is None:
            if not self._fill_head(header_len):
                return None
            self._header = _decode_header(self._head)
            self._head.clear()
            self._body = bytearray(_first_capacity(body_len))
        if not self._fill_body(body_len):
            return None
        frame = (MessageType(msg_type), self._header, self._body)
        self._pending = self._header = self._body = None
        self._filled = 0
        return frame


def _first_capacity(body_len: int) -> int:
    """A body buffer's size before its doublings: ``body_len / 2^k``
    rounded up, for the least ``k`` that makes it at most 64 KiB, so
    ``k`` doublings overshoot ``body_len`` by less than ``2^k``."""
    return -(-body_len >> max(0, (body_len - 1) >> 16).bit_length())


# -- array payloads ------------------------------------------------------------


def encode_array(array: np.ndarray) -> Tuple[Dict, memoryview]:
    """Header fields + the bytes of a float64 payload (C order): a
    byte view of the array itself when it already is contiguous
    little-endian float64, so sending it copies nothing."""
    array = np.ascontiguousarray(np.asarray(array, dtype="<f8"))
    header = {"shape": list(array.shape), "dtype": "<f8"}
    return header, memoryview(array.reshape(-1)).cast("B")


def decode_array(
    header: Dict,
    body: bytes,
    expected_ndim: Optional[int] = None,
) -> np.ndarray:
    """The payload array; validates shape/length/dtype.

    A writable, aligned body (what :class:`FrameReader` and
    :func:`read_frame` hand out) is wrapped as is: the array is a view
    of the frame's own buffer. A read-only body (``bytes``) is copied,
    so the array is always writable.
    """
    shape = header.get("shape")
    if (
        not isinstance(shape, list)
        or not shape
        or not all(isinstance(d, int) and d >= 0 for d in shape)
    ):
        raise ProtocolError(f"bad array shape {shape!r}")
    if header.get("dtype", "<f8") != "<f8":
        raise ProtocolError(
            f"unsupported dtype {header.get('dtype')!r} (float64 only)"
        )
    if expected_ndim is not None and len(shape) != expected_ndim:
        raise ProtocolError(
            f"expected a {expected_ndim}-d payload, got shape {shape}"
        )
    count = int(np.prod(shape, dtype=np.int64)) if shape else 0
    if len(body) != 8 * count:
        raise ProtocolError(
            f"body carries {len(body)} bytes, shape {shape} needs"
            f" {8 * count}"
        )
    array = np.frombuffer(body, dtype="<f8").reshape(shape)
    if array.flags.writeable and array.flags.aligned:
        return array
    return array.copy()


def error_header(code: ErrorCode, message: str) -> Dict:
    """Header of a typed ``ERROR`` reply."""
    return {"code": code.value, "message": message}


def parse_error(header: Dict) -> ServiceError:
    """Turn an ``ERROR`` reply header back into a :class:`ServiceError`."""
    try:
        code = ErrorCode(header.get("code"))
    except ValueError:
        code = ErrorCode.INTERNAL
    return ServiceError(code, str(header.get("message", "")))
