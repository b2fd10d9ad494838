"""Framed binary protocol plus the edge-client and near-edge-server roles.

Every message travels in one frame: 4-byte magic ``COV1``, one message
type byte, a little-endian u32 payload length, then the payload. All
payload integers are little-endian. Three message types exist:

* type 1, offload request: request_id u64, mode u8 (0 carries a
  sample_index u64, 1 carries a u32-length-prefixed opaque payload),
  k u8, then k class indices as u32
* type 2, offload response: request_id u64, predicted_class u32,
  domain cardinality u8, that many partition indices as u16 (sorted
  ascending), server_latency_us u32
* type 3, error: request_id u64, code u16, u16-length-prefixed utf-8
  text; codes: 1 bad frame, 2 unknown sample, 3 no expert, 4 internal

The server recomputes the domain from the transmitted top-k indices, so
the partition map stays authoritative in one place. Byte offsets in
decode errors count from the start of the frame (payload begins at 9).
Readers refuse a payload longer than ``MAX_PAYLOAD_BYTES`` (1 MiB).
"""

from __future__ import annotations

import contextlib
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .errors import ProtocolError, TransportError
from .partition import DomainSet, PartitionMap
from .router import (
    CollabOutcome,
    RoutingPrimitives,
    apply_gate,
    check_threshold,
    expert_argmax,
    gate_signals,
)
from .trace import PredictionTrace, TraceSet

__all__ = [
    "MAGIC",
    "OffloadRequest",
    "OffloadResponse",
    "ErrorMsg",
    "ERR_BAD_FRAME",
    "ERR_UNKNOWN_SAMPLE",
    "ERR_NO_EXPERT",
    "ERR_INTERNAL",
    "encode",
    "decode",
    "read_message",
    "MAX_PAYLOAD_BYTES",
    "NearEdgeServer",
    "run_edge_client",
    "DelayedProxy",
]

MAGIC = b"COV1"
_HEADER = struct.Struct("<4sBI")

MSG_REQUEST = 1
MSG_RESPONSE = 2
MSG_ERROR = 3

ERR_BAD_FRAME = 1
ERR_UNKNOWN_SAMPLE = 2
ERR_NO_EXPERT = 3
ERR_INTERNAL = 4

_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1

# Largest payload read_message accepts, so that one header cannot make a
# reader buffer up to 4 GiB. Every frame this module sends fits: an error
# message is at most 64 KiB and a trace-mode request with k=255 about 1 KB.
MAX_PAYLOAD_BYTES = 1 << 20


@dataclass(frozen=True)
class OffloadRequest:
    """One uncertain sample sent for expert refinement.

    Exactly one of ``sample_index`` (trace mode) and ``payload`` (raw
    mode, opaque bytes for a live backend) is set.
    """

    request_id: int
    topk: tuple[int, ...]
    sample_index: int | None = None
    payload: bytes | None = None

    def __post_init__(self):
        if (self.sample_index is None) == (self.payload is None):
            raise ValueError("exactly one of sample_index and payload must be set")
        if not 0 <= self.request_id <= _U64_MAX:
            raise ValueError(f"request_id out of u64 range: {self.request_id}")
        if not 1 <= len(self.topk) <= 255:
            raise ValueError(f"top-k length must be 1..255, got {len(self.topk)}")
        if any(not 0 <= c <= _U32_MAX for c in self.topk):
            raise ValueError(f"top-k class index out of u32 range: {self.topk}")
        if self.sample_index is not None and not 0 <= self.sample_index <= _U64_MAX:
            raise ValueError(f"sample_index out of u64 range: {self.sample_index}")
        if self.payload is not None and len(self.payload) > _U32_MAX:
            raise ValueError("raw payload too large for u32 length")


@dataclass(frozen=True)
class OffloadResponse:
    """Expert prediction for one offloaded sample."""

    request_id: int
    predicted_class: int
    domain: DomainSet
    server_latency_us: int = 0

    def __post_init__(self):
        if not 0 <= self.request_id <= _U64_MAX:
            raise ValueError(f"request_id out of u64 range: {self.request_id}")
        if not 0 <= self.predicted_class <= _U32_MAX:
            raise ValueError(f"predicted_class out of u32 range: {self.predicted_class}")
        if len(self.domain) > 255 or any(p > 0xFFFF for p in self.domain.indices):
            raise ValueError(f"domain does not fit the wire layout: {self.domain}")
        if not 0 <= self.server_latency_us <= _U32_MAX:
            raise ValueError(f"server_latency_us out of u32 range: {self.server_latency_us}")


@dataclass(frozen=True)
class ErrorMsg:
    """Server-side failure report for one request."""

    request_id: int
    code: int
    message: str

    def __post_init__(self):
        if not 0 <= self.request_id <= _U64_MAX:
            raise ValueError(f"request_id out of u64 range: {self.request_id}")
        if not 0 <= self.code <= 0xFFFF:
            raise ValueError(f"error code out of u16 range: {self.code}")
        if len(self.message.encode("utf-8")) > 0xFFFF:
            raise ValueError("error message longer than a u16 length prefix allows")


Message = OffloadRequest | OffloadResponse | ErrorMsg


def encode(msg: Message) -> bytes:
    """Serialize one message into a complete frame."""
    if isinstance(msg, OffloadRequest):
        body = struct.pack("<QB", msg.request_id, 0 if msg.payload is None else 1)
        if msg.payload is None:
            body += struct.pack("<Q", msg.sample_index)
        else:
            body += struct.pack("<I", len(msg.payload)) + msg.payload
        body += struct.pack("<B", len(msg.topk))
        body += struct.pack(f"<{len(msg.topk)}I", *msg.topk)
        msg_type = MSG_REQUEST
    elif isinstance(msg, OffloadResponse):
        card = len(msg.domain)
        body = struct.pack("<QIB", msg.request_id, msg.predicted_class, card)
        body += struct.pack(f"<{card}H", *msg.domain.indices)
        body += struct.pack("<I", msg.server_latency_us)
        msg_type = MSG_RESPONSE
    elif isinstance(msg, ErrorMsg):
        text = msg.message.encode("utf-8")
        body = struct.pack("<QHH", msg.request_id, msg.code, len(text)) + text
        msg_type = MSG_ERROR
    else:
        raise TypeError(f"cannot encode {type(msg).__name__}")
    return _HEADER.pack(MAGIC, msg_type, len(body)) + body


class _Cursor:
    """Byte reader that reports the absolute frame offset on underruns."""

    def __init__(self, payload: bytes, base: int):
        self.payload = payload
        self.base = base
        self.pos = 0

    def take(self, fmt: str, what: str):
        s = struct.Struct(fmt)
        if self.pos + s.size > len(self.payload):
            raise ProtocolError(f"payload truncated reading {what}", offset=self.base + self.pos)
        out = s.unpack_from(self.payload, self.pos)
        self.pos += s.size
        return out

    def take_bytes(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.payload):
            raise ProtocolError(f"payload truncated reading {what}", offset=self.base + self.pos)
        out = self.payload[self.pos : self.pos + n]
        self.pos += n
        return out

    def finish(self):
        if self.pos != len(self.payload):
            raise ProtocolError(
                f"{len(self.payload) - self.pos} trailing payload bytes",
                offset=self.base + self.pos,
            )


def _decode_payload(msg_type: int, payload: bytes) -> Message:
    cur = _Cursor(payload, _HEADER.size)
    if msg_type == MSG_REQUEST:
        (request_id,) = cur.take("<Q", "request_id")
        (mode,) = cur.take("<B", "mode")
        sample_index, raw = None, None
        if mode == 0:
            (sample_index,) = cur.take("<Q", "sample_index")
        elif mode == 1:
            (length,) = cur.take("<I", "payload length")
            raw = cur.take_bytes(length, "raw payload")
        else:
            raise ProtocolError(f"unknown request mode {mode}", offset=cur.base + cur.pos - 1)
        (k,) = cur.take("<B", "k")
        if k == 0:
            raise ProtocolError("k must be >= 1", offset=cur.base + cur.pos - 1)
        topk = cur.take(f"<{k}I", "top-k indices")
        cur.finish()
        return OffloadRequest(
            request_id=request_id, topk=tuple(topk), sample_index=sample_index, payload=raw
        )
    if msg_type == MSG_RESPONSE:
        (request_id, predicted, card) = cur.take("<QIB", "response header")
        if card == 0:
            raise ProtocolError("empty domain in response", offset=cur.base + cur.pos - 1)
        domain = cur.take(f"<{card}H", "domain indices")
        if any(b <= a for a, b in zip(domain, domain[1:])):
            raise ProtocolError(
                f"domain indices not sorted ascending: {list(domain)}",
                offset=cur.base + cur.pos - 2 * card,
            )
        if domain[0] == 0:
            raise ProtocolError(
                "domain holds partition 0; partitions are 1-based",
                offset=cur.base + cur.pos - 2 * card,
            )
        (latency_us,) = cur.take("<I", "server latency")
        cur.finish()
        return OffloadResponse(
            request_id=request_id,
            predicted_class=predicted,
            domain=DomainSet(tuple(int(p) for p in domain)),
            server_latency_us=latency_us,
        )
    if msg_type == MSG_ERROR:
        (request_id, code, length) = cur.take("<QHH", "error header")
        text = cur.take_bytes(length, "error message")
        cur.finish()
        try:
            message = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"error message is not valid utf-8: {exc}", offset=cur.base + cur.pos - length
            ) from None
        return ErrorMsg(request_id=request_id, code=code, message=message)
    raise ProtocolError(f"unknown message type {msg_type}", offset=4)


def _check_header(data, pos: int = 0) -> tuple[int, int]:
    """Message type and payload length of the frame header at ``data[pos:]``.

    Bad magic and a payload longer than ``MAX_PAYLOAD_BYTES`` raise
    ProtocolError, so no reader buffers the payload of such a frame.
    """
    magic, msg_type, length = _HEADER.unpack_from(data, pos)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"payload length {length} exceeds the {MAX_PAYLOAD_BYTES}-byte limit", offset=5
        )
    return msg_type, length


def decode(data: bytes) -> Message:
    """Parse exactly one frame; trailing bytes are an error."""
    if len(data) < _HEADER.size:
        raise ProtocolError(
            f"frame shorter than the {_HEADER.size}-byte header", offset=len(data)
        )
    msg_type, length = _check_header(data)
    if len(data) != _HEADER.size + length:
        raise ProtocolError(
            f"frame length {len(data)} does not match header "
            f"({_HEADER.size} + payload {length})",
            offset=min(len(data), _HEADER.size + length),
        )
    return _decode_payload(msg_type, data[_HEADER.size :])


def _read_exactly(
    stream: BinaryIO, n: int, what: str, base: int, eof_ok: bool = False
) -> bytes | None:
    """Read n bytes; None on clean EOF before the first byte if eof_ok."""
    chunks = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            if got == 0 and eof_ok:
                return None
            raise ProtocolError(
                f"connection closed mid-frame reading {what}", offset=base + got
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_message(stream: BinaryIO) -> Message | None:
    """Read the next frame from a blocking stream; None on clean EOF.

    A header claiming more than ``MAX_PAYLOAD_BYTES`` is rejected with
    ProtocolError before any of the payload is read.
    """
    header = _read_exactly(stream, _HEADER.size, "header", base=0, eof_ok=True)
    if header is None:
        return None
    msg_type, length = _check_header(header)
    payload = _read_exactly(stream, length, "payload", base=_HEADER.size)
    return _decode_payload(msg_type, payload)


# ---------------------------------------------------------------------------
# Near-edge server
# ---------------------------------------------------------------------------


class _Acceptor:
    """Bound TCP listener that runs ``handle(conn)`` on a thread per connection.

    ``close()`` shuts down the listener and every open connection, which on
    Linux wakes the threads blocked on them (closing alone does not), joins
    those threads within 2 s and closes the sockets.
    """

    def __init__(self, addr: tuple[str, int], handle):
        self._listener = socket.create_server(addr)  # SO_REUSEADDR on POSIX
        self._handle = handle
        self._thread: threading.Thread | None = None
        # Live connections by thread. The lock keeps an accept from adding one
        # after close() swept them, and a handler from closing one mid-sweep.
        self._lock = threading.Lock()
        self._open: dict[threading.Thread, socket.socket] = {}
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def serve_forever(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                if self._closed:
                    return
                raise
            thread = threading.Thread(target=self._run, args=(conn,), daemon=True)
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._open[thread] = conn
                thread.start()

    def start_background(self):
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def _run(self, conn: socket.socket):
        try:
            self._handle(conn)
        finally:
            with self._lock:
                del self._open[threading.current_thread()]
                conn.close()

    def close(self):
        with self._lock:
            self._closed = True
            threads = [t for t in (self._thread, *self._open) if t is not None]
            sockets = [self._listener, *self._open.values()]
            for sock in sockets:
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)
        deadline = time.monotonic() + 2.0
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        for sock in sockets:
            sock.close()


# Bytes asked of each recv on a server connection.
_RECV_BYTES = 64 * 1024


def _answer_frames(buf: bytearray, answer) -> tuple[bytearray, bool]:
    """Answer every complete frame at the front of ``buf`` and remove them.

    Returns the encoded replies, in request order, and whether the
    connection must close: a bad frame or a message other than a request
    is answered with ``ERR_BAD_FRAME`` after the replies before it, since
    the stream may be desynchronized. A header is checked as soon as it
    is buffered, so an oversized frame is refused before its payload.
    """
    out = bytearray()
    pos = 0
    try:
        while len(buf) - pos >= _HEADER.size:
            msg_type, length = _check_header(buf, pos)
            end = pos + _HEADER.size + length
            if end > len(buf):
                break
            msg = _decode_payload(msg_type, bytes(buf[pos + _HEADER.size : end]))
            pos = end
            if not isinstance(msg, OffloadRequest):
                out += encode(ErrorMsg(
                    request_id=getattr(msg, "request_id", 0),
                    code=ERR_BAD_FRAME,
                    message=f"server accepts only offload requests, got type "
                    f"{type(msg).__name__}",
                ))
                return out, True
            out += encode(answer(msg))
    except ProtocolError as exc:
        out += encode(ErrorMsg(request_id=0, code=ERR_BAD_FRAME, message=str(exc)))
        return out, True
    del buf[:pos]
    return out, False


class NearEdgeServer:
    """Expert registry behind a TCP listener.

    Holds the expert traces, recomputes each request's domain from its
    top-k indices, and answers with the selected expert's prediction.
    Raw-payload requests fail with an internal error, since a trace
    server has nothing to run on opaque bytes. ``shutdown()`` returns at
    once and closes the connections still open.
    """

    def __init__(
        self,
        listen_addr: tuple[str, int],
        ts: TraceSet,
        pm: PartitionMap,
        k: int,
        mask_to_domain: bool = False,
    ):
        ts.validate_for(pm, k)
        self.ts = ts
        # Everything a request needs that depends only on the expert library,
        # keyed by the sorted partition tuple of a routed domain.
        self._class_partition = pm.assignment.tolist()
        self._routes = {
            domain.indices: (
                domain,
                expert.logits,
                pm.classes_in(domain) if mask_to_domain else None,
            )
            for domain, expert in ts.experts.items()
        }
        self._acceptor = _Acceptor(listen_addr, self._serve_connection)

    @property
    def address(self) -> tuple[str, int]:
        return self._acceptor.address

    def _serve_connection(self, sock: socket.socket):
        """One connection: each read's complete frames are answered in one write.

        Nagle is off, so a reply leaves at once instead of waiting for the
        client to acknowledge the previous one; batching the replies of one
        read keeps a pipelining client to one send per read.
        """
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = bytearray()
        try:
            while True:
                chunk = sock.recv(_RECV_BYTES)
                if not chunk:
                    if buf:
                        what = "header" if len(buf) < _HEADER.size else "payload"
                        exc = ProtocolError(
                            f"connection closed mid-frame reading {what}", offset=len(buf)
                        )
                        sock.sendall(encode(
                            ErrorMsg(request_id=0, code=ERR_BAD_FRAME, message=str(exc))
                        ))
                    return
                buf += chunk
                replies, close = _answer_frames(buf, self.answer)
                if replies:
                    sock.sendall(replies)
                if close:
                    return
        except OSError:
            return

    def answer(self, req: OffloadRequest) -> Message:
        """Pure request-to-response mapping; shared by every connection."""
        started = time.perf_counter_ns()
        n = self.ts.num_classes
        if max(req.topk) >= n:
            return ErrorMsg(
                request_id=req.request_id,
                code=ERR_BAD_FRAME,
                message=f"top-k indices {list(req.topk)} exceed the label space ({n} classes)",
            )
        part = self._class_partition
        key = tuple(sorted({part[c] for c in req.topk}))
        route = self._routes.get(key)
        if route is None:
            return ErrorMsg(
                request_id=req.request_id,
                code=ERR_NO_EXPERT,
                message=f"no expert covers domain {DomainSet(key).label}",
            )

        if req.payload is not None:
            return ErrorMsg(
                request_id=req.request_id,
                code=ERR_INTERNAL,
                message="this server is trace-backed and cannot run raw payloads",
            )
        if req.sample_index >= self.ts.num_samples:
            return ErrorMsg(
                request_id=req.request_id,
                code=ERR_UNKNOWN_SAMPLE,
                message=f"sample index {req.sample_index} outside trace "
                f"({self.ts.num_samples} samples)",
            )
        domain, logits, allowed = route
        predicted = int(expert_argmax(logits[req.sample_index], allowed))

        elapsed_us = min((time.perf_counter_ns() - started) // 1000, _U32_MAX)
        return OffloadResponse(
            request_id=req.request_id,
            predicted_class=predicted,
            domain=domain,
            server_latency_us=int(elapsed_us),
        )

    def start_background(self) -> "NearEdgeServer":
        self._acceptor.start_background()
        return self

    def serve_forever(self):
        self._acceptor.serve_forever()

    def shutdown(self):
        self._acceptor.close()

    def __enter__(self) -> "NearEdgeServer":
        return self.start_background()

    def __exit__(self, *exc):
        self.shutdown()


# ---------------------------------------------------------------------------
# Edge client
# ---------------------------------------------------------------------------


def _offload_over_socket(
    addr: tuple[str, int],
    requests: list[OffloadRequest],
    timeout: float,
    num_classes: int,
) -> dict[int, OffloadResponse]:
    """One connection, pipelined: writer streams requests, reader checks and collects."""
    responses: dict[int, OffloadResponse] = {}
    sent = {req.request_id for req in requests}
    failure: list[BaseException] = []
    # The reader file is closed with the socket: an open one keeps the
    # connection open after the socket object is closed.
    with socket.create_connection(addr, timeout=timeout) as sock, sock.makefile("rb") as rfile:
        sock.settimeout(timeout)

        def drain():
            try:
                for _ in range(len(requests)):
                    msg = read_message(rfile)
                    if msg is None:
                        raise TransportError("server closed the connection early")
                    if isinstance(msg, ErrorMsg):
                        # A server error is a verdict on the request, not a
                        # transport failure, so it is not retried.
                        raise ProtocolError(
                            f"server error {msg.code} for request {msg.request_id}: {msg.message}"
                        )
                    if not isinstance(msg, OffloadResponse):
                        raise ProtocolError(f"unexpected {type(msg).__name__} from server")
                    if msg.request_id not in sent:
                        raise ProtocolError(
                            f"response to request {msg.request_id}, which was not sent"
                        )
                    if msg.request_id in responses:
                        raise ProtocolError(f"second response to request {msg.request_id}")
                    if msg.predicted_class >= num_classes:
                        raise ProtocolError(
                            f"predicted class {msg.predicted_class} for request "
                            f"{msg.request_id} out of range [0, {num_classes})"
                        )
                    responses[msg.request_id] = msg
            except BaseException as exc:
                failure.append(exc)

        reader = threading.Thread(target=drain)
        reader.start()
        try:
            buf = bytearray()
            for req in requests:
                buf += encode(req)
                if len(buf) >= 64 * 1024:
                    sock.sendall(buf)
                    buf.clear()
            if buf:
                sock.sendall(buf)
        finally:
            reader.join(timeout=timeout + 30.0)
        if failure:
            raise failure[0]
        if reader.is_alive():
            raise TransportError("timed out waiting for server responses")
    return responses


def run_edge_client(
    server_addr: tuple[str, int],
    edge_trace: PredictionTrace,
    pm: PartitionMap,
    threshold: float,
    k: int,
    timeout: float = 30.0,
    retries: int = 2,
) -> CollabOutcome:
    """Run the confidence gate locally, offloading uncertain samples over TCP.

    Produces the same :class:`CollabOutcome` as in-process collaborative
    inference on the same inputs; the request_id of each offload is its
    sample index. The whole offload pass is retried on transport errors
    (the server is stateless, so replays are safe) up to ``retries``
    extra attempts; an error message from the server raises ProtocolError
    at once, since a replay would get the same answer.
    """
    check_threshold(threshold)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if not timeout > 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    conf, local_pred, top, codes, table = gate_signals(edge_trace, pm, k)
    offload_rows = np.flatnonzero(conf < threshold)

    requests = [
        OffloadRequest(
            request_id=int(i),
            topk=tuple(int(c) for c in top[i]),
            sample_index=int(i),
        )
        for i in offload_rows
    ]

    responses: dict[int, OffloadResponse] = {}
    if requests:
        last_error: Exception | None = None
        for _ in range(retries + 1):
            try:
                responses = _offload_over_socket(
                    server_addr, requests, timeout, edge_trace.num_classes
                )
                last_error = None
                break
            except (TransportError, OSError) as exc:
                last_error = exc
        if last_error is not None:
            raise TransportError(
                f"offload batch failed after {retries + 1} attempts: {last_error}"
            )

    refined = local_pred.copy()
    for i in offload_rows.tolist():
        resp = responses.get(i)
        if resp is None:
            raise TransportError(f"no response for sample {i}")
        domain = table[codes[i]]
        if resp.domain != domain:
            raise ProtocolError(
                f"server routed sample {i} to {resp.domain.label}, "
                f"client derived {domain.label}"
            )
        refined[i] = resp.predicted_class
    primitives = RoutingPrimitives(
        k=k,
        confidences=conf,
        local_predictions=local_pred,
        topk=top,
        codes=codes,
        domain_table=table,
        refined=refined,
    )
    return apply_gate(primitives, edge_trace.labels, threshold)


# ---------------------------------------------------------------------------
# Loopback RTT injection
# ---------------------------------------------------------------------------


class DelayedProxy:
    """TCP forwarder that sleeps before relaying each client-to-server chunk.

    Lets a loopback deployment exhibit a configurable request-direction
    delay so measured round trips include a controlled network term.
    Leaving the context closes every client connection, and each upstream
    one as soon as its server closes on the forwarded EOF.
    """

    def __init__(self, target: tuple[str, int], delay_ms: float, listen: tuple[str, int] = ("127.0.0.1", 0)):
        self.target = target
        self.delay_s = delay_ms / 1000.0
        self._acceptor = _Acceptor(listen, self._relay)

    @property
    def address(self) -> tuple[str, int]:
        return self._acceptor.address

    def _relay(self, client: socket.socket):
        """Pump both directions of one connection until both end."""
        try:
            upstream = socket.create_connection(self.target, timeout=30.0)
        except OSError:
            return
        with upstream:
            forward = threading.Thread(
                target=self._pump, args=(client, upstream, self.delay_s), daemon=True
            )
            forward.start()
            self._pump(upstream, client, 0.0)
            forward.join()

    @staticmethod
    def _pump(src: socket.socket, dst: socket.socket, delay_s: float):
        try:
            while True:
                chunk = src.recv(65536)
                if not chunk:
                    break
                if delay_s > 0:
                    time.sleep(delay_s)
                dst.sendall(chunk)
        except OSError:
            pass
        finally:
            with contextlib.suppress(OSError):
                dst.shutdown(socket.SHUT_WR)

    def __enter__(self) -> "DelayedProxy":
        self._acceptor.start_background()
        return self

    def __exit__(self, *exc):
        self._acceptor.close()
