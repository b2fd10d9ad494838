import io
import socket
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coinfer.errors import ProtocolError, TransportError
from coinfer.partition import DomainSet
from coinfer.router import collaborative_infer, compute_routing_primitives
from coinfer.trace import TraceTargets, synthesize_trace_set
from coinfer.wire import (
    DelayedProxy,
    ERR_BAD_FRAME,
    ERR_INTERNAL,
    ERR_NO_EXPERT,
    ERR_UNKNOWN_SAMPLE,
    ErrorMsg,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    NearEdgeServer,
    OffloadRequest,
    OffloadResponse,
    decode,
    encode,
    read_message,
    run_edge_client,
)
from conftest import make_partition_map, random_trace_set

GOLDEN_FRAME = bytes.fromhex(
    "434f5631" "01" "1a000000"
    "0100000000000000" "00" "0000000000000000" "02" "03000000" "11000000"
)


def small_trace_set(seed=0, m=200, n=8, s=4, k=2):
    pm = make_partition_map(n, s)
    ts = synthesize_trace_set(TraceTargets(topk_acc={1: 0.5, 2: 0.7}), pm, k, m, seed=seed)
    return pm, ts


class TestFraming:
    def test_golden_request_frame(self):
        req = OffloadRequest(request_id=1, topk=(3, 17), sample_index=0)
        assert encode(req) == GOLDEN_FRAME
        assert decode(GOLDEN_FRAME) == req

    def test_response_round_trip(self):
        resp = OffloadResponse(
            request_id=77, predicted_class=9,
            domain=DomainSet.of([1, 3]), server_latency_us=1234,
        )
        assert decode(encode(resp)) == resp

    def test_raw_payload_round_trip(self):
        req = OffloadRequest(request_id=5, topk=(1,), payload=b"\x00\xffraw")
        assert decode(encode(req)) == req

    def test_error_round_trip(self):
        msg = ErrorMsg(request_id=2, code=ERR_NO_EXPERT, message="no expert covers 1+2")
        assert decode(encode(msg)) == msg

    def test_bad_magic_rejected(self):
        frame = b"XXXX" + GOLDEN_FRAME[4:]
        with pytest.raises(ProtocolError, match="magic"):
            decode(frame)

    def test_truncated_frame_reports_offset(self):
        with pytest.raises(ProtocolError, match="offset"):
            decode(GOLDEN_FRAME[:20])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            decode(GOLDEN_FRAME + b"\x00")

    def test_trailing_payload_bytes_rejected(self):
        body = GOLDEN_FRAME[9:] + b"\x77"
        frame = MAGIC + bytes([1]) + len(body).to_bytes(4, "little") + body
        with pytest.raises(ProtocolError, match="trailing"):
            decode(frame)

    def test_unknown_message_type_rejected(self):
        frame = MAGIC + bytes([9]) + (0).to_bytes(4, "little")
        with pytest.raises(ProtocolError, match="type"):
            decode(frame)

    def test_unsorted_response_domain_rejected(self):
        resp = OffloadResponse(request_id=1, predicted_class=0,
                               domain=DomainSet.of([1, 2]), server_latency_us=0)
        frame = bytearray(encode(resp))
        # swap the two u16 domain entries in place
        frame[22:24], frame[24:26] = frame[24:26], frame[22:24]
        with pytest.raises(ProtocolError, match="sorted"):
            decode(bytes(frame))

    def test_zero_partition_in_response_domain_rejected(self):
        resp = OffloadResponse(request_id=1, predicted_class=0,
                               domain=DomainSet.of([1]), server_latency_us=0)
        frame = bytearray(encode(resp))
        frame[22:24] = (0).to_bytes(2, "little")
        with pytest.raises(ProtocolError, match="offset 22"):
            decode(bytes(frame))

    def test_oversized_payload_length_rejected_before_reading(self):
        class HeaderOnly(io.BytesIO):
            def read(self, n=-1):
                assert self.tell() < 9, "read past the header"
                return super().read(n)

        header = MAGIC + bytes([1]) + (MAX_PAYLOAD_BYTES + 1).to_bytes(4, "little")
        with pytest.raises(ProtocolError, match="exceeds") as exc:
            read_message(HeaderOnly(header + bytes(64)))
        assert exc.value.offset == 5

    def test_request_needs_exactly_one_body_kind(self):
        with pytest.raises(ValueError):
            OffloadRequest(request_id=0, topk=(1,), sample_index=0, payload=b"x")
        with pytest.raises(ValueError):
            OffloadRequest(request_id=0, topk=(1,))


request_strategy = st.builds(
    OffloadRequest,
    request_id=st.integers(0, 2**64 - 1),
    topk=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=16).map(tuple),
    sample_index=st.integers(0, 2**64 - 1),
)

response_strategy = st.builds(
    OffloadResponse,
    request_id=st.integers(0, 2**64 - 1),
    predicted_class=st.integers(0, 2**32 - 1),
    domain=st.lists(st.integers(1, 500), min_size=1, max_size=8).map(DomainSet.of),
    server_latency_us=st.integers(0, 2**32 - 1),
)

error_strategy = st.builds(
    ErrorMsg,
    request_id=st.integers(0, 2**64 - 1),
    code=st.integers(0, 2**16 - 1),
    message=st.text(max_size=200),
)


@settings(deadline=None, max_examples=150)
@given(msg=st.one_of(request_strategy, response_strategy, error_strategy))
def test_round_trip_is_identity(msg):
    assert decode(encode(msg)) == msg


def _decodes_or_protocol_error(data: bytes):
    try:
        msg = decode(data)
    except ProtocolError:
        return
    assert isinstance(msg, (OffloadRequest, OffloadResponse, ErrorMsg))


# Arbitrary payloads behind a well-formed header reach the per-type parsers.
framed_bytes = st.tuples(st.integers(0, 255), st.binary(max_size=64)).map(
    lambda t: MAGIC + bytes([t[0] % 4]) + len(t[1]).to_bytes(4, "little") + t[1]
)


@settings(deadline=None, max_examples=300)
@given(data=st.one_of(st.binary(max_size=64), framed_bytes))
def test_decode_arbitrary_bytes_only_raises_protocol_error(data):
    _decodes_or_protocol_error(data)


@settings(deadline=None, max_examples=300)
@given(msg=st.one_of(request_strategy, response_strategy, error_strategy),
       pos=st.integers(0, 2**16), value=st.integers(0, 255))
@example(msg=OffloadResponse(request_id=1, predicted_class=0, domain=DomainSet.of([1])),
         pos=22, value=0)  # partition 0 in the response domain
def test_decode_mutated_frame_only_raises_protocol_error(msg, pos, value):
    frame = bytearray(encode(msg))
    frame[pos % len(frame)] = value
    _decodes_or_protocol_error(bytes(frame))


class TestServer:
    def test_loopback_matches_in_process(self):
        pm, ts = small_trace_set(seed=4, m=500)
        want = collaborative_infer(ts, pm, 0.9, 2)
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            got = run_edge_client(server.address, ts.edge, pm, 0.9, 2)
        assert np.array_equal(got.predictions, want.predictions)
        assert got.accuracy == want.accuracy
        assert dict(got.histogram) == dict(want.histogram)

    def test_threshold_zero_sends_nothing(self):
        pm, ts = small_trace_set(seed=5, m=50)
        # no server is listening; with zero offloads the client needs none
        outcome = run_edge_client(("127.0.0.1", 1), ts.edge, pm, 0.0, 2, retries=0)
        assert outcome.offload_count == 0
        assert np.array_equal(outcome.predictions, ts.edge.logits.argmax(axis=1))
        # a bad threshold is rejected before anything is sent
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            run_edge_client(("127.0.0.1", 1), ts.edge, pm, 1.5, 2, retries=0)
        # so are a negative retry count and a timeout that is not positive
        with pytest.raises(ValueError, match="retries"):
            run_edge_client(("127.0.0.1", 1), ts.edge, pm, 0.9, 2, retries=-1)
        for timeout in (0.0, -1.0):
            with pytest.raises(ValueError, match="timeout"):
                run_edge_client(("127.0.0.1", 1), ts.edge, pm, 0.9, 2, timeout=timeout)

    def test_unknown_sample_index_gets_error_code(self):
        pm, ts = small_trace_set(seed=6, m=20)
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(encode(OffloadRequest(
                    request_id=9, topk=(0, 1), sample_index=10_000)))
                reply = read_message(rfile)
        assert isinstance(reply, ErrorMsg)
        assert reply.code == ERR_UNKNOWN_SAMPLE
        assert reply.request_id == 9

    def test_out_of_range_topk_gets_bad_frame_code(self):
        pm, ts = small_trace_set(seed=6, m=20)
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(encode(OffloadRequest(
                    request_id=3, topk=(0, 999), sample_index=0)))
                reply = read_message(rfile)
        assert isinstance(reply, ErrorMsg)
        assert reply.code == ERR_BAD_FRAME

    def test_raw_payload_gets_internal_error_code(self):
        pm, ts = small_trace_set(seed=6, m=20)
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(encode(OffloadRequest(
                    request_id=4, topk=(0, 1), payload=b"image bytes")))
                reply = read_message(rfile)
        assert isinstance(reply, ErrorMsg)
        assert reply.code == ERR_INTERNAL
        assert reply.request_id == 4

    def test_shutdown_without_start_returns(self):
        pm, ts = small_trace_set(seed=6, m=20)
        server = NearEdgeServer(("127.0.0.1", 0), ts, pm, 2)
        stopper = threading.Thread(target=server.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()

    def test_started_server_shuts_down_at_once(self):
        pm, ts = small_trace_set(seed=6, m=20)
        server = NearEdgeServer(("127.0.0.1", 0), ts, pm, 2).start_background()
        run_edge_client(server.address, ts.edge, pm, 1.0, 2)
        started = time.perf_counter()
        server.shutdown()
        assert time.perf_counter() - started < 0.050

    def test_shutdown_closes_an_idle_connection(self):
        pm, ts = small_trace_set(seed=6, m=20)
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            sock = socket.create_connection(server.address, timeout=5)
            rfile = sock.makefile("rb")
            sock.sendall(encode(OffloadRequest(request_id=1, topk=(0, 1), sample_index=1)))
            assert isinstance(read_message(rfile), OffloadResponse)
        with sock, rfile:
            sock.settimeout(2.0)
            assert sock.recv(1) == b""  # EOF, not a timeout

    def test_shutdown_racing_connects_leaves_no_connection_open(self):
        # More clients than cores connect while the server shuts down; every
        # connection the server accepted must end, none may hang.
        pm, ts = small_trace_set(seed=6, m=20)
        server = NearEdgeServer(("127.0.0.1", 0), ts, pm, 2).start_background()
        clients: list[socket.socket] = []

        def connect_some():
            for _ in range(10):
                try:
                    clients.append(socket.create_connection(server.address, timeout=2))
                except OSError:
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=connect_some) for _ in range(4)]
            for t in threads:
                t.start()
            server.shutdown()
            for t in threads:
                t.join(timeout=5)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for sock in clients:
            with sock:
                sock.settimeout(2.0)
                try:
                    assert sock.recv(1) == b""  # EOF, not a timeout
                except ConnectionResetError:
                    pass  # still queued when the listener closed

    def test_connection_accepted_during_shutdown_is_closed(self):
        # shutdown() sweeps the open connections between an accept returning
        # and the accept loop registering that connection.
        pm, ts = small_trace_set(seed=6, m=20)
        server = NearEdgeServer(("127.0.0.1", 0), ts, pm, 2)
        acceptor = server._acceptor
        listener = acceptor._listener
        stopper = threading.Thread(target=server.shutdown, daemon=True)
        accepted = threading.Event()

        class SweepAfterAccept:
            def __getattr__(self, name):
                return getattr(listener, name)

            def accept(self):
                conn = listener.accept()
                stopper.start()
                accepted.set()
                deadline = time.monotonic() + 5
                while not acceptor._closed and time.monotonic() < deadline:
                    time.sleep(0.001)
                return conn

        acceptor._listener = SweepAfterAccept()
        server.start_background()
        with socket.create_connection(server.address, timeout=5) as sock:
            assert accepted.wait(timeout=5)
            stopper.join(timeout=5)
            assert not stopper.is_alive()
            sock.settimeout(2.0)
            assert sock.recv(1) == b""  # EOF, not a timeout

    def test_garbage_bytes_get_error_then_close(self):
        pm, ts = small_trace_set(seed=6, m=20)
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"NOPE" + bytes(31))
                reply = read_message(rfile)
                assert isinstance(reply, ErrorMsg)
                assert reply.code == ERR_BAD_FRAME
                assert rfile.read(1) == b""  # connection closed

    def test_oversized_frame_header_gets_bad_frame_then_close(self):
        pm, ts = small_trace_set(seed=6, m=20)
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                rfile = sock.makefile("rb")
                started = time.monotonic()
                sock.sendall(MAGIC + bytes([1]) + (2**32 - 1).to_bytes(4, "little"))
                reply = read_message(rfile)
                assert time.monotonic() - started < 2.0
                assert isinstance(reply, ErrorMsg)
                assert reply.code == ERR_BAD_FRAME
                assert "exceeds" in reply.message
                assert rfile.read(1) == b""  # connection closed

    def test_pipelined_requests_answered_in_order(self):
        pm, ts = small_trace_set(seed=8, m=300)
        reqs = [
            OffloadRequest(request_id=i, topk=(0, 1), sample_index=i)
            for i in range(300)
        ]
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"".join(encode(r) for r in reqs))
                replies = [read_message(rfile) for _ in range(300)]
        assert [r.request_id for r in replies] == list(range(300))
        assert all(isinstance(r, OffloadResponse) for r in replies)

    def test_server_recomputes_domain_from_topk(self):
        pm, ts = small_trace_set(seed=9, m=20, n=8, s=4)
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                rfile = sock.makefile("rb")
                # classes 0 and 5: partitions 1 and 2 under the round-robin map
                sock.sendall(encode(OffloadRequest(
                    request_id=1, topk=(0, 5), sample_index=0)))
                reply = read_message(rfile)
        assert isinstance(reply, OffloadResponse)
        assert reply.domain == DomainSet.of([1, 2])

    def test_concurrent_connections(self):
        pm, ts = small_trace_set(seed=10, m=400)
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            outcomes = []

            def worker(tau):
                outcomes.append(run_edge_client(server.address, ts.edge, pm, tau, 2))

            threads = [threading.Thread(target=worker, args=(t,)) for t in (0.5, 0.7, 0.9)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(outcomes) == 3
        for outcome in outcomes:
            want = collaborative_infer(ts, pm, outcome.threshold, 2)
            assert np.array_equal(outcome.predictions, want.predictions)

    def test_client_surfaces_connection_failure(self):
        pm, ts = small_trace_set(seed=11, m=30)
        with pytest.raises(TransportError, match="attempts"):
            run_edge_client(("127.0.0.1", 1), ts.edge, pm, 1.0, 2,
                            timeout=0.5, retries=1)


class TestServerLoop:
    """One read, every complete frame answered, one write; Nagle off."""

    @staticmethod
    def _connect(server):
        sock = socket.create_connection(server.address, timeout=5)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, sock.makefile("rb")

    def test_back_to_back_pair_is_not_held_for_an_ack(self):
        pm, ts = small_trace_set(seed=14, m=100)
        trips = []
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            sock, rfile = self._connect(server)
            with sock:
                for i in range(0, 80, 2):
                    first, second = (
                        encode(OffloadRequest(request_id=j, topk=(0, 1), sample_index=j))
                        for j in (i, i + 1)
                    )
                    start = time.perf_counter()
                    sock.sendall(first)
                    sock.sendall(second)
                    replies = [read_message(rfile), read_message(rfile)]
                    trips.append(time.perf_counter() - start)
                    assert [r.request_id for r in replies] == [i, i + 1]
        # A reply held back by Nagle waits for the client's delayed ACK (~40 ms).
        assert np.median(trips) < 0.010

    def test_accepted_connections_disable_nagle(self, monkeypatch):
        # Whether the pair above stalls without TCP_NODELAY depends on thread
        # timing, so the option itself is checked as well.
        seen = []
        serve_connection = NearEdgeServer._serve_connection

        def recording_serve_connection(server, sock):
            serve_connection(server, sock)
            seen.append(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(NearEdgeServer, "_serve_connection", recording_serve_connection)
        pm, ts = small_trace_set(seed=14, m=20)
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            sock, rfile = self._connect(server)
            with sock, rfile:
                sock.sendall(encode(OffloadRequest(request_id=1, topk=(0, 1), sample_index=1)))
                assert isinstance(read_message(rfile), OffloadResponse)
            deadline = time.monotonic() + 5
            while not seen and time.monotonic() < deadline:
                time.sleep(0.01)
        assert seen and seen[0] != 0

    def test_request_written_one_byte_at_a_time_is_answered(self):
        pm, ts = small_trace_set(seed=14, m=20)
        frame = encode(OffloadRequest(request_id=6, topk=(0, 5), sample_index=3))
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            sock, rfile = self._connect(server)
            with sock:
                for byte in frame:
                    sock.sendall(bytes([byte]))
                    time.sleep(0.001)
                reply = read_message(rfile)
        assert isinstance(reply, OffloadResponse)
        assert reply.request_id == 6
        assert reply.domain == DomainSet.of([1, 2])

    def test_good_frames_before_garbage_are_answered_then_error_then_close(self):
        pm, ts = small_trace_set(seed=14, m=20)
        good = b"".join(
            encode(OffloadRequest(request_id=i, topk=(0, 1), sample_index=i)) for i in (1, 2)
        )
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            sock, rfile = self._connect(server)
            with sock:
                sock.sendall(good + b"NOPE" + bytes(31))
                replies = [read_message(rfile) for _ in range(3)]
                assert rfile.read(1) == b""  # connection closed
        assert [type(r) for r in replies] == [OffloadResponse, OffloadResponse, ErrorMsg]
        assert [r.request_id for r in replies[:2]] == [1, 2]
        assert replies[2].code == ERR_BAD_FRAME
        assert "magic" in replies[2].message

    def test_truncated_frame_at_eof_gets_mid_frame_error(self):
        pm, ts = small_trace_set(seed=14, m=20)
        frame = encode(OffloadRequest(request_id=1, topk=(0, 1), sample_index=1))
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            sock, rfile = self._connect(server)
            with sock:
                sock.sendall(frame + frame[:15])
                sock.shutdown(socket.SHUT_WR)
                replies = [read_message(rfile) for _ in range(2)]
                assert rfile.read(1) == b""  # connection closed
        assert isinstance(replies[0], OffloadResponse)
        assert isinstance(replies[1], ErrorMsg)
        assert replies[1].code == ERR_BAD_FRAME
        assert "mid-frame" in replies[1].message

    def test_masked_server_matches_masked_primitives(self):
        pm = make_partition_map(8, 4)
        ts = random_trace_set(np.random.default_rng(15), 300, 8, pm, k=2)
        prims = compute_routing_primitives(ts, pm, 2, mask_to_domain=True)
        unmasked = compute_routing_primitives(ts, pm, 2)
        assert (prims.refined != unmasked.refined).any(), "masking changes nothing here"
        reqs = [
            OffloadRequest(request_id=i, topk=tuple(int(c) for c in prims.topk[i]),
                           sample_index=i)
            for i in range(ts.num_samples)
        ]
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2, mask_to_domain=True) as server:
            sock, rfile = self._connect(server)
            with sock:
                sock.sendall(b"".join(encode(r) for r in reqs))
                replies = [read_message(rfile) for _ in reqs]
        assert [r.predicted_class for r in replies] == prims.refined.tolist()
        assert [r.domain for r in replies] == list(prims.domains)

    def test_more_than_k_partitions_gets_no_expert(self):
        pm, ts = small_trace_set(seed=14, m=20)
        with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
            sock, rfile = self._connect(server)
            with sock:
                # classes 0, 1, 2 lie in partitions 1, 2, 3; the k=2 library
                # has no expert for a three-partition domain
                sock.sendall(encode(OffloadRequest(
                    request_id=8, topk=(0, 1, 2), sample_index=0)))
                reply = read_message(rfile)
                sock.sendall(encode(OffloadRequest(request_id=9, topk=(0,), sample_index=0)))
                after = read_message(rfile)
        assert isinstance(reply, ErrorMsg)
        assert reply.code == ERR_NO_EXPERT
        assert reply.request_id == 8
        assert "1+2+3" in reply.message
        assert isinstance(after, OffloadResponse)  # the connection stays open


@contextmanager
def scripted_server(reply):
    """A fake near-edge server that answers each request with ``reply(request)``,
    a list of messages; yields its address and the connections it accepted."""
    accepted = []
    stop = threading.Event()
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            accepted.append(conn)
            conn.settimeout(5)
            with conn, conn.makefile("rb") as rfile:
                try:
                    while (msg := read_message(rfile)) is not None:
                        conn.sendall(b"".join(encode(m) for m in reply(msg)))
                except (OSError, ProtocolError):
                    pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[:2], accepted
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


def test_server_error_is_not_retried():
    pm, ts = small_trace_set(seed=16, m=200)

    def refuse(msg):
        return [ErrorMsg(request_id=msg.request_id, code=ERR_UNKNOWN_SAMPLE,
                         message="unknown sample")]

    with scripted_server(refuse) as (addr, accepted):
        with pytest.raises(ProtocolError, match=r"server error 2 for request \d+"):
            run_edge_client(addr, ts.edge, pm, 1.0, 2, timeout=5.0, retries=2)
    assert len(accepted) == 1


@pytest.mark.parametrize("lie,match", [
    (lambda ok: [replace(ok, request_id=ok.request_id + 10**6)],
     r"response to request \d+, which was not sent"),
    (lambda ok: [ok, ok], r"second response to request \d+"),
    (lambda ok: [replace(ok, predicted_class=8)], r"predicted class 8 .* out of range \[0, 8\)"),
], ids=["unrequested", "repeated", "class-out-of-range"])
def test_client_refuses_a_response_it_did_not_ask_for(lie, match):
    pm, ts = small_trace_set(seed=17, m=200)
    honest = NearEdgeServer(("127.0.0.1", 0), ts, pm, 2)
    try:
        with scripted_server(lambda msg: lie(honest.answer(msg))) as (addr, accepted):
            with pytest.raises(ProtocolError, match=match):
                run_edge_client(addr, ts.edge, pm, 1.0, 2, timeout=5.0, retries=2)
    finally:
        honest.shutdown()
    assert len(accepted) == 1


def test_delayed_proxy_exit_closes_its_connections():
    pm, ts = small_trace_set(seed=12, m=40)
    with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
        with DelayedProxy(server.address, delay_ms=0.0) as proxy:
            sock = socket.create_connection(proxy.address, timeout=5)
            rfile = sock.makefile("rb")
            sock.sendall(encode(OffloadRequest(request_id=1, topk=(0, 1), sample_index=1)))
            assert isinstance(read_message(rfile), OffloadResponse)
        with sock:
            sock.settimeout(2.0)
            assert sock.recv(1) == b""  # EOF, not a timeout


def test_delayed_proxy_adds_round_trip_latency():
    pm, ts = small_trace_set(seed=12, m=40)
    with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
        with DelayedProxy(server.address, delay_ms=25.0) as proxy:
            with socket.create_connection(proxy.address, timeout=10) as sock:
                rfile = sock.makefile("rb")
                trips = []
                for i in range(5):
                    start = time.perf_counter()
                    sock.sendall(encode(OffloadRequest(
                        request_id=i, topk=(0, 1), sample_index=i)))
                    reply = read_message(rfile)
                    trips.append(time.perf_counter() - start)
                    assert isinstance(reply, OffloadResponse)
    assert sum(trips) / len(trips) >= 0.025
