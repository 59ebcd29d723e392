"""Unit tests for the deterministic chaos proxy."""

import socket
import threading
import time

import pytest

from repro.serve.chaos import (DOWN, UP, ChaosProxy, Directive, FaultPlan,
                               delay_after, drop_after, reset_after,
                               stall_after, truncate_after)


class EchoServer:
    """A tiny upstream that echoes every byte back."""

    def __init__(self):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._echo, args=(conn,),
                             daemon=True).start()

    def _echo(self, conn):
        try:
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                conn.sendall(data)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def stop(self):
        self._stop.set()
        try:
            self.listener.close()
        except OSError:
            pass


@pytest.fixture()
def echo():
    server = EchoServer()
    yield server
    server.stop()


def dial(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    sock.settimeout(5)
    return sock


def recv_all(sock):
    chunks = []
    try:
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    except (socket.timeout, ConnectionResetError):
        pass
    return b"".join(chunks)


class TestDirectives:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            Directive("explode")

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="unknown direction"):
            Directive("drop", 0, "sideways")

    def test_shorthands(self):
        assert drop_after(10).kind == "drop"
        assert reset_after(10).kind == "reset"
        assert truncate_after(10).kind == "truncate"
        assert delay_after(10, 0.5).seconds == 0.5
        assert stall_after(10, 0.5, UP).direction == UP


class TestFaultPlan:
    def test_scripted_plan_is_per_connection(self):
        plan = FaultPlan.scripted({0: [drop_after(5)]})
        assert len(plan.for_connection(0)) == 1
        assert plan.for_connection(1) == []

    def test_for_connection_returns_fresh_copies(self):
        plan = FaultPlan.scripted({0: [drop_after(5)]})
        first = plan.for_connection(0)[0]
        first.done = True
        assert plan.for_connection(0)[0].done is False

    def test_seeded_plan_is_deterministic(self):
        one = FaultPlan.seeded(42, 20)
        two = FaultPlan.seeded(42, 20)
        for index in range(20):
            a = one.for_connection(index)
            b = two.for_connection(index)
            assert [(d.kind, d.at, d.direction) for d in a] \
                == [(d.kind, d.at, d.direction) for d in b]

    def test_seeded_prefix_stable_when_extended(self):
        # Adding connections never reshuffles earlier ones.
        short = FaultPlan.seeded(7, 5)
        long = FaultPlan.seeded(7, 50)
        for index in range(5):
            a = short.for_connection(index)
            b = long.for_connection(index)
            assert [(d.kind, d.at) for d in a] == [(d.kind, d.at) for d in b]


class TestProxy:
    def test_stop_on_an_idle_proxy_returns_promptly(self, echo):
        proxy = ChaosProxy(("127.0.0.1", echo.port))
        proxy.start()
        accept_thread = proxy._accept_thread
        started = time.monotonic()
        proxy.stop()
        assert time.monotonic() - started < 1.0
        assert not accept_thread.is_alive()

    def test_clean_plan_passes_bytes_through(self, echo):
        with ChaosProxy(("127.0.0.1", echo.port)) as proxy:
            sock = dial(proxy.port)
            sock.sendall(b"hello chaos\n")
            assert sock.recv(1024) == b"hello chaos\n"
            sock.close()
        assert proxy.events == []

    def test_truncate_forwards_exactly_at_bytes(self, echo):
        plan = FaultPlan.scripted({0: [truncate_after(5, DOWN)]})
        with ChaosProxy(("127.0.0.1", echo.port), plan) as proxy:
            sock = dial(proxy.port)
            sock.sendall(b"0123456789")
            got = recv_all(sock)
            assert got == b"01234"     # cut mid-stream, byte-exact
            sock.close()
            assert proxy.events == [(0, "truncate", DOWN, 5)]

    def test_drop_up_cuts_before_the_server_sees_it(self, echo):
        plan = FaultPlan.scripted({0: [drop_after(3, UP)]})
        with ChaosProxy(("127.0.0.1", echo.port), plan) as proxy:
            sock = dial(proxy.port)
            sock.sendall(b"abcdef")
            got = recv_all(sock)       # only the forwarded prefix echoes
            assert got in (b"", b"abc")
            sock.close()
            assert proxy.events == [(0, "drop", UP, 3)]

    def test_reset_sends_rst(self, echo):
        plan = FaultPlan.scripted({0: [reset_after(0, DOWN)]})
        with ChaosProxy(("127.0.0.1", echo.port), plan) as proxy:
            sock = dial(proxy.port)
            sock.sendall(b"x")
            # The peer sees a hard reset (or, platform-depending, an
            # immediate EOF); either way the conversation is dead.
            try:
                data = recv_all(sock)
                assert data == b""
            except OSError:
                pass
            sock.close()
            assert proxy.events[0][1] == "reset"

    def test_delay_holds_then_delivers(self, echo):
        plan = FaultPlan.scripted({0: [delay_after(2, 0.3, DOWN)]})
        with ChaosProxy(("127.0.0.1", echo.port), plan) as proxy:
            sock = dial(proxy.port)
            t0 = time.monotonic()
            sock.sendall(b"abcd")
            got = b""
            while len(got) < 4:
                got += sock.recv(1024)
            elapsed = time.monotonic() - t0
            assert got == b"abcd"      # everything arrives eventually
            assert elapsed >= 0.25     # ...but not before the delay
            sock.close()

    def test_second_connection_unaffected_by_first_plan(self, echo):
        plan = FaultPlan.scripted({0: [drop_after(0, DOWN)]})
        with ChaosProxy(("127.0.0.1", echo.port), plan) as proxy:
            first = dial(proxy.port)
            first.sendall(b"x")
            recv_all(first)
            first.close()
            second = dial(proxy.port)
            second.sendall(b"ok\n")
            assert second.recv(1024) == b"ok\n"
            second.close()
            assert proxy.connections_seen == 2

    def test_stop_interrupts_a_stall(self, echo):
        plan = FaultPlan.scripted({0: [stall_after(0, 60.0, DOWN)]})
        proxy = ChaosProxy(("127.0.0.1", echo.port), plan)
        proxy.start()
        sock = dial(proxy.port)
        sock.sendall(b"x")
        time.sleep(0.1)
        t0 = time.monotonic()
        proxy.stop()                   # must not wait out the 60s stall
        assert time.monotonic() - t0 < 10
        sock.close()
