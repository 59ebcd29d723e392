"""The target port: the one hop between the evaluator and its backend."""

import pytest

from repro.core.errors import DuelCancelled
from repro.core.eval import Evaluator
from repro.core.governor import ResourceGovernor
from repro.target.interface import SimulatorBackend, TargetPort
from repro.target.program import TargetProgram


class Log:
    """Every hook and backend call, in order, with the port's counts
    at the moment of the call."""

    def __init__(self):
        self.events = []
        self.port = None

    def note(self, what):
        port = self.port
        self.events.append((what, port.reads, port.writes, port.calls,
                            port.allocs))


class Inner:
    def __init__(self, log):
        self.log = log

    def get_target_bytes(self, address, size):
        self.log.note("inner")
        return bytes(size)

    def put_target_bytes(self, address, data):
        self.log.note("inner")

    def call_target_func(self, target, raw_args):
        self.log.note("inner")
        return 7

    def alloc_target_space(self, size):
        self.log.note("inner")
        return 0x1000

    def frames_count(self):
        return 3


class Spans:
    def __init__(self, log):
        self.log = log

    def on_read(self):
        self.log.note("span")

    def on_write(self):
        self.log.note("span")

    def on_call(self):
        self.log.note("span")


class Access:
    def __init__(self, log):
        self.log = log

    def on_access(self, op, address, size):
        self.log.note(f"access {op} {address} {size}")


class Governor:
    def __init__(self, log):
        self.log = log

    def checkpoint(self):
        self.log.note("checkpoint")

    def charge(self, name):
        self.log.note(f"charge {name}")


def traced_port():
    log = Log()
    port = TargetPort(Inner(log), Governor(log))
    port.tracer = Spans(log)
    port.access = Access(log)
    log.port = port
    return port, log


def test_hook_order_is_count_span_access_quota():
    port, log = traced_port()
    assert port.get_target_bytes(0x10, 4) == bytes(4)
    assert log.events == [("span", 1, 0, 0, 0),
                          ("access r 16 4", 1, 0, 0, 0),
                          ("inner", 1, 0, 0, 0)]
    log.events.clear()
    port.put_target_bytes(0x20, b"ab")
    assert log.events == [("span", 1, 1, 0, 0),
                          ("access w 32 2", 1, 1, 0, 0),
                          ("inner", 1, 1, 0, 0)]
    log.events.clear()
    assert port.call_target_func("f", [1]) == 7
    assert log.events == [("span", 1, 1, 1, 0),
                          ("checkpoint", 1, 1, 1, 0),
                          ("charge calls", 1, 1, 1, 0),
                          ("inner", 1, 1, 1, 0)]
    log.events.clear()
    assert port.alloc_target_space(8) == 0x1000
    assert log.events == [("checkpoint", 1, 1, 1, 1),
                          ("charge allocs", 1, 1, 1, 1),
                          ("inner", 1, 1, 1, 1)]


def test_cancelled_call_is_still_counted():
    log = Log()
    governor = ResourceGovernor()
    port = TargetPort(Inner(log), governor)
    port.tracer = Spans(log)
    log.port = port
    governor.token.trip()
    with pytest.raises(DuelCancelled):
        port.call_target_func("f", [])
    assert port.calls == 1
    assert governor.calls == 0
    assert [event[0] for event in log.events] == ["span"]


def test_untraced_port_counts_and_delegates():
    log = Log()
    port = TargetPort(Inner(log), Governor(log))
    log.port = port
    port.get_target_bytes(0, 4)
    port.put_target_bytes(0, b"x")
    assert (port.reads, port.writes) == (1, 1)
    assert [event[0] for event in log.events] == ["inner", "inner"]
    assert port.frames_count() == 3


def test_evaluator_puts_exactly_one_port_before_its_backend():
    backend = SimulatorBackend(TargetProgram())
    evaluator = Evaluator(backend)
    assert type(evaluator.backend) is TargetPort
    assert evaluator.backend.inner is backend
    assert evaluator.backend.governor is evaluator.governor
