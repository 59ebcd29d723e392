"""Layer tracing installed from outside the program.

:func:`install` wraps the public entry points of each layer (the table
in ``README.md``) where their callers look them up: class
attributes for methods, and every ``repro`` module attribute bound to a
module-level function (``core.ops`` imports the ``ctype`` functions by
name, so patching ``repro.ctype.convert`` alone would miss those
calls).  Generator entry points are timed per resumption.

Each wrapped call is a span: name, start, end, parent span and query
id.  Spans of the first :attr:`LayerTracer.span_cap` calls are kept in
memory and written out at the end; every call also feeds exact per-
function counts, total time and self time (span time minus child
spans), kept per thread so the server's worker threads never contend.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter_ns

# Meters map a call's (args, result) to the extra quantity it adds
# (bytes moved); the wrapped callers pass these arguments positionally.
def _size_arg(args, result):
    return args[2]


def _data_arg(args, result):
    return len(args[2])


def _result_len(args, result):
    return len(result)


def _snapshot_bytes(args, result):
    return sum(len(region[3]) for region in result.regions)


def _restored_bytes(args, result):
    return sum(len(region[3]) for region in args[1].regions)


def _public_methods(cls):
    return [name for name, value in vars(cls).items()
            if inspect.isfunction(value) and not name.startswith("_")]


def layer_table():
    """(layer, module, class name or None, attribute, meter) rows."""
    from repro.core import symbolic

    rows = [
        ("core.parser", "repro.core.parser", "DuelParser", "parse", None),
        ("core.session", "repro.core.session", "DuelSession", "ievents",
         None),
        ("obs", "repro.obs.fingerprint", None, "fingerprint", None),
        ("obs", "repro.obs.statements", "StatementStats", "record", None),
        ("obs", "repro.obs.statements", "StatementStats", "record_phases",
         None),
        ("core.eval", "repro.core.eval", "Evaluator", "eval", None),
        ("core.format", "repro.core.format", "ValueFormatter", "format",
         None),
        ("target.memory", "repro.target.memory", "Memory", "read",
         _size_arg),
        ("target.memory", "repro.target.memory", "Memory", "write",
         _data_arg),
        ("target.snapshot", "repro.target.snapshot", None, "take",
         _snapshot_bytes),
        ("target.snapshot", "repro.target.snapshot", None, "restore",
         _restored_bytes),
        ("serve.sessions", "repro.serve.sessions", "ReadWriteLock",
         "acquire_read", None),
        ("serve.sessions", "repro.serve.sessions", "ReadWriteLock",
         "acquire_write", None),
        ("serve.sessions", "repro.serve.sessions", "SessionManager", "run",
         None),
        ("serve.protocol", "repro.serve.protocol", None, "encode",
         _result_len),
        ("serve.protocol", "repro.serve.protocol", None, "decode", None),
    ]
    from repro.core.ops import Apply
    rows += [("core.ops", "repro.core.ops", "Apply", name, None)
             for name in _public_methods(Apply)]
    rows += [("core.ops", "repro.core.values", "ValueOps", name, None)
             for name in ("load", "load_value", "store", "truthy")]
    rows += [("ctype", "repro.ctype.convert", None, name, None)
             for name in ("convert_value", "integer_promote",
                          "usual_arithmetic_conversions")]
    rows += [("ctype", "repro.ctype.encode", None, name, None)
             for name in ("encode_value", "decode_value")]
    rows += [("core.format", "repro.core.symbolic", cls.__name__, "render",
              None)
             for cls in vars(symbolic).values()
             if inspect.isclass(cls) and issubclass(cls, symbolic.Sym)
             and "render" in vars(cls)]
    from repro.target.interface import SimulatorBackend
    for name in _public_methods(SimulatorBackend):
        meter = _size_arg if name == "get_target_bytes" else None
        rows.append(("target.interface", "repro.target.interface",
                     "SimulatorBackend", name, meter))
    return rows


#: Entry points whose returned iterator is timed per resumption.
GENERATORS = {"DuelSession.ievents", "Evaluator.eval", "SessionManager.run"}
#: Entry points that start a query: each call gets a fresh query id,
#: which the spans of its resumptions (and their children) carry.
QUERY_ROOTS = {"SessionManager.run"}


class _ThreadState:
    __slots__ = ("stack", "agg", "spans", "epoch", "qid", "next_id")

    def __init__(self, epoch: int):
        self.stack = []
        self.agg = {}
        self.spans = []
        self.epoch = epoch
        self.qid = -1
        self.next_id = 0


class LayerTracer:
    """Span recorder and per-function aggregates for one process."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.epoch = 0
        self.layer_of: dict = {}
        self._local = threading.local()
        self._states: list = []
        self._lock = threading.Lock()
        self._span_count = 0
        self._query_ids = itertools.count()

    # -- per-thread state -------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(self.epoch)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        self._sync(state)
        return state

    def _sync(self, state: _ThreadState) -> None:
        """Drop what ``state`` recorded before the last :meth:`reset`."""
        if state.epoch != self.epoch:
            state.agg = {}
            state.spans = []
            state.epoch = self.epoch

    def reset(self) -> None:
        """Forget everything recorded so far (end of warm-up)."""
        with self._lock:
            self.epoch += 1
            self._span_count = 0

    def set_query(self, qid: int) -> None:
        self._state().qid = qid

    # -- recording ----------------------------------------------------------
    def _push(self, state: _ThreadState) -> list:
        stack = state.stack
        parent = stack[-1][2] if stack else -1
        state.next_id += 1
        frame = [perf_counter_ns(), 0, state.next_id, parent]
        stack.append(frame)
        return frame

    def _pop(self, state: _ThreadState, name: str, frame: list,
             extra: int = 0, step: bool = False) -> None:
        end = perf_counter_ns()
        stack = state.stack
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        self._sync(state)
        entry = state.agg.get(name)
        if entry is None:
            entry = state.agg[name] = [0, 0, 0, 0, 0]
        if step:
            entry[4] += 1
        else:
            entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        entry[3] += extra
        if self._span_count < self.span_cap:
            self._span_count += 1
            state.spans.append((name, frame[0], end, frame[2], frame[3],
                                state.qid))

    def wrap_call(self, name: str, fn, meter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            frame = tracer._push(state)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._pop(state, name, frame)
                raise
            tracer._pop(state, name, frame,
                        meter(args, result) if meter is not None else 0)
            return result
        traced.__wrapped_by_perfbench__ = True
        return traced

    def wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            frame = tracer._push(state)
            try:
                iterator = fn(*args, **kwargs)
            finally:
                tracer._pop(state, name, frame)
            qid = next(tracer._query_ids) if name in QUERY_ROOTS else None
            return tracer._resumptions(name, iterator, qid)
        traced.__wrapped_by_perfbench__ = True
        return traced

    def _resumptions(self, name: str, iterator, qid=None):
        thrown = None
        try:
            while True:
                state = self._state()
                if qid is not None:
                    state.qid = qid
                frame = self._push(state)
                try:
                    if thrown is not None:
                        error, thrown = thrown, None
                        value = iterator.throw(error)
                    else:
                        value = next(iterator)
                except StopIteration:
                    self._pop(state, name, frame, step=True)
                    return
                except BaseException:
                    self._pop(state, name, frame, step=True)
                    raise
                self._pop(state, name, frame, step=True)
                try:
                    yield value
                except GeneratorExit:
                    raise
                except BaseException as error:
                    thrown = error
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # -- results ------------------------------------------------------------
    def aggregates(self) -> dict:
        """name -> [calls, total_ns, self_ns, extra, resumptions]."""
        merged: dict = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            if state.epoch != self.epoch:
                continue
            for name, entry in list(state.agg.items()):
                into = merged.setdefault(name, [0, 0, 0, 0, 0])
                for i, value in enumerate(entry):
                    into[i] += value
        return merged

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        with self._lock:
            states = list(self._states)
        written = 0
        with open(path, "w") as out:
            for thread, state in enumerate(states):
                if state.epoch != self.epoch:
                    continue
                for name, start, end, span, parent, qid in state.spans:
                    out.write(json.dumps({
                        "name": name, "start_ns": start, "end_ns": end,
                        "span": f"{thread}.{span}",
                        "parent": f"{thread}.{parent}" if parent >= 0
                        else None,
                        "query": qid}) + "\n")
                    written += 1
        return written


def install(tracer: LayerTracer) -> None:
    """Wrap every row of :func:`layer_table` in place.

    Import every layer first, then replace each original both on its
    owner and on any ``repro`` module that bound it by name.
    """
    import importlib

    for module in ("repro.core.session", "repro.serve.server",
                   "repro.serve.client", "repro.obs.statements",
                   "repro.obs.fingerprint", "repro.target.snapshot",
                   "repro.cli"):
        importlib.import_module(module)
    for layer, module_name, owner_name, attribute, meter in layer_table():
        module = sys.modules[module_name]
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner)[attribute] if owner_name \
            else getattr(module, attribute)
        if getattr(original, "__wrapped_by_perfbench__", False):
            continue
        name = f"{owner_name}.{attribute}" if owner_name \
            else f"{module_name.rsplit('.', 1)[1]}.{attribute}"
        tracer.layer_of[name] = layer
        if name in GENERATORS:
            wrapper = tracer.wrap_generator(name, original)
        else:
            wrapper = tracer.wrap_call(name, original, meter)
        if owner_name:
            setattr(owner, attribute, wrapper)
            continue
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") \
                    and getattr(other, attribute, None) is original:
                setattr(other, attribute, wrapper)
