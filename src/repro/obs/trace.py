"""Per-query execution tracing for the generator engines.

A traced query records, for every AST node, a :class:`NodeSpan`
aggregate — how many times the node was *pulled* (asked for its next
value), how many values it *yielded*, the cumulative wall-clock spent
inside it (inclusive of its children, measured with
``time.perf_counter_ns``), and the target traffic (reads, writes,
calls) attributed to it — plus, optionally, the full ordered stream of
``pull``/``yield`` events delivered to a :class:`TraceSink`.

Hot-path discipline (same as the governor's): with tracing *off* the
only cost is one predicate check per node activation in
``Evaluator.eval`` / ``StateMachineEvaluator.eval`` and one per target
read in ``TargetPort`` (bench-verified ≤5% on the P3 workload by
``benchmarks/bench_trace.py``).  With tracing *on*, every pull pays
two ``perf_counter_ns`` calls and a stack push/pop.

Both evaluation engines funnel through the same :class:`QueryTracer`:
the generator engine wraps each node's iterator
(:meth:`QueryTracer.wrap`), the paper's state-machine engine brackets
each ``eval`` call (:meth:`QueryTracer.enter` /
:meth:`QueryTracer.exit_yield` / :meth:`QueryTracer.exit_end`).  The
two instrumentation points are placed so that **the engines emit
identical event sequences for the same query** — checked by the
parity property tests in ``tests/property/test_engines.py``, which
makes the trace stream a correctness oracle for the state machine.

Trace JSON schema (one object per JSONL line):

``{"ev": "query", "q": N, "text": "...", "nodes": [{"i":, "op":, "label":}...]}``
    query header: the AST's nodes in preorder, ``i`` indexing them;
``{"ev": "pull", "q": N, "i": node}`` / ``{"ev": "yield", ...}``
    one line per pull/yield event, in execution order;
``{"ev": "span", "q": N, "i":, "op":, "label":, "depth":, "pulls":,
"yields":, "ns":, "reads":, "writes":, "calls":}``
    one line per node at query end: the final aggregates.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from time import perf_counter_ns
from typing import Iterator, Optional

from repro.core import nodes as N


class NodeSpan:
    """Aggregated execution profile of one AST node within one query."""

    __slots__ = ("index", "op", "label", "depth", "pulls", "yields",
                 "time_ns", "reads", "writes", "calls")

    def __init__(self, index: int, op: str, label: str, depth: int):
        self.index = index
        self.op = op
        self.label = label
        #: Static nesting depth in the AST (root = 0).
        self.depth = depth
        self.pulls = 0
        self.yields = 0
        #: Inclusive wall-clock nanoseconds (children included).
        self.time_ns = 0
        self.reads = 0
        self.writes = 0
        self.calls = 0

    def as_dict(self) -> dict:
        return {"i": self.index, "op": self.op, "label": self.label,
                "depth": self.depth, "pulls": self.pulls,
                "yields": self.yields, "ns": self.time_ns,
                "reads": self.reads, "writes": self.writes,
                "calls": self.calls}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<span {self.index} {self.label!r} pulls={self.pulls} "
                f"yields={self.yields} ns={self.time_ns}>")


def node_label(node: N.Node) -> str:
    """The node's short symbolic form, matching the sexpr notation."""
    extra = node._sexpr_extra()
    return f"{node.op} {extra}" if extra else node.op


class TraceSink:
    """Where trace events go.  Base class: drops everything."""

    def begin_query(self, text: str, spans: list) -> None:
        """A traced query is starting (``spans`` in preorder)."""

    def emit(self, kind: str, index: int) -> None:
        """One ``pull``/``yield`` event for node ``index``."""

    def end_query(self, spans: list) -> None:
        """The query finished; ``spans`` hold the final aggregates."""

    def flush(self) -> None:
        """Push buffered events to durable storage (file sinks)."""

    def close(self) -> None:
        """Release any resources (files) held by the sink."""


class RingBufferSink(TraceSink):
    """In-memory sink keeping the last ``capacity`` events.

    The ring bounds memory for unbounded queries (``1..`` under
    ``trace on``): old events fall off the front, ``dropped`` counts
    them so consumers know the window is partial.

    Thread-safe: the length check, ``dropped`` increment and append
    must be one atomic step (two tracers sharing a sink would
    under-count drops and interleave half-recorded state), and
    :meth:`snapshot` copies under the same lock so a reader racing
    live emits never sees the deque mid-rotation.
    """

    def __init__(self, capacity: int = 65536):
        self.capacity = capacity
        self.events: deque[tuple[str, int]] = deque(maxlen=capacity)
        self.dropped = 0
        self.queries = 0
        self._lock = threading.Lock()

    def begin_query(self, text: str, spans: list) -> None:
        with self._lock:
            self.queries += 1

    def emit(self, kind: str, index: int) -> None:
        with self._lock:
            if len(self.events) == self.capacity:
                self.dropped += 1
            self.events.append((kind, index))

    def snapshot(self) -> list[tuple[str, int]]:
        """A consistent copy of the buffered events."""
        with self._lock:
            return list(self.events)

    def clear(self) -> None:
        with self._lock:
            self.events.clear()
            self.dropped = 0


class JsonlSink(TraceSink):
    """Writes the trace as JSON-lines (the ``--trace-json`` exporter).

    Accepts any writable text stream; :meth:`close` only closes
    streams this sink opened itself (when given a path).
    ``fsync=True`` additionally fsyncs on every flush point, so the
    trace survives losing the machine, not just losing the process.
    """

    def __init__(self, stream_or_path, fsync: bool = False):
        if isinstance(stream_or_path, str):
            self._stream = open(stream_or_path, "w")
            self._owns = True
        else:
            self._stream = stream_or_path
            self._owns = False
        self._fsync = fsync
        self._query = 0

    def _flush(self) -> None:
        self._stream.flush()
        if self._fsync:
            try:
                import os
                os.fsync(self._stream.fileno())
            except (OSError, ValueError, AttributeError):
                pass               # in-memory streams have no fileno

    def begin_query(self, text: str, spans: list) -> None:
        self._query += 1
        nodes = [{"i": s.index, "op": s.op, "label": s.label}
                 for s in spans]
        self._write({"ev": "query", "q": self._query, "text": text,
                     "nodes": nodes})

    def emit(self, kind: str, index: int) -> None:
        self._write({"ev": kind, "q": self._query, "i": index})

    def end_query(self, spans: list) -> None:
        for span in spans:
            record = {"ev": "span", "q": self._query}
            record.update(span.as_dict())
            self._write(record)
        self._flush()

    def _write(self, record: dict) -> None:
        self._stream.write(json.dumps(record) + "\n")

    def flush(self) -> None:
        self._flush()

    def close(self) -> None:
        """Flush, then close the stream if this sink opened it.

        ``end_query`` flushes after every query (and the tracer's
        ``finish`` runs in the drive's ``finally``, interrupts
        included), so even a query aborted by ^C leaves its records on
        disk; close is belt-and-braces for session teardown.
        """
        self._flush()
        if self._owns:
            self._stream.close()


class QueryTracer:
    """Per-query span recorder + event emitter, shared by both engines.

    Life cycle: :meth:`begin` walks the AST assigning preorder indices
    and fresh spans; the engines then report pulls/yields through
    :meth:`wrap` (generator engine) or :meth:`enter`/``exit_*`` (state
    machine); :meth:`finish` flushes span aggregates to the sink.
    Target traffic lands on the innermost active span via
    :meth:`on_read`/:meth:`on_write`/:meth:`on_call`, fed by
    :class:`~repro.target.interface.TargetPort`.
    """

    __slots__ = ("sink", "spans", "_by_id", "_stack", "query_text")

    def __init__(self, sink: Optional[TraceSink] = None):
        self.sink = sink
        self.spans: list[NodeSpan] = []
        self._by_id: dict[int, NodeSpan] = {}
        self._stack: list[NodeSpan] = []
        self.query_text = ""

    # -- life cycle --------------------------------------------------------
    def begin(self, root: N.Node, text: str = "") -> None:
        """Assign preorder indices to ``root``'s tree and reset spans."""
        self.query_text = text
        self.spans = []
        self._by_id = {}
        self._stack = []
        self._register_tree(root, 0)
        if self.sink is not None:
            self.sink.begin_query(text, self.spans)

    def _register_tree(self, node: N.Node, depth: int) -> None:
        span = NodeSpan(len(self.spans), node.op, node_label(node), depth)
        self.spans.append(span)
        self._by_id[id(node)] = span
        for kid in node.kids:
            self._register_tree(kid, depth + 1)

    def finish(self) -> None:
        """Flush the final span aggregates to the sink."""
        if self.sink is not None:
            self.sink.end_query(self.spans)

    def span_for(self, node: N.Node) -> NodeSpan:
        """The node's span (registering stragglers deterministically)."""
        span = self._by_id.get(id(node))
        if span is None:
            # A node outside the registered tree (defensive): register
            # at first encounter — both engines meet nodes in the same
            # order, so parity is preserved.
            depth = len(self._stack)
            span = NodeSpan(len(self.spans), node.op, node_label(node),
                            depth)
            self.spans.append(span)
            self._by_id[id(node)] = span
        return span

    # -- generator engine --------------------------------------------------
    def wrap(self, node: N.Node, it: Iterator) -> Iterator:
        """Meter one activation of ``node``'s value iterator."""
        span = self.span_for(node)
        sink = self.sink
        stack = self._stack
        index = span.index
        while True:
            span.pulls += 1
            if sink is not None:
                sink.emit("pull", index)
            stack.append(span)
            t0 = perf_counter_ns()
            try:
                value = next(it)
            except StopIteration:
                span.time_ns += perf_counter_ns() - t0
                stack.pop()
                return
            except BaseException:
                span.time_ns += perf_counter_ns() - t0
                stack.pop()
                raise
            span.time_ns += perf_counter_ns() - t0
            stack.pop()
            span.yields += 1
            if sink is not None:
                sink.emit("yield", index)
            yield value

    # -- state-machine engine ----------------------------------------------
    def enter(self, node: N.Node) -> tuple[NodeSpan, int]:
        """One eval call (= one pull) of ``node`` is starting."""
        span = self.span_for(node)
        span.pulls += 1
        if self.sink is not None:
            self.sink.emit("pull", span.index)
        self._stack.append(span)
        return span, perf_counter_ns()

    def exit_yield(self, span: NodeSpan, t0: int) -> None:
        """The eval call produced a value."""
        span.time_ns += perf_counter_ns() - t0
        self._stack.pop()
        span.yields += 1
        if self.sink is not None:
            self.sink.emit("yield", span.index)

    def exit_end(self, span: NodeSpan, t0: int) -> None:
        """The eval call returned NOVALUE (sequence exhausted)."""
        span.time_ns += perf_counter_ns() - t0
        self._stack.pop()

    def exit_error(self, span: NodeSpan, t0: int) -> None:
        """The eval call raised; unwind like the generator wrapper."""
        span.time_ns += perf_counter_ns() - t0
        self._stack.pop()

    # -- target-traffic attribution ----------------------------------------
    def on_read(self) -> None:
        stack = self._stack
        if stack:
            stack[-1].reads += 1

    def on_write(self) -> None:
        stack = self._stack
        if stack:
            stack[-1].writes += 1

    def on_call(self) -> None:
        stack = self._stack
        if stack:
            stack[-1].calls += 1

    # -- reporting ---------------------------------------------------------
    def events(self) -> list[tuple[str, int]]:
        """The recorded event sequence (ring-buffer sinks only)."""
        if isinstance(self.sink, RingBufferSink):
            return self.sink.snapshot()
        return []

    def total_ns(self) -> int:
        """Inclusive nanoseconds of the root span (index 0)."""
        return self.spans[0].time_ns if self.spans else 0
